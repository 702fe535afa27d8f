"""End-to-end orchestration: retrieval, filtering, generation, batch runs
and evaluation. The alignment tool and its hit rows belong to `homology`.

Each processed record leaves a replayable trace (its hits, the pool snapshot
after every stage that ran, the rendered context, prompt, and answer) as a
canonical JSON artifact, the one file a batch writes per record. A batch
writes its records' stage timings once, to `timings.json`, so artifacts stay
byte-identical across reruns of the same configuration. Batch runs are
resumable: a record is skipped when its artifact already exists with its
record id, the current config digest and no stage error. Artifacts are written
and read through `atomic`: the resume check runs again a record whose artifact
is not a UTF-8 JSON object, and `run_eval` refuses it, naming the file.
"""

from __future__ import annotations

import json
import logging
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from . import __version__
from .annotations import AnnotationIndex
from .atomic import dump_json, read_json_object, write_atomic
from .config import MODE_STAGES, PipelineConfig, default_provenance
from .denoise import render_context, vertical_filter
from .gateway import Gateway
from .homology import (
    EvidencePool,
    HomologHit,
    Stage,
    assemble_raw_pool,
    check_residues,
    load_hits,
    rank_and_select,
)
from .metrics import EntityLexicon, aggregate, render_table, rows_to_jsonl, score_record
from .tag_filter import (
    DISTILL_PER_TYPE,
    FilterModel,
    build_distillation_set,
    make_query_context,
    segment_ig,
    snippet_document,
    split_fragments,
    gate,
)

logger = logging.getLogger(__name__)

NO_EVIDENCE_NOTE = "(no evidence retrieved)"
_SAFE_ID_RE = re.compile(r"[^A-Za-z0-9._\-]")


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class QARecord:
    id: str
    instruction: str
    sequence: str
    task: str
    instruction_type: str
    answer: Optional[str] = None

    def __post_init__(self):
        if not self.instruction.strip():
            raise ValueError(f"record {self.id!r}: instruction is empty")
        if not self.sequence:
            raise ValueError(f"record {self.id!r}: sequence is empty")
        check_residues(self.sequence, f"record {self.id!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "QARecord":
        if not isinstance(d, dict):
            raise ValueError(f"record must be a JSON object, got {type(d).__name__}")
        missing = [k for k in ("id", "instruction", "sequence", "task", "instruction_type") if k not in d]
        if missing:
            raise ValueError(f"record missing fields {missing}")
        for key in ("instruction", "sequence", "task", "instruction_type", "answer"):
            value = d.get(key)
            if not (isinstance(value, str) or (key == "answer" and value is None)):
                raise ValueError(
                    f"record {str(d['id'])!r}: {key} must be a string, got {type(value).__name__}")
        return cls(
            id=str(d["id"]),
            instruction=d["instruction"],
            sequence=d["sequence"],
            task=d["task"],
            instruction_type=d["instruction_type"],
            answer=d.get("answer"),
        )


def read_dataset(path: str | Path, bad_lines: Optional[list] = None) -> list[QARecord]:
    """Read a JSONL dataset, skipping blank lines. A malformed line, one that
    is not UTF-8 too, raises `DatasetError`; if `bad_lines` is given, its (id
    or `line-<n>`, error) is appended there instead and reading goes on."""
    records = []
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            data = None
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                data = json.loads(line)
                records.append(QARecord.from_dict(data))
            except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError among them
                if bad_lines is None:
                    raise DatasetError(f"{path}:{line_no}: {exc}") from exc
                ident = f"line-{line_no}"
                if isinstance(data, dict):
                    ident = data.get("id", ident)
                bad_lines.append((str(ident), str(exc)))
    return records


def build_prompt(record: QARecord, context: str) -> str:
    """Frozen generation prompt; the no-evidence note replaces an empty context."""
    evidence = context if context else NO_EVIDENCE_NOTE
    return (
        "You are given a protein sequence and a question about it.\n"
        f"Instruction: {record.instruction}\n"
        f"Sequence: {record.sequence}\n"
        "Evidence:\n"
        f"{evidence}\n"
        "Answer:"
    )


@dataclass
class RunArtifact:
    record_id: str
    task: str
    instruction_type: str
    mode: str
    seed: int
    config_digest: str
    code_version: str
    hits: list = field(default_factory=list)            # all parsed hits, input order
    selected_hits: list = field(default_factory=list)   # ranked survivors
    pools: dict = field(default_factory=dict)           # stage name -> pool dict
    context: str = ""
    prompt: str = ""
    answer: Optional[str] = None
    reference: Optional[str] = None
    warnings: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)         # volatile; batch timings.json only

    def to_dict(self) -> dict:
        return {
            "record_id": self.record_id,
            "task": self.task,
            "instruction_type": self.instruction_type,
            "mode": self.mode,
            "seed": self.seed,
            "config_digest": self.config_digest,
            "code_version": self.code_version,
            "hits": [h.to_dict() for h in self.hits],
            "selected_hits": [h.to_dict() for h in self.selected_hits],
            "pools": self.pools,
            "context": self.context,
            "prompt": self.prompt,
            "answer": self.answer,
            "reference": self.reference,
            "warnings": self.warnings,
            "errors": self.errors,
        }

    def canonical_json(self) -> str:
        return dump_json(self.to_dict())


def replay_context(artifact: dict) -> str:
    """Re-render the final context from the stored pool snapshots alone."""
    pools = artifact.get("pools", {})
    for stage_name in ("vertical", "horizontal", "raw"):
        if stage_name in pools:
            return render_context(EvidencePool.from_dict(pools[stage_name]))
    return ""


def artifact_path(directory: Path, record_id: str) -> Path:
    """Where a record's artifact lives: `<directory>/<id>.json`, with each
    character of the id outside `[A-Za-z0-9._-]` replaced by `_`."""
    return directory / f"{_SAFE_ID_RE.sub('_', record_id)}.json"


def write_artifact(directory: Path, artifact: RunArtifact) -> None:
    """Write the artifact's canonical JSON to its `artifact_path` under directory."""
    write_atomic(artifact_path(directory, artifact.record_id), artifact.canonical_json().encode())


def _is_done(directory: Path, record_id: str, digest: str) -> bool:
    """Whether the record's artifact under directory is readable and was made
    for this record under the config digest with no stage error, so a record
    that failed, or whose file holds another record, is run again."""
    try:
        existing = read_json_object(artifact_path(directory, record_id))
    except (OSError, ValueError):
        return False
    return (existing.get("record_id") == record_id and existing.get("config_digest") == digest
            and not existing.get("errors"))


def _drop_shared_names(records: list[QARecord], directory: Path,
                       bad_lines: list) -> list[QARecord]:
    """The records whose artifact name no earlier record took. Each later one
    is a malformed line: its (id, reason naming the first record) goes to
    bad_lines."""
    owners: dict[Path, str] = {}
    kept = []
    for record in records:
        path = artifact_path(directory, record.id)
        if path in owners:
            bad_lines.append((record.id, f"artifact {path.name} is taken by record "
                                         f"{owners[path]!r}"))
        else:
            owners[path] = record.id
            kept.append(record)
    return kept


def _batch_workers(config: PipelineConfig) -> int:
    """Threads for `run_batch`: the largest `max_in_flight` of remote backends the mode calls."""
    used = [config.generator]
    if "vertical" in MODE_STAGES[config.mode]:
        used.append(config.embedder)
    return max((b.max_in_flight for b in used if not b.endpoint.startswith("mock:")), default=1)


def _sum_pulled(fn: Callable[[QARecord], int], records: Iterable[QARecord], workers: int) -> int:
    """The sum of fn over records on the calling thread and `workers - 1` helpers, each taking
    the next record as soon as it is free. After a record raises or a helper cannot start, no
    thread takes another; the running ones finish and the first exception escapes."""
    pending = iter(records)
    lock = threading.Lock()
    errors: list[BaseException] = []
    totals: list[int] = []

    def take() -> Optional[QARecord]:
        with lock:
            return None if errors else next(pending, None)

    def pull() -> None:
        try:
            totals.append(sum(map(fn, iter(take, None))))
        except BaseException as exc:  # the calling thread raises the first one
            errors.append(exc)

    helpers = []
    try:
        for _ in range(workers - 1):
            helper = threading.Thread(target=pull)
            helper.start()
            helpers.append(helper)
    except BaseException as exc:  # the helpers started stop after their current record
        errors.append(exc)
    pull()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    return sum(totals)


@contextmanager
def _stage(artifact: RunArtifact, name: str):
    """Time one stage of a record into `artifact.timings`. An exception the
    stage raises becomes an `errors` entry and the record goes on to its
    next stage."""
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:
        artifact.errors.append({"stage": name, "error": f"{type(exc).__name__}: {exc}"})
    finally:
        artifact.timings[name] = time.perf_counter() - t0


class Pipeline:
    """Loads the shared resources for a config and executes queries."""

    def __init__(self, config: PipelineConfig, transport=None):
        config.validate_for_mode()
        self.config = config
        self.digest = config.digest()
        self.gateway = Gateway(cache_dir=config.paths.cache_dir, transport=transport)
        self.index: Optional[AnnotationIndex] = None
        if config.paths.index_dir:
            self.index = AnnotationIndex.load(config.paths.index_dir)
        self.filter_model: Optional[FilterModel] = None
        if config.needs_filter_model():
            self.filter_model = FilterModel.load(config.paths.filter_model)
        self.hits_by_query = load_hits(config.paths.hits) if config.paths.hits else {}

    # -- single query --------------------------------------------------------

    def run_query(self, record: QARecord) -> RunArtifact:
        cfg = self.config
        artifact = RunArtifact(
            record_id=record.id,
            task=record.task,
            instruction_type=record.instruction_type,
            mode=cfg.mode,
            seed=cfg.seed,
            config_digest=self.digest,
            code_version=__version__,
            reference=record.answer,
        )
        hits = self.hits_by_query.get(record.id, [])
        artifact.hits = list(hits)
        pool = EvidencePool(stage=Stage.RAW, homologs=())
        with _stage(artifact, "retrieval"):
            selected = rank_and_select(hits, cfg.retrieval, query_length=len(record.sequence))
            artifact.selected_hits = selected
            if selected:
                if self.index is None:
                    raise RuntimeError("no annotation index configured (paths.index_dir)")
                pool = assemble_raw_pool(selected, self.index, cfg.retrieval.resolve_go)
        artifact.pools["raw"] = pool.to_dict()  # the empty pool when retrieval failed
        artifact.warnings.extend(pool.warnings)

        for name in MODE_STAGES[cfg.mode]:
            with _stage(artifact, name):
                if name == "horizontal":
                    pool = gate(pool, self.filter_model, record.instruction)
                else:
                    pool, artifact.context, warnings = vertical_filter(
                        pool, self.gateway.embedder_handle(cfg.embedder), cfg.denoise)
                    artifact.warnings.extend(warnings)
                artifact.pools[name] = pool.to_dict()
        if "vertical" not in artifact.pools:  # no vertical stage rendered the final pool
            artifact.context = render_context(pool)

        with _stage(artifact, "generation"):
            artifact.prompt = build_prompt(record, artifact.context)
            artifact.answer = self.gateway.generate(cfg.generator, artifact.prompt, cfg.generation)
        return artifact

    # -- batch ----------------------------------------------------------------

    def run_batch(self, dataset_path: str | Path, out_dir: str | Path) -> dict:
        out = Path(out_dir)
        artifacts_dir = out / "artifacts"
        artifacts_dir.mkdir(parents=True, exist_ok=True)

        bad_lines: list[tuple[str, str]] = []
        records = _drop_shared_names(read_dataset(dataset_path, bad_lines), artifacts_dir,
                                     bad_lines)
        for ident, error in bad_lines:
            logger.warning("skipping malformed record %s: %s", ident, error)
        todo = [r for r in records if not _is_done(artifacts_dir, r.id, self.digest)]
        skipped_existing = len(records) - len(todo)
        timings: dict[str, dict] = {}
        unwritten: list[str] = []

        def _one(record: QARecord) -> int:
            artifact = self.run_query(record)
            timings[record.id] = artifact.timings
            try:
                write_artifact(artifacts_dir, artifact)
            except OSError as exc:  # this record's failure, not the batch's
                logger.error("could not write the artifact of record %s: %s", record.id, exc)
                unwritten.append(record.id)
                return 1
            return 1 if artifact.errors else 0

        failures = _sum_pulled(_one, todo, _batch_workers(self.config))
        write_atomic(out / "timings.json", dump_json(timings).encode())

        summary = {
            "config_digest": self.digest,
            "mode": self.config.mode,
            "seed": self.config.seed,
            "defaults": default_provenance(),
            "total_lines": len(records) + len(bad_lines),
            "processed": len(todo),
            "skipped_existing": skipped_existing,
            "skipped_malformed": sorted(ident for ident, _ in bad_lines),
            "records_with_errors": failures,
        }
        if unwritten:  # only then, so a fault-free summary keeps its bytes
            summary["unwritten"] = sorted(unwritten)
        write_atomic(out / "summary.json", dump_json(summary).encode())
        return summary


def run_eval(
    artifact_dir: str | Path,
    lexicon: EntityLexicon,
    out_prefix: Optional[str | Path] = None,
) -> list:
    """Score every artifact against its stored reference, grouped by task."""
    artifact_dir = Path(artifact_dir)
    if (artifact_dir / "artifacts").is_dir():
        artifact_dir = artifact_dir / "artifacts"
    candidates = sorted(artifact_dir.glob("*.json"))
    if not candidates:
        raise FileNotFoundError(f"no artifacts found under {artifact_dir}")
    rows = []
    missing_reference = 0
    for path in candidates:
        data = read_json_object(path)
        if "record_id" not in data:
            continue
        reference = data.get("reference")
        if not reference:
            missing_reference += 1
            continue
        candidate = data.get("answer") or ""
        rows.append({
            "id": data["record_id"],
            "task": data.get("task", "unknown"),
            "scores": score_record(candidate, reference, lexicon),
        })
    if not rows:
        raise ValueError(
            f"no scorable artifacts under {artifact_dir} "
            f"({missing_reference} lacked references)"
        )
    table = aggregate(rows)
    if out_prefix is not None:
        out_prefix = Path(out_prefix)
        out_prefix.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(Path(f"{out_prefix}.jsonl"), rows_to_jsonl(table).encode("utf-8"))
        write_atomic(Path(f"{out_prefix}.txt"), (
            render_table(table) + f"\n\nexcluded (no reference): {missing_reference}\n"
        ).encode("utf-8"))
    return table


def label_dataset(
    config: PipelineConfig,
    records: Sequence[QARecord],
    index: AnnotationIndex,
    hits_by_query: dict[str, list[HomologHit]],
    gateway: Gateway,
    per_type: int = DISTILL_PER_TYPE,
):
    """Wire retrieval and the teacher scorer into distillation-set labeling.

    Each distinct scorer request is sent, and its confidence computed, once
    per record: the without-document leg depends only on (query context,
    fragment), so every snippet of a record shares it. A record with a
    blank answer labels nothing and is logged.
    """
    handle = gateway.scorer_handle(config.scorer)

    def label_record(record: QARecord) -> list[tuple[str, float]]:
        selected = rank_and_select(hits_by_query.get(record.id, []), config.retrieval,
                                   query_length=len(record.sequence))
        snippets = assemble_raw_pool(selected, index, config.retrieval.resolve_go).snippets()
        if not snippets:  # nothing to label, so a blank answer is never split
            return []
        if not record.answer.strip():
            logger.warning("labelling no snippet of record %s: its answer is blank", record.id)
            return []
        query_context = make_query_context(record.instruction, record.sequence)
        fragments = split_fragments(record.answer)
        confidences: dict[tuple[str, str], float] = {}  # this record's, by scorer request
        return [(s.tag, segment_ig(handle, query_context, snippet_document(s.tag, s.value),
                                   fragments, config.ig, confidences))
                for s in snippets]

    return build_distillation_set(
        records, label_record, per_type=per_type, tau=config.ig.tau, seed=config.seed,
    )
