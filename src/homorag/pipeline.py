"""End-to-end orchestration: retrieval, filtering, generation, batch runs,
evaluation, and the external alignment-tool invocation.

Each processed record leaves a replayable trace (its hits, the pool snapshot
after every stage that ran, the rendered context, prompt, and answer) as a
canonical JSON artifact. Timings go to a sidecar file so artifacts stay
byte-identical across reruns of the same configuration. Batch runs are
resumable: a record is skipped when its artifact already exists with the
current config digest and no stage error.
"""

from __future__ import annotations

import functools
import json
import logging
import re
import shutil
import subprocess
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Optional, Sequence

from . import __version__
from .annotations import AnnotationIndex
from .atomic import write_atomic
from .config import MODE_STAGES, PipelineConfig, default_provenance
from .denoise import render_context, vertical_filter
from .gateway import Gateway
from .homology import (
    AMINO_ALPHABET,
    EvidencePool,
    HITS_COLUMNS,
    HomologHit,
    Stage,
    assemble_raw_pool,
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

BLAST_OUTFMT = "6 " + " ".join(HITS_COLUMNS)


class DatasetError(ValueError):
    pass


class BlastInvocationError(RuntimeError):
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
        bad = set(self.sequence.upper()) - AMINO_ALPHABET
        if bad:
            raise ValueError(f"record {self.id!r}: invalid residues {sorted(bad)}")

    @classmethod
    def from_dict(cls, d: dict) -> "QARecord":
        if not isinstance(d, dict):
            raise ValueError(f"record must be a JSON object, got {type(d).__name__}")
        missing = [k for k in ("id", "instruction", "sequence", "task", "instruction_type") if k not in d]
        if missing:
            raise ValueError(f"record missing fields {missing}")
        return cls(
            id=str(d["id"]),
            instruction=d["instruction"],
            sequence=d["sequence"],
            task=d["task"],
            instruction_type=d["instruction_type"],
            answer=d.get("answer"),
        )


def read_dataset(path: str | Path, bad_lines: Optional[list] = None) -> list[QARecord]:
    """Read a JSONL dataset, skipping blank lines. A malformed line raises
    `DatasetError`; if `bad_lines` is given, its (id or `line-<n>`, error) is
    appended there instead and reading goes on."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            data = None
            try:
                data = json.loads(line)
                records.append(QARecord.from_dict(data))
            except (json.JSONDecodeError, ValueError) as exc:
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
    timings: dict = field(default_factory=dict)         # volatile; sidecar only

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
        return pretty_json(self.to_dict())


def replay_context(artifact: dict) -> str:
    """Re-render the final context from the stored pool snapshots alone."""
    pools = artifact.get("pools", {})
    for stage_name in ("vertical", "horizontal", "raw"):
        if stage_name in pools:
            return render_context(EvidencePool.from_dict(pools[stage_name]))
    return ""


def pretty_json(data: dict) -> str:
    """Sorted keys, indent 2: the layout of artifacts, timings, summaries and pools."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def safe_filename(record_id: str) -> str:
    return _SAFE_ID_RE.sub("_", record_id)


def _is_done(path: Path, digest: str) -> bool:
    """Whether path holds a readable artifact made under the config digest
    with no stage error, so a record that failed is run again."""
    try:
        existing = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        return False
    return (isinstance(existing, dict) and existing.get("config_digest") == digest
            and not existing.get("errors"))


def _batch_workers(config: PipelineConfig) -> int:
    """Threads for `run_batch`: they pay off only while queries wait on a
    remote backend, and the gateway lets `max_in_flight` requests through."""
    remote = [b.max_in_flight for b in (config.embedder, config.generator)
              if not b.endpoint.startswith("mock:")]
    return max(remote, default=1)


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
                    pool, _, warnings = vertical_filter(
                        pool, self.gateway.embedder_handle(cfg.embedder), cfg.denoise)
                    artifact.warnings.extend(warnings)
                artifact.pools[name] = pool.to_dict()
        artifact.context = render_context(pool)

        with _stage(artifact, "generation"):
            artifact.prompt = build_prompt(record, artifact.context)
            artifact.answer = self.gateway.generate(cfg.generator, artifact.prompt, cfg.generation)
        return artifact

    # -- batch ----------------------------------------------------------------

    def run_batch(self, dataset_path: str | Path, out_dir: str | Path) -> dict:
        out = Path(out_dir)
        artifacts_dir = out / "artifacts"
        timings_dir = out / "timings"
        artifacts_dir.mkdir(parents=True, exist_ok=True)
        timings_dir.mkdir(parents=True, exist_ok=True)

        bad_lines: list[tuple[str, str]] = []
        records = read_dataset(dataset_path, bad_lines)
        for ident, error in bad_lines:
            logger.warning("skipping malformed record %s: %s", ident, error)
        todo = [
            r for r in records
            if not _is_done(artifacts_dir / f"{safe_filename(r.id)}.json", self.digest)
        ]
        skipped_existing = len(records) - len(todo)

        def _one(record: QARecord) -> int:
            artifact = self.run_query(record)
            name = safe_filename(record.id)
            write_atomic(artifacts_dir / f"{name}.json", artifact.canonical_json().encode())
            write_atomic(timings_dir / f"{name}.json", pretty_json(artifact.timings).encode())
            return 1 if artifact.errors else 0

        with ThreadPoolExecutor(max_workers=_batch_workers(self.config)) as pool:
            failures = sum(pool.map(_one, todo))

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
        write_atomic(out / "summary.json", pretty_json(summary).encode())
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
        data = json.loads(path.read_text(encoding="utf-8"))
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
    table = aggregate(rows, grouping="task")
    if out_prefix is not None:
        out_prefix = Path(out_prefix)
        out_prefix.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(Path(f"{out_prefix}.jsonl"), rows_to_jsonl(table).encode("utf-8"))
        write_atomic(Path(f"{out_prefix}.txt"), (
            render_table(table) + f"\n\nexcluded (no reference): {missing_reference}\n"
        ).encode("utf-8"))
    return table


def run_blast(config: PipelineConfig, fasta_path: str | Path, out_path: str | Path) -> dict:
    """Invoke the external alignment binary with the required tabular columns.

    Returns run metadata including the exact command line. A missing binary
    is an instructive error pointing at the --hits bypass.
    """
    binary = config.blast.binary
    if not binary or not (Path(binary).exists() or shutil.which(binary)):
        raise BlastInvocationError(
            f"alignment binary {binary!r} not found; either install it and set "
            f"blast.binary, or bypass live search with --hits <precomputed tsv>"
        )
    if not config.blast.db:
        raise BlastInvocationError("blast.db is not configured")
    command = [
        binary,
        "-query", str(fasta_path),
        "-db", config.blast.db,
        "-outfmt", BLAST_OUTFMT,
        "-evalue", str(config.blast.evalue),
        "-max_target_seqs", str(config.blast.max_target_seqs),
        "-out", str(out_path),
    ]
    proc = subprocess.run(command, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BlastInvocationError(
            f"alignment run failed with exit code {proc.returncode}: {proc.stderr.strip()}"
        )
    return {"command": command, "returncode": proc.returncode, "out": str(out_path)}


def label_dataset(
    config: PipelineConfig,
    records: Sequence[QARecord],
    index: AnnotationIndex,
    hits_by_query: dict[str, list[HomologHit]],
    gateway: Gateway,
    per_type: int = DISTILL_PER_TYPE,
):
    """Wire retrieval and the teacher scorer into distillation-set labeling.

    Each distinct scorer request is sent once per record: the
    without-document leg depends only on (query context, fragment), so every
    snippet of a record shares it.
    """
    handle = gateway.scorer_handle(config.scorer)

    def label_record(record: QARecord) -> list[tuple[str, float]]:
        selected = rank_and_select(hits_by_query.get(record.id, []), config.retrieval,
                                   query_length=len(record.sequence))
        snippets = assemble_raw_pool(selected, index, config.retrieval.resolve_go).snippets()
        if not snippets:  # nothing to label, so a blank answer is never split
            return []
        scorer = SimpleNamespace(score_tokens=functools.cache(handle.score_tokens))
        query_context = make_query_context(record.instruction, record.sequence)
        fragments = split_fragments(record.answer)
        return [(s.tag, segment_ig(scorer, query_context, snippet_document(s.tag, s.value),
                                   fragments, config.ig))
                for s in snippets]

    return build_distillation_set(
        records, label_record, per_type=per_type, tau=config.ig.tau, seed=config.seed,
    )
