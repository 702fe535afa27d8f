"""Homolog hits: the query check, the alignment-tool run, the 7-column hit
rows it writes, ranking, exclusion filters, and assembly of the raw evidence
pool.

This module owns the contract with the external alignment tool: `run_blast`
requests the tabular columns `qseqid sseqid pident length nident evalue
bitscore` (nident is required by the self-hit exclusion rule, which the
default 12-column format cannot express), `parse_blast_tabular` reads those
rows and `format_hits` writes them.
"""

from __future__ import annotations

import enum
import math
import shutil
import subprocess
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, TYPE_CHECKING

from .annotations import AccessionNotFound, AnnotationSnippet
from .atomic import read_lines
from .config import RetrievalConfig

if TYPE_CHECKING:
    from .annotations import AnnotationIndex
    from .config import PipelineConfig

AMINO_ALPHABET = frozenset("ACDEFGHIKLMNPQRSTVWY" "BZXUO")

HITS_COLUMNS = ("qseqid", "sseqid", "pident", "length", "nident", "evalue", "bitscore")
BLAST_OUTFMT = "6 " + " ".join(HITS_COLUMNS)


class BlastParseError(ValueError):
    pass


class BlastInvocationError(RuntimeError):
    pass


def check_residues(sequence: str, owner: str) -> None:
    """Raise ValueError, prefixed by `owner`, when `sequence` holds residues
    (in either case) outside the amino-acid alphabet."""
    bad = set(sequence.upper()) - AMINO_ALPHABET
    if bad:
        raise ValueError(f"{owner}: invalid residues {sorted(bad)}")


@dataclass(frozen=True)
class HomologHit:
    """One alignment record; percent identity is cross-checked against
    nident/length to +-0.05 (the producing tool rounds to 2 decimals), and a
    non-finite identity, e-value or bitscore is refused."""

    query_id: str
    subject_accession: str
    percent_identity: float
    alignment_length: int
    identity_count: int
    e_value: float
    bitscore: float

    def __post_init__(self):
        for name in ("percent_identity", "e_value", "bitscore"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.alignment_length < 1:
            raise ValueError(f"alignment_length must be >= 1, got {self.alignment_length}")
        if not (0 <= self.identity_count <= self.alignment_length):
            raise ValueError(
                f"identity_count {self.identity_count} exceeds alignment_length "
                f"{self.alignment_length}"
            )
        if self.e_value < 0:
            raise ValueError(f"e_value must be >= 0, got {self.e_value}")
        implied = 100.0 * self.identity_count / self.alignment_length
        if abs(self.percent_identity - implied) > 0.05 + 1e-9:
            raise ValueError(
                f"percent_identity {self.percent_identity} inconsistent with "
                f"nident/length = {implied:.4f}"
            )

    def to_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "subject_accession": self.subject_accession,
            "percent_identity": self.percent_identity,
            "alignment_length": self.alignment_length,
            "identity_count": self.identity_count,
            "e_value": self.e_value,
            "bitscore": self.bitscore,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "HomologHit":
        return cls(**{k: d[k] for k in (
            "query_id", "subject_accession", "percent_identity",
            "alignment_length", "identity_count", "e_value", "bitscore",
        )})


def parse_blast_tabular(
    stream: Iterable[str], path: Optional[str | Path] = None,
) -> list[HomologHit]:
    """Parse 7-column tab-separated hit rows, preserving input order.

    Comment lines (leading '#') and blank lines are skipped; anything else
    malformed raises with its 1-based row number (`row N`, or `<path>:N`
    when the stream's path is given).
    """
    hits: list[HomologHit] = []
    for row_no, line in enumerate(stream, start=1):
        try:
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != 7:
                raise ValueError(f"expected 7 columns, got {len(cols)}")
            hit = HomologHit(
                query_id=cols[0],
                subject_accession=cols[1],
                percent_identity=float(cols[2]),
                alignment_length=int(cols[3]),
                identity_count=int(cols[4]),
                e_value=float(cols[5]),
                bitscore=float(cols[6]),
            )
        except ValueError as exc:
            where = f"row {row_no}" if path is None else f"{path}:{row_no}"
            raise BlastParseError(f"{where}: {exc}") from exc
        hits.append(hit)
    return hits


def format_hits(hits: Iterable[HomologHit]) -> str:
    """The 7-column rows of `hits`, one line each, that `parse_blast_tabular`
    reads back into equal hits."""
    return "".join(
        f"{h.query_id}\t{h.subject_accession}\t{h.percent_identity}\t{h.alignment_length}\t"
        f"{h.identity_count}\t{h.e_value}\t{h.bitscore}\n"
        for h in hits
    )


def load_hits(path: str | Path) -> dict[str, list[HomologHit]]:
    """Parse a hits file into each query id's hits, in input order."""
    by_query: dict[str, list[HomologHit]] = {}
    for hit in parse_blast_tabular((line for _, line in read_lines(path)), path):
        by_query.setdefault(hit.query_id, []).append(hit)
    return by_query


def exclude_self_hits(hits: list[HomologHit], query_length: int) -> list[HomologHit]:
    """Drop hits whose alignment length and identity count both equal the
    query length: those are the query itself leaking back out of the database."""
    if query_length <= 0:
        raise ValueError(f"query_length must be > 0, got {query_length}")
    return [
        h for h in hits
        if not (h.alignment_length == h.identity_count == query_length)
    ]


def apply_identity_ceiling(hits: list[HomologHit], ceiling: float) -> list[HomologHit]:
    """Drop hits strictly above the identity ceiling (fraction in (0, 1]).

    This approximates rebuilding the database under an identity threshold:
    only retrieved candidates matter downstream, so filtering hits is
    equivalent for this pipeline.
    """
    if not (0.0 < ceiling <= 1.0):
        raise ValueError(f"ceiling must be in (0, 1], got {ceiling}")
    return [h for h in hits if h.percent_identity / 100.0 <= ceiling]


def rank_and_select(
    hits: list[HomologHit],
    config: RetrievalConfig,
    query_length: Optional[int] = None,
) -> list[HomologHit]:
    """Apply exclusion filters, then return the top-k hits ordered by
    (e-value asc, bitscore desc, accession asc). Ties on significance are
    broken lexicographically so ranking is deterministic."""
    if not hits:
        return []
    query_ids = {h.query_id for h in hits}
    if len(query_ids) > 1:
        raise ValueError(f"hits span multiple query ids: {sorted(query_ids)}")
    survivors = list(hits)
    if config.exclude_self:
        if query_length is None:
            raise ValueError("query_length required when exclude_self is enabled")
        survivors = exclude_self_hits(survivors, query_length)
    if config.identity_ceiling is not None:
        survivors = apply_identity_ceiling(survivors, config.identity_ceiling)
    survivors.sort(key=lambda h: (h.e_value, -h.bitscore, h.subject_accession))
    return survivors[: config.top_k]


class Stage(str, enum.Enum):
    RAW = "RAW"
    HORIZONTAL = "HORIZONTAL"
    VERTICAL = "VERTICAL"


@dataclass(frozen=True)
class PoolHomolog:
    rank: int
    hit: HomologHit
    snippets: tuple[AnnotationSnippet, ...]

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "hit": self.hit.to_dict(),
            "snippets": [s.to_dict() for s in self.snippets],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PoolHomolog":
        rank = d["rank"]
        snippets = []
        for s in d["snippets"]:
            s = dict(s)
            if s.get("homolog_rank") is None:  # hand-written pools may omit it
                s["homolog_rank"] = rank
            snippets.append(AnnotationSnippet.from_dict(s))
        return cls(rank=rank, hit=HomologHit.from_dict(d["hit"]), snippets=tuple(snippets))


@dataclass(frozen=True)
class EvidencePool:
    """Ranked homologs with their snippets, at one filtering stage."""

    stage: Stage
    homologs: tuple[PoolHomolog, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        ranks = [h.rank for h in self.homologs]
        if ranks != list(range(1, len(ranks) + 1)):
            raise ValueError(f"homolog ranks must be contiguous 1..n, got {ranks}")
        for h in self.homologs:
            for s in h.snippets:
                if s.homolog_rank != h.rank:
                    raise ValueError(
                        f"snippet rank {s.homolog_rank} disagrees with slot rank {h.rank}"
                    )

    def snippets(self) -> list[AnnotationSnippet]:
        """All snippets flattened in (homolog rank, original order) order."""
        return [s for h in self.homologs for s in h.snippets]

    def snippet_multiset(self) -> Counter:
        return Counter(s.key() for s in self.snippets())

    def keep(self, stage: Stage, indices: Iterable[int]) -> "EvidencePool":
        """This pool at `stage` with only the snippets at the given positions
        in `snippets()`, in order. Every homolog slot stays in rank order, even
        when it ends up empty, and this pool's warnings carry over."""
        wanted = set(indices)
        homologs = []
        start = 0
        for h in self.homologs:
            kept = tuple(s for i, s in enumerate(h.snippets, start) if i in wanted)
            homologs.append(PoolHomolog(rank=h.rank, hit=h.hit, snippets=kept))
            start += len(h.snippets)
        return EvidencePool(stage=stage, homologs=tuple(homologs), warnings=self.warnings)

    def to_dict(self) -> dict:
        return {
            "stage": self.stage.value,
            "homologs": [h.to_dict() for h in self.homologs],
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvidencePool":
        return cls(
            stage=Stage(d["stage"]),
            homologs=tuple(PoolHomolog.from_dict(h) for h in d["homologs"]),
            warnings=tuple(d.get("warnings", ())),
        )


def assemble_raw_pool(
    top_hits: list[HomologHit],
    index: "AnnotationIndex",
    resolve_go: bool = True,
) -> EvidencePool:
    """Look up each ranked hit and collect its snippets into the raw pool.

    Hits whose accession is missing from the index are skipped with a
    recorded warning and the remaining homologs are renumbered contiguously.
    """
    homologs: list[PoolHomolog] = []
    warnings: list[str] = []
    for hit in top_hits:
        try:
            entry = index.lookup(hit.subject_accession)
        except AccessionNotFound:
            warnings.append(
                f"accession {hit.subject_accession} not found in index; homolog skipped"
            )
            continue
        snippets = list(entry.snippets)
        if resolve_go:
            for gid in entry.go_ids:
                snippets.extend(index.resolve_go(gid, source_accession=entry.accession))
        rank = len(homologs) + 1
        ranked = tuple(s.with_rank(rank) for s in snippets)
        homologs.append(PoolHomolog(rank=rank, hit=hit, snippets=ranked))
    return EvidencePool(stage=Stage.RAW, homologs=tuple(homologs), warnings=tuple(warnings))


def read_fasta_first(path: str) -> tuple[str, str]:
    """Return (id, sequence) of the first FASTA record in the file; a line
    that is not UTF-8, or a record without residues, raises ValueError naming
    the file."""
    header = None
    chunks: list[str] = []
    for _, line in read_lines(path):
        line = line.strip()
        if line.startswith(">"):
            if header is not None:
                break
            header = line[1:].split()[0] if line[1:].split() else ""
        elif header is not None and line:
            chunks.append(line)
    if header is None:
        raise ValueError(f"no FASTA record found in {path}")
    if not chunks:
        raise ValueError(f"{path}: query {header} has no residues")
    return header, "".join(chunks)


def run_blast(config: "PipelineConfig", fasta_path: str | Path, out_path: str | Path) -> dict:
    """Invoke the external alignment binary with the HITS_COLUMNS tabular format.

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
    proc = subprocess.run(command, capture_output=True, encoding="utf-8", errors="replace")
    if proc.returncode != 0:
        raise BlastInvocationError(
            f"alignment run failed with exit code {proc.returncode}: {proc.stderr.strip()}"
        )
    return {"command": command, "returncode": proc.returncode, "out": str(out_path)}
