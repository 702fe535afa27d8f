"""Swiss-Prot flat-file and GO term parsing, plus an offset-based accession index.

The parser turns one text record into structured annotation snippets:
every `CC   -!- <TOPIC>:` block becomes one (tag, value) snippet, `DR   GO;`
cross-references are collected, and DOMAIN/MOTIF/REGION feature lines become
snippets under the DOMAIN_MOTIF tag. Unknown CC topics are kept verbatim as
tags; deciding relevance is the filter's job, not the parser's.

The index is a sidecar file of (accession, byte offset, length) rows over the
source flat file, so lookups reparse straight from disk (an index keeps the
entries it is asked for repeatedly) and rebuilding is idempotent.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from .atomic import write_atomic

INDEX_FORMAT = "homorag-index/1"
GO_FORMAT = "homorag-go/1"

_ACCESSION_RE = re.compile(r"^[A-Z][A-Z0-9]{5}(?:[A-Z0-9]{4})?$")
_GO_ID_RE = re.compile(r"^GO:\d{7}$")
_ID_LINE_RE = re.compile(r"^ID\s+(\S+)\s+.*?(\d+)\s+AA\.?\s*$")
_DR_GO_RE = re.compile(r"^DR\s+GO;\s+(GO:\d{7});")
_NOTE_RE = re.compile(r'/note="([^"]*)"')

LOOKUP_CACHE_ENTRIES = 4096  # parsed entries an index keeps, and accessions it remembers

_FT_KEYS = {"DOMAIN", "MOTIF", "REGION"}
_GO_NAMESPACES = ("molecular_function", "biological_process", "cellular_component")


class ParseError(ValueError):
    """Malformed record; the message names the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class IndexBuildError(ValueError):
    pass


class AccessionNotFound(KeyError):
    pass


def normalize_tag(tag: str) -> str:
    """Canonical tag form: trimmed, uppercase, inner whitespace collapsed."""
    return " ".join(tag.strip().upper().split())


@dataclass(frozen=True)
class AnnotationSnippet:
    """One (attribute tag, description) evidence unit from a database entry."""

    tag: str
    value: str
    source_accession: str
    homolog_rank: Optional[int] = None

    def __post_init__(self):
        norm = normalize_tag(self.tag)
        if not norm:
            raise ValueError("snippet tag must be non-empty")
        object.__setattr__(self, "tag", norm)
        object.__setattr__(self, "value", self.value.strip())
        if not self.value:
            raise ValueError(f"snippet value for tag {norm!r} is empty")
        if self.homolog_rank is not None and self.homolog_rank < 1:
            raise ValueError(f"homolog_rank must be >= 1, got {self.homolog_rank}")

    def with_rank(self, rank: int) -> "AnnotationSnippet":
        """Copy stamped with a homolog rank; the other fields are already validated."""
        if rank < 1:
            raise ValueError(f"homolog_rank must be >= 1, got {rank}")
        ranked = object.__new__(type(self))
        ranked.__dict__.update(self.__dict__, homolog_rank=rank)
        return ranked

    def key(self) -> tuple:
        """Identity used for multiset comparisons across filtering stages."""
        return (self.tag, self.value, self.source_accession, self.homolog_rank)

    def to_dict(self) -> dict:
        return {
            "tag": self.tag,
            "value": self.value,
            "source_accession": self.source_accession,
            "homolog_rank": self.homolog_rank,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AnnotationSnippet":
        return cls(
            tag=d["tag"],
            value=d["value"],
            source_accession=d["source_accession"],
            homolog_rank=d.get("homolog_rank"),
        )


@dataclass(frozen=True)
class GoTerm:
    id: str
    name: str
    namespace: str

    def __post_init__(self):
        if not _GO_ID_RE.match(self.id):
            raise ValueError(f"malformed GO id {self.id!r}")
        if self.namespace not in _GO_NAMESPACES:
            raise ValueError(f"unknown GO namespace {self.namespace!r}")


@dataclass(frozen=True)
class ProteinEntry:
    accession: str
    secondary_accessions: tuple[str, ...]
    sequence_length: int
    snippets: tuple[AnnotationSnippet, ...]
    go_ids: tuple[str, ...]

    def __post_init__(self):
        if not _ACCESSION_RE.match(self.accession):
            raise ValueError(f"invalid accession {self.accession!r}")
        for s in self.snippets:
            if s.source_accession != self.accession:
                raise ValueError(
                    f"snippet attributed to {s.source_accession!r}, entry is {self.accession!r}"
                )


def _flush_cc(snippets: list, topic: Optional[str], parts: list, start_line: int, accession: str):
    if topic is None:
        return
    value = " ".join(p for p in parts if p)
    if not value.strip():
        raise ParseError(f"CC block {topic!r} has no text", start_line)
    snippets.append(AnnotationSnippet(tag=topic, value=value, source_accession=accession))


def _flush_ft(snippets: list, key: Optional[str], loc: str, extras: list, accession: str):
    if key is None:
        return
    joined = " ".join(extras)
    note = _NOTE_RE.search(joined)
    value = f"{key} {loc}".strip()
    if note and note.group(1).strip():
        value = f"{value}: {note.group(1).strip()}"
    snippets.append(AnnotationSnippet(tag="DOMAIN_MOTIF", value=value, source_accession=accession))


def parse_entry(record_text: str, line_offset: int = 0) -> ProteinEntry:
    """Parse one flat-file record (text up to and including its '//' line).

    Multi-line CC values are joined with single spaces; evidence citations
    inside values are kept verbatim.
    """
    lines = record_text.splitlines()
    first_line = line_offset + 1

    id_line_no = None
    sequence_length = None
    for i, line in enumerate(lines):
        if line.startswith("ID"):
            m = _ID_LINE_RE.match(line)
            if not m:
                raise ParseError(f"malformed ID line: {line!r}", line_offset + i + 1)
            id_line_no = line_offset + i + 1
            sequence_length = int(m.group(2))
            break
    if id_line_no is None:
        raise ParseError("missing ID line", first_line)

    accessions: list[str] = []
    for i, line in enumerate(lines):
        if line.startswith("AC   "):
            for tok in line[5:].split(";"):
                tok = tok.strip()
                if not tok:
                    continue
                if not _ACCESSION_RE.match(tok):
                    raise ParseError(f"invalid accession token {tok!r}", line_offset + i + 1)
                accessions.append(tok)
    if not accessions:
        raise ParseError("missing AC line", first_line)
    primary, secondary = accessions[0], tuple(accessions[1:])

    snippets: list[AnnotationSnippet] = []
    go_ids: list[str] = []

    cc_topic: Optional[str] = None
    cc_parts: list[str] = []
    cc_start = 0
    ft_key: Optional[str] = None
    ft_loc = ""
    ft_extras: list[str] = []

    for i, line in enumerate(lines):
        n = line_offset + i + 1
        if line.startswith("CC   "):
            body = line[5:]
            if body.startswith("-!- "):
                _flush_cc(snippets, cc_topic, cc_parts, cc_start, primary)
                topic, sep, rest = body[4:].partition(":")
                if not sep:
                    raise ParseError(f"CC topic line without ':': {line!r}", n)
                cc_topic = normalize_tag(topic)
                cc_parts = [rest.strip()] if rest.strip() else []
                cc_start = n
            elif body.startswith("---"):
                # copyright footer, not annotation text
                _flush_cc(snippets, cc_topic, cc_parts, cc_start, primary)
                cc_topic = None
            elif cc_topic is not None:
                cc_parts.append(body.strip())
            continue
        _flush_cc(snippets, cc_topic, cc_parts, cc_start, primary)
        cc_topic = None

        if line.startswith("FT   "):
            body = line[5:]
            if body[:1] != " ":
                _flush_ft(snippets, ft_key, ft_loc, ft_extras, primary)
                ft_key = None
                parts = body.split(None, 1)
                key = parts[0].upper()
                if key in _FT_KEYS:
                    ft_key = key
                    ft_loc = parts[1].strip() if len(parts) > 1 else ""
                    ft_extras = []
            elif ft_key is not None:
                ft_extras.append(body.strip())
            continue
        _flush_ft(snippets, ft_key, ft_loc, ft_extras, primary)
        ft_key = None

        m = _DR_GO_RE.match(line)
        if m:
            go_ids.append(m.group(1))

    _flush_cc(snippets, cc_topic, cc_parts, cc_start, primary)
    _flush_ft(snippets, ft_key, ft_loc, ft_extras, primary)

    return ProteinEntry(
        accession=primary,
        secondary_accessions=secondary,
        sequence_length=sequence_length,
        snippets=tuple(snippets),
        go_ids=tuple(go_ids),
    )


def iter_raw_records(path: str | Path) -> Iterator[tuple[bytes, int, int, int]]:
    """Yield (record bytes, byte offset, byte length, 1-based start line) per record.

    A record runs from its first non-blank line through the terminating '//'
    line. Content after the final '//' that never terminates is an error.
    """
    offset = 0
    line_no = 0
    start: Optional[int] = None
    start_line = 0
    buf: list[bytes] = []
    with open(path, "rb") as fh:
        for raw in fh:
            line_no += 1
            if start is None:
                if raw.strip():
                    start = offset
                    start_line = line_no
                    buf = [raw]
            else:
                buf.append(raw)
            if start is not None and raw.startswith(b"//"):
                length = offset + len(raw) - start
                yield b"".join(buf), start, length, start_line
                start = None
            offset += len(raw)
    if start is not None:
        raise ParseError("truncated final record (no terminating '//')", start_line)


def parse_go_file(path: str | Path) -> dict[str, GoTerm]:
    """Parse OBO-style [Term] stanzas into an id -> GoTerm mapping."""
    terms: dict[str, GoTerm] = {}
    current: Optional[dict] = None

    def flush(stanza: Optional[dict]):
        if not stanza:
            return
        if {"id", "name", "namespace"} <= stanza.keys():
            term = GoTerm(id=stanza["id"], name=stanza["name"], namespace=stanza["namespace"])
            terms[term.id] = term

    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line == "[Term]":
                flush(current)
                current = {}
            elif line.startswith("["):
                flush(current)
                current = None
            elif current is not None and ":" in line:
                key, _, val = line.partition(":")
                key = key.strip()
                if key in ("id", "name", "namespace"):
                    current[key] = val.strip()
    flush(current)
    return terms


@dataclass
class AnnotationIndex:
    """Accession -> (offset, length) into the flat file, plus the GO term map.

    Immutable after build. From an accession's second lookup on, its parsed
    entry, itself immutable, is kept and served without reading the flat
    file. At most LOOKUP_CACHE_ENTRIES entries are kept, oldest dropped
    first. An entry looked up only once is not kept: when no hit repeats, a
    kept entry would only add garbage-collector work (tail latency). Any
    number of concurrent readers is safe.
    """

    dat_path: str
    records: dict[str, tuple[int, int]]
    go_terms: dict[str, GoTerm] = field(default_factory=dict)
    record_count: int = 0
    _parsed: dict[str, ProteinEntry] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _seen: set[str] = field(default_factory=set, init=False, repr=False, compare=False)
    _parsed_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False)

    def lookup(self, accession: str) -> ProteinEntry:
        entry = self._parsed.get(accession)
        if entry is not None:
            return entry
        loc = self.records.get(accession)
        if loc is None:
            raise AccessionNotFound(accession)
        offset, length = loc
        with open(self.dat_path, "rb") as fh:
            fh.seek(offset)
            blob = fh.read(length)
        try:
            entry = parse_entry(blob.decode("utf-8"))
        except ParseError as exc:
            raise IndexBuildError(
                f"{self.dat_path}: entry {accession} at offset {offset}, length {length} "
                f"does not parse ({exc}); rebuild the index"
            ) from exc
        with self._parsed_lock:
            if accession in self._seen:
                if len(self._parsed) >= LOOKUP_CACHE_ENTRIES:
                    del self._parsed[next(iter(self._parsed))]
                self._parsed[accession] = entry
            else:
                if len(self._seen) >= LOOKUP_CACHE_ENTRIES:
                    self._seen.clear()
                self._seen.add(accession)
        return entry

    def resolve_go(self, go_id: str, source_accession: str = "") -> list[AnnotationSnippet]:
        """Best-effort GO supplement: unknown ids yield an empty list."""
        if not _GO_ID_RE.match(go_id):
            raise ValueError(f"malformed GO id {go_id!r}")
        term = self.go_terms.get(go_id)
        if term is None:
            return []
        return [
            AnnotationSnippet(
                tag=f"GO:{term.namespace.upper()}",
                value=term.name,
                source_accession=source_accession,
            )
        ]

    def save(self, out_dir: str | Path):
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        rows = [f"#{INDEX_FORMAT}\n#dat\t{self.dat_path}\n#count\t{self.record_count}\n"]
        for acc in sorted(self.records):
            offset, length = self.records[acc]
            rows.append(f"{acc}\t{offset}\t{length}\n")
        write_atomic(out / "records.tsv", "".join(rows).encode("utf-8"))
        rows = [f"#{GO_FORMAT}\n"]
        for gid in sorted(self.go_terms):
            term = self.go_terms[gid]
            rows.append(f"{term.id}\t{term.namespace}\t{term.name}\n")
        write_atomic(out / "go_terms.tsv", "".join(rows).encode("utf-8"))

    @classmethod
    def load(cls, index_dir: str | Path) -> "AnnotationIndex":
        """Read a saved index; a malformed row raises IndexBuildError naming path:line."""
        index_dir = Path(index_dir)
        records: dict[str, tuple[int, int]] = {}
        dat_path = ""
        count = 0
        path = index_dir / "records.tsv"
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if header != f"#{INDEX_FORMAT}":
                raise IndexBuildError(f"unsupported index format header {header!r}")
            for line_no, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                try:
                    if line.startswith("#dat\t"):
                        dat_path = line.split("\t", 1)[1]
                    elif line.startswith("#count\t"):
                        count = int(line.split("\t", 1)[1])
                    elif line:
                        acc, off, length = line.split("\t")
                        records[acc] = (int(off), int(length))
                except ValueError as exc:
                    raise IndexBuildError(f"{path}:{line_no}: malformed row {line!r}") from exc
        go_terms: dict[str, GoTerm] = {}
        path = index_dir / "go_terms.tsv"
        if path.exists():
            with open(path, "r", encoding="utf-8") as fh:
                header = fh.readline().rstrip("\n")
                if header != f"#{GO_FORMAT}":
                    raise IndexBuildError(f"unsupported GO format header {header!r}")
                for line_no, line in enumerate(fh, start=2):
                    line = line.rstrip("\n")
                    try:
                        if line:
                            gid, namespace, name = line.split("\t", 2)
                            go_terms[gid] = GoTerm(id=gid, name=name, namespace=namespace)
                    except ValueError as exc:
                        raise IndexBuildError(f"{path}:{line_no}: {exc}") from exc
        return cls(dat_path=dat_path, records=records, go_terms=go_terms, record_count=count)


def build_index(
    dat_path: str | Path,
    go_path: Optional[str | Path] = None,
    out_dir: Optional[str | Path] = None,
) -> AnnotationIndex:
    """Index every record of the flat file by primary and secondary accession.

    Duplicate accessions are an error (the message lists both offsets). The
    sidecar written to `out_dir` is deterministic: rebuilding over the same
    file yields byte-identical output.
    """
    dat_path = str(Path(dat_path).resolve())
    records: dict[str, tuple[int, int]] = {}
    count = 0
    for blob, offset, length, start_line in iter_raw_records(dat_path):
        entry = parse_entry(blob.decode("utf-8"), line_offset=start_line - 1)
        count += 1
        for acc in (entry.accession, *entry.secondary_accessions):
            if acc in records:
                raise IndexBuildError(
                    f"duplicate accession {acc!r}: records at offsets "
                    f"{records[acc][0]} and {offset}"
                )
            records[acc] = (offset, length)
    go_terms = parse_go_file(go_path) if go_path else {}
    index = AnnotationIndex(
        dat_path=dat_path, records=records, go_terms=go_terms, record_count=count
    )
    if out_dir is not None:
        index.save(out_dir)
    return index


def format_entry(entry: ProteinEntry) -> str:
    """Readable structured dump of one parsed entry (CLI `index lookup`)."""
    lines = [
        f"accession: {entry.accession}",
        f"secondary: {' '.join(entry.secondary_accessions) or '-'}",
        f"sequence_length: {entry.sequence_length}",
        f"go_ids: {' '.join(entry.go_ids) or '-'}",
        f"snippets ({len(entry.snippets)}):",
    ]
    for s in entry.snippets:
        lines.append(f"  [{s.tag}] {s.value}")
    return "\n".join(lines)
