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

from .atomic import FileReader, read_lines, write_atomic

INDEX_FORMAT = "homorag-index/1"
GO_FORMAT = "homorag-go/1"

_ACCESSION_RE = re.compile(r"^[A-Z][A-Z0-9]{5}(?:[A-Z0-9]{4})?$")
_GO_ID_RE = re.compile(r"^GO:\d{7}$")
_ID_LINE_RE = re.compile(r"^ID\s+(\S+)\s+.*?(\d+)\s+AA\.?\s*$")
_DR_GO_RE = re.compile(r"^DR\s+GO;\s+(GO:\d{7});")
_NOTE_RE = re.compile(r'/note="([^"]*)"')
# whole blank lines, then the blanks that open the next line; blank is what bytes.strip() drops
_BLANK_LINES = re.compile(rb"((?:[ \t\r\v\f]*\n)*)[ \t\r\v\f]*")

_BLOCK_SIZE = 1 << 16  # bytes read from the flat file at a time

LOOKUP_CACHE_ENTRIES = 4096  # parsed entries an index keeps, and accessions it remembers

_FT_KEYS = {"DOMAIN", "MOTIF", "REGION"}
_GO_NAMESPACES = ("molecular_function", "biological_process", "cellular_component")


class ParseError(ValueError):
    """Malformed input; the message names the line, as `path:line` when the file is known."""

    def __init__(self, message: str, line: int, path: Optional[str] = None):
        super().__init__(f"{path}:{line}: {message}" if path else f"line {line}: {message}")
        self.message, self.line = message, line


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


def _scan_entry(
    record_text: str, line_offset: int
) -> tuple[int, list[str], list[tuple[str, str]], list[str]]:
    """Check one flat-file record and return (sequence length, accessions,
    (tag, value) pairs, GO ids), raising the ParseError `parse_entry` would.

    One pass over the lines. A CC block ends at the next topic, the `CC   ---`
    footer or any non-CC line; an FT feature at the next feature key or any
    line that is neither FT nor CC. Pairs come out in the order their blocks
    end; multi-line CC values are joined with single spaces. The first faulty
    line raises ParseError; a missing ID or AC line only after that. Every
    pair makes a valid AnnotationSnippet, so building the entry cannot fail.
    """
    sequence_length: Optional[int] = None
    accessions: list[str] = []
    found: list[tuple[str, str]] = []  # (tag, value) in the order blocks end
    go_ids: list[str] = []
    topic: Optional[str] = None  # open CC block, as written: AnnotationSnippet normalises it
    cc_parts: list[str] = []
    cc_start = 0
    feature: Optional[str] = None  # open DOMAIN/MOTIF/REGION head, "<KEY> <location>"
    ft_extras: list[str] = []
    # the empty line after the last ends any block still open
    for n, line in enumerate([*record_text.splitlines(), ""], line_offset + 1):
        code, body = line[:5], line[5:]
        is_cc = code == "CC   "
        if is_cc and not body.startswith(("-!- ", "---")):
            if topic is not None:
                cc_parts.append(body.strip())
            continue
        if topic is not None:
            value = " ".join(filter(None, cc_parts))
            if not value:
                raise ParseError(f"CC block {normalize_tag(topic)!r} has no text", cc_start)
            found.append((topic, value))
            topic = None
        if is_cc:
            if body[:4] == "-!- ":  # else the copyright footer, not annotation text
                topic, sep, rest = body[4:].partition(":")
                if not sep:
                    raise ParseError(f"CC topic line without ':': {line!r}", n)
                if not topic.strip():
                    raise ParseError(f"CC topic line without a topic: {line!r}", n)
                cc_parts, cc_start = [rest.strip()], n
            continue
        is_ft = code == "FT   "
        if is_ft and body[:1] == " ":
            if feature is not None:
                ft_extras.append(body.strip())
            continue
        if feature is not None:
            note = _NOTE_RE.search(" ".join(ft_extras))
            if note and note.group(1).strip():
                feature = f"{feature}: {note.group(1).strip()}"
            found.append(("DOMAIN_MOTIF", feature))
            feature = None
        if is_ft:
            parts = body.split(None, 1)
            if not parts:
                raise ParseError(f"FT line without a feature key: {line!r}", n)
            key = parts[0].upper()
            if key in _FT_KEYS:
                feature = " ".join([key, *parts[1:]]).rstrip()
                ft_extras = []
        elif code == "AC   ":
            for tok in body.split(";"):
                tok = tok.strip()
                if not tok:
                    continue
                if not _ACCESSION_RE.match(tok):
                    raise ParseError(f"invalid accession token {tok!r}", n)
                accessions.append(tok)
        elif line[:2] == "ID" and sequence_length is None:  # later ID lines are ignored
            m = _ID_LINE_RE.match(line)
            if not m:
                raise ParseError(f"malformed ID line: {line!r}", n)
            sequence_length = int(m.group(2))
        elif line[:2] == "DR":
            m = _DR_GO_RE.match(line)
            if m:
                go_ids.append(m.group(1))
    if sequence_length is None:
        raise ParseError("missing ID line", line_offset + 1)
    if not accessions:
        raise ParseError("missing AC line", line_offset + 1)
    return sequence_length, accessions, found, go_ids


def parse_entry(record_text: str, line_offset: int = 0) -> ProteinEntry:
    """Parse one flat-file record (text up to and including its '//' line);
    `_scan_entry` says what is read and what is refused."""
    sequence_length, accessions, found, go_ids = _scan_entry(record_text, line_offset)
    primary = accessions[0]
    return ProteinEntry(
        accession=primary,
        secondary_accessions=tuple(accessions[1:]),
        sequence_length=sequence_length,
        snippets=tuple(AnnotationSnippet(tag, value, primary) for tag, value in found),
        go_ids=tuple(go_ids),
    )


def iter_raw_records(path: str | Path) -> Iterator[tuple[bytes, int, int, int]]:
    """Yield (record bytes, byte offset, byte length, 1-based start line) per record.

    A record runs from its first non-blank line through the terminating '//'
    line. Content after the final '//' that never terminates is an error.

    The file is read in _BLOCK_SIZE blocks into one growing buffer, and each
    search resumes where the last one stopped, so a record that spans many
    blocks is still read, searched and copied once.
    """
    buf = bytearray(b"\n")  # a line starts after each b"\n": this one stands before the file
    base = -1  # file offset of buf[0]
    start = scan = 1  # first line not yet yielded; where the pending search resumes
    line_no = 0  # lines before `start`
    in_record = False  # a non-blank line starts at `start`
    at_end_line = False  # `scan` is inside the record's '//' line
    eof = False
    with open(path, "rb") as fh:
        while True:
            if not in_record:
                m = _BLANK_LINES.match(buf, scan)
                if m.end(1) > scan:
                    line_no += buf.count(b"\n", scan, m.end(1))
                    start = m.end(1)
                scan = m.end()
                if scan < len(buf):
                    in_record, scan = True, start - 1
                    continue
                if eof:
                    return
            elif not at_end_line:
                found = buf.find(b"\n//", scan)
                if found >= 0:
                    at_end_line, scan = True, found + 3
                    continue
                if eof:
                    raise ParseError(
                        "truncated final record (no terminating '//')", line_no + 1, str(path))
                scan = max(start - 1, len(buf) - 2)  # a match may straddle the next block
            else:
                found = buf.find(b"\n", scan)
                if found >= 0 or eof:
                    end = found + 1 if found >= 0 else len(buf)
                    yield bytes(buf[start:end]), base + start, end - start, line_no + 1
                    line_no += buf.count(b"\n", start, end)
                    start = scan = end
                    in_record = at_end_line = False
                    continue
                scan = len(buf)
            # the buffer holds no answer: drop what is yielded, keeping the b"\n" before `start`
            del buf[:start - 1]
            base, scan, start = base + start - 1, scan - start + 1, 1
            block = fh.read(_BLOCK_SIZE)
            eof = not block
            buf += block


def parse_go_file(path: str | Path) -> dict[str, GoTerm]:
    """Parse OBO-style [Term] stanzas into an id -> GoTerm mapping.

    A stanza with an id, name and namespace is a term; a malformed one raises
    ParseError at `path:line` of its `[Term]` header, and a line that is not
    UTF-8 a ValueError at its own.
    """
    stanzas: list[tuple[int, dict]] = []  # (line of the [Term] header, its fields)
    current: Optional[dict] = None
    for line_no, line in read_lines(path):
        line = line.strip()
        if line.startswith("["):
            current = {} if line == "[Term]" else None
            if current is not None:
                stanzas.append((line_no, current))
        elif current is not None and ":" in line:
            key, _, val = line.partition(":")
            key = key.strip()
            if key in ("id", "name", "namespace"):
                current[key] = val.strip()
    terms: dict[str, GoTerm] = {}
    for line_no, stanza in stanzas:
        if {"id", "name", "namespace"} <= stanza.keys():
            try:
                term = GoTerm(**stanza)
            except ValueError as exc:
                raise ParseError(str(exc), line_no, str(path)) from exc
            terms[term.id] = term
    return terms


def _index_rows(path: Path, fmt: str, kind: str) -> Iterator[tuple[int, str]]:
    """(line number, line without its end) for each line of an index file
    after its `#<fmt>` header; any other first line raises IndexBuildError."""
    lines = read_lines(path)
    header = next(lines, (1, ""))[1].rstrip("\r\n")
    if header != f"#{fmt}":
        raise IndexBuildError(f"{path}:1: unsupported {kind} format header {header!r}")
    for line_no, line in lines:
        yield line_no, line.rstrip("\r\n")


@dataclass
class AnnotationIndex:
    """Accession -> (offset, length) into the flat file, plus the GO term map.

    Immutable after build. From an accession's second lookup on, its parsed
    entry, itself immutable, is kept and served without reading the flat
    file. At most LOOKUP_CACHE_ENTRIES entries are kept, oldest dropped
    first. An entry looked up only once is not kept: when no hit repeats, a
    kept entry would only add garbage-collector work (tail latency). Any
    number of concurrent readers is safe.

    The first lookup that reads the flat file opens it, once: every later
    read is one `os.pread` on that descriptor, which reads the file it opened
    even after a rebuild replaces the path. It is closed when the index is
    collected.
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
    _reader: Optional[FileReader] = field(default=None, init=False, repr=False, compare=False)

    def lookup(self, accession: str) -> ProteinEntry:
        entry = self._parsed.get(accession)
        if entry is not None:
            return entry
        loc = self.records.get(accession)
        if loc is None:
            raise AccessionNotFound(accession)
        offset, length = loc
        if self._reader is None:
            with self._parsed_lock:
                if self._reader is None:
                    self._reader = FileReader(self.dat_path)
        blob = self._reader.read_at(offset, length)
        try:
            if len(blob) < length:
                raise ParseError(f"the flat file ends after {len(blob)} of the entry's "
                                 f"{length} bytes", blob.count(b"\n") + 1)
            entry = parse_entry(blob.decode("utf-8"))
        except (ParseError, UnicodeDecodeError) as exc:
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
        """Read a saved index; a wrong header, a malformed row or a line that
        is not UTF-8 raises a ValueError naming path:line."""
        index_dir = Path(index_dir)
        records: dict[str, tuple[int, int]] = {}
        dat_path = ""
        count = 0
        path = index_dir / "records.tsv"
        for line_no, line in _index_rows(path, INDEX_FORMAT, "index"):
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
            for line_no, line in _index_rows(path, GO_FORMAT, "GO"):
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

    Each record is checked by `_scan_entry`, so the build refuses what
    `parse_entry` refuses, with the same message, but builds no entry.
    Duplicate accessions are an error (the message names both records'
    `path:line` and offsets). The sidecar written to `out_dir` is
    deterministic: rebuilding over the same file yields byte-identical output.
    """
    dat_path = str(Path(dat_path).resolve())
    records: dict[str, tuple[int, int]] = {}
    start_lines: dict[str, int] = {}
    count = 0
    for blob, offset, length, start_line in iter_raw_records(dat_path):
        try:
            accessions = _scan_entry(blob.decode("utf-8"), start_line - 1)[1]
        except ParseError as exc:
            raise ParseError(exc.message, exc.line, dat_path) from exc
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"record is not UTF-8: byte {blob[exc.start]:#04x} at offset "
                f"{offset + exc.start} ({exc.reason})", start_line, dat_path) from exc
        count += 1
        for acc in accessions:
            if acc in records:
                raise IndexBuildError(
                    f"duplicate accession {acc!r}: records at {dat_path}:{start_lines[acc]} "
                    f"and {dat_path}:{start_line} (offsets {records[acc][0]} and {offset})"
                )
            records[acc] = (offset, length)
            start_lines[acc] = start_line
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
