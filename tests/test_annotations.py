"""Flat-file parser, GO resolution, and index behavior."""

import os
import re
import shutil
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import open_descriptors

import homorag.annotations as annotations
from homorag.annotations import (
    AccessionNotFound,
    AnnotationIndex,
    AnnotationSnippet,
    IndexBuildError,
    ParseError,
    ProteinEntry,
    build_index,
    format_entry,
    iter_raw_records,
    normalize_tag,
    parse_entry,
    parse_go_file,
)

FIXTURES = Path(__file__).parent / "fixtures"
DAT = FIXTURES / "swissprot_mini.dat"

REACTION_VLCFA = (
    "Reaction=a very-long-chain 2,3-saturated fatty acyl-CoA + NADP(+) = a "
    "very-long-chain (2E)-enoyl-CoA + NADPH + H(+);"
)


def read_record(accession):
    for blob, _, _, start_line in iter_raw_records(DAT):
        text = blob.decode("utf-8")
        if f"AC   {accession};" in text or f"AC   {accession}; " in text.replace("\n", " "):
            return text, start_line
    raise AssertionError(f"fixture record {accession} not found")


# -- golden parses -----------------------------------------------------------

def test_case_study_entry_snippets():
    text, _ = read_record("Q55C17")
    entry = parse_entry(text)
    assert entry.accession == "Q55C17"
    assert entry.sequence_length == 310
    expected = [
        ("FUNCTION",
         "Catalyzes the last of the four reactions of the long-chain fatty acids "
         "elongation cycle. This enzyme reduces the trans-2,3-enoyl-CoA fatty acid "
         "intermediate to an acyl-CoA that can be further elongated."),
        ("CATALYTIC ACTIVITY", REACTION_VLCFA),
        ("PATHWAY", "Lipid metabolism; fatty acid biosynthesis."),
        ("SUBCELLULAR LOCATION", "Endoplasmic reticulum membrane; Multi-pass membrane protein."),
        ("SIMILARITY", "Belongs to the steroid 5-alpha reductase family."),
    ]
    assert [(s.tag, s.value) for s in entry.snippets] == expected
    assert entry.go_ids == ("GO:0016491", "GO:0030176", "GO:0019367")


def test_multi_reaction_entry_snippets():
    text, _ = read_record("Q3ZCD7")
    entry = parse_entry(text)
    tags = [s.tag for s in entry.snippets]
    assert tags.count("CATALYTIC ACTIVITY") == 5
    assert tags.count("PATHWAY") == 2
    assert "PTM" in tags and "SUBUNIT" in tags
    first_reaction = next(s for s in entry.snippets if s.tag == "CATALYTIC ACTIVITY")
    assert first_reaction.value == (
        "Reaction=octadecanoyl-CoA + NADP(+) = (2E)-octadecenoyl-CoA + NADPH + H(+); "
        "PhysiologicalDirection=right-to-left;"
    )


def test_identical_reaction_values_across_entries():
    # the anchor homolog and the third homolog must parse to the same value
    index = build_index(DAT, FIXTURES / "go_mini.obo")
    a = next(s for s in index.lookup("Q55C17").snippets if s.tag == "CATALYTIC ACTIVITY")
    b = next(s for s in index.lookup("Q9N5Y2").snippets if s.tag == "CATALYTIC ACTIVITY")
    assert a.value == b.value == REACTION_VLCFA


def test_multiline_function_matches_hand_joined_oracle():
    text, _ = read_record("P12345")
    entry = parse_entry(text)
    hand_joined = (
        "Serine/threonine protein kinase that phosphorylates the"
        " regulatory subunit of the photosystem assembly complex and modulates"
        " its thylakoid association {ECO:0000269|PubMed:12345678}."
    )
    assert entry.snippets[0] == AnnotationSnippet(
        tag="FUNCTION", value=hand_joined, source_accession="P12345"
    )


def test_feature_lines_and_unknown_topics():
    text, _ = read_record("P12345")
    entry = parse_entry(text)
    assert [(s.tag, s.value) for s in entry.snippets[1:]] == [
        ("DISRUPTION PHENOTYPE", "Slight reduction in rosette growth."),
        ("DOMAIN_MOTIF", "DOMAIN 54..126: Protein kinase"),
        ("DOMAIN_MOTIF", "MOTIF 201..210: Nuclear localization signal"),
        ("DOMAIN_MOTIF", "REGION 1..50: Disordered"),
    ]
    assert entry.secondary_accessions == ("Q99999", "A0A0B4J2D5")


def test_empty_entry():
    text, _ = read_record("P67890")
    entry = parse_entry(text)
    assert entry.snippets == ()
    assert entry.go_ids == ()
    assert entry.sequence_length == 64


def test_cc_domain_topic_is_distinct_from_feature_tag():
    text, _ = read_record("Q8GW45")
    entry = parse_entry(text)
    assert [(s.tag, s.value) for s in entry.snippets] == [
        ("MISCELLANEOUS", "Accumulates under cold stress in seedling roots."),
        ("DOMAIN", "The coiled-coil segment mediates homodimer formation."),
        ("DOMAIN_MOTIF", "MOTIF 12..19: Cold-box"),
    ]


def test_round_trip_parse_equality():
    for blob, _, _, start_line in iter_raw_records(DAT):
        text = blob.decode("utf-8")
        assert parse_entry(text, start_line - 1) == parse_entry(text, start_line - 1)


# -- parse errors -------------------------------------------------------------

def test_missing_id_names_line():
    with pytest.raises(ParseError, match="line 1"):
        parse_entry("AC   P12345;\n//\n")


def test_missing_ac_names_line():
    record = "ID   TEST_HUMAN              Reviewed;          10 AA.\n//\n"
    with pytest.raises(ParseError, match="missing AC"):
        parse_entry(record)


def test_malformed_id_line():
    with pytest.raises(ParseError, match="malformed ID"):
        parse_entry("ID   TEST_HUMAN broken\nAC   P12345;\n//\n")


def test_line_offset_in_errors():
    with pytest.raises(ParseError, match="line 101"):
        parse_entry("AC   P12345;\n//\n", line_offset=100)


def test_bare_ft_line_names_line():
    record = (
        "ID   TEST_HUMAN              Reviewed;          10 AA.\n"
        "AC   P12345;\n"
        "FT   DOMAIN          1..5\n"
        "FT   \n"
        "//\n"
    )
    with pytest.raises(ParseError) as info:
        parse_entry(record)
    assert str(info.value) == "line 4: FT line without a feature key: 'FT   '"


def test_multi_fault_record_reports_its_first_faulty_line():
    record = (
        "ID   TEST_HUMAN              Reviewed;          10 AA.\n"
        "CC   -!- FUNCTION without a colon\n"
        "AC   bad!;\n"
        "//\n"
    )
    with pytest.raises(ParseError) as info:
        parse_entry(record)
    assert str(info.value) == "line 2: CC topic line without ':': 'CC   -!- FUNCTION without a colon'"
    # a missing ID or AC line is reported only when no line is faulty
    with pytest.raises(ParseError, match=re.escape("line 2: CC block 'EMPTY' has no text")):
        parse_entry("DE   x\nCC   -!- Empty:\n//\n")


def test_empty_cc_topic_is_a_parse_error_at_its_line():
    record = (
        "ID   TEST_HUMAN              Reviewed;          10 AA.\n"
        "AC   P12345;\n"
        "CC   -!- FUNCTION: Binds zinc.\n"
        "CC   -!-   : some text\n"
        "//\n"
    )
    with pytest.raises(ParseError) as info:
        parse_entry(record, line_offset=10)
    assert str(info.value) == "line 14: CC topic line without a topic: 'CC   -!-   : some text'"


# -- differential check against the three-pass parser -----------------------
#
# A straight-line copy of the earlier parser, which walked the lines once for
# the ID line, once for the AC lines and once for CC/FT/DR. The one-pass parser
# must return equal entries wherever it returns one.

_REF_ACCESSION_RE = re.compile(r"^[A-Z][A-Z0-9]{5}(?:[A-Z0-9]{4})?$")
_REF_ID_LINE_RE = re.compile(r"^ID\s+(\S+)\s+.*?(\d+)\s+AA\.?\s*$")
_REF_DR_GO_RE = re.compile(r"^DR\s+GO;\s+(GO:\d{7});")
_REF_NOTE_RE = re.compile(r'/note="([^"]*)"')


def _ref_flush_cc(snippets, topic, parts, start_line, accession):
    if topic is None:
        return
    value = " ".join(p for p in parts if p)
    if not value.strip():
        raise ParseError(f"CC block {topic!r} has no text", start_line)
    snippets.append(AnnotationSnippet(tag=topic, value=value, source_accession=accession))


def _ref_flush_ft(snippets, key, loc, extras, accession):
    if key is None:
        return
    joined = " ".join(extras)
    note = _REF_NOTE_RE.search(joined)
    value = f"{key} {loc}".strip()
    if note and note.group(1).strip():
        value = f"{value}: {note.group(1).strip()}"
    snippets.append(AnnotationSnippet(tag="DOMAIN_MOTIF", value=value, source_accession=accession))


def reference_parse_entry(record_text, line_offset=0):
    lines = record_text.splitlines()
    first_line = line_offset + 1

    id_line_no = None
    sequence_length = None
    for i, line in enumerate(lines):
        if line.startswith("ID"):
            m = _REF_ID_LINE_RE.match(line)
            if not m:
                raise ParseError(f"malformed ID line: {line!r}", line_offset + i + 1)
            id_line_no = line_offset + i + 1
            sequence_length = int(m.group(2))
            break
    if id_line_no is None:
        raise ParseError("missing ID line", first_line)

    accessions = []
    for i, line in enumerate(lines):
        if line.startswith("AC   "):
            for tok in line[5:].split(";"):
                tok = tok.strip()
                if not tok:
                    continue
                if not _REF_ACCESSION_RE.match(tok):
                    raise ParseError(f"invalid accession token {tok!r}", line_offset + i + 1)
                accessions.append(tok)
    if not accessions:
        raise ParseError("missing AC line", first_line)
    primary, secondary = accessions[0], tuple(accessions[1:])

    snippets = []
    go_ids = []
    cc_topic = None
    cc_parts = []
    cc_start = 0
    ft_key = None
    ft_loc = ""
    ft_extras = []

    for i, line in enumerate(lines):
        n = line_offset + i + 1
        if line.startswith("CC   "):
            body = line[5:]
            if body.startswith("-!- "):
                _ref_flush_cc(snippets, cc_topic, cc_parts, cc_start, primary)
                topic, sep, rest = body[4:].partition(":")
                if not sep:
                    raise ParseError(f"CC topic line without ':': {line!r}", n)
                cc_topic = normalize_tag(topic)
                cc_parts = [rest.strip()] if rest.strip() else []
                cc_start = n
            elif body.startswith("---"):
                _ref_flush_cc(snippets, cc_topic, cc_parts, cc_start, primary)
                cc_topic = None
            elif cc_topic is not None:
                cc_parts.append(body.strip())
            continue
        _ref_flush_cc(snippets, cc_topic, cc_parts, cc_start, primary)
        cc_topic = None

        if line.startswith("FT   "):
            body = line[5:]
            if body[:1] != " ":
                _ref_flush_ft(snippets, ft_key, ft_loc, ft_extras, primary)
                ft_key = None
                parts = body.split(None, 1)
                key = parts[0].upper()
                if key in {"DOMAIN", "MOTIF", "REGION"}:
                    ft_key = key
                    ft_loc = parts[1].strip() if len(parts) > 1 else ""
                    ft_extras = []
            elif ft_key is not None:
                ft_extras.append(body.strip())
            continue
        _ref_flush_ft(snippets, ft_key, ft_loc, ft_extras, primary)
        ft_key = None

        m = _REF_DR_GO_RE.match(line)
        if m:
            go_ids.append(m.group(1))

    _ref_flush_cc(snippets, cc_topic, cc_parts, cc_start, primary)
    _ref_flush_ft(snippets, ft_key, ft_loc, ft_extras, primary)

    return ProteinEntry(
        accession=primary,
        secondary_accessions=secondary,
        sequence_length=sequence_length,
        snippets=tuple(snippets),
        go_ids=tuple(go_ids),
    )


FIXTURE_RECORDS = tuple(blob.decode("utf-8") for blob, _, _, _ in iter_raw_records(DAT))

INSERTED_LINES = (
    "CC   -!- PTM without a colon",                      # CC topic without ':'
    "CC   -!- COFACTOR:",                                # empty unless a continuation follows
    "CC   ---------------------------------------------------------------------------",
    "CC       Continued text for whichever block is open.",
    "CC   -!- catalytic  activity: Reaction=A + B = C;",  # topic normalised by the snippet
    "FT   DOMAIN\t10..20",                              # tab after the feature key
    "FT   motif           5..9",
    'FT                   /note="Zinc finger"',          # /note continuation
    'FT                   /note=" "',                    # blank note: no ": <note>" suffix
    "CC       /note=\"not a feature note\"",             # CC line between FT lines
    "FT   HELIX           3..4",                         # key outside DOMAIN/MOTIF/REGION
    "FT   TRANSMEM        30..50",
    "FT   ",                                             # bare FT line: IndexError in the reference
    "IDX  not an ID line",
    "ID   SECOND_ID               Reviewed;          99 AA.",
    "ID   BROKEN",
    "AC   bad!;",                                        # bad AC token
    "AC   Q11111; A0A000B1C2;",                          # extra AC line
    "DR   GO; GO:0005634; C:nucleus; IEA:InterPro.",
    "DR   GO; GO:12;",
    "DR GO; GO:0016887; F:ATP hydrolysis activity; IEA:InterPro.",
    "XX",
    "",
)


@st.composite
def mutated_records(draw):
    """A fixture entry after up to five line insertions, deletions, swaps and duplications.

    An insertion puts one to three lines in a row, so pairs such as a footer and
    a continuation, or a feature key and its note, occur often.
    """
    lines = draw(st.sampled_from(FIXTURE_RECORDS)).splitlines()
    for _ in range(draw(st.integers(0, 5))):
        op = draw(st.sampled_from(("insert", "delete", "swap", "duplicate")))
        i = draw(st.integers(0, len(lines)))
        if op == "insert":
            lines[i:i] = draw(st.lists(st.sampled_from(INSERTED_LINES), min_size=1, max_size=3))
        elif lines:
            i = min(i, len(lines) - 1)
            if op == "delete":
                del lines[i]
            elif op == "duplicate":
                lines.insert(i, lines[i])
            else:
                j = draw(st.integers(0, len(lines) - 1))
                lines[i], lines[j] = lines[j], lines[i]
    return "".join(line + "\n" for line in lines)


def fault_kinds(record_text):
    """Which of the reference's three checks a record fails: "ID", "AC" or "body"."""
    lines = record_text.splitlines()
    kinds = set()
    id_line = next((line for line in lines if line.startswith("ID")), None)
    if id_line is None or not _REF_ID_LINE_RE.match(id_line):
        kinds.add("ID")
    tokens = [tok.strip() for line in lines if line.startswith("AC   ")
              for tok in line[5:].split(";") if tok.strip()]
    if not tokens or not all(_REF_ACCESSION_RE.match(tok) for tok in tokens):
        kinds.add("AC")
    # the body alone: a valid header, and the record's ID/AC lines as neutral lines
    body = ["XX" if line.startswith(("ID", "AC   ")) else line for line in lines]
    header = ["ID   BODY_ONLY               Reviewed;          10 AA.", "AC   P12345;"]
    try:
        reference_parse_entry("\n".join(header + body))
    except (ParseError, IndexError):
        kinds.add("body")
    return kinds


_KINASE = FIXTURE_RECORDS[3]  # P12345: CC blocks, then DOMAIN/MOTIF/REGION/TRANSMEM features


@settings(max_examples=600, deadline=None)
@given(mutated_records(), st.integers(0, 500))
@example(_KINASE.replace('/note="Protein kinase"', '/note=" "'), 0)
@example(_KINASE.replace("CC   -!- DISRUPTION", "CC   ---\nCC       orphan\nCC   -!- DISRUPTION"), 0)
def test_one_pass_parser_matches_three_pass_reference(record_text, line_offset):
    try:
        expected = reference_parse_entry(record_text, line_offset)
    except (ParseError, IndexError) as exc:
        kinds = fault_kinds(record_text)
        assert kinds
        with pytest.raises(ParseError) as info:
            parse_entry(record_text, line_offset)
        # the reference reports faults by kind, the one-pass parser by line
        if len(kinds) == 1 and isinstance(exc, ParseError):
            assert str(info.value) == str(exc)
    else:
        assert not fault_kinds(record_text)
        assert parse_entry(record_text, line_offset) == expected


# -- the block splitter and the build against line-loop references ----------
#
# Straight-line copies of the earlier record splitter, which took the file one
# line at a time, and of the earlier build, which parsed every record into an
# entry. The block splitter and the scan-only build must agree with them on
# records, offsets and start lines, and on every refusal and its message.

def reference_iter_raw_records(path):
    offset = 0
    line_no = 0
    start = None
    start_line = 0
    buf = []
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
        raise ParseError("truncated final record (no terminating '//')", start_line, str(path))


def reference_build_index(dat_path):
    dat_path = str(Path(dat_path).resolve())
    records = {}
    start_lines = {}
    count = 0
    for blob, offset, length, start_line in reference_iter_raw_records(dat_path):
        try:
            entry = parse_entry(blob.decode("utf-8"), line_offset=start_line - 1)
        except ParseError as exc:
            raise ParseError(exc.message, exc.line, dat_path) from exc
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"record is not UTF-8: byte {blob[exc.start]:#04x} at offset "
                f"{offset + exc.start} ({exc.reason})", start_line, dat_path) from exc
        count += 1
        for acc in (entry.accession, *entry.secondary_accessions):
            if acc in records:
                raise IndexBuildError(
                    f"duplicate accession {acc!r}: records at {dat_path}:{start_lines[acc]} "
                    f"and {dat_path}:{start_line} (offsets {records[acc][0]} and {offset})"
                )
            records[acc] = (offset, length)
            start_lines[acc] = start_line
    return AnnotationIndex(dat_path=dat_path, records=records, record_count=count)


# what may stand between records: blank and whitespace-only lines, and more
# rarely a prefix that makes the next record's first line start with blanks,
# or a line that is not UTF-8
RECORD_GAPS = (b"", b"\n", b"\n\n", b"   \n", b" \t\r\n", b"\r\n", b"\x0b\x0c\n")
FAULTY_GAPS = (b"  ", b"\xe9\n")


def _rename_accessions(record_text, k):
    """The record with the first letter of each AC token replaced, so records differ."""
    return re.sub(r"(?m)^(AC   )(.*)$",
                  lambda m: m[1] + re.sub(r"\b[A-Z](?=[A-Z0-9]{5})", "OPQR"[k], m[2]),
                  record_text)


@st.composite
def flat_files(draw):
    """Fixture records, some mutated, joined into one flat file, as bytes."""

    def gap():
        faulty = draw(st.integers(0, 9)) == 0
        return draw(st.sampled_from(FAULTY_GAPS if faulty else RECORD_GAPS))

    distinct = draw(st.booleans())
    parts = [gap()]
    records = st.one_of(st.sampled_from(FIXTURE_RECORDS), mutated_records())
    for k, text in enumerate(draw(st.lists(records, max_size=4))):
        if distinct:
            text = _rename_accessions(text, k)
        if draw(st.booleans()):
            text = re.sub(r"(?m)^//$", "//junk", text, count=1)
        if draw(st.booleans()):
            text = text.replace("\n", "\r\n")
        parts += [text.encode("utf-8"), gap()]
    if draw(st.integers(0, 3)) == 0:  # a truncated tail
        head = FIXTURE_RECORDS[draw(st.integers(0, len(FIXTURE_RECORDS) - 1))]
        parts.append(head[: draw(st.integers(1, len(head) - 4))].encode("utf-8"))
    data = b"".join(parts)
    if draw(st.booleans()) and data.endswith(b"\n"):
        data = data[:-1]
    return data


def _split(split, path):
    """The records `split` yields, and the message of the ParseError that ends them."""
    records = []
    try:
        records.extend(split(path))
    except ParseError as exc:
        return records, str(exc)
    return records, None


def _built(build, path):
    """The index `build` makes of `path`, or the type and message of its refusal."""
    try:
        index = build(path)
    except (ParseError, IndexBuildError) as exc:
        return type(exc), str(exc)
    return index.records, index.record_count


@pytest.mark.parametrize("block_size", [1, 2, 3, 7, 64])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flat_files())
@example(b"")
@example(b" \n\t\n  ")
@example(b"//\n\n//junk")
@example(FIXTURE_RECORDS[4].encode("utf-8") + b"  ID   X\n//")
@example(FIXTURE_RECORDS[4].encode("utf-8").replace(b"\n//\n", b"\n/\n/"))
def test_block_splitter_and_build_match_line_loop_references(tmp_path, block_size, data):
    dat = tmp_path / "entries.dat"
    dat.write_bytes(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(annotations, "_BLOCK_SIZE", block_size)
        assert _split(iter_raw_records, dat) == _split(reference_iter_raw_records, dat)
        assert _built(build_index, dat) == _built(reference_build_index, dat)


def test_record_over_many_blocks_is_read_in_linear_time(tmp_path, monkeypatch):
    # 2 MiB in 64-byte blocks is 32768 reads: copying or searching the record's
    # earlier blocks again at each read takes tens of gigabytes of work
    line = "CC       /x// /x// /x// /x// /x// /x// /x// /x// /x// /x// /x/\n"
    head = "ID   LONG_TEST               Reviewed;          10 AA.\nAC   P11111;\n"
    text = head + line * ((2 << 20) // len(line)) + "//\n"
    dat = tmp_path / "long.dat"
    dat.write_text("\n" + text + "\n" + text.replace("P11111", "P22222"), encoding="utf-8")
    monkeypatch.setattr(annotations, "_BLOCK_SIZE", 64)
    started = time.perf_counter()
    records = list(iter_raw_records(dat))
    elapsed = time.perf_counter() - started
    assert [(blob == text.encode("utf-8"), offset, length, start_line)
            for blob, offset, length, start_line in records] == [
        (True, 1, len(text), 2),
        (False, len(text) + 2, len(text), text.count("\n") + 3),
    ]
    assert elapsed < 3.0, f"2 x 2 MiB in 64-byte blocks took {elapsed:.1f} s"


# -- tag normalization --------------------------------------------------------

def test_normalize_tag_rules():
    assert normalize_tag("  catalytic   activity ") == "CATALYTIC ACTIVITY"
    assert normalize_tag("Function") == "FUNCTION"


@given(st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Zs")), max_size=40))
def test_normalize_tag_idempotent(raw):
    assert normalize_tag(normalize_tag(raw)) == normalize_tag(raw)


# -- index --------------------------------------------------------------------

def test_build_index_counts(tmp_path):
    three = "".join(
        f"ID   T{i}_TEST                Reviewed;          10 AA.\n"
        f"AC   P0000{i};\n"
        "//\n"
        for i in range(1, 4)
    )
    dat = tmp_path / "three.dat"
    dat.write_text(three, encoding="utf-8")
    index = build_index(dat)
    assert index.record_count == 3
    assert sorted(index.records) == ["P00001", "P00002", "P00003"]


def test_index_lookup_case_study(annotation_index):
    entry = annotation_index.lookup("Q55C17")
    assert entry.accession == "Q55C17"
    assert "snippets (5):" in format_entry(entry)


def test_index_completeness(annotation_index):
    for acc in ("Q55C17", "Q3ZCD7", "Q9N5Y2", "P12345", "P67890", "Q8GW45"):
        assert annotation_index.lookup(acc).accession == acc


def test_secondary_accession_resolves_to_primary(annotation_index):
    assert annotation_index.lookup("Q99999") == annotation_index.lookup("P12345")
    assert annotation_index.lookup("A0A0B4J2D5").accession == "P12345"


def test_lookup_deterministic(annotation_index):
    assert annotation_index.lookup("Q3ZCD7") == annotation_index.lookup("Q3ZCD7")


def test_lookup_unknown(annotation_index):
    with pytest.raises(AccessionNotFound):
        annotation_index.lookup("ZZZZZZ")


def _index_over_copy(tmp_path):
    dat = tmp_path / "entries.dat"
    shutil.copy(DAT, dat)
    return dat, build_index(dat, FIXTURES / "go_mini.obo")


def test_lookup_reuses_parsed_entry_after_flat_file_moves(tmp_path):
    dat, index = _index_over_copy(tmp_path)
    first = index.lookup("Q55C17")
    assert index.lookup("Q55C17") == first  # the second lookup keeps the entry
    once = index.lookup("Q3ZCD7")           # looked up once: not kept
    dat.rename(tmp_path / "moved.dat")
    assert index.lookup("Q55C17") == first
    # read again, from the file the index opened at its first lookup: the rename keeps it open
    assert "Q3ZCD7" not in index._parsed
    assert index.lookup("Q3ZCD7") == once == parse_entry(
        _record_text(index, "Q3ZCD7", tmp_path / "moved.dat"))


def test_flat_file_missing_at_the_first_lookup_fails_that_lookup(tmp_path):
    dat, index = _index_over_copy(tmp_path)
    dat.rename(tmp_path / "moved.dat")
    with pytest.raises(FileNotFoundError):
        index.lookup("Q55C17")
    (tmp_path / "moved.dat").rename(dat)
    assert index.lookup("Q55C17").accession == "Q55C17"  # a failed open is tried again


def test_fresh_load_reads_the_flat_file_a_rebuild_put_in_place(tmp_path):
    dat, _ = _index_over_copy(tmp_path)
    build_index(dat, out_dir=tmp_path / "index")
    old = AnnotationIndex.load(tmp_path / "index")
    before = old.lookup("Q55C17")
    # a new file at the same path, with Q55C17's text changed and every later offset moved
    new = tmp_path / "new.dat"
    new.write_text(dat.read_text(encoding="utf-8").replace(
        "Catalyzes the last of the four reactions", "Catalyzes the final reaction"),
        encoding="utf-8")
    os.replace(new, dat)
    build_index(dat, out_dir=tmp_path / "index")
    after = {acc: AnnotationIndex.load(tmp_path / "index").lookup(acc)
             for acc in ("Q55C17", "Q8GW45")}
    assert after["Q55C17"].snippets[0].value.startswith("Catalyzes the final reaction")
    assert after["Q8GW45"] == old.lookup("Q8GW45")
    assert old.lookup("Q55C17") == before  # the index loaded first reads the file it opened


@pytest.mark.parametrize("opened", [False, True], ids=["cut-before-open", "cut-after-open"])
def test_lookup_of_an_entry_the_flat_file_cuts_short_asks_for_a_rebuild(tmp_path, opened):
    dat, index = _index_over_copy(tmp_path)
    if opened:
        index.lookup("Q55C17")
    offset, length = index.records["Q8GW45"]
    text = _record_text(index, "Q8GW45")
    kept = text[:text.index("CC   -!- DOMAIN")]
    assert parse_entry(kept).accession == "Q8GW45"  # the cut leaves a prefix that parses alone
    os.truncate(dat, offset + len(kept))
    message = (f"{index.dat_path}: entry Q8GW45 at offset {offset}, length {length} does not "
               f"parse (line 7: the flat file ends after {len(kept)} of the entry's {length} "
               "bytes); rebuild the index")
    with pytest.raises(IndexBuildError, match=f"^{re.escape(message)}$") as info:
        index.lookup("Q8GW45")
    assert isinstance(info.value.__cause__, ParseError)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
def test_index_opens_one_descriptor_at_its_first_lookup_and_closes_it_when_collected(tmp_path):
    dat, _ = _index_over_copy(tmp_path)
    build_index(dat, out_dir=tmp_path / "index")
    index = AnnotationIndex.load(tmp_path / "index")
    assert open_descriptors(dat) == 0
    for acc in ("Q55C17", "Q3ZCD7", "Q55C17", "Q9N5Y2"):
        index.lookup(acc)
    assert open_descriptors(dat) == 1
    del index
    assert open_descriptors(dat) == 0
    for _ in range(200):
        AnnotationIndex.load(tmp_path / "index").lookup("Q55C17")
    assert open_descriptors(dat) == 0


def test_lookup_unknown_accession_is_never_cached(tmp_path):
    _, index = _index_over_copy(tmp_path)
    for _ in range(2):
        with pytest.raises(AccessionNotFound):
            index.lookup("ZZZZZZ")
    assert "ZZZZZZ" not in index._parsed and "ZZZZZZ" not in index._seen


def test_lookup_cache_stays_within_its_bound(tmp_path, monkeypatch):
    import homorag.annotations as annotations

    monkeypatch.setattr(annotations, "LOOKUP_CACHE_ENTRIES", 2)
    _, index = _index_over_copy(tmp_path)
    accessions = ("Q55C17", "Q55C17", "Q3ZCD7", "Q3ZCD7", "Q9N5Y2", "Q9N5Y2", "P12345",
                  "Q55C17", "P67890", "P67890", "Q55C17")
    for acc in accessions:
        entry = index.lookup(acc)
        assert len(index._parsed) <= 2 and len(index._seen) <= 2
        assert entry == parse_entry(_record_text(index, acc))
    assert list(index._parsed) == ["P67890", "Q55C17"]


def test_lookup_cache_under_concurrent_readers(tmp_path, monkeypatch):
    import sys
    import threading

    import homorag.annotations as annotations

    monkeypatch.setattr(annotations, "LOOKUP_CACHE_ENTRIES", 4)
    _, index = _index_over_copy(tmp_path)
    accessions = ("Q55C17", "Q3ZCD7", "Q9N5Y2", "P12345", "P67890", "Q8GW45")
    expected = {acc: parse_entry(_record_text(index, acc)) for acc in accessions}
    errors = []

    def reader(offset):
        try:
            for i in range(3000):
                acc = accessions[(offset + i) % len(accessions)]
                if index.lookup(acc) != expected[acc]:
                    errors.append(f"wrong entry for {acc}")
                if len(index._parsed) > 4 or len(index._seen) > 4:
                    errors.append(f"cache grew to {len(index._parsed)}/{len(index._seen)}")
        except Exception as exc:  # noqa: BLE001 - reported through the assertion below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert index._parsed  # repeated lookups were served from the cache


def _record_text(index, accession, dat_path=None):
    offset, length = index.records[accession]
    with open(dat_path or index.dat_path, "rb") as fh:
        fh.seek(offset)
        return fh.read(length).decode("utf-8")


def test_index_rebuild_is_idempotent(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    build_index(DAT, FIXTURES / "go_mini.obo", out1)
    build_index(DAT, FIXTURES / "go_mini.obo", out2)
    assert (out1 / "records.tsv").read_bytes() == (out2 / "records.tsv").read_bytes()
    assert (out1 / "go_terms.tsv").read_bytes() == (out2 / "go_terms.tsv").read_bytes()


def test_build_index_makes_no_entry_and_keeps_its_bytes(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError(f"{type(self).__name__} built during index build")

    monkeypatch.setattr(AnnotationSnippet, "__post_init__", refuse)
    monkeypatch.setattr(ProteinEntry, "__post_init__", refuse)
    build_index(DAT, FIXTURES / "go_mini.obo", tmp_path)
    records = (tmp_path / "records.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    assert records[1] == f"#dat\t{DAT.resolve()}\n"
    assert "".join(records[:1] + records[2:]) == (
        "#homorag-index/1\n"
        "#count\t6\n"
        "A0A0B4J2D5\t4200\t1071\n"
        "P12345\t4200\t1071\n"
        "P67890\t5271\t338\n"
        "Q3ZCD7\t1284\t2059\n"
        "Q55C17\t0\t1284\n"
        "Q8GW45\t5609\t623\n"
        "Q99999\t4200\t1071\n"
        "Q9N5Y2\t3343\t857\n"
    )
    assert (tmp_path / "go_terms.tsv").read_text(encoding="utf-8") == (
        "#homorag-go/1\n"
        "GO:0005783\tcellular_component\tendoplasmic reticulum\n"
        "GO:0016020\tcellular_component\tmembrane\n"
        "GO:0016301\tmolecular_function\tkinase activity\n"
        "GO:0016491\tmolecular_function\toxidoreductase activity\n"
        "GO:0019367\tbiological_process\tfatty acid elongation, saturated fatty acid\n"
        "GO:0030176\tcellular_component\tintegral component of endoplasmic reticulum membrane\n"
        "GO:0102758\tmolecular_function\tvery-long-chain enoyl-CoA reductase activity\n"
    )


def test_index_save_load_round_trip(tmp_path, annotation_index):
    out = tmp_path / "saved"
    annotation_index.save(out)
    loaded = AnnotationIndex.load(out)
    assert loaded.records == annotation_index.records
    assert loaded.go_terms == annotation_index.go_terms
    assert loaded.lookup("Q55C17") == annotation_index.lookup("Q55C17")


def test_failed_replace_during_rebuild_keeps_earlier_index(tmp_path, monkeypatch):
    import os

    out = tmp_path / "index"
    earlier = build_index(DAT, FIXTURES / "go_mini.obo", out)

    def failing_replace(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="no space left"):
        build_index(DAT, FIXTURES / "go_mini.obo", out)
    monkeypatch.undo()
    loaded = AnnotationIndex.load(out)
    assert loaded.records == earlier.records and len(loaded.records) == 8
    assert loaded.go_terms == earlier.go_terms
    assert sorted(p.name for p in out.iterdir()) == ["go_terms.tsv", "records.tsv"]


def test_load_names_file_and_line_of_a_cut_off_row(tmp_path, annotation_index):
    out = tmp_path / "index"
    annotation_index.save(out)
    records = out / "records.tsv"
    lines = records.read_text(encoding="utf-8").splitlines(keepends=True)
    records.write_text("".join(lines[:5]) + lines[5].split("\t")[0], encoding="utf-8")
    with pytest.raises(IndexBuildError, match=re.escape(f"{records}:6: malformed row")):
        AnnotationIndex.load(out)


def test_load_refuses_records_without_their_dat_line(tmp_path, annotation_index):
    out = tmp_path / "index"
    annotation_index.save(out)
    records = out / "records.tsv"
    lines = records.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[1].startswith("#dat\t")
    records.write_text("".join(lines[:1] + lines[2:]), encoding="utf-8")
    with pytest.raises(IndexBuildError) as info:
        AnnotationIndex.load(out)
    assert str(info.value) == f"{records}: no #dat line naming the flat file; rebuild the index"


def test_lookup_through_a_row_cut_inside_its_length_says_to_rebuild(tmp_path, annotation_index):
    out = tmp_path / "index"
    annotation_index.save(out)
    records = out / "records.tsv"
    text = records.read_text(encoding="utf-8")
    assert text.endswith("Q9N5Y2\t3343\t857\n")
    records.write_text(text[: -len("57\n")], encoding="utf-8")  # the row now ends in `\t8`
    index = AnnotationIndex.load(out)
    with pytest.raises(IndexBuildError) as info:
        index.lookup("Q9N5Y2")
    assert str(info.value).startswith(
        f"{annotation_index.dat_path}: entry Q9N5Y2 at offset 3343, length 8 does not parse")
    assert str(info.value).endswith("rebuild the index")
    assert isinstance(info.value.__cause__, ParseError)


def test_duplicate_accession_lists_offsets(tmp_path):
    dup = (
        "ID   A_TEST                  Reviewed;          10 AA.\n"
        "AC   P11111;\n//\n"
        "ID   B_TEST                  Reviewed;          10 AA.\n"
        "AC   P11111;\n//\n"
    )
    dat = tmp_path / "dup.dat"
    dat.write_text(dup, encoding="utf-8")
    with pytest.raises(IndexBuildError, match=r"offsets\s+0 and 71"):
        build_index(dat)


def test_duplicate_accession_names_both_records_file_and_line(tmp_path):
    dat = tmp_path / "dup.dat"
    dat.write_text(_two_records().replace("P22222", "P11111"), encoding="utf-8")
    with pytest.raises(IndexBuildError) as info:
        build_index(dat)
    assert str(info.value) == (f"duplicate accession 'P11111': records at {dat.resolve()}:1 "
                               f"and {dat.resolve()}:4 (offsets 0 and 71)")


@pytest.mark.parametrize("name, kind", [("records.tsv", "index"), ("go_terms.tsv", "GO")])
def test_load_names_the_file_of_a_wrong_header(tmp_path, annotation_index, name, kind):
    out = tmp_path / "index"
    annotation_index.save(out)
    path = out / name
    path.write_text("#bogus\n" + path.read_text(encoding="utf-8").split("\n", 1)[1],
                    encoding="utf-8")
    with pytest.raises(IndexBuildError) as info:
        AnnotationIndex.load(out)
    assert str(info.value) == f"{path}:1: unsupported {kind} format header '#bogus'"


def test_truncated_final_record(tmp_path):
    dat = tmp_path / "trunc.dat"
    dat.write_text(
        "ID   A_TEST                  Reviewed;          10 AA.\nAC   P11111;\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match="truncated"):
        build_index(dat)


def _two_records(second_id_line="ID   B_TEST                  Reviewed;          10 AA.\n"):
    return (
        "ID   A_TEST                  Reviewed;          10 AA.\n"
        "AC   P11111;\n//\n"
        + second_id_line
        + "AC   P22222;\n//\n"
    )


def test_build_index_names_flat_file_and_line(tmp_path):
    dat = tmp_path / "bad.dat"
    dat.write_text(_two_records("ID   B_TEST broken\n"), encoding="utf-8")
    with pytest.raises(ParseError) as info:
        build_index(dat)
    assert str(info.value) == f"{dat.resolve()}:4: malformed ID line: 'ID   B_TEST broken'"
    assert info.value.line == 4


def test_build_index_names_flat_file_and_line_of_an_empty_cc_topic(tmp_path):
    dat = tmp_path / "bad.dat"
    dat.write_text(_two_records().replace("AC   P22222;", "AC   P22222;\nCC   -!- : some text"),
                   encoding="utf-8")
    with pytest.raises(ParseError) as info:
        build_index(dat)
    assert str(info.value) == (f"{dat.resolve()}:6: CC topic line without a topic: "
                               f"'CC   -!- : some text'")


def test_lookup_of_an_entry_with_an_empty_cc_topic_says_to_rebuild(tmp_path):
    dat, index = _index_over_copy(tmp_path)
    offset, length = index.records["Q8GW45"]
    data = dat.read_bytes()
    at = data.index(b"CC   -!- MISCELLANEOUS:", offset)
    # same length: the offsets still hold, the topic is gone
    dat.write_bytes(data[:at] + b"CC   -!-              :" + data[at + 23:])
    with pytest.raises(IndexBuildError) as info:
        index.lookup("Q8GW45")
    assert str(info.value).startswith(
        f"{index.dat_path}: entry Q8GW45 at offset {offset}, length {length} does not parse")
    assert "CC topic line without a topic" in str(info.value)
    assert isinstance(info.value.__cause__, ParseError)


def test_truncated_final_record_names_flat_file(tmp_path):
    dat = tmp_path / "trunc.dat"
    dat.write_text(_two_records() + "ID   C_TEST                  Reviewed;          10 AA.\n",
                   encoding="utf-8")
    with pytest.raises(ParseError) as info:
        build_index(dat)
    assert str(info.value) == f"{dat.resolve()}:7: truncated final record (no terminating '//')"


def test_build_index_refuses_a_record_that_is_not_utf8(tmp_path):
    dat = tmp_path / "latin1.dat"
    text = _two_records().replace("AC   P22222;", "AC   P22222;\nDE   Caf\xe9")
    dat.write_bytes(text.encode("latin-1"))
    with pytest.raises(ParseError) as info:
        build_index(dat)
    assert str(info.value) == (f"{dat.resolve()}:4: record is not UTF-8: byte 0xe9 at offset "
                               f"{text.index(chr(0xE9))} (invalid continuation byte)")
    assert isinstance(info.value.__cause__, UnicodeDecodeError)


def test_lookup_of_a_record_no_longer_utf8_says_to_rebuild(tmp_path):
    dat, index = _index_over_copy(tmp_path)
    offset, length = index.records["P67890"]
    data = bytearray(dat.read_bytes())
    at = data.index(b"Uncharacterized", offset)
    data[at] = 0xE9  # same length: the offsets still hold, the bytes no longer decode
    dat.write_bytes(bytes(data))
    with pytest.raises(IndexBuildError) as info:
        index.lookup("P67890")
    assert str(info.value).startswith(
        f"{index.dat_path}: entry P67890 at offset {offset}, length {length} does not parse")
    assert str(info.value).endswith("rebuild the index")
    assert isinstance(info.value.__cause__, UnicodeDecodeError)


def test_go_error_names_file_and_term_line(tmp_path):
    go = tmp_path / "bad.obo"
    text = (FIXTURES / "go_mini.obo").read_text(encoding="utf-8")
    go.write_text(text + "\n[Term]\nid: GO:12\nname: short id\nnamespace: molecular_function\n",
                  encoding="utf-8")
    line = len(text.splitlines()) + 2
    with pytest.raises(ParseError) as info:
        build_index(DAT, go)
    assert str(info.value) == f"{go}:{line}: malformed GO id 'GO:12'"


# -- GO -----------------------------------------------------------------------

def test_parse_go_file():
    terms = parse_go_file(FIXTURES / "go_mini.obo")
    assert terms["GO:0016491"].name == "oxidoreductase activity"
    assert terms["GO:0016491"].namespace == "molecular_function"
    assert "part_of" not in terms and len(terms) == 7


def test_resolve_go_molecular_function(annotation_index):
    snippets = annotation_index.resolve_go("GO:0016491", source_accession="Q55C17")
    assert snippets == [
        AnnotationSnippet(
            tag="GO:MOLECULAR_FUNCTION",
            value="oxidoreductase activity",
            source_accession="Q55C17",
        )
    ]


def test_resolve_go_unknown_is_empty(annotation_index):
    assert annotation_index.resolve_go("GO:0099999") == []


def test_resolve_go_malformed_raises(annotation_index):
    with pytest.raises(ValueError, match="malformed GO id"):
        annotation_index.resolve_go("GO:12")


# -- snippet invariants ---------------------------------------------------------

def test_snippet_conservation(annotation_index):
    # snippet count equals CC topic blocks plus qualifying feature keys
    expected = {"Q55C17": 5, "Q3ZCD7": 12, "Q9N5Y2": 3, "P12345": 5, "P67890": 0, "Q8GW45": 3}
    for acc, count in expected.items():
        assert len(annotation_index.lookup(acc).snippets) == count, acc


def test_snippet_validation():
    with pytest.raises(ValueError):
        AnnotationSnippet(tag="  ", value="x", source_accession="P12345")
    with pytest.raises(ValueError):
        AnnotationSnippet(tag="FUNCTION", value="   ", source_accession="P12345")
    with pytest.raises(ValueError):
        AnnotationSnippet(tag="FUNCTION", value="x", source_accession="P12345", homolog_rank=0)
