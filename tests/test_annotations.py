"""Flat-file parser, GO resolution, and index behavior."""

import re
import shutil
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from homorag.annotations import (
    AccessionNotFound,
    AnnotationIndex,
    AnnotationSnippet,
    IndexBuildError,
    ParseError,
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
    index.lookup("Q3ZCD7")                  # looked up once: not kept
    dat.rename(tmp_path / "moved.dat")
    assert index.lookup("Q55C17") == first
    with pytest.raises(FileNotFoundError):
        index.lookup("Q3ZCD7")


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


def _record_text(index, accession):
    offset, length = index.records[accession]
    with open(index.dat_path, "rb") as fh:
        fh.seek(offset)
        return fh.read(length).decode("utf-8")


def test_index_rebuild_is_idempotent(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    build_index(DAT, FIXTURES / "go_mini.obo", out1)
    build_index(DAT, FIXTURES / "go_mini.obo", out2)
    assert (out1 / "records.tsv").read_bytes() == (out2 / "records.tsv").read_bytes()
    assert (out1 / "go_terms.tsv").read_bytes() == (out2 / "go_terms.tsv").read_bytes()


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


def test_truncated_final_record(tmp_path):
    dat = tmp_path / "trunc.dat"
    dat.write_text(
        "ID   A_TEST                  Reviewed;          10 AA.\nAC   P11111;\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match="truncated"):
        build_index(dat)


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
