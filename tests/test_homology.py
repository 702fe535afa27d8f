"""Hit parsing, ranking, exclusion filters, and raw pool assembly."""

import ast
import io
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from homorag.annotations import AnnotationSnippet
from homorag.config import RetrievalConfig
from homorag.homology import (
    BlastParseError,
    EvidencePool,
    HomologHit,
    PoolHomolog,
    Stage,
    apply_identity_ceiling,
    assemble_raw_pool,
    check_residues,
    exclude_self_hits,
    format_hits,
    load_hits,
    parse_blast_tabular,
    rank_and_select,
    read_fasta_first,
)


def make_hit(acc="Q55C17", qid="q1", alen=100, nident=90, evalue=1e-50, bits=300.0):
    return HomologHit(
        query_id=qid,
        subject_accession=acc,
        percent_identity=round(100.0 * nident / alen, 2),
        alignment_length=alen,
        identity_count=nident,
        e_value=evalue,
        bitscore=bits,
    )


hit_strategy = st.builds(
    lambda alen, nident_frac, evalue, bits, acc: make_hit(
        acc=acc, alen=alen, nident=max(0, min(alen, int(alen * nident_frac))),
        evalue=evalue, bits=bits,
    ),
    alen=st.integers(min_value=1, max_value=500),
    nident_frac=st.floats(min_value=0.0, max_value=1.0),
    evalue=st.floats(min_value=0.0, max_value=10.0),
    bits=st.floats(min_value=0.0, max_value=1000.0),
    acc=st.text(alphabet="QP", min_size=1, max_size=2).map(lambda s: s + "12345"[: 6 - len(s)].ljust(5, "0")),
)


# -- residue check --------------------------------------------------------------

def test_check_residues_alphabet():
    check_residues("acdefghiklmnpqrstvwybzxuo", "q1")
    with pytest.raises(ValueError, match=r"^q1: invalid residues \['J'\]$"):
        check_residues("ACDJ", "q1")


# -- parsing --------------------------------------------------------------------

def test_parse_simple_row():
    hits = parse_blast_tabular(io.StringIO("q1\tQ55C17\t98.39\t310\t305\t1e-150\t880\n"))
    assert len(hits) == 1
    h = hits[0]
    assert h.subject_accession == "Q55C17"
    assert h.e_value == 1e-150
    assert h.identity_count == 305
    assert h.bitscore == 880.0


def test_parse_empty_stream():
    assert parse_blast_tabular(io.StringIO("")) == []


def test_parse_wrong_column_count():
    with pytest.raises(BlastParseError, match="row 1: expected 7"):
        parse_blast_tabular(io.StringIO("q1\tQ55C17\t90.0\n"))


def test_parse_non_numeric_field():
    with pytest.raises(BlastParseError, match="row 2"):
        parse_blast_tabular(io.StringIO(
            "q1\tQ55C17\t90.00\t100\t90\t1e-10\t200\n"
            "q1\tQ3ZCD7\t90.00\tabc\t90\t1e-10\t200\n"
        ))


def test_parse_rejects_identity_above_length():
    with pytest.raises(BlastParseError, match="row 1.*identity_count"):
        parse_blast_tabular(io.StringIO("q1\tQ55C17\t101.00\t100\t101\t1e-10\t200\n"))


def test_parse_rejects_inconsistent_pident():
    # 90/100 residues is 90.00, far outside +-0.05 of the declared 80.00
    with pytest.raises(BlastParseError, match="inconsistent"):
        parse_blast_tabular(io.StringIO("q1\tQ55C17\t80.00\t100\t90\t1e-10\t200\n"))


@pytest.mark.parametrize("row, name, value", [
    ("q1\tQ55C17\tnan\t100\t90\t1e-10\t200\n", "percent_identity", "nan"),
    ("q1\tQ55C17\t90.00\t100\t90\tnan\t200\n", "e_value", "nan"),
    ("q1\tQ55C17\t90.00\t100\t90\t1e-10\tinf\n", "bitscore", "inf"),
], ids=["pident", "evalue", "bitscore"])
def test_load_hits_refuses_a_non_finite_number_at_its_row(tmp_path, row, name, value):
    path = tmp_path / "hits.tsv"
    path.write_text("q1\tQ3ZCD7\t90.00\t100\t90\t1e-10\t200\n" + row, encoding="utf-8")
    with pytest.raises(BlastParseError) as info:
        load_hits(path)
    assert str(info.value) == f"{path}:2: {name} must be finite, got {value}"


def test_parse_preserves_order_and_skips_comments():
    hits = parse_blast_tabular(io.StringIO(
        "# comment line\n"
        "q1\tB11111\t50.00\t100\t50\t1e-5\t100\n"
        "q1\tA11111\t60.00\t100\t60\t1e-9\t150\n"
    ))
    assert [h.subject_accession for h in hits] == ["B11111", "A11111"]


@st.composite
def valid_hits(draw):
    ids = st.text(alphabet="ABCPQXYZ0123456789-_.|:", min_size=1, max_size=12)
    alen = draw(st.integers(min_value=1, max_value=100_000))
    nident = draw(st.integers(min_value=0, max_value=alen))  # 0 and alen give 0.0 and 100.0
    implied = 100.0 * nident / alen
    return HomologHit(
        query_id=draw(ids),
        subject_accession=draw(ids),
        percent_identity=draw(st.sampled_from([implied, round(implied, 2)])),
        alignment_length=alen,
        identity_count=nident,
        e_value=draw(st.one_of(st.sampled_from([0.0, 1e-300, 5e-324, 1.0, 10.0]),
                               st.floats(min_value=0.0, max_value=1e6))),
        bitscore=draw(st.one_of(st.integers(min_value=0, max_value=10**9).map(float),
                                st.floats(min_value=0.0, max_value=1e300))),
    )


@settings(max_examples=300)
@given(st.lists(valid_hits(), max_size=20))
def test_format_hits_round_trips_through_the_parser(hits):
    text = format_hits(hits)
    assert text.count("\n") == len(hits)
    assert parse_blast_tabular(text.splitlines()) == hits


def test_load_hits_groups_by_query_in_input_order(tmp_path):
    path = tmp_path / "hits.tsv"
    path.write_text(
        "# interleaved queries\n"
        "q2\tC11111\t70.00\t100\t70\t1e-7\t120\n"
        "q1\tB11111\t50.00\t100\t50\t1e-5\t100\n"
        "q2\tA11111\t60.00\t100\t60\t1e-9\t150\n"
        "q1\tA11111\t60.00\t100\t60\t1e-9\t150\n"
        "q2\tB11111\t50.00\t100\t50\t1e-5\t100\n",
        encoding="utf-8",
    )
    by_query = load_hits(path)
    assert list(by_query) == ["q2", "q1"]
    assert [h.subject_accession for h in by_query["q1"]] == ["B11111", "A11111"]
    assert [h.subject_accession for h in by_query["q2"]] == ["C11111", "A11111", "B11111"]
    assert all(h.query_id == q for q, hits in by_query.items() for h in hits)
    (tmp_path / "empty.tsv").write_text("", encoding="utf-8")
    assert load_hits(tmp_path / "empty.tsv") == {}


# -- ranking ---------------------------------------------------------------------

def test_rank_by_evalue():
    hits = [
        make_hit(acc="A00001", evalue=1e-5),
        make_hit(acc="B00001", evalue=1e-50),
        make_hit(acc="C00001", evalue=1e-20),
    ]
    out = rank_and_select(hits, RetrievalConfig(top_k=3, exclude_self=False))
    assert [h.e_value for h in out] == [1e-50, 1e-20, 1e-5]


def test_rank_tie_breaks_lexicographic():
    hits = [
        make_hit(acc="B00001", evalue=1e-10, bits=200.0),
        make_hit(acc="A00001", evalue=1e-10, bits=200.0),
    ]
    out = rank_and_select(hits, RetrievalConfig(top_k=2, exclude_self=False))
    assert [h.subject_accession for h in out] == ["A00001", "B00001"]


def test_rank_bitscore_breaks_evalue_ties():
    hits = [
        make_hit(acc="A00001", evalue=0.0, bits=100.0),
        make_hit(acc="B00001", evalue=0.0, bits=300.0),
    ]
    out = rank_and_select(hits, RetrievalConfig(top_k=2, exclude_self=False))
    assert [h.bitscore for h in out] == [300.0, 100.0]


def test_rank_requires_single_query():
    hits = [make_hit(qid="q1"), make_hit(qid="q2")]
    with pytest.raises(ValueError, match="multiple query ids"):
        rank_and_select(hits, RetrievalConfig(exclude_self=False))


def test_rank_prefix_of_full_sort_matches_bruteforce():
    rng = random.Random(42)
    hits = [
        make_hit(
            acc=f"A{rng.randint(10000, 99999)}",
            alen=rng.randint(10, 200),
            nident=0,
            evalue=rng.choice([0.0, 1e-100, 1e-50, 1e-10, 1.0]),
            bits=float(rng.randint(50, 900)),
        )
        for _ in range(10)
    ]
    hits = [
        HomologHit(
            query_id="q1", subject_accession=h.subject_accession,
            percent_identity=h.percent_identity, alignment_length=h.alignment_length,
            identity_count=h.identity_count, e_value=h.e_value, bitscore=h.bitscore,
        )
        for h in hits
    ]
    brute = sorted(hits, key=lambda h: (h.e_value, -h.bitscore, h.subject_accession))
    out = rank_and_select(hits, RetrievalConfig(top_k=3, exclude_self=False))
    assert out == brute[:3]


@settings(max_examples=100)
@given(st.lists(hit_strategy, max_size=100), st.integers(min_value=1, max_value=5))
def test_rank_output_is_prefix_of_sorted_survivors(hits, k):
    config = RetrievalConfig(top_k=k, exclude_self=False)
    out = rank_and_select(hits, config) if len({h.query_id for h in hits}) <= 1 else []
    if hits:
        full = sorted(hits, key=lambda h: (h.e_value, -h.bitscore, h.subject_accession))
        assert out == full[:k]


def test_fewer_than_k_survivors_allowed():
    hits = [make_hit(acc="A00001")]
    assert len(rank_and_select(hits, RetrievalConfig(top_k=3, exclude_self=False))) == 1
    assert rank_and_select([], RetrievalConfig()) == []


# -- self-hit exclusion ------------------------------------------------------------

def test_exclude_exact_self_hit():
    self_hit = make_hit(alen=100, nident=100)
    assert exclude_self_hits([self_hit], 100) == []


def test_one_mismatch_is_retained():
    near = make_hit(alen=100, nident=99)
    assert exclude_self_hits([near], 100) == [near]


def test_exclusion_is_idempotent():
    rng = random.Random(7)
    hits = []
    for _ in range(50):
        alen = rng.randint(50, 150)
        nident = rng.randint(0, alen)
        hits.append(make_hit(alen=alen, nident=nident))
    once = exclude_self_hits(hits, 100)
    assert exclude_self_hits(once, 100) == once


@settings(max_examples=200)
@given(st.lists(hit_strategy, max_size=20), st.integers(min_value=1, max_value=500))
def test_no_survivor_is_self(hits, qlen):
    for h in exclude_self_hits(hits, qlen):
        assert not (h.alignment_length == h.identity_count == qlen)


# -- identity ceiling ---------------------------------------------------------------

def test_ceiling_removes_above():
    hit = make_hit(alen=100, nident=85)  # 85.00%
    assert apply_identity_ceiling([hit], 0.8) == []


def test_ceiling_boundary_is_strict():
    hit = make_hit(alen=100, nident=80)  # exactly 80.00%
    assert apply_identity_ceiling([hit], 0.8) == [hit]


def test_ceiling_one_keeps_everything():
    hits = [make_hit(alen=100, nident=n) for n in (0, 50, 100)]
    assert apply_identity_ceiling(hits, 1.0) == hits


@settings(max_examples=100)
@given(st.lists(hit_strategy, max_size=20),
       st.floats(min_value=0.05, max_value=1.0),
       st.floats(min_value=0.05, max_value=1.0))
def test_ceiling_monotone(hits, a, b):
    lo, hi = sorted((a, b))
    kept_lo = apply_identity_ceiling(hits, lo)
    kept_hi = apply_identity_ceiling(hits, hi)
    assert set(id(h) for h in kept_lo) <= set(id(h) for h in kept_hi)


# -- raw pool -------------------------------------------------------------------------

def test_assemble_pool_counts(annotation_index):
    hits = [
        make_hit(acc="Q55C17", alen=64, nident=63),
        make_hit(acc="Q9N5Y2", alen=64, nident=51),
    ]
    pool = assemble_raw_pool(hits, annotation_index, resolve_go=False)
    assert pool.stage == Stage.RAW
    assert [h.rank for h in pool.homologs] == [1, 2]
    assert len(pool.homologs[0].snippets) == 5
    assert len(pool.homologs[1].snippets) == 3
    assert all(s.homolog_rank == h.rank for h in pool.homologs for s in h.snippets)


def test_assemble_pool_with_go_supplement(annotation_index):
    hits = [make_hit(acc="Q55C17")]
    pool = assemble_raw_pool(hits, annotation_index, resolve_go=True)
    tags = [s.tag for s in pool.snippets()]
    assert "GO:MOLECULAR_FUNCTION" in tags
    assert "GO:CELLULAR_COMPONENT" in tags
    assert "GO:BIOLOGICAL_PROCESS" in tags
    # 5 CC snippets + 3 resolved GO ids
    assert len(tags) == 8


def test_assemble_pool_skips_missing_accession(annotation_index):
    hits = [make_hit(acc="A9X9X9"), make_hit(acc="Q55C17")]
    pool = assemble_raw_pool(hits, annotation_index, resolve_go=False)
    assert [h.hit.subject_accession for h in pool.homologs] == ["Q55C17"]
    assert [h.rank for h in pool.homologs] == [1]
    assert any("A9X9X9" in w for w in pool.warnings)


def test_pool_multiset_equals_union(annotation_index):
    hits = [make_hit(acc="Q55C17"), make_hit(acc="Q9N5Y2")]
    pool = assemble_raw_pool(hits, annotation_index, resolve_go=False)
    expected = []
    for rank, acc in ((1, "Q55C17"), (2, "Q9N5Y2")):
        for s in annotation_index.lookup(acc).snippets:
            expected.append((s.tag, s.value, s.source_accession, rank))
    assert sorted(pool.snippet_multiset().elements()) == sorted(expected)


def test_zero_hits_yield_empty_pool(annotation_index):
    pool = assemble_raw_pool([], annotation_index)
    assert pool.homologs == ()
    assert pool.snippets() == []


# -- pool invariants -----------------------------------------------------------------

def test_pool_requires_contiguous_ranks():
    hit = make_hit()
    with pytest.raises(ValueError, match="contiguous"):
        EvidencePool(stage=Stage.RAW, homologs=(PoolHomolog(rank=2, hit=hit, snippets=()),))


def test_pool_round_trips_through_dict(annotation_index):
    pool = assemble_raw_pool([make_hit(acc="Q55C17")], annotation_index)
    assert EvidencePool.from_dict(pool.to_dict()) == pool


# -- keep: the one way to derive a filtered pool ----------------------------------------

@st.composite
def pools(draw):
    sizes = draw(st.lists(st.integers(min_value=0, max_value=4), max_size=5))
    homologs = tuple(
        PoolHomolog(rank=rank, hit=make_hit(acc=f"P{rank:05d}"), snippets=tuple(
            AnnotationSnippet(tag=draw(st.sampled_from(["FUNCTION", "DOMAIN", "GO"])),
                              value=f"v{rank}.{j}", source_accession=f"P{rank:05d}",
                              homolog_rank=rank)
            for j in range(size)))
        for rank, size in enumerate(sizes, start=1)
    )
    warnings = tuple(draw(st.lists(st.sampled_from(["w1", "w2"]), max_size=2)))
    return EvidencePool(stage=draw(st.sampled_from(list(Stage))), homologs=homologs,
                        warnings=warnings)


def keep_reference(pool, indices):
    """(rank, hit, snippets) per slot, by walking the flat positions one by one."""
    wanted = set(indices)
    slots = []
    position = 0
    for h in pool.homologs:
        kept = []
        for s in h.snippets:
            if position in wanted:
                kept.append(s)
            position += 1
        slots.append((h.rank, h.hit, tuple(kept)))
    return slots


@settings(max_examples=300)
@given(pools(), st.data(), st.sampled_from(list(Stage)))
def test_keep_matches_reference(pool, data, stage):
    n = len(pool.snippets())
    indices = data.draw(st.lists(st.integers(min_value=0, max_value=max(n - 1, 0)), max_size=8))
    kept = pool.keep(stage, indices)
    assert kept.stage == stage
    assert kept.warnings == pool.warnings
    assert [(h.rank, h.hit, h.snippets) for h in kept.homologs] == keep_reference(pool, indices)
    assert kept.snippets() == [s for i, s in enumerate(pool.snippets()) if i in set(indices)]

    everything = pool.keep(stage, range(n))
    assert everything.homologs == pool.homologs
    assert everything.snippets() == pool.snippets()
    nothing = pool.keep(stage, [])
    assert [(h.rank, h.hit) for h in nothing.homologs] == [(h.rank, h.hit) for h in pool.homologs]
    assert all(h.snippets == () for h in nothing.homologs)


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "homorag"


def pool_homolog_calls(source: str) -> list[int]:
    """Line numbers of calls to `PoolHomolog(...)`, bare or through a module."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) == "PoolHomolog"
            or getattr(node.func, "attr", None) == "PoolHomolog")
    )


def test_scan_finds_each_way_of_building_a_slot():
    source = "\n".join([
        "PoolHomolog(rank=1, hit=h, snippets=())", "homology.PoolHomolog(1, h, ())",
        "PoolHomolog.from_dict(d)", "x = PoolHomolog", "keep(PoolHomolog)",
    ])
    assert pool_homolog_calls(source) == [1, 2]


def test_only_homology_builds_pool_slots():
    modules = sorted(PACKAGE.glob("*.py"))
    assert pool_homolog_calls((PACKAGE / "homology.py").read_text(encoding="utf-8"))
    builders = {
        path.name: found for path in modules if path.name != "homology.py"
        if (found := pool_homolog_calls(path.read_text(encoding="utf-8")))
    }
    assert builders == {}


# -- fasta ----------------------------------------------------------------------------

def test_read_fasta_first(tmp_path):
    path = tmp_path / "q.fasta"
    path.write_text(">seq1 description\nMKVT\nVVSG\n>seq2\nAAAA\n", encoding="utf-8")
    assert read_fasta_first(path) == ("seq1", "MKVTVVSG")


def test_read_fasta_first_refuses_a_record_without_residues(tmp_path):
    path = tmp_path / "q.fasta"
    path.write_text(">seq1 description\n>seq2\nAAAA\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_fasta_first(path)
    assert str(info.value) == f"{path}: query seq1 has no residues"
