"""Metric oracles: BLEU-4, ROUGE-L, entity extraction, entity BLEU, aggregation."""

import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, make_pipeline_config
from homorag.config import MODES
from homorag.metrics import (
    BLEU_EPSILON,
    EntityLexicon,
    RecordScores,
    _lcs_length,
    aggregate,
    bleu4,
    bleu_core,
    e_bleu,
    extract_entities,
    render_table,
    rouge_l,
    rows_to_jsonl,
    score_record,
    tokenize,
)
from homorag.pipeline import Pipeline, run_eval


@pytest.fixture(scope="module")
def lexicon():
    return EntityLexicon([
        "kinase", "ATP", "fatty acid", "fatty acid elongation",
        "oxidoreductase activity", "NADPH",
    ])


# -- tokenizer -------------------------------------------------------------------

def test_tokenizer_lowercases_and_detaches_punctuation():
    assert tokenize("The kinase binds ATP.") == ["the", "kinase", "binds", "atp", "."]
    assert tokenize("NADP(+)") == ["nadp", "(", "+", ")"]


# -- BLEU ------------------------------------------------------------------------

def test_bleu4_identity():
    text = "the enzyme reduces the bound intermediate"
    assert bleu4(text, text) == pytest.approx(1.0, abs=1e-12)


def test_bleu4_disjoint_is_near_zero():
    score = bleu4("alpha beta gamma delta", "epsilon zeta eta theta")
    assert score <= BLEU_EPSILON * 2


def test_bleu4_empty_candidate_is_zero():
    assert bleu4("", "anything here") == 0.0


def test_bleu4_matches_manual_arithmetic():
    # candidate: a b c d e ; reference: a b c d f
    # 1-grams: 4/5, 2-grams: 3/4, 3-grams: 2/3, 4-grams: 1/2; equal lengths -> BP = 1
    expected = (4 / 5 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25
    assert bleu4("a b c d e", "a b c d f") == pytest.approx(expected, rel=1e-12)


def test_bleu_brevity_penalty():
    # candidate strictly shorter than reference: BP = exp(1 - r/c)
    cand, ref = "a b", "a b c d"
    expected_bp = math.exp(1 - 4 / 2)
    p1, p2 = 2 / 2, 1 / 1
    expected = expected_bp * (p1 * p2) ** 0.5
    assert bleu_core(tokenize(cand), tokenize(ref), 2) == pytest.approx(expected, rel=1e-12)


def test_perturbed_copy_never_beats_exact_copy():
    rng = random.Random(0)
    words = "alpha beta gamma delta epsilon zeta eta theta".split()
    for _ in range(50):
        ref_tokens = [rng.choice(words) for _ in range(rng.randint(4, 12))]
        ref = " ".join(ref_tokens)
        mutated = list(ref_tokens)
        mutated[rng.randrange(len(mutated))] = "omicron"
        assert bleu4(" ".join(mutated), ref) <= bleu4(ref, ref) + 1e-12


# -- ROUGE-L ----------------------------------------------------------------------

def test_rouge_l_manual_case():
    # LCS("a b c", "a c") = 2; P = 2/3, R = 1 -> F = 0.8
    assert rouge_l("a b c", "a c") == pytest.approx(0.8, rel=1e-12)


def test_rouge_l_identity():
    assert rouge_l("one two three", "one two three") == 1.0


def test_rouge_l_disjoint_and_empty():
    assert rouge_l("a b", "c d") == 0.0
    assert rouge_l("", "a") == 0.0
    assert rouge_l("a", "") == 0.0


# -- entity extraction ---------------------------------------------------------------

def test_extract_simple_entities(lexicon):
    assert extract_entities("the kinase binds ATP", lexicon) == ["kinase", "atp"]


def test_extract_no_matches(lexicon):
    assert extract_entities("nothing relevant here", lexicon) == []


def test_extract_longest_match_wins(lexicon):
    out = extract_entities("rates of fatty acid elongation increased", lexicon)
    assert out == ["fatty acid elongation"]
    out2 = extract_entities("a fatty acid was measured", lexicon)
    assert out2 == ["fatty acid"]


def test_extract_is_case_insensitive(lexicon):
    assert extract_entities("The KINASE uses Atp", lexicon) == ["kinase", "atp"]


def test_lexicon_rejects_empty_entries():
    with pytest.raises(ValueError, match="empty lexicon entry"):
        EntityLexicon(["kinase", "   "])


# -- entity BLEU ------------------------------------------------------------------------

def test_e_bleu_identity(lexicon):
    text = "the kinase binds ATP near the fatty acid elongation site with NADPH"
    assert e_bleu(text, text, lexicon, 2) == pytest.approx(1.0, abs=1e-12)
    assert e_bleu(text, text, lexicon, 4) == pytest.approx(1.0, abs=1e-12)


def test_e_bleu_candidate_without_entities(lexicon):
    assert e_bleu("no relevant words", "the kinase binds ATP", lexicon, 2) == 0.0


def test_e_bleu_manual_entity_arithmetic(lexicon):
    # candidate entities: [kinase, atp, nadph]; reference: [kinase, atp, fatty acid]
    # 1-grams 2/3, 2-grams 1/2, equal lengths -> BP = 1
    cand = "a kinase then ATP then NADPH"
    ref = "a kinase then ATP then fatty acid"
    expected = (2 / 3 * 1 / 2) ** 0.5
    assert e_bleu(cand, ref, lexicon, 2) == pytest.approx(expected, rel=1e-12)


def test_e_bleu_invariant_to_non_entity_rewording(lexicon):
    rng = random.Random(1)
    fillers = "molecule protein residue sample tissue assay buffer".split()
    base = "the kinase binds ATP and NADPH"
    ref = "a kinase uses ATP with NADPH"
    baseline = e_bleu(base, ref, lexicon, 2)
    for _ in range(50):
        reworded = " ".join(
            tok if tok in ("kinase", "ATP", "NADPH") else rng.choice(fillers)
            for tok in base.split()
        )
        assert e_bleu(reworded, ref, lexicon, 2) == pytest.approx(baseline, rel=1e-12)


def test_e_bleu_rejects_other_orders(lexicon):
    with pytest.raises(ValueError):
        e_bleu("a", "b", lexicon, 3)


# -- aggregation ---------------------------------------------------------------------------

def row(rid, task, candidate, reference, lexicon):
    return {"id": rid, "task": task, "scores": score_record(candidate, reference, lexicon)}


def test_aggregate_single_record(lexicon):
    rows = [row("r1", "t", "the kinase binds ATP", "the kinase binds ATP", lexicon)]
    table = aggregate(rows)
    assert len(table) == 1
    assert table[0].display() == {"bleu4": 100.0, "rouge_l": 100.0,
                                  "e_bleu2": 100.0, "e_bleu4": 100.0}


def test_aggregate_mean_and_scaling(lexicon):
    class FakeScores:
        def __init__(self, value):
            self.bleu4 = self.rouge_l = self.e_bleu2 = self.e_bleu4 = value
            self.ref_entities_empty = False

    rows = [
        {"id": "a", "task": "t", "scores": FakeScores(0.2)},
        {"id": "b", "task": "t", "scores": FakeScores(0.4)},
    ]
    table = aggregate(rows)
    assert table[0].display()["bleu4"] == 30.0


def test_aggregate_excludes_entity_empty_references(lexicon):
    rows = [
        row("r1", "t", "the kinase binds ATP", "the kinase binds ATP", lexicon),
        row("r2", "t", "some words", "words without entities", lexicon),
    ]
    table = aggregate(rows)
    assert table[0].n_entity_empty == 1
    assert table[0].display()["e_bleu2"] == 100.0  # only r1 contributes
    assert table[0].n_records == 2


def test_aggregate_stable_under_record_order(lexicon):
    rng = random.Random(3)
    rows = [
        row(f"r{i}", rng.choice(["t1", "t2"]),
            "the kinase binds ATP quickly", "a kinase binds ATP", lexicon)
        for i in range(20)
    ]
    table_a = aggregate(rows)
    shuffled = rng.sample(rows, len(rows))
    table_b = aggregate(shuffled)
    assert render_table(table_a).encode() == render_table(table_b).encode()
    assert rows_to_jsonl(table_a) == rows_to_jsonl(table_b)


def test_aggregate_requires_records():
    with pytest.raises(ValueError):
        aggregate([])


def test_render_table_shape(lexicon):
    rows = [row("r1", "alpha", "the kinase binds ATP", "the kinase binds ATP", lexicon)]
    text = render_table(aggregate(rows))
    lines = text.splitlines()
    assert lines[0].split()[:3] == ["task", "n", "entity_empty"]
    assert lines[2].startswith("alpha")


# -- equivalence with the straight-line references ------------------------------------------
#
# score_record tokenizes and entity-scans each side once, scans with a
# first-token index and computes the LCS bit-parallel. The references below
# are the plain versions: an O(n*m) LCS table, a greedy scan that tries every
# span up to the longest form, and per-metric re-tokenization. Scores must be
# equal with ==, not approximately.

def reference_lcs_length(a, b):
    prev = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        cur = [0] * (len(b) + 1)
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def reference_extract_entities(text, lexicon):
    forms = {tuple(form.split()): form for form in lexicon.forms()}
    max_len = max((len(k) for k in forms), default=0)
    tokens = tokenize(text)
    entities = []
    i = 0
    while i < len(tokens):
        matched = False
        for span in range(min(max_len, len(tokens) - i), 0, -1):
            key = tuple(tokens[i: i + span])
            if key in forms:
                entities.append(forms[key])
                i += span
                matched = True
                break
        if not matched:
            i += 1
    return entities


def reference_bleu(candidate, reference, max_n):
    c, r = len(candidate), len(reference)
    if c == 0 or r == 0:
        return 0.0
    max_n = max(1, min(max_n, c, r))
    log_sum = 0.0
    for n in range(1, max_n + 1):
        total = max(0, c - n + 1)
        if total == 0:
            precision = BLEU_EPSILON
        else:
            cand_counts = Counter(tuple(candidate[i: i + n]) for i in range(c - n + 1))
            ref_counts = Counter(tuple(reference[i: i + n]) for i in range(r - n + 1))
            matches = sum(min(count, ref_counts[gram]) for gram, count in cand_counts.items())
            precision = matches / total if matches > 0 else BLEU_EPSILON
        log_sum += math.log(precision)
    brevity = 1.0 if c >= r else math.exp(1.0 - r / c)
    return brevity * math.exp(log_sum / max_n)


def reference_rouge_l(candidate, reference):
    cand, ref = tokenize(candidate), tokenize(reference)
    if not cand or not ref:
        return 0.0
    lcs = reference_lcs_length(cand, ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    return 2.0 * precision * recall / (precision + recall)


def reference_score_record(candidate, reference, lexicon):
    def entity_bleu(n):
        cand_entities = reference_extract_entities(candidate, lexicon)
        if not cand_entities:
            return 0.0
        return reference_bleu(cand_entities, reference_extract_entities(reference, lexicon), n)

    return RecordScores(
        bleu4=reference_bleu(tokenize(candidate), tokenize(reference), 4),
        rouge_l=reference_rouge_l(candidate, reference),
        e_bleu2=entity_bleu(2),
        e_bleu4=entity_bleu(4),
        ref_entities_empty=not reference_extract_entities(reference, lexicon),
    )


# forms that overlap ("acid biosynthesis" / "fatty acid") and forms that are
# prefixes of other forms ("fatty acid" / "fatty acid biosynthesis")
OVERLAPPING_FORMS = [
    "fatty acid", "fatty acid biosynthesis", "acid biosynthesis", "acid", "kinase",
    "protein kinase", "protein kinase activity", "kinase activity", "ATP", "ATP binding",
    "a b", "a b c d", "b c", "c", "(+)",
]
WORDS = ["fatty", "Fatty", "acid", "ACID", "biosynthesis", "protein", "kinase", "activity",
         "atp", "binding", "a", "b", "c", "d", "the", ".", ",", "(", "+", ")", "x"]

word_lists = st.lists(st.sampled_from(WORDS), max_size=40)
random_forms = st.lists(
    st.lists(st.sampled_from(WORDS[:12]), min_size=1, max_size=4).map(" ".join),
    min_size=1, max_size=12,
)


@settings(max_examples=300)
@given(st.lists(st.sampled_from("abcdefg"), max_size=150),
       st.lists(st.sampled_from("abcdefg"), max_size=150))
def test_bit_parallel_lcs_equals_dp_table(a, b):
    assert _lcs_length(a, b) == reference_lcs_length(a, b)


@settings(max_examples=300)
@given(word_lists, random_forms)
def test_indexed_scan_equals_greedy_scan(words, forms):
    text = " ".join(words)
    for lexicon in (EntityLexicon(OVERLAPPING_FORMS), EntityLexicon(forms)):
        assert extract_entities(text, lexicon) == reference_extract_entities(text, lexicon)


@settings(max_examples=300)
@given(word_lists, word_lists, random_forms)
def test_score_record_equals_reference(cand_words, ref_words, forms):
    candidate, reference = " ".join(cand_words), " ".join(ref_words)
    for lexicon in (EntityLexicon(OVERLAPPING_FORMS), EntityLexicon(forms)):
        expected = reference_score_record(candidate, reference, lexicon)
        assert score_record(candidate, reference, lexicon) == expected
        assert (bleu4(candidate, reference), rouge_l(candidate, reference),
                e_bleu(candidate, reference, lexicon, 2),
                e_bleu(candidate, reference, lexicon, 4)) == (
            expected.bleu4, expected.rouge_l, expected.e_bleu2, expected.e_bleu4)


def test_overlapping_forms_take_the_longest_match_at_each_position():
    lexicon = EntityLexicon(OVERLAPPING_FORMS)
    text = "fatty acid biosynthesis then acid biosynthesis then fatty acid x a b c"
    assert extract_entities(text, lexicon) == [
        "fatty acid biosynthesis", "acid biosynthesis", "fatty acid", "a b", "c",
    ]


def test_run_eval_tables_over_fixture_batches_are_unchanged(index_dir, filter_model_path,
                                                            tmp_path):
    # eval_golden.txt holds the tables of the per-metric scoring code that
    # tokenized each side once per metric; every artifact is also scored
    # against the reference exactly
    lexicon = EntityLexicon.from_file(FIXTURES / "lexicon.txt")
    text = ""
    for mode in MODES:
        config = make_pipeline_config(index_dir, filter_model_path, tmp_path / mode, mode=mode)
        out = tmp_path / mode / "run"
        Pipeline(config).run_batch(FIXTURES / "qa_records.jsonl", out)
        table = run_eval(out, lexicon)
        text += f"{mode}\n{rows_to_jsonl(table)}{render_table(table)}\n"
        for path in sorted((out / "artifacts").glob("*.json")):
            data = json.loads(path.read_text(encoding="utf-8"))
            answer, reference = data["answer"] or "", data["reference"]
            assert score_record(answer, reference, lexicon) == \
                reference_score_record(answer, reference, lexicon)
    assert text == (FIXTURES / "eval_golden.txt").read_text(encoding="utf-8")
