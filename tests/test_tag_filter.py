"""Information-gain machinery and the tag relevance classifier."""

import json
import math
import random
import re
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, SYNTH_TYPES, make_synthetic_examples, split_examples
from homorag.annotations import AnnotationSnippet
from homorag.config import IgConfig
from homorag.homology import EvidencePool, HomologHit, PoolHomolog, Stage
from homorag.tag_filter import (
    DistillationExample,
    FEATURE_DIM,
    FilterModel,
    Fragment,
    PROB_FLOOR,
    ScorerError,
    TAG_MEMO_SIZE,
    TokenProbSequence,
    _tag_part,
    build_distillation_set,
    extract_features,
    gate,
    information_gain,
    label_snippet,
    make_query_context,
    read_examples,
    segment_ig,
    smooth_probs,
    split_fragments,
    train_filter,
    weighted_confidence,
    write_examples,
)


def seq(probs):
    return TokenProbSequence(tokens=tuple(f"t{i}" for i in range(len(probs))), probs=tuple(probs))


# -- independent straight-line re-implementation used as the oracle ---------------

def oracle_smooth(probs, window):
    half = window // 2
    out = []
    for i in range(len(probs)):
        lo = max(0, i - half)
        hi = min(len(probs), i + half + 1)
        out.append(sum(probs[lo:hi]) / (hi - lo))
    return out


def oracle_confidence(probs, head_k, omega, alpha):
    k = min(head_k, len(probs))
    value = 1.0
    for i, p in enumerate(probs):
        p = max(p, PROB_FLOOR)
        value *= p ** (omega * alpha) if i < k else p ** (1.0 - alpha)
    return value


def oracle_ig(probs_with, probs_without, cfg):
    cw = oracle_confidence(oracle_smooth(probs_with, cfg.window), cfg.head_k, cfg.omega, cfg.alpha)
    co = oracle_confidence(oracle_smooth(probs_without, cfg.window), cfg.head_k, cfg.omega, cfg.alpha)
    return cw - co


class FixedScorer:
    """Maps (prompt, target) to preset probability lists."""

    def __init__(self, table):
        self.table = table

    def score_tokens(self, prompt, target):
        probs = self.table[(prompt, target)]
        return seq(probs)


class FailingScorer:
    def __init__(self, fail_when):
        self.fail_when = fail_when

    def score_tokens(self, prompt, target):
        if self.fail_when(prompt):
            raise RuntimeError("backend exploded")
        return seq([0.5, 0.5])


# -- smoothing ---------------------------------------------------------------------

def test_smooth_window3_truncates_at_boundary():
    out = smooth_probs(seq([0.2, 0.4, 0.6]), 3)
    assert out.probs[0] == pytest.approx((0.2 + 0.4) / 2)
    assert out.probs[1] == pytest.approx(0.4)
    assert out.probs[2] == pytest.approx((0.4 + 0.6) / 2)


def test_smooth_window1_is_identity():
    s = seq([0.1, 0.9, 0.3])
    assert smooth_probs(s, 1) == s


def test_smooth_constant_unchanged():
    s = seq([0.7] * 4)
    for window in (1, 3, 5, 7):
        assert smooth_probs(s, window).probs == pytest.approx((0.7,) * 4)


def test_smooth_empty():
    empty = TokenProbSequence(tokens=(), probs=())
    assert smooth_probs(empty, 3) == empty


def test_smooth_rejects_even_window():
    with pytest.raises(ValueError, match="odd"):
        smooth_probs(seq([0.5]), 2)


@settings(max_examples=100)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=30),
       st.sampled_from([1, 3, 5, 7]))
def test_smooth_stays_in_unit_interval(probs, window):
    out = smooth_probs(seq(probs), window)
    assert all(0.0 <= p <= 1.0 for p in out.probs)
    assert out.probs == pytest.approx(tuple(oracle_smooth(probs, window)))


# -- weighted confidence --------------------------------------------------------------

def test_confidence_head_only_example():
    cfg = IgConfig(window=1, head_k=1, omega=0.8, alpha=1.0)
    value = weighted_confidence(seq([0.5, 0.5]), cfg)
    assert value == pytest.approx(0.5 ** 0.8, rel=1e-12)


def test_confidence_alpha_zero_is_plain_product():
    # alpha=0: head exponents vanish (factors become 1), tail exponent is 1
    cfg = IgConfig(window=1, head_k=0, omega=0.8, alpha=0.0)
    value = weighted_confidence(seq([0.5, 0.25, 0.5]), cfg)
    assert value == pytest.approx(0.5 * 0.25 * 0.5, rel=1e-12)
    cfg_head = IgConfig(window=1, head_k=2, omega=0.8, alpha=0.0)
    assert weighted_confidence(seq([0.5, 0.25, 0.5]), cfg_head) == pytest.approx(0.5, rel=1e-12)


def test_confidence_empty_sequence_is_one():
    cfg = IgConfig()
    assert weighted_confidence(TokenProbSequence(tokens=(), probs=()), cfg) == 1.0


def test_confidence_floors_zero_probs():
    cfg = IgConfig(window=1, head_k=0, omega=0.8, alpha=0.0)
    value = weighted_confidence(seq([0.0]), cfg)
    assert value == pytest.approx(PROB_FLOOR, rel=1e-9)


# -- information gain --------------------------------------------------------------------

def test_ig_identical_legs_is_zero():
    cfg = IgConfig()
    ctx = "Instruction: x\nSequence: y"
    scorer = FixedScorer({
        (f"{ctx}\nEvidence: doc", "target"): [0.4, 0.4],
        (ctx, "target"): [0.4, 0.4],
    })
    assert information_gain(scorer, ctx, "doc", "target", cfg) == 0.0


def test_ig_simple_subtraction_with_trivial_weighting():
    # single token, window 1, alpha 0 -> plain probability difference
    cfg = IgConfig(window=1, head_k=0, alpha=0.0)
    ctx = "q"
    scorer = FixedScorer({(f"{ctx}\nEvidence: d", "y"): [0.60], (ctx, "y"): [0.55]})
    assert information_gain(scorer, ctx, "d", "y", cfg) == pytest.approx(0.05, rel=1e-12)


def test_ig_matches_hand_traced_pipeline():
    cfg = IgConfig(window=3, head_k=1, omega=0.8, alpha=0.5)
    with_doc = [0.9, 0.8, 0.7]
    without = [0.4, 0.5, 0.4]
    ctx = "q"
    scorer = FixedScorer({(f"{ctx}\nEvidence: d", "y"): with_doc, (ctx, "y"): without})
    assert information_gain(scorer, ctx, "d", "y", cfg) == pytest.approx(
        oracle_ig(with_doc, without, cfg), rel=1e-12
    )


def test_ig_error_names_failing_leg():
    cfg = IgConfig()
    with pytest.raises(ScorerError, match="with-document leg"):
        information_gain(FailingScorer(lambda p: "Evidence:" in p), "q", "d", "y", cfg)
    with pytest.raises(ScorerError, match="without-document leg"):
        information_gain(FailingScorer(lambda p: "Evidence:" not in p), "q", "d", "y", cfg)


@settings(max_examples=150)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=25),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=25),
    st.sampled_from([1, 3, 5]),
    st.integers(min_value=0, max_value=8),
    st.floats(min_value=0.1, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_ig_bounded(pw, po, window, head_k, omega, alpha):
    cfg = IgConfig(window=window, head_k=head_k, omega=omega, alpha=alpha)
    ctx = "q"
    scorer = FixedScorer({(f"{ctx}\nEvidence: d", "y"): pw, (ctx, "y"): po})
    value = information_gain(scorer, ctx, "d", "y", cfg)
    assert -1.0 <= value <= 1.0


# -- the confidence kernel against the straight-line version it replaced --------------------

def straight_line_smooth_probs(seq: TokenProbSequence, window: int) -> TokenProbSequence:
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be an odd integer >= 1, got {window}")
    n = len(seq)
    if n == 0:
        return seq
    half = window // 2
    probs = seq.probs
    smoothed = tuple(
        sum(probs[max(0, i - half): min(n, i + half + 1)])
        / (min(n, i + half + 1) - max(0, i - half))
        for i in range(n)
    )
    return TokenProbSequence(tokens=seq.tokens, probs=smoothed)


def straight_line_weighted_confidence(smoothed: TokenProbSequence, cfg: IgConfig) -> float:
    n = len(smoothed)
    if n == 0:
        return 1.0
    k = min(cfg.head_k, n)
    head_exp = cfg.omega * cfg.alpha
    tail_exp = 1.0 - cfg.alpha
    log_sum = 0.0
    for i, p in enumerate(smoothed.probs):
        p = max(p, PROB_FLOOR)
        log_sum += (head_exp if i < k else tail_exp) * math.log(p)
    return math.exp(log_sum)


_EDGE_PROBS = (0.0, -0.0, 1.0, PROB_FLOOR, math.nextafter(PROB_FLOOR, 0.0),
               math.nextafter(PROB_FLOOR, 1.0), 5e-10, 2e-9)


@settings(max_examples=400)
@given(
    st.lists(st.one_of(st.floats(min_value=0.0, max_value=1.0), st.sampled_from(_EDGE_PROBS)),
             max_size=64),
    st.integers(min_value=0, max_value=4),
    st.data(),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_confidence_kernel_is_bit_identical_to_straight_line_version(probs, half, data,
                                                                    omega, alpha):
    head_k = data.draw(st.integers(min_value=0, max_value=len(probs) + 3), label="head_k")
    cfg = IgConfig(window=2 * half + 1, head_k=head_k, omega=omega, alpha=alpha)
    smoothed = smooth_probs(seq(probs), cfg.window)
    expected = straight_line_smooth_probs(seq(probs), cfg.window)
    assert smoothed.tokens == expected.tokens
    assert [p.hex() for p in smoothed.probs] == [p.hex() for p in expected.probs]
    confidence = weighted_confidence(smoothed, cfg)
    assert confidence == straight_line_weighted_confidence(expected, cfg)
    assert confidence.hex() == straight_line_weighted_confidence(expected, cfg).hex()


# -- fragments -----------------------------------------------------------------------------

def test_split_two_sentences():
    frags = split_fragments("A binds B. It hydrolyzes ATP.")
    assert [f.text for f in frags] == ["A binds B.", "It hydrolyzes ATP."]
    assert [f.index for f in frags] == [0, 1]


def test_split_keeps_reaction_string_intact():
    text = "Reaction=X + Y = Z + H(+)."
    frags = split_fragments(text)
    assert [f.text for f in frags] == [text]


def test_split_abbreviation_guard():
    frags = split_fragments("Some enzymes, e.g. kinases, transfer groups.")
    assert len(frags) == 1


def test_split_handles_questions_and_exclamations():
    frags = split_fragments("Is it a kinase? Yes! It transfers phosphate.")
    assert [f.text for f in frags] == ["Is it a kinase?", "Yes!", "It transfers phosphate."]


@settings(max_examples=100)
@given(st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Zs"),
                                      whitelist_characters=".!?,"),
               min_size=1, max_size=200))
def test_split_reconstructs_text(text):
    if not text.strip():
        return
    frags = split_fragments(text)
    joined = re.sub(r"\s+", " ", " ".join(f.text for f in frags)).strip()
    assert joined == re.sub(r"\s+", " ", text).strip()


# -- segment-wise gain ----------------------------------------------------------------------

def test_segment_ig_is_max_over_fragments():
    cfg = IgConfig(window=1, head_k=0, alpha=0.0)
    ctx = "q"
    frags = [Fragment("a", 0), Fragment("b", 1), Fragment("c", 2)]
    table = {}
    for name, pw, po in (("a", 0.38, 0.40), ("b", 0.45, 0.40), ("c", 0.40, 0.40)):
        table[(f"{ctx}\nEvidence: d", name)] = [pw]
        table[(ctx, name)] = [po]
    value = segment_ig(FixedScorer(table), ctx, "d", frags, cfg)
    assert value == pytest.approx(0.05, rel=1e-12)


def test_segment_ig_single_fragment_equals_plain_gain():
    cfg = IgConfig()
    ctx = "q"
    scorer = FixedScorer({(f"{ctx}\nEvidence: d", "only"): [0.9, 0.9], (ctx, "only"): [0.4, 0.4]})
    frag = [Fragment("only", 0)]
    assert segment_ig(scorer, ctx, "d", frag, cfg) == information_gain(scorer, ctx, "d", "only", cfg)


def test_segment_ig_all_zero():
    cfg = IgConfig()
    ctx = "q"
    scorer = FixedScorer({
        (f"{ctx}\nEvidence: d", t): [0.5] for t in ("x", "y")
    } | {(ctx, t): [0.5] for t in ("x", "y")})
    frags = [Fragment("x", 0), Fragment("y", 1)]
    assert segment_ig(scorer, ctx, "d", frags, cfg) == 0.0


def test_segment_ig_requires_fragments():
    with pytest.raises(ValueError):
        segment_ig(FixedScorer({}), "q", "d", [], IgConfig())


# -- labeling ----------------------------------------------------------------------------------

def test_label_threshold_cases():
    assert label_snippet(0.05, 0.01) == 1
    assert label_snippet(0.01, 0.01) == 0  # strict >
    assert label_snippet(-0.2, 0.01) == 0


# -- distillation set --------------------------------------------------------------------------

class FakeRecord:
    def __init__(self, rid, itype, n_snippets=1):
        self.id = rid
        self.instruction = f"please handle {itype} {rid}"
        self.instruction_type = itype
        self.answer = "It does things."
        self.n_snippets = n_snippets


def fake_source(record):
    return [
        AnnotationSnippet(tag="FUNCTION", value=f"v{record.id}-{i}", source_accession="P12345")
        for i in range(record.n_snippets)
    ]


def fake_labeller(gain):
    """A `label_record` that gives each of a record's snippets the gain `gain(snippet)`."""
    return lambda record: [(s.tag, gain(s)) for s in fake_source(record)]


def test_distillation_sampling_and_split_counts():
    records = [FakeRecord(f"a{i}", "alpha") for i in range(150)]
    records += [FakeRecord(f"b{i}", "beta") for i in range(150)]
    train, test = build_distillation_set(
        records, fake_labeller(lambda s: 0.05), per_type=100, seed=3
    )
    assert len(train) == 160 and len(test) == 40
    assert all(ex.label == 1 for ex in train + test)


def test_distillation_undersized_type():
    records = [FakeRecord(f"a{i}", "alpha") for i in range(30)]
    train, test = build_distillation_set(
        records, fake_labeller(lambda s: 0.0), per_type=100, seed=3
    )
    assert len(train) == 24 and len(test) == 6
    assert all(ex.label == 0 for ex in train + test)


def test_distillation_deterministic_under_seed(tmp_path):
    records = [FakeRecord(f"a{i}", "alpha", n_snippets=2) for i in range(40)]
    out = []
    for run in range(2):
        train, test = build_distillation_set(
            records, fake_labeller(lambda s: 0.02 if s.value.endswith("-0") else 0.0),
            per_type=10, seed=9,
        )
        p1, p2 = tmp_path / f"train{run}.jsonl", tmp_path / f"test{run}.jsonl"
        write_examples(p1, train)
        write_examples(p2, test)
        out.append((p1.read_bytes(), p2.read_bytes()))
    assert out[0] == out[1]


def test_distillation_empty_dataset():
    with pytest.raises(ValueError, match="empty"):
        build_distillation_set([], fake_labeller(lambda s: 0.0))


def test_examples_round_trip(tmp_path):
    examples = [DistillationExample("instr", "FUNCTION", 1, 0.04)]
    write_examples(tmp_path / "ex.jsonl", examples)
    assert read_examples(tmp_path / "ex.jsonl") == examples


@pytest.mark.parametrize("bad_line, error", [
    ('{"instruction": "i", "tag": "FUNCTION", "label": 1}', "KeyError: 'ig'"),
    ("not json", "JSONDecodeError"),
    ('{"instruction": "i", "tag": "FUNCTION", "label": 2, "ig": 0.0}', "label must be 0 or 1"),
])
def test_read_examples_names_file_and_line(tmp_path, bad_line, error):
    path = tmp_path / "ex.jsonl"
    write_examples(path, [DistillationExample("instr", "FUNCTION", 1, 0.04)])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n" + bad_line + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: ") + ".*" + re.escape(error)):
        read_examples(path)


# -- training -----------------------------------------------------------------------------------

def test_zero_epochs_scores_half_everywhere():
    examples = make_synthetic_examples(SYNTH_TYPES, per_type=10, seed=0)
    model = train_filter(examples, epochs=0, seed=0)
    assert model.score("anything at all", "FUNCTION") == 0.5
    assert model.score("", "NEVER SEEN") == 0.5


def test_single_class_set_rejected():
    examples = [DistillationExample("i", "FUNCTION", 1, 0.5)] * 5
    with pytest.raises(ValueError, match="single class"):
        train_filter(examples)


def test_learnability_on_rule_based_set():
    examples = make_synthetic_examples(SYNTH_TYPES, per_type=100, seed=7)
    train, heldout = split_examples(examples, seed=7)
    model = train_filter(train, epochs=4, learning_rate=1.0, batch_size=64,
                         seed=7, heldout=heldout)
    assert model.metadata["heldout_accuracy"] >= 0.95


def test_loss_non_increasing_at_small_step():
    examples = make_synthetic_examples(SYNTH_TYPES, per_type=50, seed=5)
    model = train_filter(examples, epochs=6, learning_rate=0.05, batch_size=32, seed=5)
    losses = model.metadata["train_loss_per_epoch"]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_training_is_deterministic():
    examples = make_synthetic_examples(SYNTH_TYPES, per_type=20, seed=1)
    m1 = train_filter(examples, epochs=2, seed=4)
    m2 = train_filter(examples, epochs=2, seed=4)
    assert m1.bias == m2.bias
    assert m1.weights == m2.weights


def test_metadata_records_recipe():
    examples = make_synthetic_examples(SYNTH_TYPES, per_type=10, seed=2)
    model = train_filter(examples, epochs=1, learning_rate=1.0, seed=2)
    assert model.metadata["encoder_recipe"] == {
        "learning_rate": 1e-5, "batch_size": 64, "epochs": 4,
    }
    assert model.metadata["learning_rate"] == 1.0


def _reference_train(examples, epochs, learning_rate, batch_size, seed):
    """Mini-batch descent written out per example: a scalar logit for each example
    and a dict gradient per batch. Returns (weights, bias, loss after each epoch)."""
    labels = np.array([ex.label for ex in examples], dtype=float)
    feats = [extract_features(ex.instruction, ex.tag) for ex in examples]
    weights, bias = np.zeros(FEATURE_DIM), 0.0

    def prob(f):
        z = bias + sum(weights[idx] * val for idx, val in f.items())
        return 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))

    def mean_bce():
        total = 0.0
        for f, y in zip(feats, labels):
            p = min(max(prob(f), 1e-12), 1.0 - 1e-12)
            total += -(y * math.log(p) + (1.0 - y) * math.log(1.0 - p))
        return total / len(feats)

    rng = np.random.default_rng(seed)
    losses = [mean_bce()]
    for _ in range(epochs):
        order = rng.permutation(len(examples))
        for start in range(0, len(examples), batch_size):
            batch = order[start: start + batch_size]
            grad, grad_bias = {}, 0.0
            for j in batch:
                err = (prob(feats[j]) - labels[j]) * (1.0 / len(batch))
                grad_bias += err
                for idx, val in feats[j].items():
                    grad[idx] = grad.get(idx, 0.0) + err * val
            for idx, g in grad.items():
                weights[idx] -= learning_rate * g
            bias -= learning_rate * grad_bias
        losses.append(mean_bce())
    return weights, bias, losses


@pytest.mark.parametrize("epochs, learning_rate, batch_size, seed", [
    (4, 1.0, 64, 0),
    (3, 0.05, 7, 5),  # a short last batch
])
def test_training_bit_identical_to_straight_line_reference(epochs, learning_rate, batch_size,
                                                            seed):
    examples = make_synthetic_examples(SYNTH_TYPES, per_type=30, seed=seed)
    model = train_filter(examples, epochs=epochs, learning_rate=learning_rate,
                         batch_size=batch_size, seed=seed)
    weights, bias, losses = _reference_train(examples, epochs, learning_rate, batch_size, seed)
    # every index the model holds and every non-zero reference weight, bit for bit
    keys = model.weights.keys() | set(np.flatnonzero(weights).tolist())
    assert {i: model.weights.get(i, 0.0).hex() for i in keys} == \
        {i: float(weights[i]).hex() for i in keys}
    assert float(model.bias).hex() == float(bias).hex()
    assert model.metadata["train_loss_per_epoch"] == losses


# -- scoring and serialization ---------------------------------------------------------------------

def test_score_in_unit_interval(trained_model):
    for tag in ("FUNCTION", "CATALYTIC ACTIVITY", "NEVER SEEN BEFORE"):
        assert 0.0 <= trained_model.score("What does this protein do?", tag) <= 1.0


def test_score_deterministic(trained_model):
    a = trained_model.score("Summarize the biological function of this protein.", "FUNCTION")
    b = trained_model.score("Summarize the biological function of this protein.", "FUNCTION")
    assert a == b


def test_serialization_round_trip(tmp_path, trained_model):
    path = tmp_path / "model.json"
    trained_model.save(path)
    loaded = FilterModel.load(path)
    rng = random.Random(0)
    tags = ["FUNCTION", "CATALYTIC ACTIVITY", "PATHWAY", "UNSEEN TAG"]
    for _ in range(25):
        instruction = " ".join(rng.choice("alpha beta gamma delta function catalytic".split())
                               for _ in range(6))
        tag = rng.choice(tags)
        assert loaded.score(instruction, tag) == trained_model.score(instruction, tag)


def test_failed_replace_keeps_earlier_model(tmp_path, trained_model, monkeypatch):
    import os

    path = tmp_path / "model.json"
    trained_model.save(path)
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="no space left"):
        FilterModel(metadata={"retrained": True}).save(path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
    assert FilterModel.load(path).score("Describe the function.", "FUNCTION") \
        == trained_model.score("Describe the function.", "FUNCTION")


def test_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "other/9", "feature_dim": 4, "bias": 0, "weights": {}}')
    with pytest.raises(ValueError, match="unsupported model format"):
        FilterModel.load(path)


def test_load_rejects_other_feature_dim(tmp_path, trained_model):
    path = tmp_path / "model.json"
    trained_model.save(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["feature_dim"] = 100
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match=f"feature_dim 100 .* {FEATURE_DIM}"):
        FilterModel.load(path)


def _key_fault(key):
    return f"weight key {key!r} is not an integer in [0, {FEATURE_DIM})"


@pytest.mark.parametrize("edit, fault", [
    (lambda p: {**p, "format": "other/9"}, "unsupported model format 'other/9'"),
    (lambda p: {k: v for k, v in p.items() if k != "feature_dim"}, "model lacks feature_dim"),
    (lambda p: {"format": p["format"]}, "model lacks feature_dim, bias, weights"),
    (lambda p: {**p, "feature_dim": 100},
     f"model feature_dim 100 does not match the {FEATURE_DIM} hashed features this version scores"),
    (lambda p: {**p, "bias": "0.5"}, "model bias '0.5' is not a number"),
    (lambda p: {**p, "weights": [0.5]}, "model weights and metadata must be JSON objects"),
    (lambda p: {**p, "metadata": None}, "model weights and metadata must be JSON objects"),
    (lambda p: {**p, "weights": {"-1": 0.5}}, _key_fault("-1")),
    (lambda p: {**p, "weights": {"abc": 0.5}}, _key_fault("abc")),
    (lambda p: {**p, "weights": {"+7": 0.5}}, _key_fault("+7")),
    (lambda p: {**p, "weights": {str(FEATURE_DIM): 0.5}}, _key_fault(str(FEATURE_DIM))),
    (lambda p: {**p, "weights": {"999999999": 0.5}}, _key_fault("999999999")),
    (lambda p: {**p, "weights": {"7": "0.5"}}, "weight 7 is '0.5', not a number"),
    (lambda p: {**p, "weights": {"7": True}}, "weight 7 is True, not a number"),
], ids=["format", "no-feature-dim", "only-format", "feature-dim", "bias", "weights-list",
        "metadata-null", "key-negative", "key-word", "key-signed", "key-at-dim", "key-too-big",
        "weight-text", "weight-bool"])
def test_load_refuses_a_malformed_model_naming_the_file(tmp_path, trained_model, edit, fault):
    path = tmp_path / "model.json"
    trained_model.save(path)
    path.write_text(json.dumps(edit(json.loads(path.read_bytes()))), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        FilterModel.load(path)
    assert str(info.value) == f"{path}: {fault}"


def test_load_reads_every_stored_weight(tmp_path):
    weights = {0: 0.25, 7: -1.5, FEATURE_DIM - 1: 2.0}
    path = tmp_path / "model.json"
    FilterModel(weights=weights, bias=-0.5).save(path)
    loaded = FilterModel.load(path)
    assert {i: w.hex() for i, w in loaded.weights.items()} == \
        {i: w.hex() for i, w in weights.items()} and loaded.bias == -0.5


def test_model_memory_is_that_of_its_weights(filter_model_path):
    import tracemalloc

    for make in (lambda: FilterModel.load(filter_model_path), FilterModel):
        tracemalloc.start()
        try:
            make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024


# -- gate --------------------------------------------------------------------------------------------

def hit_for(acc, rank):
    return HomologHit(query_id="q", subject_accession=acc, percent_identity=90.0,
                      alignment_length=100, identity_count=90, e_value=1e-20, bitscore=200.0)


def pool_with(tag_values, stage=Stage.RAW):
    homologs = []
    for rank, pairs in enumerate(tag_values, start=1):
        snippets = tuple(
            AnnotationSnippet(tag=t, value=v, source_accession=f"P{rank:05d}", homolog_rank=rank)
            for t, v in pairs
        )
        homologs.append(PoolHomolog(rank=rank, hit=hit_for(f"P{rank:05d}", rank), snippets=snippets))
    return EvidencePool(stage=stage, homologs=tuple(homologs))


def test_gate_keeps_only_relevant_tags(trained_model):
    pool = pool_with([
        [("FUNCTION", "does x"), ("PATHWAY", "path y")],
        [("FUNCTION", "does z")],
    ])
    gated = gate(pool, trained_model, "Summarize the biological function of this protein.")
    assert gated.stage == Stage.HORIZONTAL
    assert [(s.tag, s.homolog_rank) for s in gated.snippets()] == [
        ("FUNCTION", 1), ("FUNCTION", 2),
    ]


def test_gate_boundary_is_strict():
    model = FilterModel()  # zero weights score exactly 0.5
    pool = pool_with([[("FUNCTION", "x")]])
    gated = gate(pool, model, "whatever")
    assert gated.snippets() == []


def test_gate_case_study_instruction(trained_model):
    instruction = ("Determine the catalytic activity of the enzyme this protein sequence "
                   "represents and describe the chemical reaction it promotes.")
    pool = pool_with([
        [("FUNCTION", "f1"), ("CATALYTIC ACTIVITY", "r1"), ("PATHWAY", "p1"),
         ("SUBCELLULAR LOCATION", "l1"), ("SIMILARITY", "s1")],
        [("CATALYTIC ACTIVITY", "r2"), ("PTM", "glyco")],
    ])
    gated = gate(pool, trained_model, instruction)
    assert [(s.tag, s.homolog_rank) for s in gated.snippets()] == [
        ("CATALYTIC ACTIVITY", 1), ("CATALYTIC ACTIVITY", 2),
    ]


def test_gate_is_idempotent(trained_model):
    pool = pool_with([[("FUNCTION", "x"), ("PATHWAY", "y")], [("SUBUNIT", "z")]])
    instruction = "Summarize the biological function of this protein."
    once = gate(pool, trained_model, instruction)
    twice = gate(once, trained_model, instruction)
    assert once == twice


def test_gate_output_is_subset(trained_model):
    pool = pool_with([[("FUNCTION", "x"), ("PATHWAY", "y"), ("SUBUNIT", "w")]])
    gated = gate(pool, trained_model, "Carefully report the metabolic pathway of this protein.")
    assert set(gated.snippet_multiset()) <= set(pool.snippet_multiset())


def test_gate_content_agnostic(trained_model):
    instruction = "Summarize the biological function of this protein."
    pool_a = pool_with([[("FUNCTION", "original text"), ("PATHWAY", "route")]])
    pool_b = pool_with([[("FUNCTION", "completely different words"), ("PATHWAY", "other route")]])
    kept_a = [(s.tag, s.homolog_rank) for s in gate(pool_a, trained_model, instruction).snippets()]
    kept_b = [(s.tag, s.homolog_rank) for s in gate(pool_b, trained_model, instruction).snippets()]
    assert kept_a == kept_b


def test_gate_rejects_vertical_pool(trained_model):
    pool = EvidencePool(stage=Stage.VERTICAL, homologs=())
    with pytest.raises(ValueError, match="RAW or HORIZONTAL"):
        gate(pool, trained_model, "x")


def _fixture_pools(annotation_index):
    from homorag.config import RetrievalConfig
    from homorag.homology import assemble_raw_pool, parse_blast_tabular, rank_and_select
    from homorag.pipeline import read_dataset

    with open(FIXTURES / "hits_fixture.tsv", encoding="utf-8") as fh:
        hits = parse_blast_tabular(fh)
    for name in ("qa_records.jsonl", "label_records.jsonl"):
        for rec in read_dataset(FIXTURES / name):
            selected = rank_and_select([h for h in hits if h.query_id == rec.id],
                                       RetrievalConfig(), query_length=len(rec.sequence))
            yield rec.instruction, assemble_raw_pool(selected, annotation_index)


def test_gate_decisions_equal_scalar_scores_on_fixture_pools(trained_model, annotation_index):
    checked = 0
    for instruction, pool in _fixture_pools(annotation_index):
        kept = gate(pool, trained_model, instruction).snippet_multiset()
        for s in pool.snippets():
            assert (s.key() in kept) == (trained_model.score(instruction, s.tag) > 0.5)
            checked += 1
    assert checked > 50


def _reference_score(model, instruction, tag):
    """Straight-line scorer: full-key hashes, weights summed in feature order."""
    tag = " ".join(tag.strip().upper().split())
    keys = [f"t:{tag}"] + [f"tw:{w}" for w in re.findall(r"[a-z0-9]+", tag.lower())]
    keys += [f"x:{w}|{tag}" for w in re.findall(r"[a-z0-9]+", instruction.lower())]
    feats = {}
    for key in keys:
        idx = zlib.crc32(key.encode("utf-8")) % FEATURE_DIM
        feats[idx] = feats.get(idx, 0.0) + 1.0
    z = model.bias + sum(model.weights.get(idx, 0.0) * val for idx, val in feats.items())
    return 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))


def test_score_tags_bit_identical_to_straight_line_reference(trained_model, annotation_index):
    pairs = [(instruction, s.tag) for instruction, pool in _fixture_pools(annotation_index)
             for s in pool.snippets()]
    pairs += [("the the function of the protein", "FUNCTION"),  # repeated conjunctions
              ("Décrire la fonction", "Fonction protéique"), ("", "PATHWAY"),
              # tags that differ only in case or whitespace share one memo entry
              ("the function of the protein", "function"),
              ("the function of the protein", " FUNCTION "),
              ("the function of the protein", "Function  protein")]
    # a model trained on these features weighs only keys they produce; dense
    # weights make a dropped or misplaced key change the score
    dense = FilterModel(weights=dict(enumerate(np.random.default_rng(0).normal(size=FEATURE_DIM)
                                               .tolist())), bias=0.25)
    for instruction, tag in pairs:
        for model in (trained_model, dense):
            assert model.score_tags(instruction, [tag, tag]) == \
                [_reference_score(model, instruction, tag)] * 2


def test_tag_memo_is_bounded(trained_model):
    assert 0 < _tag_part.cache_info().maxsize == TAG_MEMO_SIZE < float("inf")
    trained_model.score_tags("the function", [f"TAG {i}" for i in range(TAG_MEMO_SIZE + 10)])
    assert _tag_part.cache_info().currsize <= TAG_MEMO_SIZE
