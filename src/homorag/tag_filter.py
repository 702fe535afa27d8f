"""Intent-aware tag filtering: teacher-side information-gain labeling and a
student classifier that gates snippets by (instruction, tag) alone.

Labeling measures how much a candidate snippet raises a scorer model's
confidence in the reference answer. Confidence is computed from per-token
probabilities in three steps: sliding-window smoothing, importance-weighted
log-space product (the first `head_k` tokens get exponent omega*alpha, the
rest 1-alpha), and a with-document minus without-document difference. The
gain of a snippet against a multi-sentence answer is the maximum gain over
the answer's sentence fragments.

The student is a hashed bag-of-words logistic model over instruction tokens,
the tag, and instruction-token x tag conjunctions. It never sees snippet
values, so gating decisions are content-agnostic by construction.
"""

from __future__ import annotations

import functools
import json
import math
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Protocol, Sequence

import numpy as np

from .annotations import normalize_tag
from .atomic import dump_json, dump_json_lines, read_json_object, read_lines, write_atomic
from .config import ENCODER_RECIPE, IgConfig, PipelineConfig, TrainConfig
from .homology import EvidencePool, Stage

PROB_FLOOR = 1e-9
FEATURE_DIM = 2 ** 18
MODEL_FORMAT = "homorag-filter/1"
TRAIN_PARTS, TEST_PARTS = 4, 1  # record split of a distillation set
DISTILL_PER_TYPE = 100  # records sampled per instruction type for labelling
TAG_MEMO_SIZE = 1024  # tags whose tag-only features are kept, least recently used dropped
WINDOW_MEMO_SIZE = 256  # (length, half-width) pairs whose smoothing windows are kept

_WORD_RE = re.compile(r"[a-z0-9]+")
_SENTENCE_END_RE = re.compile(r"[.!?]+(?=\s|$)")
_ABBREVIATIONS = ("e.g.", "i.e.", "approx.")


class ScorerError(RuntimeError):
    """A scorer call failed; the message names which leg was being computed."""


class TokenScorer(Protocol):
    def score_tokens(self, prompt: str, target: str) -> "TokenProbSequence":
        ...


@dataclass(frozen=True)
class TokenProbSequence:
    tokens: tuple[str, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.tokens) != len(self.probs):
            raise ValueError(
                f"{len(self.tokens)} tokens but {len(self.probs)} probabilities"
            )
        for p in self.probs:
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"token probability {p} outside [0, 1]")

    def __len__(self) -> int:
        return len(self.tokens)


@functools.lru_cache(maxsize=WINDOW_MEMO_SIZE)
def _windows(n: int, half: int) -> tuple[tuple[int, int, int], ...]:
    """(start, stop, width) of each of n tokens' windows, truncated at the ends."""
    bounds = ((max(0, i - half), min(n, i + half + 1)) for i in range(n))
    return tuple((lo, hi, hi - lo) for lo, hi in bounds)


def smooth_probs(seq: TokenProbSequence, window: int) -> TokenProbSequence:
    """Mean-filter probabilities over a centered window of odd width.

    Windows truncate at the boundaries (mean over available neighbors), so
    outputs stay in [0, 1] and window=1 is the identity.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be an odd integer >= 1, got {window}")
    n = len(seq)
    if n == 0:
        return seq
    probs = seq.probs
    # each window is summed afresh with sum() over its own slice, never as a
    # running sum, math.fsum or numpy: from Python 3.12 sum() of floats is
    # compensated, so only this same call gives each interpreter's own bits
    smoothed = tuple(sum(probs[lo:hi]) / width for lo, hi, width in _windows(n, window // 2))
    return TokenProbSequence(tokens=seq.tokens, probs=smoothed)


def weighted_confidence(smoothed: TokenProbSequence, cfg: IgConfig) -> float:
    """Importance-weighted product of smoothed token probabilities.

    prod_{i<=k} p_i^(omega*alpha) * prod_{j>k} p_j^(1-alpha), with k clamped
    to the sequence length, probabilities floored at PROB_FLOOR, and the
    product taken in log space. The empty sequence scores 1.0.
    """
    probs = smoothed.probs
    if not probs:
        return 1.0
    k = min(cfg.head_k, len(probs))
    head_exp = cfg.omega * cfg.alpha
    tail_exp = 1.0 - cfg.alpha
    log_sum = 0.0  # added to in token order, head first
    for p in probs[:k]:
        log_sum += head_exp * math.log(p if p > PROB_FLOOR else PROB_FLOOR)
    for p in probs[k:]:
        log_sum += tail_exp * math.log(p if p > PROB_FLOOR else PROB_FLOOR)
    return math.exp(log_sum)


def _with_document(query_context: str, document: str) -> str:
    return f"{query_context}\nEvidence: {document}"


def make_query_context(instruction: str, sequence: str) -> str:
    """Frozen prompt context for scorer calls; tests rely on this exact layout."""
    return f"Instruction: {instruction}\nSequence: {sequence}"


def _confidence(
    scorer: TokenScorer,
    prompt: str,
    target_text: str,
    cfg: IgConfig,
    leg: str,
    confidences: dict[tuple[str, str], float],
) -> float:
    """Confidence in the target under the prompt, from `confidences` when the
    request is there, else scored, computed and put there."""
    key = (prompt, target_text)
    if key not in confidences:
        try:
            scored = scorer.score_tokens(prompt, target_text)
        except Exception as exc:
            raise ScorerError(f"scorer failed on {leg} leg: {exc}") from exc
        confidences[key] = weighted_confidence(smooth_probs(scored, cfg.window), cfg)
    return confidences[key]


def information_gain(
    scorer: TokenScorer,
    query_context: str,
    document: str,
    target_text: str,
    cfg: IgConfig,
    confidences: Optional[dict[tuple[str, str], float]] = None,
) -> float:
    """Confidence in the target with the document minus without it; in [-1, 1].

    `confidences` maps each scorer request (prompt, target) to its confidence
    under cfg. Callers that share one dict across calls with the same cfg
    send each distinct request, and compute its confidence, once.
    """
    confidences = {} if confidences is None else confidences
    conf_with = _confidence(scorer, _with_document(query_context, document), target_text,
                            cfg, "with-document", confidences)
    conf_without = _confidence(scorer, query_context, target_text,
                               cfg, "without-document", confidences)
    return conf_with - conf_without


@dataclass(frozen=True)
class Fragment:
    text: str
    index: int

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError("fragment text must be non-empty")


def split_fragments(answer_text: str) -> list[Fragment]:
    """Split an answer into sentence-level fragments.

    Boundaries are sentence terminators followed by whitespace or end of
    text, except after common abbreviations. Fragments keep their
    terminator, so joining them reconstructs the text up to whitespace.
    """
    if not answer_text.strip():
        raise ValueError("answer text must be non-empty")
    boundaries = []
    for m in _SENTENCE_END_RE.finditer(answer_text):
        head = answer_text[: m.end()].lower()
        if any(head.endswith(abbr) for abbr in _ABBREVIATIONS):
            continue
        boundaries.append(m.end())
    fragments: list[Fragment] = []
    start = 0
    for end in boundaries:
        piece = answer_text[start:end].strip()
        if piece:
            fragments.append(Fragment(text=piece, index=len(fragments)))
        start = end
    tail = answer_text[start:].strip()
    if tail:
        fragments.append(Fragment(text=tail, index=len(fragments)))
    return fragments


def segment_ig(
    scorer: TokenScorer,
    query_context: str,
    document: str,
    fragments: Sequence[Fragment],
    cfg: IgConfig,
    confidences: Optional[dict[tuple[str, str], float]] = None,
) -> float:
    """Maximum information gain the document provides to any single fragment;
    `confidences` is passed on to `information_gain`."""
    if not fragments:
        raise ValueError("segment_ig requires at least one fragment")
    return max(
        information_gain(scorer, query_context, document, frag.text, cfg, confidences)
        for frag in fragments
    )


def label_snippet(ig_value: float, tau: float) -> int:
    """Binary relevance label: 1 iff the gain strictly exceeds tau."""
    return 1 if ig_value > tau else 0


def snippet_document(tag: str, value: str) -> str:
    """Frozen rendering of a snippet as a scorer document."""
    return f"[{tag}] {value}"


@dataclass(frozen=True)
class DistillationExample:
    instruction: str
    tag: str
    label: int
    ig_value: float

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")
        object.__setattr__(self, "tag", normalize_tag(self.tag))

    def to_dict(self) -> dict:
        return {
            "instruction": self.instruction,
            "tag": self.tag,
            "label": self.label,
            "ig": self.ig_value,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DistillationExample":
        return cls(instruction=d["instruction"], tag=d["tag"], label=d["label"], ig_value=d["ig"])


def write_examples(path: str | Path, examples: Iterable[DistillationExample]):
    write_atomic(Path(path), dump_json_lines(ex.to_dict() for ex in examples).encode("utf-8"))


def read_examples(path: str | Path) -> list[DistillationExample]:
    """Read a JSONL example file; a malformed line, one that is not UTF-8
    too, raises ValueError naming path:line."""
    out = []
    for line_no, line in read_lines(path):
        try:
            if line.strip():
                out.append(DistillationExample.from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}:{line_no}: {type(exc).__name__}: {exc}") from exc
    return out


def build_distillation_set(
    records: Sequence,
    label_record: Callable,
    *,
    per_type: int = DISTILL_PER_TYPE,
    tau: float = IgConfig.tau,
    seed: int = PipelineConfig.seed,
) -> tuple[list[DistillationExample], list[DistillationExample]]:
    """Sample records per instruction type, label their snippets, and split.

    `label_record(record)` returns the (tag, gain) pair of each of the
    record's retrieved snippets. Sampling takes `per_type` records uniformly
    per instruction type (all of them when a type is smaller), then splits
    records type-stratified in TRAIN_PARTS:TEST_PARTS proportion.
    Deterministic under a fixed seed.
    """
    import random as _random

    records = [r for r in records if getattr(r, "answer", None)]
    if not records:
        raise ValueError("dataset is empty (no records with reference answers)")
    by_type: dict[str, list] = {}
    for rec in records:
        by_type.setdefault(rec.instruction_type, []).append(rec)

    rng = _random.Random(seed)
    train: list[DistillationExample] = []
    test: list[DistillationExample] = []
    for itype in sorted(by_type):
        group = by_type[itype]
        sampled = group if len(group) <= per_type else rng.sample(group, per_type)
        shuffled = rng.sample(sampled, len(sampled))
        n_train = len(shuffled) * TRAIN_PARTS // (TRAIN_PARTS + TEST_PARTS)
        for pos, rec in enumerate(shuffled):
            sink = train if pos < n_train else test
            sink.extend(
                DistillationExample(instruction=rec.instruction, tag=tag,
                                    label=label_snippet(ig, tau), ig_value=ig)
                for tag, ig in label_record(rec)
            )
    return train, test


def _hash_feature(key: str) -> int:
    return zlib.crc32(key.encode("utf-8")) % FEATURE_DIM


def _conjunction_prefixes(instruction: str) -> list[int]:
    """crc32 state after each instruction word's `x:{word}|` prefix.

    Continuing a state with the normalized tag's bytes gives the hash of the
    full `x:{word}|{tag}` conjunction key, so an instruction is tokenized and
    hashed once however many tags it is scored against.
    """
    words = _WORD_RE.findall(instruction.lower())
    return [zlib.crc32(f"x:{word}|".encode("utf-8")) for word in words]


@functools.lru_cache(maxsize=TAG_MEMO_SIZE)
def _tag_part(tag: str) -> tuple[tuple[tuple[int, float], ...], bytes]:
    """The features of the tag alone, the tag intercept and then the tag
    words, as (key, count) pairs in first-seen order, and the normalized
    tag's bytes that continue each conjunction prefix."""
    tag_norm = normalize_tag(tag)
    keys = [_hash_feature(f"t:{tag_norm}")]
    keys += [_hash_feature(f"tw:{word}") for word in _WORD_RE.findall(tag_norm.lower())]
    feats: dict[int, float] = {}
    for key in keys:
        feats[key] = feats.get(key, 0.0) + 1.0
    return tuple(feats.items()), tag_norm.encode("utf-8")


def _tag_features(prefixes: Sequence[int], tag: str) -> dict[int, float]:
    """Features in a fixed order: tag intercept, tag words, then conjunctions
    in instruction-word order; a repeated key adds to its first place."""
    tag_items, tag_bytes = _tag_part(tag)
    feats = dict(tag_items)
    for prefix in prefixes:
        key = zlib.crc32(tag_bytes, prefix) % FEATURE_DIM
        feats[key] = feats.get(key, 0.0) + 1.0
    return feats


def extract_features(instruction: str, tag: str) -> dict[int, float]:
    """Tag-conditioned hashed features: a tag intercept, tag-word features,
    and instruction-word x tag conjunctions.

    Instruction words enter only through conjunctions, so evidence moves each
    tag's score independently instead of shifting every tag at once; snippet
    values are not part of the signature at all.
    """
    return _tag_features(_conjunction_prefixes(instruction), tag)


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


class FilterModel:
    """Logistic scorer over hashed (instruction, tag) features.

    `weights` maps a feature index in [0, FEATURE_DIM) to its weight; an
    index it lacks weighs 0.0, so a new model scores 0.5 everywhere. Training
    is plain mini-batch gradient descent on the binary cross-entropy.
    Serialization stores only non-zero weights and round-trips to an
    identical scorer.
    """

    def __init__(
        self,
        weights: Optional[dict[int, float]] = None,
        bias: float = 0.0,
        metadata: Optional[dict] = None,
    ):
        self.weights = weights if weights is not None else {}
        self.bias = bias
        self.metadata = metadata or {}

    def score(self, instruction: str, tag: str) -> float:
        """Predicted probability in [0, 1] that the tag is relevant to the instruction."""
        return self.score_tags(instruction, [tag])[0]

    def score_tags(self, instruction: str, tags: Sequence[str]) -> list[float]:
        """`score(instruction, tag)` for each tag, hashing the instruction once."""
        prefixes = _conjunction_prefixes(instruction)
        return [_sigmoid(z) for z in _logits(self, [_tag_features(prefixes, t) for t in tags])]

    def save(self, path: str | Path):
        payload = {
            "format": MODEL_FORMAT,
            "feature_dim": FEATURE_DIM,
            "bias": self.bias,
            "weights": {str(i): w for i, w in self.weights.items() if w != 0.0},
            "metadata": self.metadata,
        }
        write_atomic(Path(path), dump_json(payload).encode())

    @classmethod
    def load(cls, path: str | Path) -> "FilterModel":
        """The model saved at path. A file that is not a model of this format
        and feature space raises ValueError `<path>: <fault>`."""
        payload = read_json_object(path)

        def fault(message: str) -> ValueError:
            return ValueError(f"{path}: {message}")

        if payload.get("format") != MODEL_FORMAT:
            raise fault(f"unsupported model format {payload.get('format')!r}")
        missing = [k for k in ("feature_dim", "bias", "weights") if k not in payload]
        if missing:
            raise fault(f"model lacks {', '.join(missing)}")
        if payload["feature_dim"] != FEATURE_DIM:
            raise fault(
                f"model feature_dim {payload['feature_dim']} does not match the "
                f"{FEATURE_DIM} hashed features this version scores"
            )
        bias, stored, metadata = payload["bias"], payload["weights"], payload.get("metadata", {})
        if type(bias) not in (int, float):
            raise fault(f"model bias {bias!r} is not a number")
        if not isinstance(stored, dict) or not isinstance(metadata, dict):
            raise fault("model weights and metadata must be JSON objects")
        weights = {}
        for key, value in stored.items():
            index = int(key) if key.isascii() and key.isdigit() else FEATURE_DIM
            if index >= FEATURE_DIM:
                raise fault(f"weight key {key!r} is not an integer in [0, {FEATURE_DIM})")
            if type(value) not in (int, float):
                raise fault(f"weight {key} is {value!r}, not a number")
            weights[index] = float(value)
        return cls(weights=weights, bias=bias, metadata=metadata)


def _logits(model: FilterModel, feats: Sequence[dict[int, float]]) -> list[float]:
    """Bias plus weighted features of each feature dict, added in feature order."""
    weights = model.weights
    return [model.bias + sum(v * weights.get(k, 0.0) for k, v in f.items()) for f in feats]


def _mean_bce(model: FilterModel, feats: list[dict[int, float]], labels: list[float]) -> float:
    eps = 1e-12
    total = 0.0
    for z, y in zip(_logits(model, feats), labels):
        p = min(max(_sigmoid(z), eps), 1.0 - eps)
        total += -(y * math.log(p) + (1.0 - y) * math.log(1.0 - p))
    return total / len(feats)


def train_filter(
    examples: Sequence[DistillationExample],
    *,
    epochs: int = TrainConfig.epochs,
    learning_rate: float = TrainConfig.learning_rate,
    batch_size: int = TrainConfig.batch_size,
    seed: int = PipelineConfig.seed,
    heldout: Optional[Sequence[DistillationExample]] = None,
) -> FilterModel:
    """Train the tag relevance scorer on labeled examples.

    Raises on a single-class set (the cross-entropy is degenerate there).
    Records per-epoch training loss, the step size actually used, and the
    encoder recipe values in the model metadata.
    """
    if not examples:
        raise ValueError("no training examples")
    labels = [float(ex.label) for ex in examples]
    if len(set(labels)) < 2:
        raise ValueError("training set contains a single class; cannot fit")

    feats = [extract_features(ex.instruction, ex.tag) for ex in examples]
    model = FilterModel(metadata={
        "epochs": epochs,
        "learning_rate": learning_rate,
        "batch_size": batch_size,
        "seed": seed,
        "n_train": len(examples),
        "encoder_recipe": dict(ENCODER_RECIPE),
    })
    weights = model.weights
    rng = np.random.default_rng(seed)
    losses = [_mean_bce(model, feats, labels)]
    n = len(examples)
    for _ in range(epochs):
        order = rng.permutation(n).tolist()
        for start in range(0, n, batch_size):
            batch = order[start: start + batch_size]
            grad: dict[int, float] = {}
            grad_bias = 0.0
            scale = 1.0 / len(batch)
            for j, z in zip(batch, _logits(model, [feats[j] for j in batch])):
                err = (_sigmoid(z) - labels[j]) * scale
                grad_bias += err
                for idx, val in feats[j].items():
                    grad[idx] = grad.get(idx, 0.0) + err * val
            for idx, g in grad.items():
                weights[idx] = weights.get(idx, 0.0) - learning_rate * g
            model.bias -= learning_rate * grad_bias
        losses.append(_mean_bce(model, feats, labels))
    model.metadata["train_loss_per_epoch"] = losses
    if heldout:
        correct = sum(
            1 for ex in heldout
            if (model.score(ex.instruction, ex.tag) > 0.5) == bool(ex.label)
        )
        model.metadata["heldout_accuracy"] = correct / len(heldout)
        model.metadata["n_heldout"] = len(heldout)
    return model


def gate(pool: EvidencePool, model: FilterModel, instruction: str) -> EvidencePool:
    """Keep exactly the snippets whose tag scores strictly above 0.5.

    Homolog slots and ordering are preserved (a slot may end up empty), so
    gating an already-gated pool changes nothing.
    """
    if pool.stage not in (Stage.RAW, Stage.HORIZONTAL):
        raise ValueError(f"gate expects a RAW or HORIZONTAL pool, got {pool.stage}")
    flat = pool.snippets()
    tags = list(dict.fromkeys(s.tag for s in flat))
    relevant = {tag for tag, p in zip(tags, model.score_tags(instruction, tags)) if p > 0.5}
    return pool.keep(Stage.HORIZONTAL, [i for i, s in enumerate(flat) if s.tag in relevant])
