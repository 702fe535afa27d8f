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

import json
import math
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Protocol, Sequence

import numpy as np

from .annotations import normalize_tag
from .atomic import write_atomic
from .config import ENCODER_RECIPE, IgConfig, PipelineConfig, TrainConfig
from .homology import EvidencePool, PoolHomolog, Stage

PROB_FLOOR = 1e-9
FEATURE_DIM = 2 ** 18
MODEL_FORMAT = "homorag-filter/1"
TRAIN_PARTS, TEST_PARTS = 4, 1  # record split of a distillation set
DISTILL_PER_TYPE = 100  # records sampled per instruction type for labelling

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
    half = window // 2
    probs = seq.probs
    smoothed = tuple(
        sum(probs[max(0, i - half): min(n, i + half + 1)])
        / (min(n, i + half + 1) - max(0, i - half))
        for i in range(n)
    )
    return TokenProbSequence(tokens=seq.tokens, probs=smoothed)


def weighted_confidence(smoothed: TokenProbSequence, cfg: IgConfig) -> float:
    """Importance-weighted product of smoothed token probabilities.

    prod_{i<=k} p_i^(omega*alpha) * prod_{j>k} p_j^(1-alpha), with k clamped
    to the sequence length, probabilities floored at PROB_FLOOR, and the
    product taken in log space. The empty sequence scores 1.0.
    """
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


def _with_document(query_context: str, document: str) -> str:
    return f"{query_context}\nEvidence: {document}"


def make_query_context(instruction: str, sequence: str) -> str:
    """Frozen prompt context for scorer calls; tests rely on this exact layout."""
    return f"Instruction: {instruction}\nSequence: {sequence}"


def information_gain(
    scorer: TokenScorer,
    query_context: str,
    document: str,
    target_text: str,
    cfg: IgConfig,
) -> float:
    """Confidence in the target with the document minus without it; in [-1, 1]."""
    try:
        with_doc = scorer.score_tokens(_with_document(query_context, document), target_text)
    except Exception as exc:
        raise ScorerError(f"scorer failed on with-document leg: {exc}") from exc
    try:
        without_doc = scorer.score_tokens(query_context, target_text)
    except Exception as exc:
        raise ScorerError(f"scorer failed on without-document leg: {exc}") from exc
    conf_with = weighted_confidence(smooth_probs(with_doc, cfg.window), cfg)
    conf_without = weighted_confidence(smooth_probs(without_doc, cfg.window), cfg)
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
) -> float:
    """Maximum information gain the document provides to any single fragment."""
    if not fragments:
        raise ValueError("segment_ig requires at least one fragment")
    return max(
        information_gain(scorer, query_context, document, frag.text, cfg)
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
    lines = "".join(json.dumps(ex.to_dict(), sort_keys=True) + "\n" for ex in examples)
    write_atomic(Path(path), lines.encode("utf-8"))


def read_examples(path: str | Path) -> list[DistillationExample]:
    """Read a JSONL example file; a malformed line raises ValueError naming path:line."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                try:
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


def _tag_features(prefixes: Sequence[int], tag: str) -> dict[int, float]:
    tag_norm = normalize_tag(tag)
    tag_bytes = tag_norm.encode("utf-8")
    keys = [_hash_feature(f"t:{tag_norm}")]
    keys += [_hash_feature(f"tw:{word}") for word in _WORD_RE.findall(tag_norm.lower())]
    keys += [zlib.crc32(tag_bytes, prefix) % FEATURE_DIM for prefix in prefixes]
    feats: dict[int, float] = {}
    for key in keys:
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

    Zero-initialized weights score 0.5 everywhere; training is plain
    mini-batch gradient descent on the binary cross-entropy. Serialization
    stores only non-zero weights and round-trips to an identical scorer.
    """

    def __init__(
        self,
        weights: Optional[np.ndarray] = None,
        bias: float = 0.0,
        metadata: Optional[dict] = None,
    ):
        self.weights = weights if weights is not None else np.zeros(FEATURE_DIM)
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
        nz = np.nonzero(self.weights)[0]
        payload = {
            "format": MODEL_FORMAT,
            "feature_dim": FEATURE_DIM,
            "bias": self.bias,
            "weights": {str(int(i)): float(self.weights[i]) for i in nz},
            "metadata": self.metadata,
        }
        write_atomic(Path(path), json.dumps(payload, sort_keys=True, indent=1).encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "FilterModel":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("format") != MODEL_FORMAT:
            raise ValueError(f"unsupported model format {payload.get('format')!r}")
        if payload["feature_dim"] != FEATURE_DIM:
            raise ValueError(
                f"model feature_dim {payload['feature_dim']} does not match the "
                f"{FEATURE_DIM} hashed features this version scores"
            )
        weights = np.zeros(FEATURE_DIM)
        for idx, val in payload["weights"].items():
            weights[int(idx)] = val
        return cls(
            weights=weights,
            bias=payload["bias"],
            metadata=payload.get("metadata", {}),
        )


def _logits(model: FilterModel, feats: Sequence[dict[int, float]]) -> list[float]:
    """Bias plus weighted features of each feature dict, added in feature order.

    One gather fetches every weight, so a logit is bit-identical whether its
    features are scored alone or with others.
    """
    weights = iter(model.weights[[idx for f in feats for idx in f]].tolist())
    return [model.bias + sum(next(weights) * val for val in f.values()) for f in feats]


def _mean_bce(model: FilterModel, feats: list[dict[int, float]], labels: np.ndarray) -> float:
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
    labels = np.array([ex.label for ex in examples], dtype=float)
    if len(set(labels.tolist())) < 2:
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
    rng = np.random.default_rng(seed)
    losses = [_mean_bce(model, feats, labels)]
    n = len(examples)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start: start + batch_size]
            grad: dict[int, float] = {}
            grad_bias = 0.0
            scale = 1.0 / len(batch)
            # the weights change only after the batch, so one gather serves it all
            for j, z in zip(batch, _logits(model, [feats[j] for j in batch])):
                err = (_sigmoid(z) - labels[j]) * scale
                grad_bias += err
                for idx, val in feats[j].items():
                    grad[idx] = grad.get(idx, 0.0) + err * val
            for idx, g in grad.items():
                model.weights[idx] -= learning_rate * g
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
    tags = list(dict.fromkeys(s.tag for s in pool.snippets()))
    relevant = {tag for tag, p in zip(tags, model.score_tags(instruction, tags)) if p > 0.5}
    homologs = tuple(
        PoolHomolog(rank=h.rank, hit=h.hit,
                    snippets=tuple(s for s in h.snippets if s.tag in relevant))
        for h in pool.homologs
    )
    return EvidencePool(stage=Stage.HORIZONTAL, homologs=homologs, warnings=pool.warnings)
