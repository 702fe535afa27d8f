"""Text-generation metrics: BLEU-4, ROUGE-L, and entity-level BLEU.

Tokenization is frozen and versioned so scores are comparable across runs:
lowercase, then split into word characters and individual punctuation marks.
Entity-level BLEU ("E-BLEU (lexicon)") runs BLEU over the sequences of
lexicon entities extracted from each side by greedy longest match, so it is
invariant to non-entity wording.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .atomic import dump_json_lines, read_lines

TOKENIZER_VERSION = "lower-wordpunct/1"
_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
BLEU_EPSILON = 1e-9

METRIC_NAMES = ("bleu4", "rouge_l", "e_bleu2", "e_bleu4")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(zip(*(tokens[k:] for k in range(n))))


def bleu_scores(
    candidate: Sequence[str], reference: Sequence[str], orders: Sequence[int],
) -> list[float]:
    """BLEU over token sequences at each max order in `orders`: geometric
    mean of modified n-gram precisions up to that order with brevity penalty;
    zero counts are smoothed to BLEU_EPSILON. The order is clipped to the
    shorter sequence length so an exact copy scores 1.0 even when both sides
    are shorter than the order. Each n-gram order is counted once for all
    the scores."""
    c, r = len(candidate), len(reference)
    if c == 0 or r == 0:
        return [0.0] * len(orders)
    clipped = [max(1, min(n, c, r)) for n in orders]
    log_precisions = []
    for n in range(1, max(clipped) + 1):  # n <= min(c, r): each side has an n-gram
        cand_counts = _ngrams(candidate, n)
        ref_counts = _ngrams(reference, n)
        shared = cand_counts.keys() & ref_counts.keys()
        matches = sum(min(cand_counts[gram], ref_counts[gram]) for gram in shared)
        log_precisions.append(math.log(matches / (c - n + 1) if matches > 0 else BLEU_EPSILON))
    # running sums added left to right (sum() of floats rounds differently on 3.12+)
    log_sums = list(itertools.accumulate(log_precisions))
    brevity = 1.0 if c >= r else math.exp(1.0 - r / c)
    return [brevity * math.exp(log_sums[n - 1] / n) for n in clipped]


def bleu_core(candidate: Sequence[str], reference: Sequence[str], max_n: int) -> float:
    """BLEU up to order max_n; see `bleu_scores`."""
    return bleu_scores(candidate, reference, (max_n,))[0]


def bleu4(candidate: str, reference: str) -> float:
    return bleu_core(tokenize(candidate), tokenize(reference), 4)


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence, by the bit-parallel
    recurrence of Allison & Dix (1986) in Hyyrö's (2004) form. v holds one
    row of the LCS table over b as its steps: bit j is 0 where the row rises
    at position j. After every token of a the zero bits count the LCS."""
    masks: dict[str, int] = {}
    for j, token in enumerate(b):
        masks[token] = masks.get(token, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for token in a:
        match = masks.get(token)
        if match:
            u = v & match
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l_core(candidate: Sequence[str], reference: Sequence[str]) -> float:
    """LCS-based F-measure with equal precision/recall weighting, over tokens."""
    if not candidate or not reference:
        return 0.0
    lcs = _lcs_length(candidate, reference)
    if lcs == 0:
        return 0.0
    precision = lcs / len(candidate)
    recall = lcs / len(reference)
    return 2.0 * precision * recall / (precision + recall)


def rouge_l(candidate: str, reference: str) -> float:
    """LCS-based F-measure with equal precision/recall weighting."""
    return rouge_l_core(tokenize(candidate), tokenize(reference))


class EntityLexicon:
    """Entity surface forms for entity-level scoring.

    Forms are matched case-insensitively by greedy longest match over
    tokenized text; each match is emitted as a single entity token.
    """

    def __init__(self, forms: Iterable[str]):
        self._forms: dict[tuple[str, ...], str] = {}
        for form in forms:
            canonical = " ".join(tokenize(form))
            if not canonical:
                raise ValueError(f"empty lexicon entry {form!r}")
            self._forms[tuple(canonical.split())] = canonical
        # first token -> the lengths of the forms it starts, longest first
        lengths: dict[str, set[int]] = {}
        for key in self._forms:
            lengths.setdefault(key[0], set()).add(len(key))
        self._spans = {token: sorted(s, reverse=True) for token, s in lengths.items()}

    def forms(self) -> list[str]:
        return sorted(self._forms.values())

    def merged(self, other: "EntityLexicon") -> "EntityLexicon":
        return EntityLexicon(self.forms() + other.forms())

    def scan(self, tokens: Sequence[str]) -> list[str]:
        """Greedy longest-match scan of tokens; matched forms in text order.
        At each position only the lengths of forms starting with that token
        are tried."""
        forms, spans = self._forms, self._spans
        entities: list[str] = []
        i, n = 0, len(tokens)
        while i < n:
            for span in spans.get(tokens[i], ()):
                if span <= n - i:
                    form = forms.get(tuple(tokens[i: i + span]))
                    if form is not None:
                        entities.append(form)
                        i += span
                        break
            else:
                i += 1
        return entities

    @classmethod
    def from_file(cls, path: str | Path) -> "EntityLexicon":
        """One surface form per non-blank line; a line that is not UTF-8
        raises ValueError naming path:line."""
        return cls([form for _, line in read_lines(path) if (form := line.strip())])

    @classmethod
    def from_go_terms(cls, go_terms: dict) -> "EntityLexicon":
        return cls(term.name for term in go_terms.values())


def extract_entities(text: str, lexicon: EntityLexicon) -> list[str]:
    """Greedy longest-match scan; matched forms appear in text order."""
    return lexicon.scan(tokenize(text))


def e_bleu(candidate: str, reference: str, lexicon: EntityLexicon, n: int) -> float:
    """BLEU with max order n over extracted entity sequences; a candidate
    without entities scores 0."""
    if n not in (2, 4):
        raise ValueError(f"entity BLEU order must be 2 or 4, got {n}")
    cand_entities = extract_entities(candidate, lexicon)
    return bleu_core(cand_entities, extract_entities(reference, lexicon), n)


@dataclass(frozen=True)
class RecordScores:
    bleu4: float
    rouge_l: float
    e_bleu2: float
    e_bleu4: float
    ref_entities_empty: bool


def score_record(candidate: str, reference: str, lexicon: EntityLexicon) -> RecordScores:
    """All metrics of one record from a single tokenization and entity scan
    per side."""
    cand, ref = tokenize(candidate), tokenize(reference)
    cand_entities, ref_entities = lexicon.scan(cand), lexicon.scan(ref)
    e_bleu2, e_bleu4 = bleu_scores(cand_entities, ref_entities, (2, 4))
    return RecordScores(
        bleu4=bleu_core(cand, ref, 4),
        rouge_l=rouge_l_core(cand, ref),
        e_bleu2=e_bleu2,
        e_bleu4=e_bleu4,
        ref_entities_empty=not ref_entities,
    )


@dataclass(frozen=True)
class MetricRow:
    task: str
    n_records: int
    n_entity_empty: int
    means: dict  # metric name -> mean in [0, 1]

    def display(self) -> dict:
        return {name: round(self.means[name] * 100.0, 1) for name in METRIC_NAMES}


def aggregate(records: Sequence[dict]) -> list[MetricRow]:
    """Mean per metric per task. Entity-empty references are excluded from
    the entity-level means (and counted); sums use math.fsum so results do
    not depend on record order."""
    if not records:
        raise ValueError("no records to aggregate")
    groups: dict[str, list[dict]] = {}
    for rec in records:
        groups.setdefault(rec["task"], []).append(rec)
    rows = []
    for task in sorted(groups):
        recs = groups[task]
        scores = [r["scores"] for r in recs]
        entity_ok = [s for s in scores if not s.ref_entities_empty]
        means = {
            "bleu4": math.fsum(s.bleu4 for s in scores) / len(scores),
            "rouge_l": math.fsum(s.rouge_l for s in scores) / len(scores),
            "e_bleu2": (
                math.fsum(s.e_bleu2 for s in entity_ok) / len(entity_ok) if entity_ok else 0.0
            ),
            "e_bleu4": (
                math.fsum(s.e_bleu4 for s in entity_ok) / len(entity_ok) if entity_ok else 0.0
            ),
        }
        rows.append(
            MetricRow(
                task=task,
                n_records=len(recs),
                n_entity_empty=len(scores) - len(entity_ok),
                means=means,
            )
        )
    return rows


def render_table(rows: Sequence[MetricRow]) -> str:
    """Aligned text table, scores x100 at one decimal."""
    headers = ["task", "n", "entity_empty", "E-BLEU2", "E-BLEU4", "BLEU4", "ROUGE-L"]
    body = []
    for row in rows:
        d = row.display()
        body.append([
            row.task,
            str(row.n_records),
            str(row.n_entity_empty),
            f"{d['e_bleu2']:.1f}",
            f"{d['e_bleu4']:.1f}",
            f"{d['bleu4']:.1f}",
            f"{d['rouge_l']:.1f}",
        ])
    widths = [max(len(headers[i]), *(len(r[i]) for r in body)) for i in range(len(headers))]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for r in body:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def rows_to_jsonl(rows: Sequence[MetricRow]) -> str:
    return dump_json_lines({
        "task": row.task,
        "n_records": row.n_records,
        "n_entity_empty": row.n_entity_empty,
        "metric_style": "E-BLEU (lexicon)",
        "tokenizer": TOKENIZER_VERSION,
        **row.display(),
    } for row in rows)
