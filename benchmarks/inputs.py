"""Seeded input generator for the benchmark.

Scales the six template entries in `templates/` up to a corpus: every clone
gets a fresh accession, fresh GO ids with their own stanzas, and a marker
word (its lowercase accession) prefixed to each comment block, feature note
and GO name. Snippet texts therefore repeat exactly as often as entries do,
and the entry mix of a dataset, not the templates, decides how much work is
shared between records. Hits are 7-column rows with `pident` consistent
with `nident/length`; QA and label records are drawn from instruction types
the tag filter is trained on.

Two random streams keep a workload's cost the same for every seed. The
shape stream, seeded with a constant, fixes which template each hit clones,
how shared entries are dealt, sequence lengths, instruction wording and the
example set. The `--seed` stream draws the instance: accessions and marker
words, residues, hit statistics, corpus order and example order. The same
seed and spec give byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from homorag.annotations import parse_entry, parse_go_file
from homorag.tag_filter import DistillationExample, write_examples

TEMPLATES = Path(__file__).resolve().parent / "templates"
AMINO = "ACDEFGHIKLMNPQRSTVWY"
ACC_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

# instruction type -> (keyword phrase, relevant tag, task name)
TYPES = {
    "catalytic": ("catalytic activity", "CATALYTIC ACTIVITY", "Catalytic Activity"),
    "function": ("biological function", "FUNCTION", "Protein Function"),
    "domain": ("domains and motifs", "DOMAIN_MOTIF", "Domain/Motif"),
    "location": ("subcellular location", "SUBCELLULAR LOCATION", "Subcellular Location"),
    "pathway": ("metabolic pathway", "PATHWAY", "Pathway"),
    "molfunc": ("molecular function terms", "GO:MOLECULAR_FUNCTION", "GO Molecular Function"),
}
LABEL_TYPES = ("catalytic", "function", "domain", "location")
TAG_UNIVERSE = (
    "CATALYTIC ACTIVITY", "FUNCTION", "DOMAIN_MOTIF", "SUBCELLULAR LOCATION", "PATHWAY",
    "SUBUNIT", "SIMILARITY", "PTM", "MISCELLANEOUS", "GO:MOLECULAR_FUNCTION",
    "GO:BIOLOGICAL_PROCESS", "GO:CELLULAR_COMPONENT",
)
_PREFIXES = ("Please", "Could you", "Now", "For this sequence,", "Carefully")
_VERBS = ("describe", "identify", "report", "summarize", "state")
_SUFFIXES = (
    "of this protein.", "of the given enzyme.", "for the sequence below.",
    "encoded by this sequence.", "in this protein.",
)
HITS_PER_RECORD = 3
ZIPF_S = 1.1
SHAPE_SEED = 0


@dataclass(frozen=True)
class Spec:
    """Shape of one workload's inputs."""

    records: int            # QA records in the batch dataset
    label_records: int      # teacher-labelling records, spread over LABEL_TYPES
    train_examples: int     # seeded distillation examples for train_filter
    shared_entries: int     # > 0: hits drawn with Zipf skew from this many clones;
                            # 0: every hit gets a fresh clone that is never reused
    min_corpus: int = 0     # pad the corpus with unreferenced clones up to this size


@dataclass(frozen=True)
class Inputs:
    dat: Path
    go: Path
    lexicon: Path
    hits: Path
    dataset: Path
    label_dataset: Path
    examples: Path
    reuse: dict


class _Corpus:
    """Template entries and the clones made from them."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        text = (TEMPLATES / "entries.dat").read_text(encoding="utf-8")
        self.templates = [blk.strip("\n").splitlines() + ["//"]
                          for blk in text.split("\n//") if blk.strip()]
        self.go_terms = parse_go_file(TEMPLATES / "go.obo")
        self.template_snippets = [self._template_snippets(lines) for lines in self.templates]
        self.accessions: set[str] = set()
        self.entries: list[str] = []          # flat-file text per clone
        self.stanzas: list[str] = []
        self.texts: dict[str, list[str]] = {}  # accession -> raw snippet texts
        self.template_of: dict[str, int] = {}
        self._next_go = 9_000_000

    def _template_snippets(self, lines: list[str]) -> list[tuple[str, str]]:
        entry = parse_entry("\n".join(lines) + "\n")
        out = [(s.tag, s.value) for s in entry.snippets]
        for gid in entry.go_ids:
            term = self.go_terms.get(gid)
            if term is not None:
                out.append((f"GO:{term.namespace.upper()}", term.name))
        return out

    def _fresh_accession(self) -> str:
        while True:
            acc = "B" + "".join(self.rng.choice(ACC_CHARS) for _ in range(5))
            if acc not in self.accessions:
                self.accessions.add(acc)
                return acc

    def clone(self, template: int) -> str:
        acc = self._fresh_accession()
        marker = acc.lower()
        go_map = {}
        for line in self.templates[template]:
            if line.startswith("DR   GO; "):
                gid = line.split(";")[1].strip()
                term = self.go_terms.get(gid)
                if term is not None and gid not in go_map:
                    go_map[gid] = f"GO:{self._next_go:07d}"
                    self._next_go += 1
                    self.stanzas.append(
                        f"[Term]\nid: {go_map[gid]}\nname: {marker} {term.name}\n"
                        f"namespace: {term.namespace}\n"
                    )
        out = []
        for line in self.templates[template]:
            if line.startswith("AC   "):
                line = f"AC   {acc};"
            elif line.startswith("CC   -!- "):
                topic, _, rest = line[9:].partition(":")
                line = f"CC   -!- {topic}: {marker} {rest.strip()}".rstrip()
            elif line.startswith("DR   GO; "):
                gid = line.split(";")[1].strip()
                line = line.replace(gid, go_map.get(gid, gid))
            line = line.replace('/note="', f'/note="{marker} ')
            out.append(line)
        text = "\n".join(out) + "\n"
        entry = parse_entry(text)
        names = {new: f"{marker} {self.go_terms[old].name}" for old, new in go_map.items()}
        self.texts[acc] = [s.value for s in entry.snippets] + [
            names[g] for g in entry.go_ids if g in names
        ]
        self.entries.append(text)
        self.template_of[acc] = template
        return acc


def _instruction(shape: random.Random, itype: str) -> str:
    keyword = TYPES[itype][0]
    return f"{shape.choice(_PREFIXES)} {shape.choice(_VERBS)} the {keyword} {shape.choice(_SUFFIXES)}"


def _sequence(shape: random.Random, rng: random.Random) -> str:
    return "".join(rng.choice(AMINO) for _ in range(shape.randint(40, 120)))


def _hit_rows(rng: random.Random, query_id: str, accessions: list[str]) -> list[str]:
    rows = []
    exponent = rng.uniform(120, 180)
    bits = rng.uniform(600, 900)
    for acc in accessions:  # best hit first: e-value rises, bitscore falls
        length = rng.randint(40, 120)
        nident = rng.randint(length // 3, length - 1)
        rows.append(
            f"{query_id}\t{acc}\t{100.0 * nident / length:.2f}\t{length}\t{nident}\t"
            f"{10.0 ** -exponent:.3g}\t{bits:.1f}"
        )
        exponent -= rng.uniform(10, 30)
        bits -= rng.uniform(40, 120)
    return rows


def _sentence(text: str) -> str:
    text = text.strip().rstrip(";.").strip()
    return text + "."


class _HitSource:
    """Accessions for one record: Zipf-skewed shared clones or fresh ones.

    Draws are stratified, so that every seed gets the same template and entry
    frequencies and seeds differ only in which record gets which entry: fresh
    clones take their templates from shuffled decks of all templates, and
    shared clones are dealt from a shuffled deck holding each clone as often
    as its Zipf weight asks for.
    """

    def __init__(self, corpus: _Corpus, shape: random.Random, shared: int, draws: int):
        self.corpus = corpus
        self.shape = shape
        self.templates: list[int] = []
        self.pool = [corpus.clone(i % len(corpus.templates)) for i in range(shared)]
        self.deck: list[str] = []
        if shared:
            weights = [1.0 / (r + 1) ** ZIPF_S for r in range(shared)]
            total = sum(weights)
            for acc, w in zip(self.pool, weights):
                self.deck += [acc] * max(1, round(draws * HITS_PER_RECORD * w / total))
            shape.shuffle(self.deck)

    def template(self) -> int:
        if not self.templates:
            self.templates = list(range(len(self.corpus.templates)))
            self.shape.shuffle(self.templates)
        return self.templates.pop()

    def draw(self) -> list[str]:
        if not self.pool:
            return [self.corpus.clone(self.template()) for _ in range(HITS_PER_RECORD)]
        picked: list[str] = []
        while len(picked) < HITS_PER_RECORD:
            if not self.deck:  # only when rounding left the deck short
                self.deck = list(self.pool)
                self.shape.shuffle(self.deck)
            pos = next((i for i, acc in enumerate(self.deck) if acc not in picked), None)
            if pos is None:
                self.deck = []
                continue
            picked.append(self.deck.pop(pos))
        return picked


def _relevant(corpus: _Corpus, accessions: list[str], tag: str) -> list[str]:
    """Template (unmarked) values of `tag` across the hits, best hit first."""
    return [
        value
        for acc in accessions
        for t, value in corpus.template_snippets[corpus.template_of[acc]]
        if t == tag
    ]


def _qa_record(shape, rng, corpus, rid: str, itype: str, accessions: list[str]) -> dict:
    values = _relevant(corpus, accessions, TYPES[itype][1])
    answer = (
        f"Based on close homologs, {_sentence(values[0])}" if values
        else "No annotation of this kind is recorded for close homologs."
    )
    return {
        "id": rid, "instruction": _instruction(shape, itype), "sequence": _sequence(shape, rng),
        "task": TYPES[itype][2], "instruction_type": itype, "answer": answer,
    }


def _label_record(shape, rng, corpus, rid: str, itype: str, accessions: list[str]) -> dict:
    values = _relevant(corpus, accessions, TYPES[itype][1])
    others = [v for acc in accessions
              for _, v in corpus.template_snippets[corpus.template_of[acc]] if v not in values]
    sentences = [_sentence(v) for v in values[:2] + others[:1]] or ["The protein is uncharacterized."]
    return {
        "id": rid, "instruction": _instruction(shape, itype), "sequence": _sequence(shape, rng),
        "task": TYPES[itype][2], "instruction_type": itype, "answer": " ".join(sentences),
    }


def _examples(shape: random.Random, count: int) -> list[DistillationExample]:
    """Rule-based (instruction, tag) examples: label 1 iff the tag is the type's target."""
    names = sorted(TYPES)
    out = []
    for i in range(count):
        itype = names[i % len(names)]
        target = TYPES[itype][1]
        tag = target if shape.random() < 0.4 else shape.choice([t for t in TAG_UNIVERSE if t != target])
        label = 1 if tag == target else 0
        out.append(DistillationExample(
            instruction=_instruction(shape, itype), tag=tag, label=label,
            ig_value=0.05 if label else 0.0,
        ))
    return out


def reuse_properties(records: list[dict], hits: dict[str, list[str]], corpus: _Corpus) -> dict:
    """The input property each reuse optimisation depends on, measured on the dataset."""
    lookups = [acc for r in records for acc in hits[r["id"]]]
    texts = [t for acc in lookups for t in corpus.texts[acc]]
    keys = [(r["instruction"], r["sequence"], tuple(hits[r["id"]])) for r in records]
    return {
        "accession_distinct_share": len(set(lookups)) / len(lookups),
        "snippet_text_distinct_share": len(set(texts)) / max(1, len(texts)),
        "duplicate_prompt_share": 1.0 - len(set(keys)) / len(keys),
        "corpus_entries": len(corpus.entries),
    }


def generate(out_dir: Path, spec: Spec, seed: int) -> Inputs:
    """Write every input file of one workload under `out_dir`."""
    shape, rng = random.Random(SHAPE_SEED), random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = _Corpus(rng)
    source = _HitSource(corpus, shape, spec.shared_entries, spec.records)
    types = sorted(TYPES)

    hits: dict[str, list[str]] = {}
    records: list[dict] = []
    for i in range(spec.records):
        rid = f"q{i:05d}"
        hits[rid] = source.draw()
        records.append(_qa_record(shape, rng, corpus, rid, types[i % len(types)], hits[rid]))

    # Label records get fresh clones in a fixed template rotation, so the number
    # of scorer calls per example is the same for every seed.
    label_records = []
    for i in range(spec.label_records):
        rid = f"lab{i:04d}"
        hits[rid] = [corpus.clone((i + k) % len(corpus.templates)) for k in range(HITS_PER_RECORD)]
        itype = LABEL_TYPES[i % len(LABEL_TYPES)]
        label_records.append(_label_record(shape, rng, corpus, rid, itype, hits[rid]))

    while len(corpus.entries) < spec.min_corpus:
        corpus.clone(source.template())

    order = list(range(len(corpus.entries)))
    rng.shuffle(order)  # corpus order must not follow first use
    inputs = Inputs(
        dat=out_dir / "entries.dat",
        go=out_dir / "go.obo",
        lexicon=TEMPLATES / "lexicon.txt",
        hits=out_dir / "hits.tsv",
        dataset=out_dir / "qa.jsonl",
        label_dataset=out_dir / "label.jsonl",
        examples=out_dir / "examples.jsonl",
        reuse=reuse_properties(records, hits, corpus),
    )
    inputs.dat.write_text("".join(corpus.entries[i] for i in order), encoding="utf-8")
    inputs.go.write_text(
        "format-version: 1.2\nontology: go\n\n" + "\n".join(corpus.stanzas), encoding="utf-8"
    )
    rows = [row for r in records + label_records
            for row in _hit_rows(rng, r["id"], hits[r["id"]])]
    inputs.hits.write_text("\n".join(rows) + "\n", encoding="utf-8")
    for path, recs in ((inputs.dataset, records), (inputs.label_dataset, label_records)):
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in recs),
                        encoding="utf-8")
    examples = _examples(shape, spec.train_examples)
    rng.shuffle(examples)
    write_examples(inputs.examples, examples)
    return inputs
