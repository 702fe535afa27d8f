"""Distillation-set bytes pinned across versions of the code.

`label_dataset` + `write_examples` over `fixtures/label_records.jsonl` must
write the bytes they wrote when `fixtures/labels_golden.txt` was made. The
information-gain values are written with every bit, so a change in the
order of the confidence arithmetic shows here even when it moves no label.
Two scorers: the offline `mock:keyword-boost`, whose probabilities are flat,
and a transport-backed one whose probabilities vary token by token and
include 0.0, so smoothing windows and the probability floor both count.
"""

import hashlib
from dataclasses import replace

from conftest import FIXTURES
from homorag.config import BackendConfig, PipelineConfig
from homorag.gateway import Gateway
from homorag.homology import load_hits
from homorag.pipeline import label_dataset, read_dataset
from homorag.tag_filter import write_examples


def _hashed_probs(payload):
    """Scorer response whose token probabilities are bytes of a digest of the request."""
    tokens = payload["target"].split()
    digest = hashlib.sha256(f"{payload['prompt']}\x00{payload['target']}".encode()).digest()
    probs = [digest[i % len(digest)] / 255 if digest[i % len(digest)] % 7 else 0.0
             for i in range(len(tokens))]
    return {"tokens": tokens, "probs": probs}


def test_fixture_labels_match_the_golden_digests(annotation_index, tmp_path):
    records = read_dataset(FIXTURES / "label_records.jsonl")
    hits_by_query = load_hits(FIXTURES / "hits_fixture.tsv")
    remote = BackendConfig(role="scorer", endpoint="http://scorer.test/score", max_retries=0)
    scorers = {
        "mock": (PipelineConfig(), Gateway()),
        "transport": (replace(PipelineConfig(), scorer=remote),
                      Gateway(transport=lambda url, payload, timeout, headers:
                              _hashed_probs(payload))),
    }
    lines = []
    for name, (config, gateway) in scorers.items():
        train, test = label_dataset(config, records, annotation_index, hits_by_query, gateway)
        for split, examples in (("train", train), ("test", test)):
            path = tmp_path / name / f"{split}.jsonl"
            path.parent.mkdir(exist_ok=True)
            write_examples(path, examples)
            lines.append(f"{name}/{split}.jsonl {hashlib.sha256(path.read_bytes()).hexdigest()}\n")
    assert "".join(lines) == (FIXTURES / "labels_golden.txt").read_text(encoding="utf-8")
