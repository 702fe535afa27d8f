"""Filter-model bytes pinned across versions of the code.

`FilterModel.save` writes every non-zero weight with all its bits, so a
change in how the model holds, trains or stores its weights shows here even
when it moves no gating decision. Two models: the one the pipeline tests
load, and a small-step one whose last mini-batch is short. Loading a saved
model and saving it again must give the same bytes.
"""

import hashlib

from conftest import FIXTURES, SYNTH_TYPES, make_synthetic_examples
from homorag.tag_filter import FilterModel, train_filter


def test_model_bytes_match_the_golden_digests(filter_model_path, tmp_path):
    short_last_batch = train_filter(make_synthetic_examples(SYNTH_TYPES, per_type=30, seed=5),
                                    epochs=3, learning_rate=0.05, batch_size=7, seed=5)
    short_last_batch.save(tmp_path / "short_last_batch.json")
    lines = []
    for name, path in (("fixture_model", filter_model_path),
                       ("short_last_batch", tmp_path / "short_last_batch.json")):
        saved = path.read_bytes()
        FilterModel.load(path).save(tmp_path / "resaved.json")
        assert (tmp_path / "resaved.json").read_bytes() == saved
        lines.append(f"{name} {hashlib.sha256(saved).hexdigest()}\n")
    assert "".join(lines) == (FIXTURES / "model_golden.txt").read_text(encoding="utf-8")
