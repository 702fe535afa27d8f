"""The artifact layout: `pretty_json` writes exactly the bytes of
`json.dumps(sort_keys=True, indent=2)` plus a newline, and leaves no cyclic
garbage behind."""

import enum
import gc
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, make_pipeline_config
from homorag.config import MODES
from homorag.homology import Stage
from homorag.pipeline import Pipeline, pretty_json, read_dataset


def stdlib(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**70


_chars = st.one_of(
    st.characters(),                                # any non-surrogate code point
    st.integers(0, 0x1F).map(chr),                  # control characters
    st.integers(0xD800, 0xDFFF).map(chr),           # lone surrogates
    st.sampled_from('"\\/\x7f é\U0001f9ec'),
)
texts = st.text(_chars, max_size=12)
keys = st.one_of(texts, st.sampled_from(list(Stage)))
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-2**100, 2**100),
    st.sampled_from([0, 1, True, False, 2**64, -2**64 - 1, Level.LOW, Level.HIGH]),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-310, 1e308, 0.1]),
    st.floats(allow_nan=False).map(np.float64),     # a float subclass the pipeline meets
    texts,
    st.sampled_from(list(Stage)),
    st.sampled_from([{}, [], ()]),
)
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=5),
    ),
    max_leaves=40,
)


def _nest(leaf, kinds):
    for kind in kinds:
        leaf = {"k": leaf} if kind == "dict" else [leaf] if kind == "list" else (leaf, 1)
    return leaf


deep_trees = st.builds(
    _nest, trees, st.lists(st.sampled_from(["dict", "list", "tuple"]), min_size=11, max_size=30))


@settings(max_examples=400)
@given(st.one_of(trees, deep_trees))
def test_pretty_json_matches_stdlib_on_random_trees(data):
    assert pretty_json(data) == stdlib(data)


@pytest.mark.parametrize("data", [
    {}, [], (), "", 0, -0.0, math.nan, True, None, Stage.RAW, Level.HIGH,
    {"b": [True, 1, 1.0], "a": {"": ()}, "é": "\ud800"},
    {Stage.VERTICAL: 1, "RAW~": 2, Stage.HORIZONTAL: [{}]},
], ids=repr)
def test_pretty_json_matches_stdlib_on_edge_cases(data):
    assert pretty_json(data) == stdlib(data)


@pytest.mark.parametrize("data", [
    {1: "a"}, {None: 1}, {True: 1}, {1.5: 1}, {"a": {(1, 2): 1}}, [{"x": {3: []}}],
], ids=repr)
def test_non_str_key_raises_type_error(data):
    with pytest.raises(TypeError):
        pretty_json(data)


# object() reprs carry a memory address; a fixed id keeps the test name stable across runs
@pytest.mark.parametrize("data", [
    {1, 2}, pytest.param({"a": object()}, id="{'a': object()}"), [b"bytes"], {"n": np.int64(3)},
], ids=repr)
def test_unserializable_value_raises_type_error(data):
    with pytest.raises(TypeError, match="not JSON serializable"):
        pretty_json(data)


@pytest.mark.parametrize("mode", MODES)
def test_live_batch_dicts_match_stdlib(index_dir, filter_model_path, tmp_path, mode):
    """Live `to_dict()` output, timings and summary, never reloaded JSON."""
    pipe = Pipeline(make_pipeline_config(index_dir, filter_model_path, tmp_path, mode=mode))
    records = read_dataset(FIXTURES / "qa_records.jsonl")
    dicts = []
    for record in records:
        artifact = pipe.run_query(record)
        dicts += [artifact.to_dict(), artifact.timings]
        assert artifact.canonical_json() == stdlib(artifact.to_dict())
    dicts.append(pipe.run_batch(FIXTURES / "qa_records.jsonl", tmp_path / "run"))
    assert len(dicts) == 2 * len(records) + 1
    for data in dicts:
        assert pretty_json(data) == stdlib(data)
    # the written files are those bytes too
    assert (tmp_path / "run" / "summary.json").read_text(encoding="utf-8") == stdlib(dicts[-1])
    for path in (tmp_path / "run" / "artifacts").glob("*.json"):
        text = path.read_text(encoding="utf-8")
        assert stdlib(json.loads(text)) == text


def test_pretty_json_leaves_no_cyclic_garbage(index_dir, filter_model_path, tmp_path):
    """Cyclic garbage from each artifact write triggers collections inside
    later timed queries; the encoder must leave none behind."""
    pipe = Pipeline(make_pipeline_config(index_dir, filter_model_path, tmp_path))
    record = next(r for r in read_dataset(FIXTURES / "qa_records.jsonl") if r.id == "case-r1")
    data = pipe.run_query(record).to_dict()
    assert data["pools"]["vertical"]["homologs"]
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            pretty_json(data)
        assert gc.collect() == 0
    finally:
        gc.enable()
