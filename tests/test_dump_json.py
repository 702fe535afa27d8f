"""The one layout of a JSON document: every document the package writes is
`atomic.dump_json` of what it holds (sorted keys, `,`/`:` separators, ASCII
`\\u` escapes, a trailing newline), and writing one leaves no cyclic garbage.
JSON lines have the one layout of `dump_json_lines`, and every digest of a
value is `json_digest`, the sha256 of its `dump_json` layout."""

import gc
import hashlib
import json
import math

import numpy as np
import pytest
import yaml

from conftest import FIXTURES, make_pipeline_config
from homorag import cli
from homorag.atomic import dump_json, dump_json_lines, json_digest
from homorag.config import BackendConfig, MODES
from homorag.gateway import Gateway
from homorag.homology import Stage
from homorag.pipeline import Pipeline, read_dataset


def assert_one_layout(path):
    written = path.read_bytes()
    assert written == dump_json(json.loads(written)).encode(), path


def test_dump_json_layout():
    data = {"b": [True, 1, 1.0, None], "a": {"": (), Stage.RAW: Stage.VERTICAL},
            "é": "\ud800\U0001f9ec", "n": [math.nan, -0.0, np.float64(0.5)]}
    assert dump_json(data) == (
        '{"a":{"":[],"RAW":"VERTICAL"},"b":[true,1,1.0,null],"n":[NaN,-0.0,0.5],'
        '"\\u00e9":"\\ud800\\ud83e\\uddec"}\n'
    )


def test_dump_json_lines_layout():
    items = [{"b": [True, 1.0, None], "a": "\u00e9"}, [], "x"]
    assert dump_json_lines(items) == '{"a": "\\u00e9", "b": [true, 1.0, null]}\n[]\n"x"\n'
    assert dump_json_lines(iter(items)) == dump_json_lines(items)
    assert dump_json_lines([]) == ""


def test_json_digest_hashes_the_document_layout_without_its_newline():
    data = {"b": [1, 0.5], "a": "\u00e9"}
    assert json_digest(data) == hashlib.sha256(b'{"a":"\\u00e9","b":[1,0.5]}').hexdigest()
    assert json_digest({"a": "\u00e9", "b": [1, 0.5]}) == json_digest(data)


# object() reprs carry a memory address; a fixed id keeps the test name stable across runs
@pytest.mark.parametrize("data", [
    {1, 2}, pytest.param({"a": object()}, id="{'a': object()}"), [b"bytes"], {"n": np.int64(3)},
], ids=repr)
def test_unserializable_value_raises_type_error(data):
    with pytest.raises(TypeError, match="not JSON serializable"):
        dump_json(data)


@pytest.mark.parametrize("mode", MODES)
def test_batch_writes_one_layout(index_dir, filter_model_path, tmp_path, mode):
    """Artifacts, `timings.json`, `summary.json` and the gateway's cache entries."""
    config = make_pipeline_config(index_dir, filter_model_path, tmp_path, mode=mode)
    Pipeline(config).run_batch(FIXTURES / "qa_records.jsonl", tmp_path / "run")
    artifacts = sorted((tmp_path / "run" / "artifacts").glob("*.json"))
    timings = tmp_path / "run" / "timings.json"
    cache = sorted((tmp_path / "cache").glob("*.json"))
    assert len(artifacts) == len(json.loads(timings.read_text(encoding="utf-8"))) == 10 and cache
    for path in [*artifacts, timings, *cache, tmp_path / "run" / "summary.json"]:
        assert_one_layout(path)


def test_cli_qa_run_and_denoise_write_one_layout(index_dir, filter_model_path, tmp_path):
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump({
        "paths": {"index_dir": str(index_dir), "filter_model": str(filter_model_path),
                  "hits": str(FIXTURES / "hits_fixture.tsv")},
        "backends": {"scorer": {"endpoint": "mock:keyword-boost"},
                     "embedder": {"endpoint": "mock:hash(dim=32)"},
                     "generator": {"endpoint": "mock:echo"}},
    }), encoding="utf-8")
    assert cli.main(["--config", str(config_path), "qa", "run",
                     "--dataset", str(FIXTURES / "qa_records.jsonl"), "--id", "case-r1",
                     "--out", str(tmp_path / "single")]) == 0
    artifact = tmp_path / "single" / "case-r1.json"
    assert_one_layout(artifact)

    pool_path = tmp_path / "pool.json"
    pool_path.write_text(json.dumps(json.loads(artifact.read_bytes())["pools"]["raw"], indent=4),
                         encoding="utf-8")
    assert cli.main(["--config", str(config_path), "denoise", "--pool", str(pool_path),
                     "--out", str(tmp_path / "vertical.json")]) == 0
    assert_one_layout(tmp_path / "vertical.json")


def test_saved_model_has_one_layout(trained_model, tmp_path):
    trained_model.save(tmp_path / "model.json")
    assert_one_layout(tmp_path / "model.json")


def test_gateway_cache_entry_has_one_layout(tmp_path):
    cfg = BackendConfig(role="generator", endpoint="http://backend.test/gen")
    gateway = Gateway(cache_dir=tmp_path, transport=lambda *a: {"text": "été", "n": [2, 1]})
    assert gateway.generate(cfg, "prompt") == "été"
    (path,) = tmp_path.glob("*.json")
    assert path.read_bytes() == b'{"n":[2,1],"text":"\\u00e9t\\u00e9"}\n'


def test_dump_json_leaves_no_cyclic_garbage(index_dir, filter_model_path, tmp_path):
    """Cyclic garbage from each artifact write triggers collections inside
    later timed queries; the encoder must leave none behind."""
    pipe = Pipeline(make_pipeline_config(index_dir, filter_model_path, tmp_path))
    record = next(r for r in read_dataset(FIXTURES / "qa_records.jsonl") if r.id == "case-r1")
    artifact = pipe.run_query(record)
    data = artifact.to_dict()
    assert data["pools"]["vertical"]["homologs"]
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            dump_json(data)
            artifact.canonical_json()
        assert gc.collect() == 0
    finally:
        gc.enable()
