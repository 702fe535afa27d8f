"""Artifact bytes pinned across versions of the code.

Criterion 12 checks that one version writes the same bytes twice; this test
checks that the fixture batch writes the bytes it wrote when
`fixtures/artifacts_golden.txt` was made, in every mode. A change that means
to alter the artifact layout or content rewrites that file and says so.

The config's paths are relative to the run directory, so `config_digest`,
which every artifact and summary carries, does not depend on where pytest
puts its temporary directories.
"""

import hashlib
import shutil
from pathlib import Path

from conftest import FIXTURES, make_pipeline_config
from homorag.config import MODES
from homorag.pipeline import Pipeline


def test_fixture_batch_artifacts_match_the_golden_digests(index_dir, filter_model_path,
                                                          tmp_path, monkeypatch):
    shutil.copytree(index_dir, tmp_path / "index")
    shutil.copy(filter_model_path, tmp_path / "tag_filter.json")
    shutil.copy(FIXTURES / "hits_fixture.tsv", tmp_path / "hits.tsv")
    monkeypatch.chdir(tmp_path)
    lines = []
    for mode in MODES:
        config = make_pipeline_config("index", "tag_filter.json", mode, mode=mode)
        config.paths.hits = "hits.tsv"
        run = Path(mode) / "run"
        Pipeline(config).run_batch(FIXTURES / "qa_records.jsonl", run)
        for path in [*sorted((run / "artifacts").glob("*.json")), run / "summary.json"]:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{path.as_posix()} {digest}\n")
    assert len(lines) == len(MODES) * 11
    assert "".join(lines) == (FIXTURES / "artifacts_golden.txt").read_text(encoding="utf-8")
