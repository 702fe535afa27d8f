"""End-to-end orchestration: modes, batch runs, resume, eval, replay, CLI."""

import json
import os
import re
import shutil
import stat
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from conftest import FIXTURES, make_pipeline_config, open_descriptors
from homorag import cli
from homorag.annotations import AnnotationIndex, build_index, parse_go_file
from homorag import config as config_module
from homorag.config import (
    ENCODER_RECIPE,
    BackendConfig,
    ConfigError,
    DenoiseConfig,
    GenerationParams,
    IgConfig,
    MODE_STAGES,
    MODES,
    PipelineConfig,
    RetrievalConfig,
    TrainConfig,
    config_from_dict,
    default_provenance,
    load_config,
)
from homorag.denoise import render_context, vertical_filter
from homorag.gateway import ECHO_EMPTY, Gateway
from homorag.homology import (
    BlastInvocationError,
    EvidencePool,
    Stage,
    assemble_raw_pool,
    load_hits,
    rank_and_select,
    read_fasta_first,
    run_blast,
)
from homorag.metrics import EntityLexicon
from homorag.pipeline import (
    DatasetError,
    NO_EVIDENCE_NOTE,
    Pipeline,
    QARecord,
    _sum_pulled,
    build_prompt,
    label_dataset,
    read_dataset,
    replay_context,
    run_eval,
    write_artifact,
)
from homorag import tag_filter as tag_filter_module
from homorag.tag_filter import (
    DistillationExample,
    FilterModel,
    ScorerError,
    build_distillation_set,
    make_query_context,
    read_examples,
    segment_ig,
    snippet_document,
    split_fragments,
    write_examples,
)


@pytest.fixture(scope="module")
def module_work(tmp_path_factory):
    return tmp_path_factory.mktemp("pipework")


@pytest.fixture(scope="module")
def pipeline(index_dir_module, filter_model_module, module_work):
    config = make_pipeline_config(index_dir_module, filter_model_module, module_work)
    return Pipeline(config)


@pytest.fixture(scope="module")
def index_dir_module(tmp_path_factory):
    out = tmp_path_factory.mktemp("index-module")
    build_index(FIXTURES / "swissprot_mini.dat", FIXTURES / "go_mini.obo", out)
    return out


@pytest.fixture(scope="module")
def filter_model_module(tmp_path_factory):
    from conftest import PIPELINE_TYPES, make_synthetic_examples, split_examples
    from homorag.tag_filter import train_filter

    examples = make_synthetic_examples(PIPELINE_TYPES, per_type=100, seed=11)
    train_set, test_set = split_examples(examples, seed=11)
    model = train_filter(train_set, epochs=4, learning_rate=1.0, batch_size=64,
                         seed=11, heldout=test_set)
    path = tmp_path_factory.mktemp("model-module") / "tag_filter.json"
    model.save(path)
    return path


@pytest.fixture(scope="module")
def records():
    return {r.id: r for r in read_dataset(FIXTURES / "qa_records.jsonl")}


# -- records -----------------------------------------------------------------------

def test_read_dataset(records):
    assert len(records) == 10
    assert records["case-r1"].task == "Catalytic Activity"


def test_record_validation():
    with pytest.raises(ValueError, match="invalid residues"):
        QARecord(id="x", instruction="valid", sequence="AC1DE",
                 task="t", instruction_type="i")
    with pytest.raises(ValueError, match="instruction is empty"):
        QARecord(id="x", instruction="  ", sequence="ACDE", task="t", instruction_type="i")
    with pytest.raises(ValueError, match="^record 'x': sequence is empty$"):
        QARecord(id="x", instruction="valid", sequence="", task="t", instruction_type="i")


def _dataset_with_an_empty_sequence(tmp_path: Path) -> Path:
    """The first two fixture records, the second one's sequence emptied and its id `empty`."""
    first, second = (FIXTURES / "qa_records.jsonl").read_text(encoding="utf-8").splitlines()[:2]
    path = tmp_path / "data.jsonl"
    path.write_text(first + "\n" + json.dumps({**json.loads(second), "id": "empty",
                                                "sequence": ""}) + "\n", encoding="utf-8")
    return path


def test_strict_dataset_reads_name_the_line_with_an_empty_sequence(index_dir_module, tmp_path,
                                                                   capsys):
    dataset = _dataset_with_an_empty_sequence(tmp_path)
    message = f"{dataset}:2: record 'empty': sequence is empty"
    with pytest.raises(DatasetError) as info:
        read_dataset(dataset)
    assert str(info.value) == message
    rc = cli.main(["--offline", "filter", "label", "--dataset", str(dataset),
                   "--index", str(index_dir_module), "--hits", str(FIXTURES / "hits_fixture.tsv"),
                   "--out", str(tmp_path / "labels")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_batch_skips_a_record_with_an_empty_sequence(index_dir_module, filter_model_module,
                                                     tmp_path):
    pipe = Pipeline(make_pipeline_config(index_dir_module, filter_model_module, tmp_path))
    summary = pipe.run_batch(_dataset_with_an_empty_sequence(tmp_path), tmp_path / "run")
    assert (summary["processed"], summary["skipped_malformed"]) == (1, ["empty"])
    assert summary["records_with_errors"] == 0
    assert [p.stem for p in (tmp_path / "run" / "artifacts").glob("*.json")] == ["case-r1"]


def test_read_dataset_strict_raises(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a"}\n', encoding="utf-8")
    with pytest.raises(DatasetError, match="missing fields"):
        read_dataset(bad)


# valid JSON objects with a field of the wrong JSON type, ids type-1 to type-5
WRONG_TYPE_LINES = [
    '{"id": "type-1", "instruction": 5, "sequence": "ACDE", "task": "t", "instruction_type": "i"}',
    '{"id": "type-2", "instruction": "x", "sequence": null, "task": "t", "instruction_type": "i"}',
    '{"id": "type-3", "instruction": "x", "sequence": "ACDE", "task": 3, "instruction_type": "i"}',
    '{"id": "type-4", "instruction": "x", "sequence": "ACDE", "task": "t", "instruction_type": []}',
    '{"id": "type-5", "instruction": "x", "sequence": "ACDE", "task": "t", "instruction_type": "i",'
    ' "answer": 7}',
]


def test_read_dataset_collects_bad_lines(tmp_path):
    good = (FIXTURES / "qa_records.jsonl").read_text(encoding="utf-8").splitlines()[0]
    dataset = tmp_path / "data.jsonl"
    dataset.write_text("\n".join([
        "5", good, "[1, 2]", "", "{not json",
        '{"id": "bad-1", "instruction": "x", "sequence": "AC1", "task": "t", "instruction_type": "i"}',
        *WRONG_TYPE_LINES,
    ]) + "\n", encoding="utf-8")
    bad_lines = []
    assert [r.id for r in read_dataset(dataset, bad_lines)] == ["case-r1"]
    assert [ident for ident, _ in bad_lines] == [
        "line-1", "line-3", "line-5", "bad-1", "type-1", "type-2", "type-3", "type-4", "type-5"]
    assert "JSON object" in bad_lines[0][1] and "invalid residues" in bad_lines[3][1]
    assert [error for _, error in bad_lines[4:]] == [
        "record 'type-1': instruction must be a string, got int",
        "record 'type-2': sequence must be a string, got NoneType",
        "record 'type-3': task must be a string, got int",
        "record 'type-4': instruction_type must be a string, got list",
        "record 'type-5': answer must be a string, got int",
    ]
    with pytest.raises(DatasetError, match=":1: record must be a JSON object"):
        read_dataset(dataset)


# -- run_query ----------------------------------------------------------------------

def test_case_study_full_pipeline(pipeline, records):
    artifact = pipeline.run_query(records["case-r1"])
    lines = artifact.context.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("Homolog 1 (Q55C17): [CATALYTIC ACTIVITY]:")
    assert lines[1].startswith("Homolog 3 (Q9N5Y2): [CATALYTIC ACTIVITY]:")
    assert artifact.errors == []
    assert artifact.answer is not None
    for line in lines:
        assert line in artifact.answer


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
def test_pipelines_built_and_dropped_leave_no_descriptor_open(filter_model_module, tmp_path,
                                                              records):
    dat = tmp_path / "entries.dat"
    shutil.copy(FIXTURES / "swissprot_mini.dat", dat)
    build_index(dat, FIXTURES / "go_mini.obo", tmp_path / "index")
    config = make_pipeline_config(tmp_path / "index", filter_model_module, tmp_path)
    pipe = Pipeline(config)
    assert open_descriptors(dat) == 0
    assert pipe.run_query(records["case-r1"]).errors == []
    assert open_descriptors(dat) == 1
    del pipe
    for _ in range(200):
        assert Pipeline(config).run_query(records["case-r1"]).errors == []
    assert open_descriptors(dat) == 0


def test_raw_only_mode_has_no_filter_snapshots(index_dir_module, filter_model_module, tmp_path, records):
    config = make_pipeline_config(index_dir_module, filter_model_module, tmp_path, mode="raw_only")
    artifact = Pipeline(config).run_query(records["case-r1"])
    assert set(artifact.pools) == {"raw"}
    # context renders every raw snippet
    raw_count = sum(len(h["snippets"]) for h in artifact.pools["raw"]["homologs"])
    assert len(artifact.context.splitlines()) == raw_count


def test_horizontal_only_mode(index_dir_module, filter_model_module, tmp_path, records):
    config = make_pipeline_config(index_dir_module, filter_model_module, tmp_path,
                                  mode="horizontal_only")
    artifact = Pipeline(config).run_query(records["case-r1"])
    assert set(artifact.pools) == {"raw", "horizontal"}
    kept_tags = {s["tag"] for h in artifact.pools["horizontal"]["homologs"]
                 for s in h["snippets"]}
    assert kept_tags == {"CATALYTIC ACTIVITY"}


def test_vertical_only_clusters_raw_pool(index_dir_module, filter_model_module, tmp_path, records):
    config = make_pipeline_config(index_dir_module, filter_model_module, tmp_path,
                                  mode="vertical_only")
    artifact = Pipeline(config).run_query(records["case-r1"])
    assert set(artifact.pools) == {"raw", "vertical"}


def stage_counter(pool_dict):
    from collections import Counter

    return Counter(
        (s["tag"], s["value"], s["source_accession"], s["homolog_rank"])
        for h in pool_dict["homologs"] for s in h["snippets"]
    )


def test_mode_lattice_on_fixture_records(index_dir_module, filter_model_module, tmp_path, records):
    config = make_pipeline_config(index_dir_module, filter_model_module, tmp_path)
    pipe = Pipeline(config)
    for record in records.values():
        artifact = pipe.run_query(record)
        raw = stage_counter(artifact.pools["raw"])
        hor = stage_counter(artifact.pools["horizontal"])
        ver = stage_counter(artifact.pools["vertical"])
        assert ver <= hor <= raw


def test_self_hit_excluded_in_selection(pipeline, records):
    artifact = pipeline.run_query(records["func-r2"])
    assert len(artifact.hits) == 2
    assert [h.subject_accession for h in artifact.selected_hits] == ["Q3ZCD7"]


def test_missing_accession_warns_and_continues(pipeline, records):
    artifact = pipeline.run_query(records["func-r3"])
    assert any("A9X9X9" in w for w in artifact.warnings)
    assert artifact.context == ""
    assert NO_EVIDENCE_NOTE in artifact.prompt
    assert artifact.answer == ECHO_EMPTY


def test_no_hits_falls_back_to_no_evidence_prompt(pipeline, records):
    artifact = pipeline.run_query(records["desc-r2"])
    assert artifact.hits == []
    assert NO_EVIDENCE_NOTE in artifact.prompt
    assert artifact.answer == ECHO_EMPTY
    assert artifact.errors == []


def test_replay_matches_stored_context(pipeline, records):
    for rid in ("case-r1", "func-r1", "desc-r1", "desc-r2"):
        artifact = pipeline.run_query(records[rid])
        assert replay_context(artifact.to_dict()) == artifact.context


@pytest.mark.parametrize("mode", MODES)
def test_run_query_renders_its_context_once(index_dir_module, filter_model_module, tmp_path,
                                            records, monkeypatch, mode):
    rendered = []

    def counted(pool):
        rendered.append(pool.stage)
        return render_context(pool)

    monkeypatch.setattr("homorag.pipeline.render_context", counted)
    monkeypatch.setattr("homorag.denoise.render_context", counted)
    pipe = Pipeline(make_pipeline_config(index_dir_module, filter_model_module, tmp_path,
                                         mode=mode))
    final = ("raw", *MODE_STAGES[mode])[-1]
    for record in records.values():
        artifact = pipe.run_query(record)
        assert artifact.context == render_context(EvidencePool.from_dict(artifact.pools[final]))
    assert rendered == [Stage[final.upper()]] * len(records)


def test_config_requires_filter_model_for_horizontal_modes(index_dir_module, tmp_path):
    config = PipelineConfig(mode="full_2d")
    with pytest.raises(ConfigError, match="filter_model"):
        Pipeline(config)


def test_config_requires_index_for_hits(index_dir_module, filter_model_module, tmp_path):
    config = make_pipeline_config(index_dir_module, filter_model_module, tmp_path)
    config = replace(config, paths=replace(config.paths, index_dir=None))
    with pytest.raises(ConfigError, match="paths.hits requires paths.index_dir"):
        Pipeline(config)


# -- stage failures --------------------------------------------------------------------

STAGE_FAULTS = ("lookup", "score_tags", "embed", "generate", "no_index")


@pytest.fixture(scope="module")
def fault_free(index_dir_module, filter_model_module, module_work, records):
    """Each mode's artifact for every fixture record, with nothing failing."""
    artifacts = {}
    for mode in MODES:
        pipe = Pipeline(make_pipeline_config(index_dir_module, filter_model_module,
                                             module_work, mode=mode))
        artifacts[mode] = {rid: pipe.run_query(record) for rid, record in records.items()}
    return artifacts


def _inject(fault, pipe, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError(f"injected {fault} fault")

    if fault == "no_index":
        pipe.index = None
    else:
        owner = {"lookup": AnnotationIndex, "score_tags": FilterModel,
                 "embed": Gateway, "generate": Gateway}[fault]
        monkeypatch.setattr(owner, fault, boom)


def _expected_errors(fault, mode, clean):
    """The errors a fault leaves on a record, worked out from its fault-free artifact."""
    stages = MODE_STAGES[mode]
    if fault in ("lookup", "no_index"):
        if not clean.selected_hits:
            return []
        cause = ("injected lookup fault" if fault == "lookup"
                 else "no annotation index configured (paths.index_dir)")
        return [{"stage": "retrieval", "error": f"RuntimeError: {cause}"}]
    if fault == "score_tags" and "horizontal" in stages:
        return [{"stage": "horizontal", "error": "RuntimeError: injected score_tags fault"}]
    if fault == "embed" and "vertical" in stages:
        entering = clean.pools["horizontal" if "horizontal" in stages else "raw"]
        n = len(EvidencePool.from_dict(entering).snippets())
        # a pool below min_pts (the empty one too) cannot form a cluster, so it
        # passes the vertical stage without an embedding request
        if n < DenoiseConfig().min_pts:
            return []
        return [{"stage": "vertical", "error": "EmbeddingError: embedding failed for batch "
                 f"of {n} texts: injected embed fault"}]
    if fault == "generate":
        return [{"stage": "generation", "error": "RuntimeError: injected generate fault"}]
    return []


@pytest.mark.parametrize("fault", STAGE_FAULTS)
@pytest.mark.parametrize("mode", MODES)
def test_stage_failure_stays_in_its_stage(index_dir_module, filter_model_module, tmp_path,
                                          records, fault_free, monkeypatch, mode, fault):
    pipe = Pipeline(make_pipeline_config(index_dir_module, filter_model_module, tmp_path,
                                         mode=mode))
    _inject(fault, pipe, monkeypatch)
    stages = MODE_STAGES[mode]
    failing = 0
    for rid, record in records.items():
        artifact = pipe.run_query(record)
        errors = _expected_errors(fault, mode, fault_free[mode][rid])
        assert artifact.errors == errors
        failing += bool(errors)
        failed = {e["stage"] for e in errors}
        # a failed filter stage leaves no snapshot; a failed retrieval leaves the empty raw pool
        assert set(artifact.pools) == {"raw", *stages} - failed
        if "retrieval" in failed:
            assert artifact.pools["raw"] == EvidencePool(stage=Stage.RAW, homologs=()).to_dict()
        else:
            # the pool carries on from the last good stage: the mode without the failed one
            kept = tuple(s for s in stages if s not in failed)
            ref = fault_free[next(m for m, s in MODE_STAGES.items() if s == kept)][rid]
            assert (artifact.pools, artifact.warnings) == (ref.pools, ref.warnings)
        last_good = [s for s in ("raw", *stages) if s in artifact.pools][-1]
        assert artifact.context == render_context(EvidencePool.from_dict(artifact.pools[last_good]))
        assert artifact.prompt == build_prompt(record, artifact.context)
        assert (artifact.answer is None) == (fault == "generate")
        assert tuple(artifact.timings) == ("retrieval", *stages, "generation")

    out = tmp_path / "run"
    assert pipe.run_batch(FIXTURES / "qa_records.jsonl", out)["records_with_errors"] == failing
    timings = read_timings(out)
    assert set(timings) == set(records)
    for stage_seconds in timings.values():
        assert set(stage_seconds) == {"retrieval", *stages, "generation"}


# -- batch ---------------------------------------------------------------------------

def test_batch_writes_artifacts_and_summary(index_dir_module, filter_model_module, tmp_path, records):
    config = make_pipeline_config(index_dir_module, filter_model_module, tmp_path)
    out = tmp_path / "run1"
    summary = Pipeline(config).run_batch(FIXTURES / "qa_records.jsonl", out)
    artifacts = sorted((out / "artifacts").glob("*.json"))
    assert len(artifacts) == 10
    assert summary["processed"] == 10
    assert summary["skipped_existing"] == 0
    assert summary["records_with_errors"] == 0
    assert (out / "summary.json").exists()
    assert summary["defaults"]["retrieval.top_k"]["value"] == 3


def test_batch_is_resumable(index_dir_module, filter_model_module, tmp_path):
    config = make_pipeline_config(index_dir_module, filter_model_module, tmp_path)
    out = tmp_path / "run"
    pipe = Pipeline(config)
    pipe.run_batch(FIXTURES / "qa_records.jsonl", out)
    summary2 = pipe.run_batch(FIXTURES / "qa_records.jsonl", out)
    assert summary2["processed"] == 0
    assert summary2["skipped_existing"] == 10
    for name in ("case-r1", "func-r1", "dom-r2"):
        (out / "artifacts" / f"{name}.json").unlink()
    summary3 = pipe.run_batch(FIXTURES / "qa_records.jsonl", out)
    assert summary3["processed"] == 3
    assert summary3["skipped_existing"] == 7


def read_timings(out: Path) -> dict:
    return json.loads((out / "timings.json").read_text(encoding="utf-8"))


def test_resumed_batch_times_only_the_records_it_ran(index_dir_module, filter_model_module,
                                                     tmp_path, records):
    pipe = Pipeline(make_pipeline_config(index_dir_module, filter_model_module, tmp_path))
    out = tmp_path / "run"
    pipe.run_batch(FIXTURES / "qa_records.jsonl", out)
    assert set(read_timings(out)) == set(records)
    pipe.run_batch(FIXTURES / "qa_records.jsonl", out)
    assert read_timings(out) == {}
    for name in ("case-r1", "dom-r2"):
        (out / "artifacts" / f"{name}.json").unlink()
    pipe.run_batch(FIXTURES / "qa_records.jsonl", out)
    timings = read_timings(out)
    assert set(timings) == {"case-r1", "dom-r2"}
    assert all(set(t) == {"retrieval", "horizontal", "vertical", "generation"}
               for t in timings.values())


def _dataset_with_ids(tmp_path: Path, ids) -> Path:
    """The first fixture record's line once per id, in order."""
    line = json.loads((FIXTURES / "qa_records.jsonl").read_text(encoding="utf-8").splitlines()[0])
    path = tmp_path / "data.jsonl"
    path.write_text("".join(json.dumps({**line, "id": i}) + "\n" for i in ids), encoding="utf-8")
    return path


@pytest.mark.parametrize("ids, kept, skipped, reason", [
    (["q/1", "q_1", "other"], ["q/1", "other"], "q_1",
     "artifact q_1.json is taken by record 'q/1'"),
    (["dup", "other", "dup"], ["dup", "other"], "dup",
     "artifact dup.json is taken by record 'dup'"),
], ids=["same-file-name", "repeated-id"])
def test_batch_skips_a_record_whose_artifact_name_is_taken(
        index_dir_module, filter_model_module, tmp_path, caplog, ids, kept, skipped, reason):
    dataset = _dataset_with_ids(tmp_path, ids)
    pipe = Pipeline(make_pipeline_config(index_dir_module, filter_model_module, tmp_path))
    out = tmp_path / "run"
    summary = pipe.run_batch(dataset, out)
    assert (summary["processed"], summary["skipped_malformed"]) == (2, [skipped])
    assert summary["total_lines"] == 3
    assert f"skipping malformed record {skipped}: {reason}" in caplog.text
    artifacts = sorted(p.name for p in (out / "artifacts").glob("*.json"))
    assert len(artifacts) == 2
    assert sorted(json.loads((out / "artifacts" / name).read_text(encoding="utf-8"))["record_id"]
                  for name in artifacts) == sorted(kept)
    assert set(read_timings(out)) == set(kept)
    again = pipe.run_batch(dataset, out)
    assert (again["processed"], again["skipped_existing"], again["skipped_malformed"]) == (
        0, 2, [skipped])


def test_batch_reruns_an_artifact_that_holds_another_record(index_dir_module,
                                                            filter_model_module, tmp_path):
    pipe = Pipeline(make_pipeline_config(index_dir_module, filter_model_module, tmp_path))
    out = tmp_path / "run"
    pipe.run_batch(FIXTURES / "qa_records.jsonl", out)
    good = (out / "artifacts" / "case-r1.json").read_bytes()
    shutil.copy(out / "artifacts" / "cat-r2.json", out / "artifacts" / "case-r1.json")
    summary = pipe.run_batch(FIXTURES / "qa_records.jsonl", out)
    assert (summary["processed"], summary["skipped_existing"]) == (1, 9)
    assert (out / "artifacts" / "case-r1.json").read_bytes() == good
    assert set(read_timings(out)) == {"case-r1"}


def _with_stage_error(good: bytes) -> bytes:
    """The artifact as a run whose generator failed left it: current digest, one error."""
    artifact = json.loads(good)
    artifact["answer"] = None
    artifact["errors"] = [{"stage": "generation", "error": "GatewayError: generator down"}]
    return json.dumps(artifact).encode("utf-8")


@pytest.mark.parametrize("damage", [lambda good: b"\xff\xfe{not utf-8}\n",
                                    lambda good: b'[{"config_digest": "x"}]\n',
                                    lambda good: b"[" * 100_000,
                                    _with_stage_error],
                         ids=["not-utf8", "json-array", "too-deep", "stage-error"])
def test_batch_reruns_unreadable_existing_artifact(index_dir_module, filter_model_module,
                                                   tmp_path, damage):
    config = make_pipeline_config(index_dir_module, filter_model_module, tmp_path)
    out = tmp_path / "run"
    pipe = Pipeline(config)
    pipe.run_batch(FIXTURES / "qa_records.jsonl", out)
    target = out / "artifacts" / "case-r1.json"
    good = target.read_bytes()
    target.write_bytes(damage(good))
    summary = pipe.run_batch(FIXTURES / "qa_records.jsonl", out)
    assert (summary["processed"], summary["skipped_existing"]) == (1, 9)
    assert target.read_bytes() == good


def _batch_overlap(pipe, out):
    """Run the fixture batch; return the most `run_query` calls in progress at once."""
    lock = threading.Lock()
    in_flight = [0, 0]  # now, most
    run_query = pipe.run_query

    def counted(record):
        with lock:
            in_flight[0] += 1
            in_flight[1] = max(in_flight)
        try:
            time.sleep(0.01)  # long enough for any other worker to start a query
            return run_query(record)
        finally:
            with lock:
                in_flight[0] -= 1

    pipe.run_query = counted
    summary = pipe.run_batch(FIXTURES / "qa_records.jsonl", out)
    assert summary["processed"] == 10 and summary["records_with_errors"] == 0
    return in_flight[1]


def test_batch_with_mock_backends_runs_one_query_at_a_time(index_dir_module, filter_model_module,
                                                           tmp_path):
    config = make_pipeline_config(index_dir_module, filter_model_module, tmp_path)
    assert _batch_overlap(Pipeline(config), tmp_path / "run") == 1


def test_batch_with_remote_generator_overlaps_up_to_its_in_flight_limit(
        index_dir_module, filter_model_module, tmp_path):
    def transport(url, payload, timeout, headers):
        return {"text": "remote answer"}

    config = make_pipeline_config(index_dir_module, filter_model_module, tmp_path)
    config = replace(config, generator=BackendConfig(
        role="generator", endpoint="http://generator.test/generate", max_in_flight=3))
    assert 1 < _batch_overlap(Pipeline(config, transport=transport), tmp_path / "run") <= 3


def _remote_generator_pipeline(index_dir, filter_model, tmp_path, max_in_flight=3):
    """The fixture pipeline with its generator behind a transport, so a batch runs
    `max_in_flight` threads: the calling one and its helpers."""
    def transport(url, payload, timeout, headers):
        return {"text": "remote answer"}

    config = make_pipeline_config(index_dir, filter_model, tmp_path)
    config = replace(config, generator=BackendConfig(
        role="generator", endpoint="http://generator.test/generate", max_in_flight=max_in_flight))
    return Pipeline(config, transport=transport)


def _started_records(pipe):
    """Wrap `pipe.run_query`; return the list each call appends its (record id,
    thread id) to."""
    started = []
    run_query = pipe.run_query

    def recorded(record):
        started.append((record.id, threading.get_ident()))
        return run_query(record)

    pipe.run_query = recorded
    return started


def _calling_thread_batch(pipe, out, monkeypatch):
    """Run the fixture batch with `Thread.start` patched to raise; return each
    record's thread."""
    def no_thread(*args, **kwargs):
        raise AssertionError("a one-worker batch started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    started = _started_records(pipe)
    summary = pipe.run_batch(FIXTURES / "qa_records.jsonl", out)
    assert (summary["processed"], summary["records_with_errors"]) == (10, 0)
    return dict(started)


def test_batch_with_mock_backends_runs_on_the_calling_thread(index_dir_module, filter_model_module,
                                                             tmp_path, records, monkeypatch):
    pipe = Pipeline(make_pipeline_config(index_dir_module, filter_model_module, tmp_path))
    threads = _calling_thread_batch(pipe, tmp_path / "run", monkeypatch)
    assert threads == dict.fromkeys(records, threading.get_ident())


@pytest.mark.parametrize("mode", ["raw_only", "horizontal_only"])
def test_batch_counts_no_embedder_for_a_mode_without_the_vertical_stage(
        index_dir_module, filter_model_module, tmp_path, records, monkeypatch, mode):
    def transport(url, payload, timeout, headers):
        raise AssertionError(f"a {mode} batch sent a request to {url}")

    config = replace(make_pipeline_config(index_dir_module, filter_model_module, tmp_path,
                                          mode=mode),
                     embedder=BackendConfig(role="embedder", endpoint="http://embedder.test/embed",
                                            max_in_flight=8))
    threads = _calling_thread_batch(Pipeline(config, transport=transport), tmp_path / "run",
                                    monkeypatch)
    assert threads == dict.fromkeys(records, threading.get_ident())


def test_sum_pulled_takes_a_record_only_for_a_free_thread():
    workers, n = 8, 200  # more threads than cores, and a short switch interval
    lock = threading.Lock()
    counts = {"taken": 0, "finished": 0, "most_unfinished": 0}
    seen = []

    def records():  # a generator raises if two threads resume it at once
        for i in range(n):
            time.sleep(0)  # let another thread run while this one is inside the generator
            with lock:
                counts["taken"] += 1
                counts["most_unfinished"] = max(counts["most_unfinished"],
                                                counts["taken"] - counts["finished"])
            yield i

    def fn(i):
        time.sleep(0.001)  # long enough for the other threads to take a record
        seen.append(i)
        with lock:
            counts["finished"] += 1
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert _sum_pulled(fn, records(), workers) == sum(range(n))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(seen) == list(range(n))
    assert counts["taken"] == counts["finished"] == n
    assert 1 < counts["most_unfinished"] <= workers


def test_pooled_batch_runs_the_other_records_while_one_is_slow(index_dir_module,
                                                              filter_model_module, tmp_path,
                                                              records):
    pipe = _remote_generator_pipeline(index_dir_module, filter_model_module, tmp_path)
    slow = next(iter(records))
    finished, waited = [], []
    others_done = threading.Event()
    lock = threading.Lock()
    run_query = pipe.run_query

    def slow_first(record):
        if record.id == slow:  # a long generation, done after every other record
            waited.append(others_done.wait(timeout=10))
        artifact = run_query(record)
        with lock:
            finished.append(record.id)
            if len(finished) == len(records) - 1:
                others_done.set()
        return artifact

    pipe.run_query = slow_first
    summary = pipe.run_batch(FIXTURES / "qa_records.jsonl", tmp_path / "run")
    assert (summary["processed"], summary["records_with_errors"]) == (10, 0)
    assert waited == [True] and finished[-1] == slow


@pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pooled"])
def test_an_exception_escaping_a_record_ends_the_batch(index_dir_module, filter_model_module,
                                                       tmp_path, records, monkeypatch, pooled):
    first, second, third = list(records)[:3]
    others_running = threading.Semaphore(0)
    failed = threading.Event()

    def write(directory, artifact):
        if artifact.record_id == first:
            if pooled:  # fail once the other two threads hold a record each
                assert all(others_running.acquire(timeout=10) for _ in range(2))
            failed.set()
            raise TypeError("an artifact that cannot be encoded")
        if pooled:  # every other record that starts holds its thread until the failing write
            others_running.release()
            assert failed.wait(timeout=10)
        write_artifact(directory, artifact)

    monkeypatch.setattr("homorag.pipeline.write_artifact", write)
    if pooled:  # three threads
        pipe = _remote_generator_pipeline(index_dir_module, filter_model_module, tmp_path)
    else:
        pipe = Pipeline(make_pipeline_config(index_dir_module, filter_model_module, tmp_path))
    started = _started_records(pipe)
    out = tmp_path / "run"
    with pytest.raises(TypeError, match="cannot be encoded"):
        pipe.run_batch(FIXTURES / "qa_records.jsonl", out)
    assert not (out / "summary.json").exists() and not (out / "timings.json").exists()
    # the records running at the failure finish, and no thread takes another
    assert sorted(rid for rid, _ in started) == sorted(
        [first, second, third] if pooled else [first])
    assert {p.stem for p in (out / "artifacts").glob("*.json")} == (
        {second, third} if pooled else set())


def test_a_helper_that_cannot_start_ends_the_batch(index_dir_module, filter_model_module,
                                                   tmp_path, records, monkeypatch):
    pipe = _remote_generator_pipeline(index_dir_module, filter_model_module, tmp_path)
    first = next(iter(records))
    start, join = threading.Thread.start, threading.Thread.join
    starts = []
    helper_running, joining = threading.Event(), threading.Event()

    def second_start_fails(thread):
        starts.append(thread)
        if len(starts) == 2:  # once the first helper holds a record
            assert helper_running.wait(timeout=10)
            raise RuntimeError("can't start new thread")
        start(thread)

    def signalled_join(thread, timeout=None):
        joining.set()
        join(thread, timeout)

    monkeypatch.setattr(threading.Thread, "start", second_start_fails)
    monkeypatch.setattr(threading.Thread, "join", signalled_join)
    threads = []
    run_query = pipe.run_query

    def held(record):  # the helper's record runs on once the batch waits for it
        threads.append((record.id, threading.get_ident()))
        helper_running.set()
        assert joining.wait(timeout=10)
        return run_query(record)

    pipe.run_query = held
    out = tmp_path / "run"
    with pytest.raises(RuntimeError, match="can't start new thread"):
        pipe.run_batch(FIXTURES / "qa_records.jsonl", out)
    assert len(starts) == 2 and threads == [(first, starts[0].ident)]
    assert not starts[0].is_alive()
    assert not (out / "summary.json").exists() and not (out / "timings.json").exists()
    assert [p.stem for p in (out / "artifacts").glob("*.json")] == [first]


def test_batch_changed_config_recomputes(index_dir_module, filter_model_module, tmp_path):
    config = make_pipeline_config(index_dir_module, filter_model_module, tmp_path)
    out = tmp_path / "run"
    Pipeline(config).run_batch(FIXTURES / "qa_records.jsonl", out)
    changed = replace(config, mode="raw_only")
    summary = Pipeline(changed).run_batch(FIXTURES / "qa_records.jsonl", out)
    assert summary["processed"] == 10
    assert summary["skipped_existing"] == 0


def files_under(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_batch_leaves_no_temp_files(index_dir_module, filter_model_module, tmp_path):
    config = make_pipeline_config(index_dir_module, filter_model_module, tmp_path)
    Pipeline(config).run_batch(FIXTURES / "qa_records.jsonl", tmp_path / "run")
    names = sorted(files_under(tmp_path))  # the run directory and the backend cache
    assert len([n for n in names if n.startswith("run/artifacts/")]) == 10
    assert not any(n.startswith("run/timings/") for n in names)
    assert "run/summary.json" in names and "run/timings.json" in names
    assert any(n.startswith("cache/") for n in names)
    assert all(n.endswith(".json") and not n.rpartition("/")[2].startswith(".") for n in names)


def test_failed_replace_keeps_earlier_outputs(index_dir_module, filter_model_module, tmp_path,
                                              monkeypatch):
    import os

    config = make_pipeline_config(index_dir_module, filter_model_module, tmp_path)
    out = tmp_path / "run"
    Pipeline(config).run_batch(FIXTURES / "qa_records.jsonl", out)
    before = files_under(out)

    def failing_replace(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="no space left"):
        Pipeline(replace(config, mode="raw_only")).run_batch(FIXTURES / "qa_records.jsonl", out)
    assert files_under(out) == before


def test_batch_skips_malformed_records(index_dir_module, filter_model_module, tmp_path):
    dataset = tmp_path / "data.jsonl"
    good = (FIXTURES / "qa_records.jsonl").read_text(encoding="utf-8").splitlines()[:2]
    dataset.write_text(
        good[0] + "\n" + "not json at all\n" + good[1] + "\n"
        + '{"id": "bad-1", "instruction": "x", "sequence": "AC1", "task": "t", "instruction_type": "i"}\n'
        + "".join(line + "\n" for line in WRONG_TYPE_LINES),
        encoding="utf-8",
    )
    config = make_pipeline_config(index_dir_module, filter_model_module, tmp_path)
    summary = Pipeline(config).run_batch(dataset, tmp_path / "out")
    assert summary["processed"] == 2
    assert summary["skipped_malformed"] == [
        "bad-1", "line-2", "type-1", "type-2", "type-3", "type-4", "type-5"]


def _not_utf8_at(path: Path, line: int) -> Path:
    """`path` with a 0xe9 byte, never valid UTF-8 before an ASCII byte, at the end of `line`."""
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] += b"\xe9"
    path.write_bytes(b"\n".join(lines))
    return path


@pytest.mark.parametrize("name, line, read", [
    ("qa_records.jsonl", 2, read_dataset),
    ("hits_fixture.tsv", 3, load_hits),
    ("query.fasta", 2, read_fasta_first),
    ("train.jsonl", 2, read_examples),
    ("records.tsv", 4, lambda path: AnnotationIndex.load(path.parent)),
    ("go_terms.tsv", 2, lambda path: AnnotationIndex.load(path.parent)),
    ("go_mini.obo", 5, parse_go_file),
    ("lexicon.txt", 2, EntityLexicon.from_file),
], ids=["dataset", "hits", "fasta", "examples", "records-tsv", "go-terms-tsv", "go-obo",
        "lexicon"])
def test_reader_names_the_line_that_is_not_utf8(tmp_path, index_dir_module, name, line, read):
    shutil.copytree(index_dir_module, tmp_path, dirs_exist_ok=True)
    write_examples(tmp_path / "train.jsonl",
                   [DistillationExample("Describe it.", "FUNCTION", i % 2, 0.1 * i) for i in range(3)])
    path = tmp_path / name
    if not path.exists():
        shutil.copy(FIXTURES / name, path)
    _not_utf8_at(path, line)
    with pytest.raises(ValueError) as info:
        read(path)
    assert str(info.value).startswith(f"{path}:{line}: ")
    assert "can't decode byte 0xe9" in str(info.value)
    assert isinstance(info.value.__cause__, UnicodeDecodeError)


def test_batch_skips_a_line_that_is_not_utf8(index_dir_module, filter_model_module, tmp_path,
                                             capsys):
    dataset = tmp_path / "data.jsonl"
    good = (FIXTURES / "qa_records.jsonl").read_text(encoding="utf-8").splitlines()[:3]
    dataset.write_text("\n".join(good) + "\n", encoding="utf-8")
    _not_utf8_at(dataset, 2)
    config = write_cli_config(tmp_path / "c.yaml", index_dir_module, filter_model_module,
                              tmp_path / "cache")
    rc = cli.main(["--config", str(config), "qa", "batch", "--dataset", str(dataset),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["processed"] == 2
    assert summary["skipped_malformed"] == ["line-2"]


def test_batch_summary_counts_match_directory_census(index_dir_module, filter_model_module, tmp_path):
    config = make_pipeline_config(index_dir_module, filter_model_module, tmp_path)
    out = tmp_path / "census"
    summary = Pipeline(config).run_batch(FIXTURES / "qa_records.jsonl", out)
    census = len(list((out / "artifacts").glob("*.json")))
    assert summary["processed"] + summary["skipped_existing"] == census


def _fail_the_write_of(monkeypatch, record_id):
    def write(directory, artifact):
        if artifact.record_id == record_id:
            raise OSError(28, "No space left on device")
        write_artifact(directory, artifact)

    monkeypatch.setattr("homorag.pipeline.write_artifact", write)


def test_failed_artifact_write_loses_only_its_record(index_dir_module, filter_model_module,
                                                     tmp_path, records, monkeypatch, caplog):
    _fail_the_write_of(monkeypatch, "cat-r2")
    pipe = Pipeline(make_pipeline_config(index_dir_module, filter_model_module, tmp_path))
    out = tmp_path / "run"
    summary = pipe.run_batch(FIXTURES / "qa_records.jsonl", out)
    assert sorted(p.stem for p in (out / "artifacts").glob("*.json")) == sorted(
        set(records) - {"cat-r2"})
    assert (summary["processed"], summary["records_with_errors"], summary["unwritten"]) == (
        10, 1, ["cat-r2"])
    assert json.loads((out / "summary.json").read_text(encoding="utf-8")) == summary
    assert set(read_timings(out)) == set(records)
    assert "could not write the artifact of record cat-r2: [Errno 28]" in caplog.text
    monkeypatch.undo()
    again = pipe.run_batch(FIXTURES / "qa_records.jsonl", out)
    assert (again["processed"], again["skipped_existing"]) == (1, 9)
    assert "unwritten" not in again


def test_cli_batch_exits_non_zero_when_a_record_is_not_written(
        index_dir_module, filter_model_module, tmp_path, monkeypatch, capsys):
    _fail_the_write_of(monkeypatch, "dom-r2")
    config = write_cli_config(tmp_path / "c.yaml", index_dir_module, filter_model_module,
                              tmp_path / "cache")
    rc = cli.main(["--config", str(config), "qa", "batch",
                   "--dataset", str(FIXTURES / "qa_records.jsonl"), "--out", str(tmp_path / "out")])
    assert rc == 1
    summary = json.loads(capsys.readouterr().out)
    assert (summary["records_with_errors"], summary["unwritten"]) == (1, ["dom-r2"])


# -- eval -------------------------------------------------------------------------------

def test_run_eval_over_batch(index_dir_module, filter_model_module, tmp_path):
    config = make_pipeline_config(index_dir_module, filter_model_module, tmp_path)
    out = tmp_path / "run"
    Pipeline(config).run_batch(FIXTURES / "qa_records.jsonl", out)
    lexicon = EntityLexicon.from_file(FIXTURES / "lexicon.txt")
    table = run_eval(out, lexicon, out_prefix=tmp_path / "report")
    tasks = [row.task for row in table]
    assert tasks == sorted(tasks)
    assert {row.task for row in table} == {
        "Catalytic Activity", "Protein Function", "Domain/Motif", "General Description",
    }
    assert (tmp_path / "report.jsonl").exists()
    assert (tmp_path / "report.txt").exists()


def test_run_eval_identical_answers_score_100(tmp_path):
    art_dir = tmp_path / "artifacts"
    art_dir.mkdir()
    for i in range(3):
        text = "the kinase binds ATP and NADPH strongly"
        (art_dir / f"r{i}.json").write_text(json.dumps({
            "record_id": f"r{i}", "task": "t", "answer": text, "reference": text,
        }), encoding="utf-8")
    lexicon = EntityLexicon(["kinase", "ATP", "NADPH"])
    table = run_eval(tmp_path, lexicon)
    assert table[0].display() == {
        "bleu4": 100.0, "rouge_l": 100.0, "e_bleu2": 100.0, "e_bleu4": 100.0,
    }


def test_run_eval_empty_dir_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        run_eval(tmp_path, EntityLexicon(["x"]))


@pytest.mark.parametrize("content", [
    b'{"record_id": "b", "answ', b"5", b"[]", b'"text"', b"\xff\xfe{}", b"[" * 100_000,
], ids=["truncated", "number", "list", "string", "not-utf8", "too-deep"])
def test_run_eval_names_an_unreadable_artifact(tmp_path, capsys, content):
    art_dir = tmp_path / "artifacts"
    art_dir.mkdir()
    (art_dir / "a.json").write_text(json.dumps({
        "record_id": "a", "task": "t", "answer": "x", "reference": "x",
    }), encoding="utf-8")
    bad = art_dir / "b.json"
    bad.write_bytes(content)
    with pytest.raises(ValueError, match=re.escape(f"{bad}: not a UTF-8 JSON object")):
        run_eval(tmp_path, EntityLexicon(["x"]))
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("x\n", encoding="utf-8")
    assert cli.main(["qa", "eval", "--artifacts", str(tmp_path), "--lexicon", str(lexicon)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: not a UTF-8 JSON object\n"


def test_run_eval_counts_missing_references(tmp_path):
    art_dir = tmp_path / "artifacts"
    art_dir.mkdir()
    (art_dir / "a.json").write_text(json.dumps({
        "record_id": "a", "task": "t", "answer": "x", "reference": "x",
    }), encoding="utf-8")
    (art_dir / "b.json").write_text(json.dumps({
        "record_id": "b", "task": "t", "answer": "x", "reference": None,
    }), encoding="utf-8")
    table = run_eval(tmp_path, EntityLexicon(["x"]), out_prefix=tmp_path / "rep")
    assert table[0].n_records == 1
    assert "excluded (no reference): 1" in (tmp_path / "rep.txt").read_text(encoding="utf-8")


# -- reuse within a run ----------------------------------------------------------------

def artifact_bytes(out_dir):
    return {p.name: p.read_bytes() for p in sorted((Path(out_dir) / "artifacts").glob("*.json"))}


def test_warm_pipeline_rerun_matches_fresh_pipeline(index_dir_module, filter_model_module, tmp_path):
    config = make_pipeline_config(index_dir_module, filter_model_module, tmp_path)
    config = replace(config, paths=replace(config.paths, cache_dir=None))
    dataset = FIXTURES / "qa_records.jsonl"
    warm = Pipeline(config)
    warm.run_batch(dataset, tmp_path / "first")
    warm.run_batch(dataset, tmp_path / "second")  # entries and embeddings now all reused
    Pipeline(config).run_batch(dataset, tmp_path / "fresh")
    fresh = artifact_bytes(tmp_path / "fresh")
    assert len(fresh) == 10
    assert artifact_bytes(tmp_path / "second") == fresh == artifact_bytes(tmp_path / "first")


def _scorer_counting_gateway():
    """Gateway whose scorer sits behind a transport that records each request."""
    sent = []
    mock, mock_cfg = Gateway(), BackendConfig(role="scorer", endpoint="mock:keyword-boost")

    def transport(url, payload, timeout, headers):
        sent.append((payload["prompt"], payload["target"]))
        answer = mock.score_tokens(mock_cfg, payload["prompt"], payload["target"])
        return {"tokens": list(answer.tokens), "probs": list(answer.probs)}

    return Gateway(transport=transport), sent


def _reference_labels(config, records, index, hits_by_query, gateway):
    """Labelling without reuse: every snippet scores both legs of every fragment."""
    scorer = gateway.scorer_handle(config.scorer)

    def label_record(record):
        selected = rank_and_select(hits_by_query.get(record.id, []), config.retrieval,
                                   query_length=len(record.sequence))
        snippets = assemble_raw_pool(selected, index, config.retrieval.resolve_go).snippets()
        return [(snippet.tag, segment_ig(scorer,
                                         make_query_context(record.instruction, record.sequence),
                                         snippet_document(snippet.tag, snippet.value),
                                         split_fragments(record.answer), config.ig))
                for snippet in snippets]

    return build_distillation_set(records, label_record, tau=config.ig.tau, seed=config.seed)


def test_label_dataset_sends_each_scorer_request_once_per_record(index_dir_module):
    config = replace(PipelineConfig(), scorer=BackendConfig(
        role="scorer", endpoint="http://scorer.test/score", max_retries=0))
    records = read_dataset(FIXTURES / "label_records.jsonl")
    index = AnnotationIndex.load(index_dir_module)
    hits_by_query = load_hits(FIXTURES / "hits_fixture.tsv")

    gateway, sent = _scorer_counting_gateway()
    labelled = label_dataset(config, records, index, hits_by_query, gateway)
    reference_gateway, reference_sent = _scorer_counting_gateway()
    reference = _reference_labels(config, records, index, hits_by_query, reference_gateway)

    assert labelled == reference  # same labels and IG values, in the same order
    assert len(reference_sent) == 114
    assert len(sent) == 58 == len(set(reference_sent))


def test_label_dataset_reads_no_answer_of_a_record_without_snippets(index_dir_module):
    blank = QARecord(id="no-hits", instruction="Describe it.", sequence="MKV", task="function",
                     instruction_type="function", answer="  ")
    index = AnnotationIndex.load(index_dir_module)
    assert label_dataset(PipelineConfig(), [blank], index, {}, Gateway()) == ([], [])


def _request_echo_gateway(fail_when=lambda prompt: False):
    """Gateway whose scorer answers each request with the tokens (prompt, target)."""
    def transport(url, payload, timeout, headers):
        if fail_when(payload["prompt"]):
            raise OSError("scorer down")
        return {"tokens": [payload["prompt"], payload["target"]], "probs": [0.5, 0.25]}

    return Gateway(transport=transport)


def test_label_dataset_computes_each_confidence_once_per_record(index_dir_module, monkeypatch):
    config = replace(PipelineConfig(), scorer=BackendConfig(
        role="scorer", endpoint="http://scorer.test/score", max_retries=0))
    index = AnnotationIndex.load(index_dir_module)
    hits_by_query = load_hits(FIXTURES / "hits_fixture.tsv")
    computed = []  # the (prompt, target) of each confidence computed
    original = tag_filter_module.weighted_confidence
    monkeypatch.setattr(tag_filter_module, "weighted_confidence",
                        lambda smoothed, cfg: computed.append(smoothed.tokens)
                        or original(smoothed, cfg))

    shared = 0  # records where several snippets share each of several fragments
    for record in read_dataset(FIXTURES / "label_records.jsonl"):
        computed.clear()
        label_dataset(config, [record], index, hits_by_query, _request_echo_gateway())
        selected = rank_and_select(hits_by_query.get(record.id, []), config.retrieval,
                                   query_length=len(record.sequence))
        documents = [snippet_document(s.tag, s.value) for s in
                     assemble_raw_pool(selected, index, config.retrieval.resolve_go).snippets()]
        context = make_query_context(record.instruction, record.sequence)
        fragments = [f.text for f in split_fragments(record.answer)] if documents else []
        # once per (record, fragment) without the document, once per (snippet, fragment)
        # with it, and snippets that render the same document share it
        assert sorted(computed) == sorted(
            [(context, f) for f in fragments]
            + [(f"{context}\nEvidence: {d}", f) for d in set(documents) for f in fragments])
        shared += len(set(documents)) > 1 and len(fragments) > 1
    assert shared


def test_label_dataset_names_a_failed_without_document_leg(index_dir_module):
    config = replace(PipelineConfig(), scorer=BackendConfig(
        role="scorer", endpoint="http://scorer.test/score", max_retries=0))
    records = read_dataset(FIXTURES / "label_records.jsonl")
    gateway = _request_echo_gateway(fail_when=lambda prompt: "\nEvidence: " not in prompt)
    with pytest.raises(ScorerError, match="scorer failed on without-document leg"):
        label_dataset(config, records, AnnotationIndex.load(index_dir_module),
                      load_hits(FIXTURES / "hits_fixture.tsv"), gateway)


def test_label_dataset_skips_a_record_with_a_blank_answer(index_dir_module, caplog):
    records = read_dataset(FIXTURES / "label_records.jsonl")
    blank = [replace(r, answer="   ") if r.id == "lab-c1" else r for r in records]
    index = AnnotationIndex.load(index_dir_module)
    hits_by_query = load_hits(FIXTURES / "hits_fixture.tsv")
    with caplog.at_level("WARNING", logger="homorag.pipeline"):
        train, test = label_dataset(PipelineConfig(), blank, index, hits_by_query, Gateway())
    full_train, full_test = label_dataset(PipelineConfig(), records, index, hits_by_query,
                                          Gateway())
    # the record stays in the sampling, so every other record keeps its labels and split
    c1 = next(r for r in records if r.id == "lab-c1")
    others = lambda examples: [ex for ex in examples if ex.instruction != c1.instruction]
    assert (train, test) == (others(full_train), others(full_test))
    assert len(train) + len(test) < len(full_train) + len(full_test)  # lab-c1 had snippets
    assert "lab-c1" in caplog.text and "blank" in caplog.text


# -- blast invocation ----------------------------------------------------------------------

def test_run_blast_missing_binary_mentions_bypass():
    config = PipelineConfig()
    with pytest.raises(BlastInvocationError, match="--hits"):
        run_blast(config, FIXTURES / "query.fasta", "out.tsv")


def make_fake_blast(tmp_path, payload, exit_code=0, stderr=""):
    script = tmp_path / "fake_blastp"
    script.write_text(
        "#!/bin/sh\n"
        'out=""\n'
        'while [ $# -gt 0 ]; do\n'
        '  if [ "$1" = "-out" ]; then shift; out="$1"; fi\n'
        "  shift\n"
        "done\n"
        f"printf '{payload}' > \"$out\"\n"
        f"printf '{stderr}' >&2\n"
        f"exit {exit_code}\n",
        encoding="utf-8",
    )
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return script


def test_run_blast_records_command_and_output(tmp_path):
    row = "case-r1\\tQ55C17\\t98.44\\t64\\t63\\t1e-150\\t880\\n"
    binary = make_fake_blast(tmp_path, row)
    config = PipelineConfig()
    config = replace(config, blast=replace(config.blast, binary=str(binary), db="mini"))
    out = tmp_path / "hits.tsv"
    meta = run_blast(config, FIXTURES / "query.fasta", out)
    assert meta["command"][0] == str(binary)
    assert "-outfmt" in meta["command"]
    from homorag.homology import parse_blast_tabular

    hits = parse_blast_tabular(out.read_text(encoding="utf-8").splitlines(keepends=True))
    assert hits[0].subject_accession == "Q55C17"


def test_run_blast_nonzero_exit(tmp_path):
    binary = make_fake_blast(tmp_path, "", exit_code=3)
    config = PipelineConfig()
    config = replace(config, blast=replace(config.blast, binary=str(binary), db="mini"))
    with pytest.raises(BlastInvocationError, match="exit code 3"):
        run_blast(config, FIXTURES / "query.fasta", tmp_path / "x.tsv")


def test_run_blast_failure_with_stderr_that_is_not_utf8(tmp_path, capsys):
    binary = make_fake_blast(tmp_path, "", exit_code=3, stderr="bad \\377 byte")
    config_path = tmp_path / "c.yaml"
    config_path.write_text(yaml.safe_dump({"blast": {"binary": str(binary), "db": "mini"}}),
                           encoding="utf-8")
    rc = cli.main(["--config", str(config_path), "blast", "run",
                   "--query", str(FIXTURES / "query.fasta"), "--out", str(tmp_path / "x.tsv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: alignment run failed with exit code 3: bad \ufffd byte\n")


def test_run_blast_recorded_command_replays_identically(tmp_path):
    import subprocess

    row = "case-r1\\tQ55C17\\t98.44\\t64\\t63\\t1e-150\\t880\\n"
    binary = make_fake_blast(tmp_path, row)
    config = PipelineConfig()
    config = replace(config, blast=replace(config.blast, binary=str(binary), db="mini"))
    out = tmp_path / "hits.tsv"
    meta = run_blast(config, FIXTURES / "query.fasta", out)
    first = out.read_bytes()
    subprocess.run(meta["command"], check=True, capture_output=True)
    assert out.read_bytes() == first


@pytest.mark.skipif(__import__("shutil").which("blastp") is None,
                    reason="live alignment binary not installed")
def test_run_blast_live_tool(tmp_path):
    # optional: exercises the real binary when present
    config = PipelineConfig()
    config = replace(config, blast=replace(config.blast, binary="blastp", db="nonexistent-db"))
    with pytest.raises(BlastInvocationError):
        run_blast(config, FIXTURES / "query.fasta", tmp_path / "x.tsv")


# -- CLI -------------------------------------------------------------------------------------

def write_cli_config(path, index_dir, model_path, cache_dir, hits=FIXTURES / "hits_fixture.tsv"):
    payload = {
        "mode": "full_2d",
        "seed": 0,
        "paths": {
            "index_dir": str(index_dir),
            "filter_model": str(model_path),
            "cache_dir": str(cache_dir),
            "hits": str(hits),
        },
        "backends": {
            "scorer": {"endpoint": "mock:keyword-boost"},
            "embedder": {"endpoint": "mock:hash(dim=32)"},
            "generator": {"endpoint": "mock:echo"},
        },
    }
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return path


def test_cli_index_build_and_lookup(tmp_path, capsys):
    out = tmp_path / "idx"
    rc = cli.main(["index", "build", "--dat", str(FIXTURES / "swissprot_mini.dat"),
                   "--go", str(FIXTURES / "go_mini.obo"), "--out", str(out)])
    assert rc == 0
    assert "indexed 6 records" in capsys.readouterr().out
    rc = cli.main(["index", "lookup", "--index", str(out), "--accession", "Q55C17"])
    assert rc == 0
    dump = capsys.readouterr().out
    assert "accession: Q55C17" in dump
    assert "[CATALYTIC ACTIVITY]" in dump


def test_cli_index_build_names_flat_file_and_line(tmp_path, capsys):
    dat = tmp_path / "bad.dat"
    dat.write_text("ID   A_TEST                  Reviewed;          10 AA.\nAC   P11111;\n"
                   "FT   \n//\n", encoding="utf-8")
    rc = cli.main(["index", "build", "--dat", str(dat), "--out", str(tmp_path / "idx")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {dat.resolve()}:3: FT line without a feature key: 'FT   '\n")


def test_cli_index_lookup_unknown_accession(tmp_path, capsys):
    out = tmp_path / "idx"
    assert cli.main(["index", "build", "--dat", str(FIXTURES / "swissprot_mini.dat"),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    rc = cli.main(["index", "lookup", "--index", str(out), "--accession", "P99999"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: accession P99999 is not in the index {out}\n"


def test_cli_retrieve(tmp_path, capsys):
    rc = cli.main(["retrieve", "--query", str(FIXTURES / "query.fasta"),
                   "--hits", str(FIXTURES / "hits_fixture.tsv"), "--k", "3"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 3
    assert lines[0].split("\t")[1] == "Q55C17"


RETRIEVE_GOLDEN = (
    "case-r1\tQ55C17\t98.44\t64\t63\t1e-150\t880.0\n"
    "case-r1\tQ3ZCD7\t84.38\t64\t54\t1e-100\t610.0\n"
    "case-r1\tQ9N5Y2\t79.69\t64\t51\t1e-80\t520.0\n"
)


def test_cli_retrieve_golden_bytes(tmp_path, capsysbinary):
    args = ["retrieve", "--query", str(FIXTURES / "query.fasta"),
            "--hits", str(FIXTURES / "hits_fixture.tsv")]
    assert cli.main(args) == 0
    assert capsysbinary.readouterr().out == RETRIEVE_GOLDEN.encode()
    out = tmp_path / "ranked.tsv"
    assert cli.main([*args, "--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert out.read_bytes() == RETRIEVE_GOLDEN.encode()


def test_cli_retrieve_without_hits_for_the_query_warns(tmp_path, capsys):
    query = tmp_path / "nosuch.fasta"
    query.write_text(">nosuch\nMKV\n", encoding="utf-8")
    hits = FIXTURES / "hits_fixture.tsv"
    out = tmp_path / "ranked.tsv"
    for extra in ([], ["--out", str(out)]):
        rc = cli.main(["retrieve", "--query", str(query), "--hits", str(hits), *extra])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == ""
        assert captured.err == f"warning: no hits for nosuch in {hits}\n"
    assert out.read_bytes() == b""


def write_bad_hits(tmp_path):
    """The fixture hits file with its 9th row cut to two columns."""
    rows = (FIXTURES / "hits_fixture.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    path = tmp_path / "bad.tsv"
    path.write_text("".join(rows[:8]) + "case-r1\tQ55C17\n" + "".join(rows[9:]),
                    encoding="utf-8")
    return path


def test_cli_retrieve_refuses_a_query_without_residues(tmp_path, capsys):
    query = tmp_path / "header.fasta"
    query.write_text(">case-r1 no residues\n\n", encoding="utf-8")
    rc = cli.main(["retrieve", "--query", str(query), "--hits", str(FIXTURES / "hits_fixture.tsv")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {query}: query case-r1 has no residues\n"


def test_cli_retrieve_names_bad_hits_file_and_row(tmp_path, capsys):
    bad = write_bad_hits(tmp_path)
    rc = cli.main(["retrieve", "--query", str(FIXTURES / "query.fasta"), "--hits", str(bad)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {bad}:9: expected 7 columns, got 2\n"


def test_pipeline_names_bad_hits_file_and_row(index_dir_module, filter_model_module, tmp_path):
    config = make_pipeline_config(index_dir_module, filter_model_module, tmp_path)
    bad = write_bad_hits(tmp_path)
    config = replace(config, paths=replace(config.paths, hits=str(bad)))
    with pytest.raises(ValueError) as info:
        Pipeline(config)
    assert str(info.value) == f"{bad}:9: expected 7 columns, got 2"

def test_cli_retrieve_identity_ceiling(capsys):
    rc = cli.main(["retrieve", "--query", str(FIXTURES / "query.fasta"),
                   "--hits", str(FIXTURES / "hits_fixture.tsv"),
                   "--k", "3", "--identity-ceiling", "0.8"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    # only the 79.69% hit for this query survives a 0.8 ceiling
    assert [l.split("\t")[1] for l in lines] == ["Q9N5Y2"]


@pytest.mark.parametrize("section, flags, expected", [
    ({"top_k": 1}, [], ["Q55C17"]),
    ({"identity_ceiling": 0.8}, [], ["Q9N5Y2"]),
    ({"exclude_self": False}, [], ["P99999", "Q55C17", "Q3ZCD7"]),
    ({"top_k": 1, "identity_ceiling": 0.8}, ["--k", "2", "--identity-ceiling", "0.9"],
     ["Q3ZCD7", "Q9N5Y2"]),
    ({"top_k": 1}, ["--keep-self"], ["P99999"]),
], ids=["top_k", "identity_ceiling", "exclude_self", "flags_win", "keep_self_flag"])
def test_cli_retrieve_reads_retrieval_section(tmp_path, capsys, section, flags, expected):
    hits = tmp_path / "hits.tsv"  # the fixture hits plus a self hit of the 64-residue query
    hits.write_text((FIXTURES / "hits_fixture.tsv").read_text(encoding="utf-8")
                    + "case-r1\tP99999\t100.0\t64\t64\t0\t1000\n", encoding="utf-8")
    config_path = tmp_path / "c.yaml"
    config_path.write_text(yaml.safe_dump({"retrieval": section}), encoding="utf-8")
    rc = cli.main(["--config", str(config_path), "retrieve",
                   "--query", str(FIXTURES / "query.fasta"), "--hits", str(hits), *flags])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert [l.split("\t")[1] for l in lines] == expected


def test_cli_filter_label_train_score(index_dir_module, tmp_path, capsys):
    label_dir = tmp_path / "labels"
    rc = cli.main(["--offline", "filter", "label",
                   "--dataset", str(FIXTURES / "label_records.jsonl"),
                   "--index", str(index_dir_module),
                   "--hits", str(FIXTURES / "hits_fixture.tsv"),
                   "--out", str(label_dir)])
    assert rc == 0
    assert (label_dir / "train.jsonl").exists()
    assert (label_dir / "test.jsonl").exists()
    out = capsys.readouterr().out
    assert "labeled" in out

    examples = [json.loads(l) for l in (label_dir / "train.jsonl").read_text().splitlines()]
    labels = {e["label"] for e in examples}
    assert labels <= {0, 1} and len(labels) == 2

    model_path = tmp_path / "model.json"
    rc = cli.main(["filter", "train", "--examples", str(label_dir),
                   "--out", str(model_path), "--epochs", "4"])
    assert rc == 0
    assert model_path.exists()
    assert "trained on" in capsys.readouterr().out

    rc = cli.main(["filter", "score", "--model", str(model_path),
                   "--instruction", "Identify the chemical transformation promoted by this enzyme.",
                   "--tag", "CATALYTIC ACTIVITY"])
    assert rc == 0
    value = float(capsys.readouterr().out.strip())
    assert 0.0 <= value <= 1.0


def test_cli_filter_train_reads_train_section(tmp_path):
    from conftest import PIPELINE_TYPES, make_synthetic_examples

    examples = tmp_path / "train.jsonl"
    write_examples(examples, make_synthetic_examples(PIPELINE_TYPES, per_type=10, seed=3))
    config_path = tmp_path / "c.yaml"
    config_path.write_text(yaml.safe_dump({"train": {"epochs": 2, "learning_rate": 0.5}}),
                           encoding="utf-8")
    train = ["--config", str(config_path), "filter", "train", "--examples", str(examples)]
    assert cli.main(train + ["--out", str(tmp_path / "from_config.json")]) == 0
    assert cli.main(train + ["--out", str(tmp_path / "flags.json"),
                             "--epochs", "3", "--batch-size", "16"]) == 0

    from_config = FilterModel.load(tmp_path / "from_config.json").metadata
    assert (from_config["epochs"], from_config["learning_rate"], from_config["batch_size"]) \
        == (2, 0.5, 64)
    assert len(from_config["train_loss_per_epoch"]) == 3
    flags = FilterModel.load(tmp_path / "flags.json").metadata
    assert (flags["epochs"], flags["learning_rate"], flags["batch_size"]) == (3, 0.5, 16)
    assert len(flags["train_loss_per_epoch"]) == 4


def test_cli_denoise(index_dir_module, filter_model_module, tmp_path, capsys, records):
    config = make_pipeline_config(index_dir_module, filter_model_module, tmp_path)
    pipe = Pipeline(config)
    artifact = pipe.run_query(records["case-r1"])
    pool_path = tmp_path / "pool.json"
    pool_path.write_text(json.dumps(artifact.pools["horizontal"]), encoding="utf-8")
    rc = cli.main(["--offline", "denoise", "--pool", str(pool_path),
                   "--eps", "0.35", "--min-pts", "2", "--anchor-top", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Homolog 1 (Q55C17)" in out
    assert "Q3ZCD7" not in out


def test_cli_denoise_matches_pipeline_vertical_stage(pipeline, tmp_path, capsys, records):
    for record_id in ("case-r1", "func-r1", "dom-r2"):
        artifact = pipeline.run_query(records[record_id])
        pool_path = tmp_path / f"{record_id}.json"
        pool_path.write_text(json.dumps(artifact.pools["horizontal"]), encoding="utf-8")
        out_path = tmp_path / f"{record_id}-vertical.json"
        rc = cli.main(["--offline", "denoise", "--pool", str(pool_path), "--out", str(out_path)])
        assert rc == 0
        assert capsys.readouterr().out == artifact.context + "\n"
        assert json.loads(out_path.read_text(encoding="utf-8")) == artifact.pools["vertical"]


def test_cli_denoise_reads_denoise_section(pipeline, tmp_path, capsys, records):
    artifact = pipeline.run_query(records["case-r1"])
    pool_path = tmp_path / "pool.json"
    pool_path.write_text(json.dumps(artifact.pools["raw"]), encoding="utf-8")
    config_path = tmp_path / "c.yaml"
    config_path.write_text(yaml.safe_dump({"denoise": {"eps": 0.9, "anchor_top_m": 2}}),
                           encoding="utf-8")
    config = load_config(config_path, offline=True)
    pool = EvidencePool.from_dict(artifact.pools["raw"])
    embedder = Gateway().embedder_handle(config.embedder)
    expected = render_context(vertical_filter(pool, embedder, config.denoise)[0])
    default = render_context(vertical_filter(pool, embedder, DenoiseConfig())[0])
    assert expected != default

    denoise = ["--config", str(config_path), "--offline", "denoise", "--pool", str(pool_path)]
    assert cli.main(denoise) == 0
    assert capsys.readouterr().out == expected + "\n"
    assert cli.main(denoise + ["--eps", "0.35", "--anchor-top", "1"]) == 0
    assert capsys.readouterr().out == default + "\n"
    assert cli.main(denoise + ["--eps", "-1"]) == 2
    assert "denoise.eps must be > 0" in capsys.readouterr().err


def test_cli_denoise_accepts_handwritten_pool(tmp_path, capsys):
    # snippet ranks may be omitted in hand-written pool files
    pool = {
        "stage": "HORIZONTAL",
        "homologs": [
            {"rank": 1,
             "hit": {"query_id": "q", "subject_accession": "P00001",
                     "percent_identity": 90.0, "alignment_length": 100,
                     "identity_count": 90, "e_value": 1e-30, "bitscore": 250.0},
             "snippets": [{"tag": "FUNCTION", "value": "shared fact",
                           "source_accession": "P00001"}]},
            {"rank": 2,
             "hit": {"query_id": "q", "subject_accession": "P00002",
                     "percent_identity": 80.0, "alignment_length": 100,
                     "identity_count": 80, "e_value": 1e-20, "bitscore": 200.0},
             "snippets": [{"tag": "FUNCTION", "value": "shared fact",
                           "source_accession": "P00002"}]},
        ],
    }
    pool_path = tmp_path / "pool.json"
    pool_path.write_text(json.dumps(pool), encoding="utf-8")
    rc = cli.main(["--offline", "denoise", "--pool", str(pool_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Homolog 1 (P00001)" in out and "Homolog 2 (P00002)" in out


def test_cli_denoise_sends_no_embedding_request_below_min_pts(tmp_path, capsys, monkeypatch):
    calls = []

    def unreachable(url, payload, timeout, headers):
        calls.append(url)
        raise RuntimeError("embedder unreachable")

    monkeypatch.setattr("homorag.gateway._http_post_json", unreachable)
    monkeypatch.delenv("HOMORAG_EMBEDDER_ENDPOINT", raising=False)
    config_path = tmp_path / "c.yaml"
    config_path.write_text(yaml.safe_dump({"backends": {"embedder": {
        "endpoint": "http://embedder.test/embed", "max_retries": 0}}}), encoding="utf-8")

    def pool_file(name, values):
        homologs = [
            {"rank": rank,
             "hit": {"query_id": "q", "subject_accession": f"P0000{rank}",
                     "percent_identity": 90.0, "alignment_length": 100,
                     "identity_count": 90, "e_value": 1e-30, "bitscore": 250.0},
             "snippets": [{"tag": "FUNCTION", "value": value,
                           "source_accession": f"P0000{rank}"}]}
            for rank, value in enumerate(values, start=1)
        ]
        path = tmp_path / name
        path.write_text(json.dumps({"stage": "HORIZONTAL", "homologs": homologs}),
                        encoding="utf-8")
        return str(path)

    one = pool_file("one.json", ["lone fact"])
    assert cli.main(["--config", str(config_path), "denoise", "--pool", one]) == 0
    captured = capsys.readouterr()
    assert captured.out == "Homolog 1 (P00001): [FUNCTION]: lone fact\n"
    assert "passing pool through unfiltered" in captured.err
    assert calls == []
    # at min_pts the request is sent, and the unreachable embedder fails the verb
    two = pool_file("two.json", ["shared fact", "shared fact"])
    assert cli.main(["--config", str(config_path), "denoise", "--pool", two]) == 2
    assert "embedder unreachable" in capsys.readouterr().err
    assert calls == ["http://embedder.test/embed"]


NOT_A_JSON_OBJECT = pytest.mark.parametrize("content", [
    b"\xe9", b'{"stage": "RAW", "homologs"', b"[]",
], ids=["not-utf8", "truncated", "list"])


@NOT_A_JSON_OBJECT
def test_cli_denoise_names_a_pool_that_is_not_a_json_object(tmp_path, capsys, content):
    pool_path = tmp_path / "pool.json"
    pool_path.write_bytes(content)
    assert cli.main(["--offline", "denoise", "--pool", str(pool_path)]) == 2
    assert capsys.readouterr().err == f"error: {pool_path}: not a UTF-8 JSON object\n"


@NOT_A_JSON_OBJECT
def test_cli_filter_score_names_a_model_that_is_not_a_json_object(tmp_path, capsys, content):
    model_path = tmp_path / "model.json"
    model_path.write_bytes(content)
    assert cli.main(["filter", "score", "--model", str(model_path),
                     "--instruction", "What does it do?", "--tag", "FUNCTION"]) == 2
    assert capsys.readouterr().err == f"error: {model_path}: not a UTF-8 JSON object\n"


def test_cli_filter_score_names_a_malformed_model(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_text('{"format": "homorag-filter/1", "feature_dim": 262144, "bias": 0,'
                          ' "weights": {"abc": 1.0}}', encoding="utf-8")
    assert cli.main(["filter", "score", "--model", str(model_path),
                     "--instruction", "What does it do?", "--tag", "FUNCTION"]) == 2
    assert capsys.readouterr().err == (
        f"error: {model_path}: weight key 'abc' is not an integer in [0, 262144)\n")


@pytest.mark.parametrize("pool, cause", [
    ({}, "KeyError: 'stage'"),
    ({"stage": "RAW", "homologs": [{"rank": 1, "hit": {}}]}, "KeyError: 'snippets'"),
    ({"stage": "BOGUS", "homologs": []}, "ValueError: 'BOGUS' is not a valid Stage"),
], ids=["empty", "no-snippets", "bad-stage"])
def test_cli_denoise_names_a_file_that_is_not_a_pool(tmp_path, capsys, pool, cause):
    pool_path = tmp_path / "pool.json"
    pool_path.write_text(json.dumps(pool), encoding="utf-8")
    assert cli.main(["--offline", "denoise", "--pool", str(pool_path)]) == 2
    assert capsys.readouterr().err == f"error: {pool_path}: not an evidence pool ({cause})\n"


def test_cli_config_errors_name_the_file(tmp_path, capsys):
    config_path = tmp_path / "c.yaml"
    lookup = ["--config", str(config_path), "index", "lookup", "--index", str(tmp_path),
              "--accession", "P12345"]
    config_path.write_bytes(b"seed: 1\nmode: \xe9\n")
    assert cli.main(lookup) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unacceptable character #x00e9")
    assert f'in "{config_path}", position 14' in err
    config_path.write_bytes(b"seed: 1\nmode: [\n")
    assert cli.main(lookup) == 2
    assert f'in "{config_path}", line 3, column 1' in capsys.readouterr().err


def test_cli_qa_run_batch_eval(index_dir_module, filter_model_module, tmp_path, capsys):
    config_path = write_cli_config(tmp_path / "config.yaml", index_dir_module,
                                   filter_model_module, tmp_path / "cache")
    rc = cli.main(["--config", str(config_path), "qa", "run",
                   "--dataset", str(FIXTURES / "qa_records.jsonl"), "--id", "case-r1",
                   "--out", str(tmp_path / "single")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Q55C17" in out and "=== answer ===" in out

    batch_dir = tmp_path / "batch"
    rc = cli.main(["--config", str(config_path), "qa", "batch",
                   "--dataset", str(FIXTURES / "qa_records.jsonl"), "--out", str(batch_dir)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["processed"] == 10

    rc = cli.main(["qa", "eval", "--artifacts", str(batch_dir),
                   "--lexicon", str(FIXTURES / "lexicon.txt"),
                   "--index", str(index_dir_module),
                   "--out", str(tmp_path / "report")])
    assert rc == 0
    assert "Catalytic Activity" in capsys.readouterr().out


def test_cli_qa_run_unknown_id(index_dir_module, filter_model_module, tmp_path, capsys):
    config_path = write_cli_config(tmp_path / "config.yaml", index_dir_module,
                                   filter_model_module, tmp_path / "cache")
    dataset = FIXTURES / "qa_records.jsonl"
    assert cli.main(["--config", str(config_path), "qa", "run",
                     "--dataset", str(dataset), "--id", "nosuch"]) == 2
    assert capsys.readouterr().err == f"error: record id 'nosuch' not found in {dataset}\n"


def test_cli_qa_run_keeps_artifact_inside_out(index_dir_module, filter_model_module, tmp_path,
                                             capsys):
    record = json.loads((FIXTURES / "qa_records.jsonl").read_text(encoding="utf-8").splitlines()[0])
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(json.dumps(dict(record, id="../escaped")) + "\n", encoding="utf-8")
    config_path = write_cli_config(tmp_path / "config.yaml", index_dir_module,
                                   filter_model_module, tmp_path / "cache")
    out = tmp_path / "deep" / "single"
    rc = cli.main(["--config", str(config_path), "qa", "run",
                   "--dataset", str(dataset), "--id", "../escaped", "--out", str(out)])
    assert rc == 0
    assert not (tmp_path / "deep" / "escaped.json").exists()
    assert [p.name for p in out.iterdir()] == [".._escaped.json"]
    assert json.loads((out / ".._escaped.json").read_text(encoding="utf-8"))["record_id"] \
        == "../escaped"


def test_cli_blast_missing_binary(capsys):
    rc = cli.main(["blast", "run", "--query", str(FIXTURES / "query.fasta"),
                   "--out", "unused.tsv"])
    assert rc == 2
    assert "--hits" in capsys.readouterr().err


def test_cli_error_paths(tmp_path, capsys):
    rc = cli.main(["index", "lookup", "--index", str(tmp_path / "missing"),
                   "--accession", "Q55C17"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_load_config_offline_and_env_override(tmp_path, monkeypatch):
    config_path = tmp_path / "c.yaml"
    config_path.write_text(yaml.safe_dump({
        "backends": {"generator": {"endpoint": "http://real.backend/gen"}},
    }), encoding="utf-8")
    config = load_config(config_path)
    assert config.generator.endpoint == "http://real.backend/gen"
    offline = load_config(config_path, offline=True)
    assert offline.generator.endpoint.startswith("mock:")
    monkeypatch.setenv("HOMORAG_SCORER_ENDPOINT", "http://scorer.env/score")
    with_env = load_config(config_path)
    assert with_env.scorer.endpoint == "http://scorer.env/score"


def test_default_provenance_reads_pipeline_config(monkeypatch):
    assert default_provenance() == {
        "retrieval.top_k": {"value": 3, "origin": "recipe"},
        "ig.omega": {"value": 0.8, "origin": "recipe"},
        "ig.tau": {"value": 0.01, "origin": "recipe"},
        "generation.temperature": {"value": 0.7, "origin": "recipe"},
        "generation.top_p": {"value": 0.9, "origin": "recipe"},
        "generation.max_tokens": {"value": 2048, "origin": "recipe"},
        "train.epochs": {"value": 4, "origin": "recipe"},
        "train.batch_size": {"value": 64, "origin": "recipe"},
        "train.encoder_learning_rate": {"value": 1e-5, "origin": "recipe"},
        "train.learning_rate": {"value": 1.0, "origin": "local"},
        "ig.window": {"value": 3, "origin": "local"},
        "ig.head_k": {"value": 5, "origin": "local"},
        "ig.alpha": {"value": 0.5, "origin": "local"},
        "denoise.eps": {"value": 0.35, "origin": "local"},
        "denoise.min_pts": {"value": 2, "origin": "local"},
        "denoise.anchor_top_m": {"value": 1, "origin": "local"},
    }
    # every value follows the dataclass defaults, whatever they are
    other = PipelineConfig(
        retrieval=RetrievalConfig(top_k=7),
        ig=IgConfig(window=5, head_k=2, omega=0.5, alpha=0.25, tau=0.02),
        denoise=DenoiseConfig(eps=0.2, min_pts=3, anchor_top_m=2),
        train=TrainConfig(epochs=9, learning_rate=0.25, batch_size=8),
        generation=GenerationParams(temperature=0.1, top_p=0.5, max_tokens=16),
    )
    monkeypatch.setattr(config_module, "PipelineConfig", lambda: other)
    for key, entry in default_provenance().items():
        section, name = key.split(".")
        expected = (ENCODER_RECIPE["learning_rate"] if name == "encoder_learning_rate"
                    else getattr(getattr(other, section), name))
        assert entry["value"] == expected, key


def test_load_config_rejects_unknown_keys(tmp_path):
    config_path = tmp_path / "c.yaml"
    config_path.write_text(yaml.safe_dump({"retrieval": {"topk": 3}}), encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key 'retrieval.topk'"):
        load_config(config_path)


@pytest.mark.parametrize("payload", [{"max_workers": 4}, {"train": {"seed": 0}}],
                         ids=["max_workers", "train.seed"])
def test_load_config_rejects_removed_keys(tmp_path, payload):
    config_path = tmp_path / "c.yaml"
    config_path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown"):
        load_config(config_path)


@pytest.mark.parametrize("text, message", [
    ("generation: {temperature: .nan}", "generation.temperature must be finite, got nan"),
    ("generation: {presence_penalty: .inf}", "generation.presence_penalty must be finite, got inf"),
    ("generation: {max_tokens: .inf}", "generation.max_tokens must be int, got inf"),
    ("denoise: {eps: .nan}", "denoise.eps must be > 0 and finite, got nan"),
    ("ig: {tau: .nan}", "ig.tau must be > 0 and finite, got nan"),
    ("backends: {scorer: {endpoint: 'http://b.test', timeout: 0}}",
     "backend.timeout must be > 0 and finite, got 0"),
    ("backends: {embedder: {endpoint: 'http://b.test', timeout: -1}}",
     "backend.timeout must be > 0 and finite, got -1"),
    ("backends: {generator: {endpoint: 'http://b.test', timeout: .nan}}",
     "backend.timeout must be > 0 and finite, got nan"),
    ("backends: {generator: {endpoint: 'file:///etc/hostname'}}",
     "backend.endpoint must be mock:<name> or an http(s):// URL, got 'file:///etc/hostname'"),
    ("backends: {scorer: {endpoint: 'ftp://b.test/score'}}",
     "backend.endpoint must be mock:<name> or an http(s):// URL, got 'ftp://b.test/score'"),
    ("backends: {embedder: {endpoint: 'data:,{}'}}",
     "backend.endpoint must be mock:<name> or an http(s):// URL, got 'data:,{}'"),
    ("backends: {embedder: {endpoint: 'b.test/embed'}}",
     "backend.endpoint must be mock:<name> or an http(s):// URL, got 'b.test/embed'"),
], ids=["temperature-nan", "presence-inf", "max-tokens-inf", "eps-nan", "tau-nan",
        "timeout-0", "timeout-negative", "timeout-nan",
        "endpoint-file", "endpoint-ftp", "endpoint-data", "endpoint-no-scheme"])
def test_config_refuses_values_a_request_cannot_carry(text, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config_from_dict(yaml.safe_load(text))


@pytest.mark.parametrize("text, section, cause", [
    ("backends: {scorer: {timeout: 5}}", "backends.scorer",
     "missing 1 required positional argument: 'endpoint'"),
], ids=["backend-without-endpoint"])
def test_config_type_errors_name_their_section(text, section, cause):
    with pytest.raises(ConfigError, match=f"^section '{re.escape(section)}': ") as info:
        config_from_dict(yaml.safe_load(text))
    assert cause in str(info.value)
    assert isinstance(info.value.__cause__, TypeError)


# every refusal of a config, each named by its section and key; a case that
# loads must still fail `validate_for_mode`
@pytest.mark.parametrize("text, message", [
    pytest.param("[1, 2]", "config root must be a mapping", id="root-list"),
    pytest.param("tuning: {}", "unknown top-level config key 'tuning'", id="unknown-top-level"),
    pytest.param("retrieval: [1]", "section 'retrieval' must be a mapping", id="section-list"),
    pytest.param("mode: fast", f"mode must be one of {MODES}, got 'fast'", id="mode-unknown"),
    pytest.param("mode: full_2d", "mode 'full_2d' requires paths.filter_model",
                 id="mode-without-filter-model"),
    pytest.param("retrieval: {top_k: 0}", "retrieval.top_k must be >= 1, got 0", id="top-k-0"),
    pytest.param("retrieval: {identity_ceiling: 0}",
                 "retrieval.identity_ceiling must be in (0, 1], got 0", id="ceiling-0"),
    pytest.param("retrieval: {identity_ceiling: 1.5}",
                 "retrieval.identity_ceiling must be in (0, 1], got 1.5", id="ceiling-above-1"),
    pytest.param("ig: {window: 2}", "ig.window must be an odd integer >= 1, got 2",
                 id="window-even"),
    pytest.param("ig: {window: 0}", "ig.window must be an odd integer >= 1, got 0", id="window-0"),
    pytest.param("ig: {head_k: -1}", "ig.head_k must be >= 0, got -1", id="head-k-negative"),
    pytest.param("ig: {omega: 0}", "ig.omega must be in (0, 1], got 0", id="omega-0"),
    pytest.param("ig: {alpha: 1.5}", "ig.alpha must be in [0, 1], got 1.5", id="alpha-above-1"),
    pytest.param("ig: {tau: 0}", "ig.tau must be > 0 and finite, got 0", id="tau-0"),
    pytest.param("ig: {tau: .inf}", "ig.tau must be > 0 and finite, got inf", id="tau-inf"),
    pytest.param("denoise: {eps: 0}", "denoise.eps must be > 0 and finite, got 0", id="eps-0"),
    pytest.param("denoise: {min_pts: 0}", "denoise.min_pts must be >= 1, got 0", id="min-pts-0"),
    pytest.param("denoise: {metric: manhattan}",
                 "denoise.metric must be 'cosine' or 'euclidean', got 'manhattan'",
                 id="metric-unknown"),
    pytest.param("denoise: {anchor_top_m: 0}", "denoise.anchor_top_m must be >= 1, got 0",
                 id="anchor-top-m-0"),
    pytest.param("train: {epochs: -1}", "train.epochs must be >= 0, got -1", id="epochs-negative"),
    pytest.param("train: {learning_rate: 0}", "train.learning_rate must be > 0, got 0",
                 id="learning-rate-0"),
    pytest.param("train: {batch_size: 0}", "train.batch_size must be >= 1, got 0",
                 id="batch-size-0"),
    pytest.param("generation: {temperature: -0.5}",
                 "generation.temperature must be >= 0, got -0.5", id="temperature-negative"),
    pytest.param("generation: {top_p: 0}", "generation.top_p must be in (0, 1], got 0",
                 id="top-p-0"),
    pytest.param("generation: {max_tokens: 0}", "generation.max_tokens must be >= 1, got 0",
                 id="max-tokens-0"),
    pytest.param("blast: {evalue: 0}", "blast.evalue must be > 0 and finite, got 0",
                 id="evalue-0"),
    pytest.param("blast: {evalue: -1.0}", "blast.evalue must be > 0 and finite, got -1.0",
                 id="evalue-negative"),
    pytest.param("blast: {evalue: .nan}", "blast.evalue must be > 0 and finite, got nan",
                 id="evalue-nan"),
    pytest.param("blast: {max_target_seqs: 0}", "blast.max_target_seqs must be >= 1, got 0",
                 id="max-target-seqs-0"),
    pytest.param("backends: [scorer]", "section 'backends' must be a mapping", id="backends-list"),
    pytest.param("backends: {critic: {endpoint: 'mock:echo'}}",
                 "unknown backend role 'backends.critic'", id="backend-role-unknown"),
    pytest.param("backends: {scorer: {role: embedder, endpoint: 'mock:hash(dim=8)'}}",
                 "backends.scorer declares mismatching role 'embedder'",
                 id="backend-role-mismatch"),
    pytest.param("backends: {scorer: {endpoint: 'mock:uniform(0.5)', max_in_flight: 0}}",
                 "backend.max_in_flight must be >= 1, got 0", id="max-in-flight-0"),
    pytest.param("backends: {scorer: {endpoint: 'mock:uniform(0.5)', max_retries: -1}}",
                 "backend.max_retries must be >= 0, got -1", id="max-retries-negative"),
    pytest.param("backends: {generator: 'mock:echo'}",
                 "section 'backends.generator' must be a mapping", id="backend-string"),
    pytest.param("backends: {generator: 5}",
                 "section 'backends.generator' must be a mapping", id="backend-int"),
    pytest.param("seed: x", "seed must be int, got 'x'", id="seed-string"),
    pytest.param("seed: 1.5", "seed must be int, got 1.5", id="seed-float"),
    pytest.param("seed: true", "seed must be int, got True", id="seed-bool"),
    pytest.param("mode: 5", "mode must be str, got 5", id="mode-int"),
    pytest.param("retrieval: {top_k: 2.5}", "retrieval.top_k must be int, got 2.5",
                 id="top-k-float"),
    pytest.param("retrieval: {exclude_self: 'false'}",
                 "retrieval.exclude_self must be bool, got 'false'", id="exclude-self-string"),
    pytest.param("retrieval: {identity_ceiling: true}",
                 "retrieval.identity_ceiling must be float or None, got True",
                 id="ceiling-bool"),
    pytest.param("denoise: {eps: true}", "denoise.eps must be float, got True", id="eps-bool"),
    pytest.param("denoise: {eps: '0.3'}", "denoise.eps must be float, got '0.3'",
                 id="eps-as-string"),
    pytest.param("generation: {max_tokens: 16.0}",
                 "generation.max_tokens must be int, got 16.0", id="max-tokens-float"),
    pytest.param("blast: {max_target_seqs: '50'}",
                 "blast.max_target_seqs must be int, got '50'", id="max-target-seqs-string"),
    pytest.param("paths: {hits: 5}", "paths.hits must be str or None, got 5", id="hits-int"),
    pytest.param("backends: {generator: {endpoint: 'mock:echo', max_retries: true}}",
                 "backends.generator.max_retries must be int, got True",
                 id="max-retries-bool"),
])
def test_config_refusals_name_their_key(text, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config_from_dict(yaml.safe_load(text)).validate_for_mode()


def test_backend_config_refuses_an_unknown_role():
    with pytest.raises(ConfigError, match=r"^backend\.role must be scorer\|embedder\|generator, "
                                          "got 'critic'$"):
        BackendConfig(role="critic", endpoint="mock:echo")


@pytest.mark.parametrize("text, section, key, value", [
    ("denoise: {eps: 1}", "denoise", "eps", 1),
    ("generation: {temperature: 1}", "generation", "temperature", 1),
    ("retrieval: {identity_ceiling: 1}", "retrieval", "identity_ceiling", 1),
    ("retrieval: {identity_ceiling: null}", "retrieval", "identity_ceiling", None),
    ("paths: {hits: null}", "paths", "hits", None),
    ("backends: {scorer: {endpoint: 'mock:uniform(0.5)', timeout: 5}}", "scorer", "timeout", 5),
], ids=["eps-int", "temperature-int", "ceiling-int", "ceiling-null", "hits-null", "timeout-int"])
def test_config_takes_ints_for_floats_and_null_where_optional(text, section, key, value):
    assert getattr(getattr(config_from_dict(yaml.safe_load(text)), section), key) == value


def test_load_config_seed_override(tmp_path):
    config_path = tmp_path / "c.yaml"
    config_path.write_text(yaml.safe_dump({"seed": 7}), encoding="utf-8")
    assert load_config(config_path).seed == 7
    assert load_config(config_path, seed=42).seed == 42


def test_cli_retrieve_rejects_invalid_query_sequence(tmp_path, capsys):
    bad = tmp_path / "bad.fasta"
    bad.write_text(">q1\nACDJ123\n", encoding="utf-8")
    rc = cli.main(["retrieve", "--query", str(bad),
                   "--hits", str(FIXTURES / "hits_fixture.tsv")])
    assert rc == 2
    assert "invalid residues" in capsys.readouterr().err
