"""End-to-end orchestration: modes, batch runs, resume, eval, replay, CLI."""

import json
import os
import stat
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from conftest import FIXTURES, make_pipeline_config
from homorag import cli
from homorag.annotations import AnnotationIndex
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
    default_provenance,
    load_config,
)
from homorag.denoise import render_context, vertical_filter
from homorag.gateway import ECHO_EMPTY, Gateway
from homorag.homology import EvidencePool, Stage, assemble_raw_pool, load_hits, rank_and_select
from homorag.metrics import EntityLexicon
from homorag.pipeline import (
    BlastInvocationError,
    DatasetError,
    NO_EVIDENCE_NOTE,
    Pipeline,
    QARecord,
    build_prompt,
    label_dataset,
    read_dataset,
    replay_context,
    run_blast,
    run_eval,
)
from homorag.tag_filter import (
    FilterModel,
    build_distillation_set,
    make_query_context,
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
    from homorag.annotations import build_index

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


def test_read_dataset_strict_raises(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a"}\n', encoding="utf-8")
    with pytest.raises(DatasetError, match="missing fields"):
        read_dataset(bad)


def test_read_dataset_collects_bad_lines(tmp_path):
    good = (FIXTURES / "qa_records.jsonl").read_text(encoding="utf-8").splitlines()[0]
    dataset = tmp_path / "data.jsonl"
    dataset.write_text("\n".join([
        "5", good, "[1, 2]", "", "{not json",
        '{"id": "bad-1", "instruction": "x", "sequence": "AC1", "task": "t", "instruction_type": "i"}',
    ]) + "\n", encoding="utf-8")
    bad_lines = []
    assert [r.id for r in read_dataset(dataset, bad_lines)] == ["case-r1"]
    assert [ident for ident, _ in bad_lines] == ["line-1", "line-3", "line-5", "bad-1"]
    assert "JSON object" in bad_lines[0][1] and "invalid residues" in bad_lines[3][1]
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
        if n == 0:  # an empty pool passes the vertical stage without an embedding request
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
    for path in (out / "timings").glob("*.json"):
        assert set(json.loads(path.read_text(encoding="utf-8"))) == {"retrieval", *stages,
                                                                     "generation"}


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


def _with_stage_error(good: bytes) -> bytes:
    """The artifact as a run whose generator failed left it: current digest, one error."""
    artifact = json.loads(good)
    artifact["answer"] = None
    artifact["errors"] = [{"stage": "generation", "error": "GatewayError: generator down"}]
    return json.dumps(artifact).encode("utf-8")


@pytest.mark.parametrize("damage", [lambda good: b"\xff\xfe{not utf-8}\n",
                                    lambda good: b'[{"config_digest": "x"}]\n',
                                    _with_stage_error],
                         ids=["not-utf8", "json-array", "stage-error"])
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
    assert len([n for n in names if n.startswith("run/timings/")]) == 10
    assert "run/summary.json" in names and any(n.startswith("cache/") for n in names)
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
        + '{"id": "bad-1", "instruction": "x", "sequence": "AC1", "task": "t", "instruction_type": "i"}\n',
        encoding="utf-8",
    )
    config = make_pipeline_config(index_dir_module, filter_model_module, tmp_path)
    summary = Pipeline(config).run_batch(dataset, tmp_path / "out")
    assert summary["processed"] == 2
    assert summary["skipped_malformed"] == ["bad-1", "line-2"]


def test_batch_summary_counts_match_directory_census(index_dir_module, filter_model_module, tmp_path):
    config = make_pipeline_config(index_dir_module, filter_model_module, tmp_path)
    out = tmp_path / "census"
    summary = Pipeline(config).run_batch(FIXTURES / "qa_records.jsonl", out)
    census = len(list((out / "artifacts").glob("*.json")))
    assert summary["processed"] + summary["skipped_existing"] == census


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


# -- blast invocation ----------------------------------------------------------------------

def test_run_blast_missing_binary_mentions_bypass():
    config = PipelineConfig()
    with pytest.raises(BlastInvocationError, match="--hits"):
        run_blast(config, FIXTURES / "query.fasta", "out.tsv")


def make_fake_blast(tmp_path, payload, exit_code=0):
    script = tmp_path / "fake_blastp"
    script.write_text(
        "#!/bin/sh\n"
        'out=""\n'
        'while [ $# -gt 0 ]; do\n'
        '  if [ "$1" = "-out" ]; then shift; out="$1"; fi\n'
        "  shift\n"
        "done\n"
        f"printf '{payload}' > \"$out\"\n"
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


def test_cli_retrieve(tmp_path, capsys):
    rc = cli.main(["retrieve", "--query", str(FIXTURES / "query.fasta"),
                   "--hits", str(FIXTURES / "hits_fixture.tsv"), "--k", "3"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 3
    assert lines[0].split("\t")[1] == "Q55C17"


def write_bad_hits(tmp_path):
    """The fixture hits file with its 9th row cut to two columns."""
    rows = (FIXTURES / "hits_fixture.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    path = tmp_path / "bad.tsv"
    path.write_text("".join(rows[:8]) + "case-r1\tQ55C17\n" + "".join(rows[9:]),
                    encoding="utf-8")
    return path


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
    expected = vertical_filter(pool, embedder, config.denoise)[1]
    default = vertical_filter(pool, embedder, DenoiseConfig())[1]
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
