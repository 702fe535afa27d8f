"""Workloads, measurement rounds, output checks and metrics of the benchmark.

One run prepares a workload's inputs from the seed, trains the tag filter it
needs, and then repeats measurement rounds until its time is up (at least
three). An untraced round times every user-facing operation once:

  setup  build_index + Pipeline(config), repeated while cheap
  batch  Pipeline.run_batch over the dataset (default thread pool)
  eval   run_eval over the batch output
  label  label_dataset over the label records (teacher scorer)
  train  train_filter over the seeded example set
  query  Pipeline.run_query per record, one client in a closed loop

A traced round runs setup and batch once untraced, for the tracing overhead,
then setup, batch, eval, label and train with the tracer installed.

Every output is checked against the first round's, so every repetition and
the traced passes must reproduce it byte for byte.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from homorag.annotations import build_index
from homorag.config import PipelineConfig, PipelinePaths
from homorag.metrics import EntityLexicon, render_table, rows_to_jsonl
from homorag.pipeline import (
    Pipeline,
    label_dataset,
    read_dataset,
    replay_context,
    run_eval,
)
from homorag.tag_filter import (
    FilterModel,
    make_query_context,
    read_examples,
    snippet_document,
    train_filter,
)

from fake_transport import FakeTransport, mock_backend, remote_backend, self_check
from inputs import Inputs, Spec, generate
from spans import Tracer

ROLES = ("scorer", "embedder", "generator")
MIN_ROUNDS = 3
QUERY_SAMPLES = 1000    # run_query calls per round, in passes over the records: a
                        # round's p99 has ten samples beyond it
SETUP_BUDGET_S = 0.25   # repeat a cheap setup within a round until this much time is spent
SETUP_MAX_REPS = 8
MOCK_CHECK_RECORDS = 20  # transport answers compared record for record with in-process mocks
# Busy loop at the lowest priority; it ends by itself once its parent is gone.
_SPINNER = (
    "import os\nos.nice(19)\nparent = os.getppid()\n"
    "while os.getppid() == parent:\n    for _ in range(100000):\n        pass\n"
)


@dataclass(frozen=True)
class Workload:
    spec: Spec
    smoke: Spec
    remote: bool      # every backend role behind the fake transport, else `mock:`


WORKLOADS = {
    # Zipf-skewed hits over a few dozen clones: lookups and snippet texts repeat,
    # which is what entry caches and embedding memos feed on.
    "offline_shared": Workload(
        spec=Spec(records=100, label_records=20, train_examples=3000, shared_entries=36),
        smoke=Spec(records=12, label_records=4, train_examples=120, shared_entries=8),
        remote=False,
    ),
    # Every hit is a fresh entry of a corpus of thousands: per-entry and per-text
    # caches get no hits, and build_index dominates set-up. Every backend call
    # goes through the gateway's HTTP request path to an undelayed fake transport.
    "offline_unique": Workload(
        spec=Spec(records=100, label_records=20, train_examples=3000, shared_entries=0,
                  min_corpus=3000),
        smoke=Spec(records=12, label_records=4, train_examples=120, shared_entries=0,
                   min_corpus=60),
        remote=True,
    ),
}


class Checks:
    """Output checks and failure accounting; any problem makes the run wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def attempt(self, n: int = 1):
        self.attempted += n

    def fail(self, message: str, n: int = 1):
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(message)

    def expect(self, ok: bool, message: str):
        if not ok:
            self.fail(message)


class MockCalls:
    """Counts, per role, the requests a `Gateway` hands to its in-process `mock:`
    backend: the mock's counterpart of `FakeTransport.calls`. Disk-cache hits
    and anything the gateway answers before that point are not counted."""

    def __init__(self):
        self.calls: Counter = Counter()
        self._lock = threading.Lock()

    def attach(self, gateway):
        respond = gateway._mock_response

        def counted(cfg, kind, payload):
            with self._lock:
                self.calls[cfg.role] += 1
            return respond(cfg, kind, payload)

        gateway._mock_response = counted

    def snapshot(self) -> Counter:
        with self._lock:
            return Counter(self.calls)


@contextmanager
def busy_neighbour():
    """Keep a second CPU busy at the lowest priority while measuring.

    On a two-vCPU VM whose vCPUs share a physical core, the measured thread
    runs up to 1.6x faster whenever the other vCPU idles, which made run
    medians swing with how long it happened to idle. A spinner holds that
    state fixed; at nice 19 it yields to every thread the benchmark runs.
    """
    if (os.cpu_count() or 1) < 2:
        yield
        return
    spinner = subprocess.Popen([sys.executable, "-c", _SPINNER], stdin=subprocess.DEVNULL,
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        yield
    finally:
        spinner.kill()
        spinner.wait()


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _median(values: list) -> float:
    return float(statistics.median(values))


def _mean(values: list) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def _generate_in_child(out_dir: Path, spec: Spec, seed: int) -> Inputs:
    """Write the inputs from a forked child, so that the generator's memory never
    counts toward this process's `ru_maxrss` (`peak_rss_mb`)."""
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
        return pool.submit(generate, out_dir, spec, seed).result()


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, traced: bool, root: Path,
                 smoke: bool = False):
        self.workload = WORKLOADS[name]
        self.spec = self.workload.smoke if smoke else self.workload.spec
        self.seconds = seconds
        self.tracer: Optional[Tracer] = Tracer() if traced else None
        self.checks = Checks()
        self.samples: dict[str, list] = defaultdict(list)
        self.ref: dict[str, object] = {}
        self.rounds = 0
        self.funnel: dict[str, int] = {}
        self.transport_calls: dict[str, Counter] = defaultdict(Counter)  # traced phase -> calls
        self.transport_busy_s = 0.0

        self.work = root / ".benchwork" / (f"{name}-smoke" if smoke else name)
        shutil.rmtree(self.work, ignore_errors=True)
        self.inputs: Inputs = _generate_in_child(self.work / "inputs", self.spec, seed)
        self.transport = FakeTransport() if self.workload.remote else None
        self.mock_calls = MockCalls()
        rel = lambda p: os.path.relpath(p, root)  # noqa: E731 - same digest in any checkout
        self.index_dir = self.work / "index"
        self.model_path = self.work / "model.json"
        self.config = PipelineConfig(
            mode="full_2d",
            paths=PipelinePaths(
                index_dir=rel(self.index_dir),
                filter_model=rel(self.model_path),
                hits=rel(self.inputs.hits),
            ),
            **{role: remote_backend(role) if self.workload.remote else mock_backend(role)
               for role in ROLES},
        )
        self.records = read_dataset(self.inputs.dataset)
        self.label_records = read_dataset(self.inputs.label_dataset)
        self.query_samples = len(self.records) if smoke else QUERY_SAMPLES
        examples = read_examples(self.inputs.examples)
        cut = len(examples) * 4 // 5
        self.train_set, self.test_set = examples[:cut], examples[cut:]
        self.lexicon = EntityLexicon.from_file(self.inputs.lexicon)
        # the tag filter the pipeline runs with; every train phase must reproduce it
        self._train().save(self.model_path)
        self.ref["model"] = self.model_path.read_bytes()

    # -- helpers -----------------------------------------------------------

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def _backend_calls(self) -> Counter:
        """Requests that reached a backend, per role: the fake transport's or the mock's."""
        return self.transport.snapshot()[0] if self.transport else self.mock_calls.snapshot()

    def _train(self) -> FilterModel:
        return train_filter(self.train_set, epochs=4, learning_rate=1.0, batch_size=64, seed=0,
                            heldout=self.test_set)

    def _same_as_first(self, key: str, value, message: str):
        if key not in self.ref:
            self.ref[key] = value
        self.checks.expect(self.ref[key] == value, message)

    # -- phases ------------------------------------------------------------

    def setup(self, sample: bool = True) -> Pipeline:
        spent, reps = 0.0, 0
        while True:
            shutil.rmtree(self.index_dir, ignore_errors=True)
            gc.collect()
            t0 = time.perf_counter()
            with self._span("annotations.build_index"):
                build_index(self.inputs.dat, self.inputs.go, self.index_dir)
            with self._span("pipeline.init"):
                pipe = Pipeline(self.config, transport=self.transport)
            elapsed = time.perf_counter() - t0
            reps += 1
            spent += elapsed
            if sample:
                self.samples["setup_s"].append(elapsed)
            if not sample or spent >= SETUP_BUDGET_S or reps >= SETUP_MAX_REPS:
                break
        self.mock_calls.attach(pipe.gateway)
        return pipe

    def batch(self, pipe: Pipeline, key: str = "records_per_s") -> Path:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        before = self._backend_calls()
        gc.collect()
        t0 = time.perf_counter()
        summary = pipe.run_batch(self.inputs.dataset, out)
        wall = time.perf_counter() - t0
        calls = self._backend_calls() - before
        n = len(self.records)
        self.samples[key].append(summary["processed"] / wall)
        self.samples[key + ".wall"].append(wall)
        self.samples["backend_calls_per_record"].append(
            (calls["embedder"] + calls["generator"]) / n)
        self.check_batch(summary, out)
        return out

    def check_batch(self, summary: dict, out: Path):
        n = len(self.records)
        self.checks.attempt(n)
        self.checks.expect(summary["processed"] == n,
                           f"run_batch processed {summary['processed']} of {n} records")
        digests, artifacts = {}, {}
        for path in sorted((out / "artifacts").glob("*.json")):
            blob = path.read_bytes()
            data = json.loads(blob)
            digests[data["record_id"]] = _sha(blob)
            artifacts[data["record_id"]] = data
        missing = {r.id for r in self.records} - set(artifacts)
        if missing:
            self.checks.fail(f"{len(missing)} records have no artifact", len(missing))
        reference = self.ref.setdefault("artifacts", digests)
        for rid, data in artifacts.items():
            problem = None
            if data["errors"]:
                problem = f"record {rid} has errors {data['errors']}"
            elif replay_context(data) != data["context"]:
                problem = f"record {rid}: replayed context differs from the stored one"
            elif reference.get(rid) != digests[rid]:
                problem = f"record {rid}: artifact bytes differ from the first repetition"
            if problem:
                self.checks.fail(problem)
        if self.transport and "mock_equivalence" not in self.ref:
            self.ref["mock_equivalence"] = True
            self.check_against_mocks(artifacts)
        funnel = Counter()
        for data in artifacts.values():
            for stage, pool in data["pools"].items():
                funnel[stage] += sum(len(h["snippets"]) for h in pool["homologs"])
        self.funnel = dict(funnel)

    def check_against_mocks(self, artifacts: dict):
        """Remote answers must equal the in-process mocks', request and record alike."""
        sample = self.records[:MOCK_CHECK_RECORDS]
        score_requests = []
        for rec in self.label_records[:2]:
            context = make_query_context(rec.instruction, rec.sequence)
            score_requests += [(context, rec.answer),
                               (context + "\nEvidence: " + snippet_document("FUNCTION", rec.answer),
                                rec.answer)]
        problems = self_check(score_requests, [artifacts[r.id]["prompt"] for r in sample],
                              [line for r in sample for line in artifacts[r.id]["context"].splitlines()])
        for problem in problems:
            self.checks.fail(f"fake transport: {problem}")
        mock_config = replace(self.config, **{role: mock_backend(role) for role in ROLES})
        mock_pipe = Pipeline(mock_config)
        skip = {"config_digest"}
        for rec in sample:
            want = {k: v for k, v in mock_pipe.run_query(rec).to_dict().items() if k not in skip}
            got = {k: v for k, v in artifacts[rec.id].items() if k not in skip}
            self.checks.expect(got == want, f"record {rec.id}: remote artifact differs from mock")

    def evaluate(self, out: Path):
        gc.collect()
        t0 = time.perf_counter()
        with self._span("metrics.run_eval"):
            table = run_eval(out, self.lexicon)
        wall = time.perf_counter() - t0
        scored = sum(row.n_records for row in table)
        self.samples["eval_records_per_s"].append(scored / wall)
        self.checks.attempt()
        self.checks.expect(scored == len(self.records),
                           f"run_eval scored {scored} of {len(self.records)} artifacts")
        self._same_as_first("eval", rows_to_jsonl(table) + render_table(table),
                            "run_eval table differs from the first repetition")

    def label(self, pipe: Pipeline):
        before = self._backend_calls()
        gc.collect()
        t0 = time.perf_counter()
        with self._span("pipeline.label_dataset"):
            train, test = label_dataset(pipe.config, self.label_records, pipe.index,
                                        pipe.hits_by_query, pipe.gateway)
        wall = time.perf_counter() - t0
        calls = self._backend_calls() - before
        examples = train + test
        self.checks.attempt(len(self.label_records))
        if not examples:
            self.checks.fail("labelling produced no examples", len(self.label_records))
            return
        self.samples["label_examples_per_s"].append(len(examples) / wall)
        self.samples["scorer_calls_per_example"].append(calls["scorer"] / len(examples))
        tau = pipe.config.ig.tau
        bad = [ex for ex in examples if ex.label != (1 if ex.ig_value > tau else 0)]
        if bad:
            self.checks.fail(f"{len(bad)} labels disagree with their IG values", len(bad))
        self._same_as_first(
            "labels", json.dumps([[e.to_dict() for e in train], [e.to_dict() for e in test]]),
            "labelled examples differ from the first repetition")

    def train(self):
        gc.collect()
        t0 = time.perf_counter()
        with self._span("tag_filter.train_filter"):
            model = self._train()
        wall = time.perf_counter() - t0
        self.samples["train_examples_per_s"].append(len(self.train_set) / wall)
        path = self.work / "trained.json"
        model.save(path)
        loaded = FilterModel.load(path)
        self.checks.attempt()
        self.checks.expect(path.read_bytes() == self.ref["model"],
                           "trained model bytes differ from the first training")
        self.checks.expect(
            all(loaded.score(e.instruction, e.tag) == model.score(e.instruction, e.tag)
                for e in self.test_set[:50]),
            "loaded model scores differ from the trained model")

    def query(self):
        """Closed loop, one client. Each pass over the records starts from a fresh
        Pipeline, so no record is answered from state an earlier pass left behind."""
        reference = self.ref["artifacts"]
        latencies = []
        mismatches = 0
        gc.collect()
        for i in range(self.query_samples):
            pos = i % len(self.records)
            if pos == 0:
                pipe = Pipeline(self.config, transport=self.transport)
            rec = self.records[pos]
            t0 = time.perf_counter()
            artifact = pipe.run_query(rec)
            latencies.append((time.perf_counter() - t0) * 1e3)
            if reference.get(rec.id) != _sha(artifact.canonical_json().encode("utf-8")):
                mismatches += 1
        self.samples["query_ms"] += latencies
        # per-round percentiles, whose median over rounds outlasts a burst of
        # load from outside that slows a few rounds
        self.samples["query_p50_ms"].append(_median(latencies))
        self.samples["query_p99_ms"].append(statistics.quantiles(latencies, n=100)[98])
        self.checks.attempt(self.query_samples)
        if mismatches:
            self.checks.fail(f"{mismatches} run_query artifacts differ from run_batch's",
                             mismatches)

    # -- rounds ------------------------------------------------------------

    def round(self):
        pipe = self.setup()
        out = self.batch(pipe)
        self.evaluate(out)
        self.label(pipe)
        self.train()
        self.query()

    def traced_round(self):
        self.batch(self.setup(sample=False), key="untraced_records_per_s")
        with self.tracer.installed():
            pipe = self._traced("setup", self.setup)
            self.tracer.instrument(pipe)
            out = self._traced("batch", self.batch, pipe)
            self._traced("eval", self.evaluate, out)
            self._traced("label", self.label, pipe)
            self._traced("train", self.train)
        self.tracer.phase = None

    def _traced(self, phase: str, fn, *args):
        """Run one phase under the tracer, keeping its fake-transport calls and busy time."""
        self.tracer.phase = phase
        before = self.transport.snapshot() if self.transport else None
        result = fn(*args)
        if before:
            calls, busy = self.transport.snapshot()
            self.transport_calls[phase] += calls - before[0]
            self.transport_busy_s += sum((busy - before[1]).values())
        return result

    def run(self) -> None:
        deadline = time.perf_counter() + self.seconds
        started = time.perf_counter()
        step = self.traced_round if self.tracer else self.round
        with busy_neighbour():
            while self.rounds < MIN_ROUNDS or (
                time.perf_counter() + (time.perf_counter() - started) / self.rounds <= deadline
            ):
                step()
                self.rounds += 1
                if self.checks.problems:
                    break

    # -- metrics -----------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        s = self.samples
        return {
            "setup_s": _median(s["setup_s"]),
            "records_per_s": _median(s["records_per_s"]),
            "query_p50_ms": _median(s["query_p50_ms"]),
            "query_p99_ms": _median(s["query_p99_ms"]),
            "eval_records_per_s": _median(s["eval_records_per_s"]),
            "backend_calls_per_record": _median(s["backend_calls_per_record"]),
            "label_examples_per_s": _median(s["label_examples_per_s"]),
            "scorer_calls_per_example": _median(s["scorer_calls_per_example"]),
            "train_examples_per_s": _median(s["train_examples_per_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict[str, float]:
        t, s, rounds, n = self.tracer, self.samples, self.rounds, len(self.records)

        def us(name, phase="batch"):
            return _mean(t.durations(name, phase)) * 1e6

        def seconds(name, phase):
            values = t.durations(name, phase)
            return _median(values) if values else 0.0

        def per_round(name, phase="batch"):
            return t.counts[(phase, name)] / rounds

        def ratio(a, b):
            return a / b if b else 0.0

        lookups = t.values[("batch", "annotations.lookup.accessions")]
        texts = t.values[("batch", "denoise.embed_values.texts")]
        points = t.values[("batch", "denoise.dbscan.points")]
        transport = sum(self.transport_calls.values(), Counter())
        traced_rps = _median(s["records_per_s"])
        return {
            "annotations.build_index.s": seconds("annotations.build_index", "setup"),
            "annotations.load.s": seconds("annotations.load", "setup"),
            "annotations.lookup.calls": len(lookups) / rounds,
            "annotations.lookup.us": us("annotations.lookup"),
            "annotations.lookup.distinct_share": ratio(len(set(lookups)), len(lookups) / rounds),
            "homology.rank_and_select.us": us("homology.rank_and_select"),
            "homology.assemble_raw_pool.self_us":
                _mean(t.self_times("homology.assemble_raw_pool", "batch")) * 1e6,
            "homology.raw_snippets_per_record": per_round("homology.raw_snippets") / n,
            "tag_filter.gate.us": us("tag_filter.gate"),
            "tag_filter.gate.snippets_in": per_round("tag_filter.gate.snippets_in"),
            "tag_filter.horizontal_keep_ratio": ratio(per_round("tag_filter.gate.snippets_out"),
                                                      per_round("tag_filter.gate.snippets_in")),
            "tag_filter.FilterModel.load.s": seconds("tag_filter.FilterModel.load", "setup"),
            "tag_filter.segment_ig.us": us("tag_filter.segment_ig", "label"),
            "tag_filter.segment_ig.calls": len(t.durations("tag_filter.segment_ig", "label"))
                                           / rounds,
            "tag_filter.train_filter.s": seconds("tag_filter.train_filter", "train"),
            "denoise.embed_values.us": us("denoise.embed_values"),
            "denoise.embed_values.texts": len(texts) / rounds,
            "denoise.embed_values.distinct_text_share": ratio(len(set(texts)),
                                                              len(texts) / rounds),
            "denoise.dbscan.us": us("denoise.dbscan"),
            "denoise.dbscan.points_mean": _mean(points),
            "denoise.dbscan.points_max": float(max(points, default=0)),
            "denoise.select_anchor_clusters.us": us("denoise.select_anchor_clusters"),
            "denoise.assemble_context.us": us("denoise.assemble_context"),
            "denoise.vertical_keep_ratio": ratio(per_round("denoise.vertical_out"),
                                                 per_round("denoise.vertical_in")),
            "denoise.fallback_share": ratio(per_round("denoise.fallback"),
                                            per_round("denoise.select_anchor_clusters.calls")),
            "denoise.passthrough_share": ratio(per_round("denoise.passthrough"),
                                               per_round("denoise.select_anchor_clusters.calls")),
            "gateway.embed.us": us("gateway.embed"),
            "gateway.generate.us": us("gateway.generate"),
            "gateway.score_tokens.us": us("gateway.score_tokens", "label"),
            "gateway.transport.calls.scorer": transport["scorer"] / rounds,
            "gateway.transport.calls.embedder": transport["embedder"] / rounds,
            "gateway.transport.calls.generator": transport["generator"] / rounds,
            "gateway.transport.wait_s": self.transport_busy_s / rounds,
            "gateway.transport.max_in_flight":
                float(self.transport.max_in_flight) if self.transport else 0.0,
            "pipeline.init.s": seconds("pipeline.init", "setup"),
            "pipeline.run_query.us": us("pipeline.run_query"),
            "pipeline.build_prompt.us": us("pipeline.build_prompt"),
            "pipeline.artifact_serialize.us": us("pipeline.artifact_serialize"),
            "pipeline.artifact_bytes": _mean(t.values[("batch", "pipeline.artifact_bytes")]),
            "pipeline.run_query.concurrency": ratio(sum(t.durations("pipeline.run_query",
                                                                    "batch")),
                                                    sum(s["records_per_s.wall"])),
            "metrics.score_record.us": us("metrics.score_record", "eval"),
            "metrics.run_eval.s": seconds("metrics.run_eval", "eval"),
            "trace.overhead_share": 1.0 - traced_rps / _median(s["untraced_records_per_s"]),
        }

    def output_digest(self) -> str:
        """One digest over every checked output; equal across repetitions and runs."""
        parts = [json.dumps(self.ref.get("artifacts", {}), sort_keys=True),
                 str(self.ref.get("eval", "")), str(self.ref.get("labels", "")),
                 _sha(self.ref["model"]), json.dumps(self.funnel, sort_keys=True)]
        return _sha("\n".join(parts).encode("utf-8"))
