"""Backend clients: mocks, caching, retries, and the concurrency bound."""

import json
import threading
import time
import urllib.error

import pytest

from homorag.config import BackendConfig, GenerationParams
from homorag.gateway import (
    ECHO_EMPTY,
    Gateway,
    GatewayError,
    _cache_name,
    mock_hash_embedding,
)
from homorag.tag_filter import TokenProbSequence


def cfg_for(role, endpoint, **kw):
    return BackendConfig(role=role, endpoint=endpoint, **kw)


# -- mocks ------------------------------------------------------------------------

def test_uniform_scorer():
    gw = Gateway()
    out = gw.score_tokens(cfg_for("scorer", "mock:uniform(0.5)"), "prompt", "three word target")
    assert out.tokens == ("three", "word", "target")
    assert out.probs == (0.5, 0.5, 0.5)


def test_keyword_boost_scorer():
    gw = Gateway()
    cfg = cfg_for("scorer", "mock:keyword-boost")
    boosted = gw.score_tokens(cfg, "evidence mentions oxidoreductase", "an oxidoreductase enzyme")
    plain = gw.score_tokens(cfg, "nothing relevant here", "an oxidoreductase enzyme")
    assert set(boosted.probs) == {0.9}
    assert set(plain.probs) == {0.4}


def test_keyword_boost_ignores_short_tokens():
    gw = Gateway()
    cfg = cfg_for("scorer", "mock:keyword-boost")
    # every target token is shorter than the keyword threshold
    out = gw.score_tokens(cfg, "an a of to", "an a of to")
    assert set(out.probs) == {0.4}


def test_keyword_boost_ig_matches_hand_computation():
    # a relevant document boosts every target token to 0.9 while the bare
    # query stays at 0.4; gain = confidence(0.9...) - confidence(0.4...)
    from homorag.config import IgConfig
    from homorag.tag_filter import information_gain, make_query_context

    gw = Gateway()
    scorer = gw.scorer_handle(cfg_for("scorer", "mock:keyword-boost"))
    cfg = IgConfig(window=3, head_k=2, omega=0.8, alpha=0.5)
    ctx = make_query_context("Name the metal ion needed.", "MKWWQQRR")
    target = "requires magnesium cofactor binding"  # 4 tokens
    gain = information_gain(scorer, ctx, "uses a magnesium cofactor", target, cfg)

    def confidence(p):
        # constant probabilities are unchanged by smoothing; 2 head tokens
        # at exponent omega*alpha, 2 tail tokens at exponent 1-alpha
        return (p ** (0.8 * 0.5)) ** 2 * (p ** 0.5) ** 2

    assert gain == pytest.approx(confidence(0.9) - confidence(0.4), rel=1e-12)


def test_echo_generator_contains_context_lines():
    gw = Gateway()
    prompt = (
        "Instruction: x\n"
        "Evidence:\n"
        "Homolog 1 (Q55C17): [FUNCTION]: does things\n"
        "Homolog 2 (Q9N5Y2): [FUNCTION]: does other things\n"
        "Answer:"
    )
    text = gw.generate(cfg_for("generator", "mock:echo"), prompt)
    assert "Homolog 1 (Q55C17): [FUNCTION]: does things" in text
    assert "Homolog 2 (Q9N5Y2): [FUNCTION]: does other things" in text


def test_echo_generator_without_context():
    gw = Gateway()
    text = gw.generate(cfg_for("generator", "mock:echo"), "Instruction: x\nAnswer:")
    assert "No supporting evidence" in text


def test_generation_params_default_to_standard_values():
    params = GenerationParams()
    assert (params.temperature, params.top_p, params.max_tokens) == (0.7, 0.9, 2048)
    assert params.presence_penalty == 0.0 and params.frequency_penalty == 0.0


def test_generate_deterministic():
    gw = Gateway()
    cfg = cfg_for("generator", "mock:echo")
    prompt = "Evidence:\nHomolog 1 (P12345): [FUNCTION]: x\nAnswer:"
    assert gw.generate(cfg, prompt) == gw.generate(cfg, prompt)


def test_generate_sends_default_sampling_params_when_unset():
    captured = {}

    def transport(url, payload, timeout, headers):
        captured.update(payload)
        return {"text": "ok"}

    gw = Gateway(transport=transport)
    gw.generate(cfg_for("generator", "http://backend.test/gen"), "prompt")
    assert captured["temperature"] == 0.7
    assert captured["top_p"] == 0.9
    assert captured["max_tokens"] == 2048
    assert captured["presence_penalty"] == 0.0
    assert captured["frequency_penalty"] == 0.0


# literals written by the payload builder that used `dataclasses.asdict`; a
# different key order or value changes the cache file name and misses every
# response cached before
@pytest.mark.parametrize("params, body, filename", [
    (None,
     [("prompt", "Answer:"), ("temperature", 0.7), ("top_p", 0.9), ("max_tokens", 2048),
      ("presence_penalty", 0.0), ("frequency_penalty", 0.0), ("model", "default")],
     "generator-95f22570e35d0d44ada6b36cb50c33ebf1e6118895a358b5efa4e83e82c00375.json"),
    (GenerationParams(temperature=0.2, top_p=0.5, max_tokens=64, presence_penalty=0.25,
                      frequency_penalty=-0.5),
     [("prompt", "Answer:"), ("temperature", 0.2), ("top_p", 0.5), ("max_tokens", 64),
      ("presence_penalty", 0.25), ("frequency_penalty", -0.5), ("model", "default")],
     "generator-8001cd7ffe4a9ded92c2486fd2081e0822af874ba20d682b3341769fbd453ff8.json"),
])
def test_generate_payload_and_cache_file_name_are_pinned(tmp_path, params, body, filename):
    sent = []

    def transport(url, payload, timeout, headers):
        sent.append(list(payload.items()))
        return {"text": "ok"}

    cfg = cfg_for("generator", "http://backend.test/gen")
    Gateway(cache_dir=tmp_path, transport=transport).generate(cfg, "Answer:", params)
    assert sent == [body]
    assert [p.name for p in tmp_path.iterdir()] == [filename]
    assert _cache_name(cfg, "generate", dict(body[:-1])) == filename


# the other two roles' file names, computed before the cache key lost its
# class; a changed name misses every response cached before
@pytest.mark.parametrize("role, endpoint, call, answer, filename", [
    ("scorer", "http://backend.test/score",
     lambda gw, cfg: gw.score_tokens(cfg, "p", "t"), {"tokens": ["t"], "probs": [0.5]},
     "scorer-70d6634b744f8183c56947a3d90e7b5b28427020be30d91c7561f372d6049344.json"),
    ("embedder", "http://backend.test/embed",
     lambda gw, cfg: gw.embed(cfg, ["alpha", "beta"]), {"embeddings": [[1.0], [0.0]]},
     "embedder-10a5855a17686758d07eff613681ab5688b0b3dcdf767836be163c5b3f9231e9.json"),
], ids=["scorer", "embedder"])
def test_score_and_embed_cache_file_names_are_pinned(tmp_path, role, endpoint, call, answer,
                                                     filename):
    call(Gateway(cache_dir=tmp_path, transport=lambda *a: answer), cfg_for(role, endpoint))
    assert [p.name for p in tmp_path.iterdir()] == [filename]


def test_generate_rejects_empty_and_overlong_prompts():
    gw = Gateway()
    cfg = cfg_for("generator", "mock:echo", max_prompt_chars=10)
    with pytest.raises(GatewayError, match="non-empty"):
        gw.generate(cfg, "")
    with pytest.raises(GatewayError, match="length 26 exceeds limit 10"):
        gw.generate(cfg, "a" * 26)


def test_embed_mock_dimension_and_order():
    gw = Gateway()
    cfg = cfg_for("embedder", "mock:hash(dim=16)")
    texts = [f"text number {i}" for i in range(7)]
    vectors = gw.embed(cfg, texts)
    assert len(vectors) == 7
    assert all(len(v) == 16 for v in vectors)
    assert vectors[3] == mock_hash_embedding("text number 3", 16)


def test_embed_sends_only_texts_not_embedded_before():
    sent = []
    mock = Gateway()
    mock_cfg = cfg_for("embedder", "mock:hash(dim=8)")

    def transport(url, payload, timeout, headers):
        sent.append(payload["input"])
        return {"embeddings": mock.embed(mock_cfg, payload["input"])}

    gw = Gateway(transport=transport)
    cfg = cfg_for("embedder", "http://backend.test/embed")
    gw.embed(cfg, ["alpha", "beta"])
    texts = ["beta", "gamma", "alpha", "gamma", "beta"]
    out = gw.embed(cfg, texts)
    assert sent == [["alpha", "beta"], ["gamma"]]
    assert out == Gateway().embed(mock_cfg, texts)
    assert out == [mock_hash_embedding(t, 8) for t in texts]
    assert gw.embed(cfg, texts) == out and len(sent) == 2


def test_embed_memo_is_per_endpoint_and_model():
    gw = Gateway()
    a = gw.embed(cfg_for("embedder", "mock:hash(dim=8)"), ["alpha"])
    b = gw.embed(cfg_for("embedder", "mock:hash(dim=16)"), ["alpha"])
    assert len(a[0]) == 8 and len(b[0]) == 16


def test_embed_memo_stays_within_its_bound(monkeypatch):
    import homorag.gateway as gateway

    monkeypatch.setattr(gateway, "EMBED_MEMO_TEXTS", 3)
    gw = Gateway()
    cfg = cfg_for("embedder", "mock:hash(dim=8)")
    texts = [f"text {i}" for i in range(7)]
    for i in range(len(texts)):
        assert gw.embed(cfg, texts[: i + 1]) == [mock_hash_embedding(t, 8) for t in texts[: i + 1]]
        assert len(gw._embeddings) <= 3


def test_embed_memo_under_concurrent_callers(monkeypatch):
    import sys

    import homorag.gateway as gateway

    monkeypatch.setattr(gateway, "EMBED_MEMO_TEXTS", 5)
    gw = Gateway()
    cfg = cfg_for("embedder", "mock:hash(dim=8)")
    texts = [f"text {i}" for i in range(12)]
    errors = []

    def worker(offset):
        try:
            for i in range(3000):
                batch = [texts[(offset + i + k) % len(texts)] for k in range(4)]
                if gw.embed(cfg, batch) != [mock_hash_embedding(t, 8) for t in batch]:
                    errors.append(f"wrong vectors for {batch}")
                if len(gw._embeddings) > 5:
                    errors.append(f"memo grew to {len(gw._embeddings)}")
        except Exception as exc:  # noqa: BLE001 - reported through the assertion below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_embed_empty_batch():
    assert Gateway().embed(cfg_for("embedder", "mock:hash(dim=8)"), []) == []


def test_unknown_mock_rejected():
    gw = Gateway()
    with pytest.raises(GatewayError, match="cannot serve"):
        gw.score_tokens(cfg_for("scorer", "mock:echo"), "p", "t")


# -- cache ------------------------------------------------------------------------

def test_cache_key_stability():
    cfg = cfg_for("scorer", "mock:uniform(0.5)")
    a = _cache_name(cfg, "score", {"prompt": "p", "target": "t"})
    b = _cache_name(cfg, "score", {"prompt": "p", "target": "t"})
    c = _cache_name(cfg, "score", {"prompt": "p2", "target": "t"})
    d = _cache_name(cfg_for("scorer", "mock:uniform(0.9)"), "score",
                    {"prompt": "p", "target": "t"})
    assert a == b
    assert a != c
    assert a != d  # same role, model and request; only the endpoint differs


def test_cache_is_per_endpoint(tmp_path):
    narrow = Gateway(cache_dir=tmp_path).embed(cfg_for("embedder", "mock:hash(dim=8)"), ["alpha"])
    wide = Gateway(cache_dir=tmp_path).embed(cfg_for("embedder", "mock:hash(dim=4)"), ["alpha"])
    assert (len(narrow[0]), len(wide[0])) == (8, 4)
    calls = []

    def transport(url, payload, timeout, headers):
        calls.append(url)
        return {"text": "remote"}

    gw = Gateway(cache_dir=tmp_path, transport=transport)
    assert gw.generate(cfg_for("generator", "mock:echo"), "prompt") == ECHO_EMPTY
    assert gw.generate(cfg_for("generator", "http://backend.test/gen"), "prompt") == "remote"
    assert calls == ["http://backend.test/gen"]
    assert len(list(tmp_path.glob("*.json"))) == 4


def test_cache_hit_avoids_backend_call(tmp_path):
    calls = []

    def transport(url, payload, timeout, headers):
        calls.append(payload)
        return {"tokens": payload["target"].split(), "probs": [0.5]}

    gw = Gateway(cache_dir=tmp_path, transport=transport)
    cfg = cfg_for("scorer", "http://backend.test/score")
    first = gw.score_tokens(cfg, "p", "t")
    second = gw.score_tokens(cfg, "p", "t")
    assert first == second
    assert len(calls) == 1


def test_cached_bytes_are_stable(tmp_path):
    gw = Gateway(cache_dir=tmp_path)
    cfg = cfg_for("embedder", "mock:hash(dim=8)")
    gw.embed(cfg, ["alpha"])
    cache_files = list(tmp_path.glob("*.json"))
    assert len(cache_files) == 1
    before = cache_files[0].read_bytes()
    out = gw.embed(cfg, ["alpha"])
    assert cache_files[0].read_bytes() == before
    assert json.loads(before)["embeddings"][0] == out[0]


@pytest.mark.parametrize("corrupt", [
    lambda blob: blob[: len(blob) // 2],
    lambda blob: b"{not json",
    lambda blob: b"\xff\xfe" + blob,
    lambda blob: b"[1, 2]",
    lambda blob: b"[" * 200_000,
], ids=["truncated", "bad-json", "bad-utf8", "not-a-response", "too-deep"])
def test_corrupt_cache_file_is_a_miss_and_rewritten(tmp_path, corrupt):
    calls = []

    def transport(url, payload, timeout, headers):
        calls.append(payload)
        return {"text": "fresh"}

    cfg = cfg_for("generator", "http://backend.test/gen", max_retries=0)
    Gateway(cache_dir=tmp_path, transport=lambda *a: {"text": "fresh"}).generate(cfg, "prompt")
    (path,) = tmp_path.glob("*.json")
    good = path.read_bytes()
    path.write_bytes(corrupt(good))

    assert Gateway(cache_dir=tmp_path, transport=transport).generate(cfg, "prompt") == "fresh"
    assert len(calls) == 1
    assert path.read_bytes() == good


def test_failed_cache_write_keeps_the_answer(tmp_path, monkeypatch, caplog):
    import homorag.gateway as gateway

    def full_disk(path, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(gateway, "write_atomic", full_disk)
    calls = []

    def transport(url, payload, timeout, headers):
        calls.append(url)
        if url.endswith("/gen"):
            return {"text": "paid"}
        return {"embeddings": [[1.0, 0.0]] * len(payload["input"])}

    gw = Gateway(cache_dir=tmp_path, transport=transport)
    with caplog.at_level("WARNING", logger="homorag.gateway"):
        assert gw.generate(cfg_for("generator", "http://backend.test/gen"), "prompt") == "paid"
        embedder = cfg_for("embedder", "http://backend.test/embed")
        assert gw.embed(embedder, ["alpha"]) == [[1.0, 0.0]]
        assert gw.embed(embedder, ["alpha"]) == [[1.0, 0.0]]  # memoised, not sent again
    assert calls == ["http://backend.test/gen", "http://backend.test/embed"]
    assert list(tmp_path.iterdir()) == []
    warnings = [r.getMessage() for r in caplog.records]
    assert len(warnings) == 2
    assert all(str(tmp_path) in w and "No space left on device" in w for w in warnings)


def test_unreadable_cache_entry_is_a_miss(tmp_path, caplog):
    cfg = cfg_for("generator", "http://backend.test/gen", max_retries=0)
    Gateway(cache_dir=tmp_path, transport=lambda *a: {"text": "first"}).generate(cfg, "prompt")
    (path,) = tmp_path.glob("*.json")
    path.unlink()
    path.mkdir()  # a directory at the file's path: opening it raises an OSError
    calls = []

    def transport(url, payload, timeout, headers):
        calls.append(url)
        return {"text": "fresh"}

    with caplog.at_level("WARNING", logger="homorag.gateway"):
        assert Gateway(cache_dir=tmp_path, transport=transport).generate(cfg, "prompt") == "fresh"
    assert calls == ["http://backend.test/gen"]
    assert path.is_dir()
    assert [str(path) in r.getMessage() for r in caplog.records] == [True]  # the failed write


def test_no_cache_dir_builds_no_cache_key(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("cache key built")

    cfg = cfg_for("generator", "http://backend.test/gen", max_retries=0)
    calls = []

    def transport(url, payload, timeout, headers):
        calls.append(payload["prompt"])
        return {"text": "fresh"}

    with monkeypatch.context() as patch:
        patch.setattr("homorag.gateway._cache_name", refuse)
        assert Gateway(transport=transport).generate(cfg, "prompt") == "fresh"
        assert Gateway().embed(cfg_for("embedder", "mock:hash(dim=8)"), ["alpha"])
    # with a cache directory the key is built, the answer written and then read
    assert Gateway(cache_dir=tmp_path, transport=transport).generate(cfg, "prompt") == "fresh"
    assert len(list(tmp_path.glob("*.json"))) == 1
    assert Gateway(cache_dir=tmp_path, transport=transport).generate(cfg, "prompt") == "fresh"
    assert calls == ["prompt", "prompt"]


# -- retries -----------------------------------------------------------------------

def http_error(status):
    return urllib.error.HTTPError("http://backend.test/gen", status, "status", None, None)


def failing_then_ok(*errors):
    calls = []

    def transport(url, payload, timeout, headers):
        calls.append(payload)
        if len(calls) <= len(errors):
            raise errors[len(calls) - 1]
        return {"text": "ok"}

    return transport, calls


@pytest.mark.parametrize("status", [400, 401, 404, 422])
def test_client_error_is_not_retried(status):
    transport, calls = failing_then_ok(http_error(status))
    gw = Gateway(transport=transport)
    gw.retry_backoff = 0.0
    cfg = cfg_for("generator", "http://backend.test/gen", max_retries=3)
    with pytest.raises(GatewayError, match=f"after 1 attempts: HTTP Error {status}") as err:
        gw.generate(cfg, "prompt")
    assert err.value.attempts == 1
    assert len(calls) == 1


@pytest.mark.parametrize("status", [408, 429, 500, 503])
def test_transient_status_is_retried(status):
    transport, calls = failing_then_ok(http_error(status))
    gw = Gateway(transport=transport)
    gw.retry_backoff = 0.0
    cfg = cfg_for("generator", "http://backend.test/gen", max_retries=2)
    assert gw.generate(cfg, "prompt") == "ok"
    assert len(calls) == 2


def test_retry_waits_grow_exponentially_with_jitter(monkeypatch):
    import homorag.gateway as gateway

    waits, ranges = [], []
    monkeypatch.setattr(gateway.time, "sleep", waits.append)
    monkeypatch.setattr(gateway.random, "uniform", lambda lo, hi: ranges.append((lo, hi)) or hi)
    transport, calls = failing_then_ok(*(http_error(503) for _ in range(4)))
    gw = Gateway(transport=transport)
    gw.retry_backoff = 1.0
    cfg = cfg_for("generator", "http://backend.test/gen", max_retries=3)
    with pytest.raises(GatewayError, match="after 4 attempts") as err:
        gw.generate(cfg, "prompt")
    assert err.value.attempts == 4 and len(calls) == 4
    assert ranges == [(0.5, 1.0), (1.0, 2.0), (2.0, 4.0)]  # jitter: half to all of the delay
    assert waits == [1.0, 2.0, 4.0]


def test_retry_budget_respected(tmp_path):
    attempts = []

    def flaky(url, payload, timeout, headers):
        attempts.append(1)
        raise ConnectionError("boom")

    gw = Gateway(transport=flaky)
    gw.retry_backoff = 0.0
    cfg = cfg_for("generator", "http://backend.test/gen", max_retries=2)
    with pytest.raises(GatewayError, match="after 3 attempts") as err:
        gw.generate(cfg, "prompt")
    assert err.value.attempts == 3
    assert len(attempts) == 3


def test_success_after_transient_failure():
    state = {"n": 0}

    def transport(url, payload, timeout, headers):
        state["n"] += 1
        if state["n"] < 2:
            raise TimeoutError("slow")
        return {"text": "ok"}

    gw = Gateway(transport=transport)
    gw.retry_backoff = 0.0
    cfg = cfg_for("generator", "http://backend.test/gen", max_retries=2)
    assert gw.generate(cfg, "prompt") == "ok"
    assert state["n"] == 2


def test_malformed_response_surfaces():
    gw = Gateway(transport=lambda *a: {"unexpected": 1})
    cfg = cfg_for("generator", "http://backend.test/gen", max_retries=0)
    with pytest.raises(GatewayError, match="missing text"):
        gw.generate(cfg, "prompt")


@pytest.mark.parametrize("role, call, bad, good, value", [
    ("scorer", lambda gw, cfg: gw.score_tokens(cfg, "p", "a b"),
     {"tokens": ["a", "b"], "probs": [0.5]}, {"tokens": ["a", "b"], "probs": [0.5, 1]},
     TokenProbSequence(tokens=("a", "b"), probs=(0.5, 1.0))),
    ("scorer", lambda gw, cfg: gw.score_tokens(cfg, "p", "a b"),
     {"tokens": ["a", "b"], "probs": [0.5, 1.5]}, {"tokens": ["a", "b"], "probs": [0.5, 1]},
     TokenProbSequence(tokens=("a", "b"), probs=(0.5, 1.0))),
    ("embedder", lambda gw, cfg: gw.embed(cfg, ["alpha"]),
     {"embeddings": [[float("nan"), 1.0]]}, {"embeddings": [[0.0, 1.0]]}, [[0.0, 1.0]]),
    ("embedder", lambda gw, cfg: gw.embed(cfg, ["alpha"]),
     {"embeddings": [["0.0", 1.0]]}, {"embeddings": [[0.0, 1.0]]}, [[0.0, 1.0]]),
    ("generator", lambda gw, cfg: gw.generate(cfg, "prompt"),
     {"text": 42}, {"text": "fine"}, "fine"),
    ("embedder", lambda gw, cfg: gw.embed(cfg, ["alpha", "beta"]),
     {"embeddings": [[1.0], [0.0, 1.0]]}, {"embeddings": [[1.0, 0.0], [0.0, 1.0]]},
     [[1.0, 0.0], [0.0, 1.0]]),
], ids=["scorer-probs-short", "scorer-probs-out-of-range", "embedder-nan", "embedder-not-numbers", "generator-text-int",
        "embedder-sizes"])
def test_malformed_answer_is_retried_and_never_cached(tmp_path, role, call, bad, good, value):
    answers = [bad, bad]
    calls = []

    def transport(url, payload, timeout, headers):
        calls.append(payload)
        return answers[len(calls) - 1] if len(calls) <= len(answers) else good

    cfg = cfg_for(role, f"http://backend.test/{role}", max_retries=1)
    gw = Gateway(cache_dir=tmp_path, transport=transport)
    gw.retry_backoff = 0.0
    with pytest.raises(GatewayError, match=f"^{role} request to http://backend.test/{role} "
                                           "failed after 2 attempts: ") as err:
        call(gw, cfg)
    assert err.value.attempts == 2 and len(calls) == 2
    assert list(tmp_path.iterdir()) == []
    # the backend is fixed: the same gateway kept nothing of the malformed answer
    assert call(gw, cfg) == value and len(calls) == 3
    (path,) = tmp_path.glob("*.json")
    good_bytes = path.read_bytes()
    # a malformed answer already in the cache is a miss and is rewritten
    path.write_text(json.dumps(bad), encoding="utf-8")
    assert call(Gateway(cache_dir=tmp_path, transport=transport), cfg) == value
    assert len(calls) == 4 and path.read_bytes() == good_bytes


# -- concurrency bound --------------------------------------------------------------

def test_max_in_flight_bound():
    active = {"now": 0, "peak": 0}
    lock = threading.Lock()

    def slow(url, payload, timeout, headers):
        with lock:
            active["now"] += 1
            active["peak"] = max(active["peak"], active["now"])
        time.sleep(0.02)
        with lock:
            active["now"] -= 1
        return {"text": payload["prompt"]}

    gw = Gateway(transport=slow)
    cfg = cfg_for("generator", "http://backend.test/gen", max_in_flight=2)
    threads = [
        threading.Thread(target=gw.generate, args=(cfg, f"p{i}")) for i in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert active["peak"] <= 2


def test_semaphore_per_role_endpoint_and_limit():
    in_flight = threading.Barrier(3, timeout=5)
    active = {"now": 0, "peak": 0}
    lock = threading.Lock()

    def transport(url, payload, timeout, headers):
        with lock:
            active["now"] += 1
            active["peak"] = max(active["peak"], active["now"])
        try:
            in_flight.wait()  # passes only once three requests are in flight together
        finally:
            with lock:
                active["now"] -= 1
        return {"text": payload["prompt"]}

    gw = Gateway(transport=transport)
    one = cfg_for("generator", "http://backend.test/gen", max_in_flight=1, max_retries=0)
    three = cfg_for("generator", "http://backend.test/gen", max_in_flight=3, max_retries=0)
    assert gw._semaphore(one) is gw._semaphore(one)
    assert gw._semaphore(three) is not gw._semaphore(one)

    gw._semaphore(one).acquire()  # a held limit of 1 must not throttle the other config
    try:
        results = []
        threads = [
            threading.Thread(target=lambda i=i: results.append(gw.generate(three, f"p{i}")))
            for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
    finally:
        gw._semaphore(one).release()
    assert sorted(results) == [f"p{i}" for i in range(6)]
    assert active["peak"] == 3
