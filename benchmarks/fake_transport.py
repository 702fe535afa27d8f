"""In-process stand-in for remote model backends.

`FakeTransport` is injected through `Pipeline(config, transport=...)` or
`Gateway(transport=...)`. It serves the scorer, embedder and generator roles
at once, without delay, with the mock protocol that the `homorag.gateway`
docstring specifies for `mock:keyword-boost`, `mock:hash(dim=32)` and
`mock:echo`. It counts calls per role, the time spent inside calls, and the
largest number of calls in flight at once. No socket is opened.
"""

from __future__ import annotations

import re
import threading
import time
from collections import Counter

from homorag.config import BackendConfig, MOCK_ENDPOINTS
from homorag.gateway import (
    DEFAULT_MOCK_DIM,
    ECHO_EMPTY,
    ECHO_PREFIX,
    KEYWORD_BOOST_HI,
    KEYWORD_BOOST_LO,
    KEYWORD_MIN_LEN,
    Gateway,
    mock_hash_embedding,
)

# Never contacted: the transport is injected. Port 9 (discard) is refused at
# once should anything try to connect anyway.
ENDPOINT = "http://127.0.0.1:9/{role}"
_WORD_RE = re.compile(r"[a-z0-9]+")


def remote_backend(role: str) -> BackendConfig:
    return BackendConfig(role=role, endpoint=ENDPOINT.format(role=role), model="bench")


def mock_backend(role: str) -> BackendConfig:
    return BackendConfig(role=role, endpoint=MOCK_ENDPOINTS[role], model="bench")


def _score(payload: dict) -> dict:
    tokens = payload["target"].split()
    prompt = payload["prompt"].lower()
    keywords = [t for t in _WORD_RE.findall(payload["target"].lower()) if len(t) >= KEYWORD_MIN_LEN]
    p = KEYWORD_BOOST_HI if any(k in prompt for k in keywords) else KEYWORD_BOOST_LO
    return {"tokens": tokens, "probs": [p] * len(tokens)}


def _embed(payload: dict) -> dict:
    return {"embeddings": [mock_hash_embedding(t, DEFAULT_MOCK_DIM) for t in payload["input"]]}


def _generate(payload: dict) -> dict:
    lines = [line for line in payload["prompt"].splitlines() if line.startswith("Homolog ")]
    return {"text": ECHO_PREFIX + "\n" + "\n".join(lines) if lines else ECHO_EMPTY}


_ANSWER = {"scorer": _score, "embedder": _embed, "generator": _generate}


class FakeTransport:
    """Callable with the `Gateway` transport signature (url, payload, timeout, headers)."""

    def __init__(self):
        self.routes = {ENDPOINT.format(role=role): role for role in _ANSWER}
        self.calls: Counter = Counter()
        self.busy_s: Counter = Counter()
        self.in_flight = 0
        self.max_in_flight = 0
        self._lock = threading.Lock()

    def __call__(self, url: str, payload: dict, timeout: float, headers: dict) -> dict:
        role = self.routes.get(url)
        if role is None:
            raise ValueError(f"no fake backend behind {url}")
        t0 = time.perf_counter()
        with self._lock:
            self.calls[role] += 1
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            return _ANSWER[role](payload)
        finally:
            with self._lock:
                self.in_flight -= 1
                self.busy_s[role] += time.perf_counter() - t0

    def snapshot(self) -> tuple[Counter, Counter]:
        with self._lock:
            return Counter(self.calls), Counter(self.busy_s)


def self_check(score_requests: list[tuple[str, str]], prompts: list[str], texts: list[str]) -> list[str]:
    """Compare fake-transport answers with the in-process mocks on the same requests.

    Returns one message per disagreement; an empty list means they agree.
    """
    fake = Gateway(transport=FakeTransport())
    mock = Gateway()
    problems = []
    for prompt, target in score_requests:
        if fake.score_tokens(remote_backend("scorer"), prompt, target) != mock.score_tokens(
            mock_backend("scorer"), prompt, target
        ):
            problems.append(f"scorer answers differ for target {target[:40]!r}")
    for prompt in prompts:
        if fake.generate(remote_backend("generator"), prompt) != mock.generate(
            mock_backend("generator"), prompt
        ):
            problems.append(f"generator answers differ for prompt {prompt[:40]!r}")
    if fake.embed(remote_backend("embedder"), texts) != mock.embed(mock_backend("embedder"), texts):
        problems.append("embedder answers differ")
    return problems
