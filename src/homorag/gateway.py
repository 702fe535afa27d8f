"""Clients for the three model roles: token scorer, embedder, and generator.

Real backends speak a small JSON-over-HTTP protocol:

  scorer     POST {model, prompt, target}            -> {tokens: [...], probs: [...]}
  embedder   POST {model, input: [texts]}            -> {embeddings: [[...], ...]}
  generator  POST {model, prompt, <sampling params>} -> {text: "..."}

`mock:<name>` endpoints are deterministic in-process stand-ins so every
pipeline path runs offline:

  mock:uniform(p)        scorer; every target token gets probability p
  mock:keyword-boost     scorer; probability hi (0.9) when the prompt contains
                         any target token of >= 4 characters, else lo (0.4)
  mock:hash(dim=N)       embedder; L2-normalized signed bag of crc32-hashed
                         lowercase word tokens, projected to N buckets
  mock:echo              generator; echoes the prompt's "Homolog ..." context
                         lines verbatim

Requests go out through the standard library's `urllib.request`, which
honours the `*_proxy` environment variables; the body has the `dump_json`
layout. HTTPS certificates are checked against Python's default trust store
(the system CAs, or SSL_CERT_FILE / SSL_CERT_DIR); REQUESTS_CA_BUNDLE and
~/.netrc are not read. Redirects are not followed: a 3xx answer is a failed
request, tried once, so the API key never reaches another host. A response
body that is not a UTF-8 JSON object, or an answer that does not have its
role's shape, is a failed request naming the role and endpoint, and is
retried like any other fault. The shapes: a scorer answer holds a list of
string tokens and a list of as many numbers in [0, 1]; an embedder answer
one non-empty vector of finite numbers per text, all of one size; a
generator answer a string text.

Responses are cached on disk keyed by a digest of the role, endpoint, model
and canonicalized request, and only once they have their role's shape; a
cache file that cannot be read, is not a UTF-8 JSON object, or whose answer
does not have that shape, is a miss and is rewritten. A failed cache write
is logged with its path, and the answer is still returned. A failed request
is retried up to max_retries times with jittered exponential backoff, unless
its HTTP status says a retry cannot help (a 3xx, or a 4xx other than 408 and
429). At most max_in_flight requests run concurrently per backend.
Embedding vectors are also memoised in memory per (endpoint, model, text), so
an embed request carries only the texts the gateway has not embedded yet.
"""

from __future__ import annotations

import itertools
import logging
import math
import os
import random
import re
import threading
import time
import urllib.error
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar

from .atomic import dump_json, json_digest, loads_json_object, read_json_object, write_atomic
from .config import BackendConfig, ENV_API_KEY_VAR, GenerationParams
from .tag_filter import TokenProbSequence

logger = logging.getLogger(__name__)

_MOCK_RE = re.compile(r"^mock:([a-z][a-z0-9\-]*)(?:\((.*)\))?$")
_MOCK_WORD_RE = re.compile(r"[a-z0-9]+")

KEYWORD_BOOST_HI = 0.9
KEYWORD_BOOST_LO = 0.4
KEYWORD_MIN_LEN = 4
DEFAULT_MOCK_DIM = 32
EMBED_MEMO_TEXTS = 4096  # embedding vectors a gateway keeps, oldest dropped first
ECHO_PREFIX = "Based on the retrieved evidence, the protein is characterized as follows:"
ECHO_EMPTY = "No supporting evidence was retrieved; no sequence-grounded answer is available."

T = TypeVar("T")
# element types go through map(type, ...) against these sets: every scorer
# answer is checked, and teacher labelling makes ~3 scorer calls per example
_NUMBER_TYPES = frozenset((int, float))  # what JSON numbers decode to; bool is not one
_STRING_TYPE = frozenset((str,))


class GatewayError(RuntimeError):
    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


def _cache_name(cfg: BackendConfig, kind: str, payload: dict) -> str:
    """The cache file name of a request: its role and a digest of the role,
    endpoint, model, kind and payload."""
    digest = json_digest({"role": cfg.role, "endpoint": cfg.endpoint, "model": cfg.model,
                          "kind": kind, "payload": payload})
    return f"{cfg.role}-{digest}.json"


def _is_transient(exc: Exception) -> bool:
    """False only for an HTTP error whose status is a 3xx (redirects are not
    followed) or a 4xx other than 408 (request timeout) and 429 (too many
    requests): resending the same request cannot change that answer."""
    return not (isinstance(exc, urllib.error.HTTPError) and 300 <= exc.code < 500
                and exc.code not in (408, 429))


def _http_post_json(url: str, payload: dict, timeout: float, headers: dict) -> dict:
    import urllib.request  # loads ssl, which only a real backend needs

    # urlopen's opener also reads file:, ftp: and data: URLs and follows
    # redirects, resending the Authorization header to whatever host the
    # Location names; this one speaks http(s) only and turns a 3xx into an
    # HTTPError.
    opener = urllib.request.OpenerDirector()
    for handler in (urllib.request.ProxyHandler(), urllib.request.UnknownHandler(),
                    urllib.request.HTTPHandler(), urllib.request.HTTPSHandler(),
                    urllib.request.HTTPDefaultErrorHandler(),
                    urllib.request.HTTPErrorProcessor()):
        opener.add_handler(handler)
    request = urllib.request.Request(
        url, data=dump_json(payload).encode(), headers=headers, method="POST")
    try:
        with opener.open(request, timeout=timeout) as response:
            return loads_json_object(response.read(), f"{url} response")
    except urllib.error.HTTPError as exc:
        exc.close()  # an error response holds the socket open until closed
        raise


def _check_numbers(values, what: str) -> list:
    """values, checked: anything but a list of JSON numbers raises ValueError."""
    if type(values) is not list or not _NUMBER_TYPES.issuperset(map(type, values)):
        raise ValueError(f"{what} is not a list of numbers")
    return values


def _token_probs(response: dict) -> TokenProbSequence:
    """The scorer answer's tokens and probabilities; a malformed one raises ValueError."""
    tokens = response.get("tokens")
    if type(tokens) is not list or not _STRING_TYPE.issuperset(map(type, tokens)):
        raise ValueError(f"scorer tokens are not a list of strings: {response}")
    probs = _check_numbers(response.get("probs"), "scorer probs")
    return TokenProbSequence(tokens=tuple(tokens), probs=tuple(map(float, probs)))


def _vectors(response: dict, n_texts: int) -> list[array]:
    """The embedder answer's vectors for n_texts texts; a malformed one raises ValueError."""
    vectors = response.get("embeddings")
    if not isinstance(vectors, list) or len(vectors) != n_texts:
        raise ValueError(
            f"embedder returned {len(vectors) if isinstance(vectors, list) else None} "
            f"vectors for {n_texts} texts"
        )
    rows = [array("d", _check_numbers(vec, "an embedding")) for vec in vectors]
    if not all(rows):
        raise ValueError("an embedding is empty")
    if len({len(row) for row in rows}) > 1:
        raise ValueError("embeddings differ in size")
    if not all(all(map(math.isfinite, row)) for row in rows):
        raise ValueError("an embedding holds a non-finite number")
    return rows


def _text(response: dict) -> str:
    """The generator answer's text; a malformed one raises ValueError."""
    text = response.get("text")
    if not isinstance(text, str):
        raise ValueError(f"generator response missing text: {response}")
    return text


def _parse_mock_endpoint(endpoint: str) -> tuple[str, dict]:
    m = _MOCK_RE.match(endpoint)
    if not m:
        raise GatewayError(f"unrecognized mock endpoint {endpoint!r}")
    name, argstr = m.group(1), m.group(2)
    args: dict = {}
    if argstr:
        for pos, part in enumerate(argstr.split(",")):
            part = part.strip()
            if not part:
                continue
            if "=" in part:
                key, _, val = part.partition("=")
                args[key.strip()] = val.strip()
            elif pos == 0:
                args["_0"] = part
    return name, args


def mock_hash_embedding(text: str, dim: int = DEFAULT_MOCK_DIM) -> list[float]:
    """Deterministic hash projection used by the mock embedder.

    Each lowercase word token adds +-1 (sign from bit 16 of its crc32) to
    bucket crc32 % dim; the vector is then L2-normalized. The signs keep
    hash collisions from inflating similarity between unrelated texts.
    """
    vec = [0.0] * dim
    for token in _MOCK_WORD_RE.findall(text.lower()):
        h = zlib.crc32(token.encode("utf-8"))
        vec[h % dim] += 1.0 if (h >> 16) & 1 else -1.0
    norm = sum(v * v for v in vec) ** 0.5
    if norm > 0:
        vec = [v / norm for v in vec]
    return vec


class Gateway:
    """Shared client for all backends; safe to use from concurrent tasks."""

    def __init__(self, cache_dir: Optional[str | Path] = None, transport=None):
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.transport = transport or _http_post_json
        self.retry_backoff = 0.05
        self._semaphores: dict[tuple[str, str, int], threading.BoundedSemaphore] = {}
        self._embeddings: dict[tuple[str, str, str], array] = {}
        self._lock = threading.Lock()

    # -- transport ---------------------------------------------------------

    def _semaphore(self, cfg: BackendConfig) -> threading.BoundedSemaphore:
        key = (cfg.role, cfg.endpoint, cfg.max_in_flight)
        with self._lock:
            sem = self._semaphores.get(key)
            if sem is None:
                sem = self._semaphores[key] = threading.BoundedSemaphore(cfg.max_in_flight)
            return sem

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(ENV_API_KEY_VAR)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        return headers

    def _request(self, cfg: BackendConfig, kind: str, payload: dict,
                 parse: Callable[[dict], T]) -> T:
        """`parse` of the answer to the request, which raises ValueError on an
        answer without its role's shape: a cached one is a miss, a backend's a
        failed request. Only an answer that parses is cached. The cache is best
        effort: a file that cannot be read is a miss, and one that cannot be
        written is logged, never a failed request."""
        path = None
        if self.cache_dir is not None:
            path = self.cache_dir / _cache_name(cfg, kind, payload)
            try:
                return parse(read_json_object(path))
            except (OSError, ValueError):
                pass  # unreadable, not a UTF-8 JSON object, or without the role's shape
        if cfg.endpoint.startswith("mock:"):
            response = self._mock_response(cfg, kind, payload)
            value = parse(response)
        else:
            response, value = self._http_request(cfg, payload, parse)
        if path is not None:
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                write_atomic(path, dump_json(response).encode())
            except OSError as exc:
                logger.warning("could not cache the %s answer at %s: %s", cfg.role, path, exc)
        return value

    def _http_request(self, cfg: BackendConfig, payload: dict,
                      parse: Callable[[dict], T]) -> tuple[dict, T]:
        sem = self._semaphore(cfg)
        body = dict(payload)
        body["model"] = cfg.model
        for attempt in itertools.count(1):
            try:
                with sem:
                    response = self.transport(cfg.endpoint, body, cfg.timeout, self._headers())
                return response, parse(response)
            except Exception as exc:  # noqa: BLE001 - a transport may raise anything
                if attempt > cfg.max_retries or not _is_transient(exc):
                    raise GatewayError(
                        f"{cfg.role} request to {cfg.endpoint} failed after {attempt} "
                        f"attempts: {exc}",
                        attempts=attempt,
                    ) from exc
                delay = self.retry_backoff * 2 ** (attempt - 1)
                time.sleep(random.uniform(delay / 2, delay))

    # -- mocks -------------------------------------------------------------

    def _mock_response(self, cfg: BackendConfig, kind: str, payload: dict) -> dict:
        name, args = _parse_mock_endpoint(cfg.endpoint)
        if kind == "score":
            tokens = payload["target"].split()
            if name == "uniform":
                p = float(args.get("p", args.get("_0", 0.5)))
                probs = [p] * len(tokens)
            elif name == "keyword-boost":
                hi = float(args.get("hi", KEYWORD_BOOST_HI))
                lo = float(args.get("lo", KEYWORD_BOOST_LO))
                prompt_lower = payload["prompt"].lower()
                keywords = [
                    t for t in _MOCK_WORD_RE.findall(payload["target"].lower())
                    if len(t) >= KEYWORD_MIN_LEN
                ]
                boosted = any(k in prompt_lower for k in keywords)
                probs = [hi if boosted else lo] * len(tokens)
            else:
                raise GatewayError(f"mock {name!r} cannot serve scorer requests")
            return {"tokens": tokens, "probs": probs}
        if kind == "embed":
            if name != "hash":
                raise GatewayError(f"mock {name!r} cannot serve embedding requests")
            dim = int(args.get("dim", args.get("_0", DEFAULT_MOCK_DIM)))
            return {"embeddings": [mock_hash_embedding(t, dim) for t in payload["input"]]}
        if kind == "generate":
            if name != "echo":
                raise GatewayError(f"mock {name!r} cannot serve generation requests")
            lines = [l for l in payload["prompt"].splitlines() if l.startswith("Homolog ")]
            if not lines:
                return {"text": ECHO_EMPTY}
            return {"text": ECHO_PREFIX + "\n" + "\n".join(lines)}
        raise GatewayError(f"unknown request kind {kind!r}")

    # -- public operations ---------------------------------------------------

    def score_tokens(self, cfg: BackendConfig, prompt: str, target: str) -> TokenProbSequence:
        """Per-token probabilities of the target continuation under the prompt."""
        return self._request(cfg, "score", {"prompt": prompt, "target": target}, _token_probs)

    def generate(
        self,
        cfg: BackendConfig,
        prompt: str,
        params: Optional[GenerationParams] = None,
    ) -> str:
        """Generate text for a prompt; unset params fall back to the defaults."""
        if not prompt:
            raise GatewayError("generation prompt must be non-empty")
        if len(prompt) > cfg.max_prompt_chars:
            raise GatewayError(
                f"prompt length {len(prompt)} exceeds limit {cfg.max_prompt_chars}"
            )
        # the fields in declaration order: the cache key hashes this payload, so
        # another order would miss every response cached before
        payload = {"prompt": prompt, **vars(params or GenerationParams())}
        return self._request(cfg, "generate", payload, _text)

    def embed(self, cfg: BackendConfig, texts: Sequence[str]) -> list[list[float]]:
        """Embed a batch of texts; order and duplicates are preserved.

        Vectors are memoised per (endpoint, model, text), so the request
        carries each text not embedded before once. This assumes a text's
        vector does not depend on the other texts in its batch.
        """
        texts = list(texts)
        if not texts:
            return []
        memo = self._embeddings
        with self._lock:
            known = {t: memo[key] for t in texts if (key := (cfg.endpoint, cfg.model, t)) in memo}
        missing = list(dict.fromkeys(t for t in texts if t not in known))
        if missing:
            vectors = self._request(cfg, "embed", {"input": missing},
                                    lambda response: _vectors(response, len(missing)))
            fresh = dict(zip(missing, vectors))
            with self._lock:
                for t, vec in fresh.items():
                    if len(memo) >= EMBED_MEMO_TEXTS:
                        del memo[next(iter(memo))]
                    memo[(cfg.endpoint, cfg.model, t)] = vec
            known.update(fresh)
        return [known[t].tolist() for t in texts]

    # -- role handles --------------------------------------------------------

    def scorer_handle(self, cfg: BackendConfig) -> "ScorerHandle":
        return ScorerHandle(self, cfg)

    def embedder_handle(self, cfg: BackendConfig) -> "EmbedderHandle":
        return EmbedderHandle(self, cfg)


@dataclass
class ScorerHandle:
    gateway: Gateway
    cfg: BackendConfig

    def score_tokens(self, prompt: str, target: str) -> TokenProbSequence:
        return self.gateway.score_tokens(self.cfg, prompt, target)


@dataclass
class EmbedderHandle:
    gateway: Gateway
    cfg: BackendConfig

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        return self.gateway.embed(self.cfg, texts)
