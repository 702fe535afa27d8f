"""The standard-library HTTP transport against a real server on a loopback
socket: the request it sends, which failures it retries, and the response
bodies it refuses."""

import collections
import contextlib
import json
import os
import sys
import threading
import urllib.error
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from homorag.atomic import dump_json
from homorag.config import ENV_API_KEY_VAR, BackendConfig
from homorag.gateway import Gateway, GatewayError, _http_post_json

HANG = None  # a scripted reply that never answers


class Backend(ThreadingHTTPServer):
    """Answers each POST with the next scripted (status, body[, headers]) reply
    and keeps the (headers, body) of every request. `server_close` joins the handler
    threads, since they are not daemons."""

    daemon_threads = False

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.replies = collections.deque()
        self.received = []
        self.release = threading.Event()  # lets a HANG handler return

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_address[1]}/v1"


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.server.received.append((self.headers, body))
        reply = self.server.replies.popleft()
        if reply is HANG:
            self.server.release.wait()  # return only once the client has given up
            return
        status, blob, headers = reply if len(reply) == 3 else (*reply, {})
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    do_GET = do_POST  # a followed 301, 302 or 303 arrives as a GET

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def serving():
    server = Backend()
    thread = threading.Thread(target=server.serve_forever, args=(0.01,))
    thread.start()
    try:
        yield server
    finally:
        server.release.set()
        server.shutdown()
        server.server_close()
        thread.join()
    assert not thread.is_alive()


@pytest.fixture
def backend(monkeypatch):
    monkeypatch.setitem(sys.modules, "requests", None)  # the transport must not need it
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    monkeypatch.delenv(ENV_API_KEY_VAR, raising=False)
    with serving() as server:
        yield server


def generator(backend, **kw):
    return BackendConfig(role="generator", endpoint=backend.url, model="gen-model", **kw)


def gateway():
    gw = Gateway()
    gw.retry_backoff = 0.0
    return gw


@pytest.mark.parametrize("api_key", [None, "s3cret"])
def test_posts_the_payload_and_returns_the_object(backend, monkeypatch, api_key):
    if api_key:
        monkeypatch.setenv(ENV_API_KEY_VAR, api_key)
    backend.replies.append((200, b'{"text": "an oxidoreductase \\u00e9"}'))
    assert gateway().generate(generator(backend), "prompt") == "an oxidoreductase \u00e9"
    [(headers, body)] = backend.received
    assert body == dump_json(json.loads(body)).encode()
    sent = json.loads(body)
    assert sent["model"] == "gen-model" and sent["prompt"] == "prompt"
    assert {"temperature", "top_p", "max_tokens"} <= set(sent)
    assert headers["Content-Type"] == "application/json"
    assert headers["Authorization"] == (f"Bearer {api_key}" if api_key else None)


def test_client_error_is_tried_once(backend):
    backend.replies.extend([(404, b'{"error": "no such model"}'), (200, b'{"text": "ok"}')])
    with pytest.raises(GatewayError, match="after 1 attempts: HTTP Error 404") as err:
        gateway().generate(generator(backend, max_retries=3), "prompt")
    assert err.value.attempts == 1
    assert len(backend.received) == 1
    assert err.value.__cause__.fp.closed  # the error response let go of its socket


@pytest.mark.parametrize("status", [429, 503])
def test_transient_status_is_retried(backend, status):
    backend.replies.extend([(status, b"{}"), (200, b'{"text": "ok"}')])
    assert gateway().generate(generator(backend, max_retries=2), "prompt") == "ok"
    assert len(backend.received) == 2


def test_read_timeout_is_a_failed_attempt(backend):
    backend.replies.append(HANG)
    with pytest.raises(GatewayError, match="after 1 attempts: .*timed out") as err:
        gateway().generate(generator(backend, max_retries=0, timeout=0.2), "prompt")
    backend.release.set()
    assert err.value.attempts == 1
    assert len(backend.received) == 1


@pytest.mark.parametrize("blob", [b"not json", b'[{"text": "ok"}]', b'\xe9{"text": "ok"}'],
                         ids=["not-json", "json-list", "not-utf8"])
def test_body_that_is_not_a_json_object_is_a_retried_failure(backend, blob):
    backend.replies.extend([(200, blob), (200, blob)])
    with pytest.raises(GatewayError) as err:
        gateway().generate(generator(backend, max_retries=1), "prompt")
    assert str(err.value) == (
        f"generator request to {backend.url} failed after 2 attempts: "
        f"{backend.url} response: not a UTF-8 JSON object")
    assert err.value.attempts == 2
    assert len(backend.received) == 2


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_redirect_is_refused_and_carries_no_credentials(backend, monkeypatch, status):
    monkeypatch.setenv(ENV_API_KEY_VAR, "s3cret")
    with serving() as elsewhere:
        backend.replies.append((status, b"{}", {"Location": elsewhere.url}))
        elsewhere.replies.append((200, b'{"text": "ok"}'))
        with pytest.raises(GatewayError, match=f"after 1 attempts: HTTP Error {status}") as err:
            gateway().generate(generator(backend, max_retries=2), "prompt")
        assert elsewhere.received == []  # the bearer token went nowhere else
    assert err.value.attempts == 1
    [(headers, _)] = backend.received
    assert headers["Authorization"] == "Bearer s3cret"
    assert err.value.__cause__.fp.closed


def test_transport_speaks_only_http(tmp_path):
    local = tmp_path / "answer.json"
    local.write_bytes(b'{"text": "ok"}')
    for url in (local.as_uri(), "data:application/json,{}"):
        with pytest.raises(urllib.error.URLError, match="unknown url type"):
            _http_post_json(url, {"model": "m"}, 1.0, {})
