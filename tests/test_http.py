import json
import os
import shutil
import socket
import ssl
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from viewfuse.errors import (
    MalformedProviderResponse,
    MissingLogprobs,
    ProviderUnavailable,
    ZeroNormVector,
)
from viewfuse.model import Viewpoint
from viewfuse.providers import GenerationConfig
from viewfuse.providers.http import (
    FANOUT_WIDTH,
    RETRY_AFTER_CAP_SECONDS,
    HttpCandidateGenerator,
    HttpEmbedder,
    HttpProviderConfig,
    extract_path,
    extract_path_lenient,
    substitute_template,
)


class FakeResponse:
    def __init__(self, doc=None, status=200, body="not json", headers=None):
        self.status_code = status
        self._doc = doc
        self.text = body
        self.headers = headers or {}

    def json(self):
        if self._doc is None:
            raise ValueError("no JSON")
        return self._doc


class FakeSession:
    """Queue of responses; an Exception instance in the queue is raised."""

    def __init__(self, *outcomes):
        self.outcomes = list(outcomes)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


GEN_CONFIG = HttpProviderConfig(
    endpoint="https://api.example/v1/describe",
    request_template={
        "model": "cap-1",
        "image": "{image}",
        "prompt": "{prompt}",
        "temperature": "{temperature}",
        "n": "{n}",
    },
    model="cap-1",
)

EMB_CONFIG = HttpProviderConfig(
    endpoint="https://api.example/v1/embed",
    request_template={"input": "{text}"},
    embedding_path="data[0].embedding",
)


def gen_response(texts, logprobs=None):
    choices = [{"text": t} for t in texts]
    if logprobs is not None:
        for choice, lp in zip(choices, logprobs):
            choice["logprobs"] = lp
    return FakeResponse({"choices": choices})


def test_substitute_template_types_preserved():
    out = substitute_template(
        {"t": "{temperature}", "n": "{n}", "msg": "sampling {n} at {temperature}"},
        {"temperature": 0.7, "n": 5},
    )
    assert out["t"] == 0.7 and isinstance(out["t"], float)
    assert out["n"] == 5 and isinstance(out["n"], int)
    assert out["msg"] == "sampling 5 at 0.7"


def test_substitute_template_unknown_placeholder_left_alone():
    out = substitute_template({"x": "{unknown}"}, {"n": 5})
    assert out["x"] == "{unknown}"


def test_extract_path_variants():
    doc = {"data": [{"v": 1}, {"v": 2}], "nested": {"deep": [10, 20, 30]}}
    assert extract_path(doc, "data[0].v") == 1
    assert extract_path(doc, "data[].v") == [1, 2]
    assert extract_path(doc, "nested.deep[2]") == 30


def test_lenient_extract_path_turns_dead_ends_into_none():
    doc = {"a": [1], "b": {"c": 2}}
    assert extract_path_lenient(doc, "a[3]") is None  # list too short
    assert extract_path_lenient(doc, "b[0]") is None  # index into an object
    assert extract_path_lenient(doc, "b[].c") is None  # map over an object
    assert extract_path_lenient(doc, "missing") is None
    assert extract_path_lenient(doc, "b.c") == 2


def test_extract_path_missing_key_raises():
    with pytest.raises(MalformedProviderResponse):
        extract_path({"a": 1}, "b")
    with pytest.raises(MalformedProviderResponse):
        extract_path({"a": [1]}, "a[3]")


def test_generator_happy_path(monkeypatch):
    monkeypatch.setenv("PROVIDER_API_KEY", "sk-test")
    lp = [[-0.1, -0.2], [-0.3, -0.4]]
    session = FakeSession(gen_response(["a mug", "a cup"], lp))
    gen = HttpCandidateGenerator(GEN_CONFIG, session=session, sleep=lambda s: None)
    cands = gen.generate_candidates(
        Viewpoint.FRONT, "img.png", GenerationConfig(temperature=0.7, num_candidates=2)
    )
    assert [c.text for c in cands] == ["a mug", "a cup"]
    assert cands[0].raw_confidence == pytest.approx(0.15)

    sent = session.requests[0]
    assert sent["json"]["image"] == "img.png"
    assert sent["json"]["temperature"] == 0.7
    assert sent["json"]["n"] == 2
    assert "front" in sent["json"]["prompt"]
    assert sent["headers"]["Authorization"] == "Bearer sk-test"


def test_generator_without_api_key_sends_no_auth_header(monkeypatch):
    monkeypatch.delenv("PROVIDER_API_KEY", raising=False)
    session = FakeSession(gen_response(["x"]))
    gen = HttpCandidateGenerator(GEN_CONFIG, session=session, sleep=lambda s: None)
    gen.generate_candidates(Viewpoint.TOP, "i.png", GenerationConfig(num_candidates=1))
    assert "Authorization" not in session.requests[0]["headers"]


def test_generator_candidate_count_mismatch():
    session = FakeSession(gen_response(["only one"]))
    gen = HttpCandidateGenerator(GEN_CONFIG, session=session, sleep=lambda s: None)
    with pytest.raises(MalformedProviderResponse):
        gen.generate_candidates(Viewpoint.FRONT, "i.png", GenerationConfig(num_candidates=3))


def test_generator_missing_logprobs_uses_fallback():
    session = FakeSession(FakeResponse({"choices": [{"text": "a"}, {"text": "b"}]}))
    gen = HttpCandidateGenerator(GEN_CONFIG, session=session, sleep=lambda s: None)
    cands = gen.generate_candidates(
        Viewpoint.FRONT, "i.png", GenerationConfig(num_candidates=2)
    )
    assert all(c.token_logprobs == () for c in cands)
    assert all(c.raw_confidence == 1.0 for c in cands)


def test_generator_partial_logprobs_use_per_candidate_fallback():
    # one choice has logprobs, one does not: the bare one inherits the
    # median confidence of its siblings instead of failing the batch
    partial = FakeResponse(
        {"choices": [{"text": "a", "logprobs": [-0.4, -0.6]}, {"text": "b"}]}
    )
    gen = HttpCandidateGenerator(GEN_CONFIG, session=FakeSession(partial), sleep=lambda s: None)
    cands = gen.generate_candidates(
        Viewpoint.FRONT, "i.png", GenerationConfig(num_candidates=2)
    )
    assert cands[0].raw_confidence == pytest.approx(0.5)
    assert cands[1].token_logprobs == ()
    assert cands[1].raw_confidence == pytest.approx(0.5)


def test_generator_misaligned_separate_logprob_array_rejected():
    config = HttpProviderConfig(
        endpoint="https://api.example/v1/describe",
        request_template={"image": "{image}"},
        texts_path="choices[].text",
        logprobs_path="logprobs[]",
    )
    doc = {"choices": [{"text": "a"}, {"text": "b"}], "logprobs": [[-0.1]]}
    gen = HttpCandidateGenerator(config, session=FakeSession(FakeResponse(doc)), sleep=lambda s: None)
    with pytest.raises(MalformedProviderResponse):
        gen.generate_candidates(Viewpoint.FRONT, "i.png", GenerationConfig(num_candidates=2))


@pytest.mark.parametrize("text", ["a lone \ud800 surrogate", "\udcff"])
def test_generator_rejects_a_text_that_cannot_be_encoded_as_utf8(text):
    # a record or cache entry holding it could not be written
    session = FakeSession(gen_response(["a mug", text]))
    gen = HttpCandidateGenerator(GEN_CONFIG, session=session, sleep=lambda s: None)
    with pytest.raises(MalformedProviderResponse, match="cannot be encoded as UTF-8"):
        gen.generate_candidates(Viewpoint.FRONT, "i.png", GenerationConfig(num_candidates=2))


# JSON strings and booleans are not numbers, even where float() would take them
@pytest.mark.parametrize(
    "logprobs",
    [["high", "low"], ["-0.5"], [False], [True], [-0.5, -(10**400)]],
    ids=["words", "numeric-string", "false", "true", "beyond-float"],
)
def test_generator_non_numeric_logprobs_rejected(logprobs):
    doc = {"choices": [{"text": "a", "logprobs": logprobs}]}
    gen = HttpCandidateGenerator(GEN_CONFIG, session=FakeSession(FakeResponse(doc)), sleep=lambda s: None)
    with pytest.raises(MalformedProviderResponse):
        gen.generate_candidates(Viewpoint.FRONT, "i.png", GenerationConfig(num_candidates=1))


def test_generator_empty_logprob_list_is_missing_logprobs():
    doc = {"choices": [{"text": "a", "logprobs": []}]}
    gen = HttpCandidateGenerator(GEN_CONFIG, session=FakeSession(FakeResponse(doc)), sleep=lambda s: None)
    with pytest.raises(MissingLogprobs):
        gen.generate_candidates(Viewpoint.FRONT, "i.png", GenerationConfig(num_candidates=1))


def test_transport_errors_retry_with_backoff():
    slept = []
    session = FakeSession(
        ConnectionError("down"),
        TimeoutError("slow"),
        gen_response(["ok"]),
    )
    gen = HttpCandidateGenerator(GEN_CONFIG, session=session, sleep=slept.append)
    cands = gen.generate_candidates(Viewpoint.FRONT, "i.png", GenerationConfig(num_candidates=1))
    assert [c.text for c in cands] == ["ok"]
    assert slept == [1.0, 2.0]
    assert len(session.requests) == 3


def test_transport_errors_exhaust_attempts():
    session = FakeSession(
        ConnectionError("a"),
        ConnectionError("b"),
        ConnectionError("c"),
    )
    gen = HttpCandidateGenerator(GEN_CONFIG, session=session, sleep=lambda s: None)
    with pytest.raises(ProviderUnavailable):
        gen.generate_candidates(Viewpoint.FRONT, "i.png", GenerationConfig(num_candidates=1))
    assert len(session.requests) == 3


def test_http_error_status_fails_without_retry():
    session = FakeSession(FakeResponse(status=400), gen_response(["never reached"]))
    gen = HttpCandidateGenerator(GEN_CONFIG, session=session, sleep=lambda s: None)
    with pytest.raises(ProviderUnavailable):
        gen.generate_candidates(Viewpoint.FRONT, "i.png", GenerationConfig(num_candidates=1))
    assert len(session.requests) == 1  # a client error other than 429 is not retried


@pytest.mark.parametrize("status", [429, 500, 503])
def test_rate_limit_and_server_errors_retry_with_backoff(status):
    slept = []
    session = FakeSession(FakeResponse(status=status), gen_response(["ok"]))
    gen = HttpCandidateGenerator(GEN_CONFIG, session=session, sleep=slept.append)
    cands = gen.generate_candidates(Viewpoint.FRONT, "i.png", GenerationConfig(num_candidates=1))
    assert [c.text for c in cands] == ["ok"]
    assert slept == [1.0]
    assert len(session.requests) == 2


def test_retryable_statuses_exhaust_attempts():
    session = FakeSession(
        FakeResponse(status=503), FakeResponse(status=429), FakeResponse(status=502)
    )
    slept = []
    gen = HttpCandidateGenerator(GEN_CONFIG, session=session, sleep=slept.append)
    with pytest.raises(ProviderUnavailable, match="HTTP 502"):
        gen.generate_candidates(Viewpoint.FRONT, "i.png", GenerationConfig(num_candidates=1))
    assert len(session.requests) == 3
    assert slept == [1.0, 2.0]


def test_retry_after_seconds_honoured_up_to_cap():
    session = FakeSession(
        FakeResponse(status=429, headers={"Retry-After": "7"}),
        FakeResponse(status=503, headers={"Retry-After": "3600"}),
        gen_response(["ok"]),
    )
    slept = []
    gen = HttpCandidateGenerator(GEN_CONFIG, session=session, sleep=slept.append)
    gen.generate_candidates(Viewpoint.FRONT, "i.png", GenerationConfig(num_candidates=1))
    assert slept == [7.0, RETRY_AFTER_CAP_SECONDS]


@pytest.mark.parametrize("value", ["Wed, 21 Oct 2015 07:28:00 GMT", "-3", "1.5", "\u00b2", ""])
def test_retry_after_not_in_whole_seconds_uses_backoff(value):
    session = FakeSession(
        FakeResponse(status=429, headers={"Retry-After": value}), gen_response(["ok"])
    )
    slept = []
    gen = HttpCandidateGenerator(GEN_CONFIG, session=session, sleep=slept.append)
    gen.generate_candidates(Viewpoint.FRONT, "i.png", GenerationConfig(num_candidates=1))
    assert slept == [1.0]


def test_non_json_body_rejected():
    session = FakeSession(FakeResponse(doc=None))
    gen = HttpCandidateGenerator(GEN_CONFIG, session=session, sleep=lambda s: None)
    with pytest.raises(MalformedProviderResponse):
        gen.generate_candidates(Viewpoint.FRONT, "i.png", GenerationConfig(num_candidates=1))


def emb_response(vec):
    return FakeResponse({"data": [{"embedding": vec}]})


def test_embedder_happy_path():
    session = FakeSession(emb_response([0.1, 0.2, 0.3]))
    emb = HttpEmbedder(EMB_CONFIG, session=session, sleep=lambda s: None)
    vec = emb.embed_text("a mug")
    assert vec.values.tolist() == [0.1, 0.2, 0.3]
    assert session.requests[0]["json"]["input"] == "a mug"


def test_list_valued_request_template_sends_a_list():
    session = FakeSession(emb_response([0.1, 0.2, 0.3]))
    cfg = HttpProviderConfig(endpoint=EMB_CONFIG.endpoint, request_template={"input": ["{text}"]})
    HttpEmbedder(cfg, session=session, sleep=lambda s: None).embed_text("a mug")
    assert session.requests[0]["json"] == {"input": ["a mug"]}


def test_embedder_replies_of_two_dimensions_both_decode():
    # dimensions are compared per object, by the pipeline, not per endpoint
    session = FakeSession(emb_response([0.1, 0.2]), emb_response([0.1, 0.2, 0.3]))
    emb = HttpEmbedder(EMB_CONFIG, session=session, sleep=lambda s: None)
    assert [emb.embed_text("a").dim, emb.embed_text("b").dim] == [2, 3]


@pytest.mark.parametrize("values", [[0.0, 0.0, -0.0], [1e-200, 1e-200, 1e-200]], ids=["zero", "underflow"])
def test_embedder_zero_vector_rejected(values):
    session = FakeSession(emb_response(values))
    emb = HttpEmbedder(EMB_CONFIG, session=session, sleep=lambda s: None)
    with pytest.raises(ZeroNormVector):
        emb.embed_text("x")


@pytest.mark.parametrize("entry", [None, "abc", [0.2], "0.5", True, pytest.param(10**400, id="beyond-float")])
def test_embedder_rejects_entries_that_are_not_numbers(entry):
    session = FakeSession(emb_response([0.1, entry, 0.3]))
    emb = HttpEmbedder(EMB_CONFIG, session=session, sleep=lambda s: None)
    with pytest.raises(MalformedProviderResponse):
        emb.embed_text("x")


def test_embedder_empty_vector_rejected():
    session = FakeSession(emb_response([]))
    emb = HttpEmbedder(EMB_CONFIG, session=session, sleep=lambda s: None)
    with pytest.raises(MalformedProviderResponse):
        emb.embed_text("x")


class KeyedSession:
    """Thread-safe fake answering by request body, not arrival order.

    `outcomes` maps a request's "input" to a FakeResponse or an
    Exception to raise. Each post waits `delay(input)` seconds first,
    and the session records the inputs and posting threads it saw and
    the most posts it held at once.
    """

    def __init__(self, outcomes, delay=lambda key: 0.0):
        self.outcomes = outcomes
        self.delay = delay
        self.lock = threading.Lock()
        self.inputs = []
        self.threads = set()
        self.in_flight = 0
        self.max_in_flight = 0

    def post(self, url, json=None, headers=None, timeout=None):
        key = json["input"]
        with self.lock:
            self.inputs.append(key)
            self.threads.add(threading.current_thread().name)
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            time.sleep(self.delay(key))
            outcome = self.outcomes[key]
        finally:
            with self.lock:
                self.in_flight -= 1
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


TEXTS = [f"text {i}" for i in range(20)]


def test_embed_texts_fans_out_and_returns_input_order():
    # later inputs answer sooner, so completion order is reversed
    session = KeyedSession(
        {t: emb_response([float(i), 1.0]) for i, t in enumerate(TEXTS)},
        delay=lambda key: 0.002 * (len(TEXTS) - int(key.split()[1])),
    )
    emb = HttpEmbedder(EMB_CONFIG, session=session, sleep=lambda s: None)
    vecs = emb.embed_texts(TEXTS)
    assert [v.values.tolist() for v in vecs] == [[float(i), 1.0] for i in range(len(TEXTS))]
    assert sorted(session.inputs) == sorted(TEXTS)
    assert 1 < session.max_in_flight <= FANOUT_WIDTH
    assert threading.current_thread().name not in session.threads


def test_single_item_calls_post_on_the_calling_thread():
    session = KeyedSession({"a mug": emb_response([0.1, 0.2])})
    emb = HttpEmbedder(EMB_CONFIG, session=session, sleep=lambda s: None)
    assert emb.embed_text("a mug") == emb.embed_texts(["a mug"])[0]
    assert session.threads == {threading.current_thread().name}


def test_generate_views_returns_input_order():
    config = HttpProviderConfig(
        endpoint="https://api.example/v1/describe",
        request_template={"input": "{image}", "n": "{n}"},
    )
    views = [Viewpoint.FRONT, Viewpoint.BACK, Viewpoint.LEFT, Viewpoint.TOP]
    refs = [f"img{i}.png" for i in range(len(views))]
    session = KeyedSession(
        {ref: gen_response([f"{ref} a", f"{ref} b"]) for ref in refs},
        delay=lambda key: 0.002 * (len(refs) - int(key[3])),
    )
    gen = HttpCandidateGenerator(config, session=session, sleep=lambda s: None)
    out = gen.generate_views(list(zip(views, refs)), GenerationConfig(num_candidates=2))
    assert [[c.text for c in cands] for cands in out] == [[f"{r} a", f"{r} b"] for r in refs]


# (outcome per failing input, exception expected from the first of them)
FAILURES = {
    "status-before-parse": (
        {"text 3": FakeResponse(status=404), "text 7": emb_response(["x"])},
        ProviderUnavailable,
    ),
    "parse-before-status": (
        {"text 3": emb_response(["x"]), "text 7": FakeResponse(status=404)},
        MalformedProviderResponse,
    ),
    "parse-before-transport": (
        {"text 2": emb_response([]), "text 9": ConnectionError("down")},
        MalformedProviderResponse,
    ),
}


@pytest.mark.parametrize("case", FAILURES)
def test_batch_raises_the_first_failing_item_in_input_order(case):
    failures, expected = FAILURES[case]
    outcomes = {t: emb_response([1.0, 0.0]) for t in TEXTS}
    outcomes.update(failures)
    # the later failure answers first
    session = KeyedSession(outcomes, delay=lambda key: 0.02 if key == min(failures) else 0.0)
    emb = HttpEmbedder(EMB_CONFIG, session=session, sleep=lambda s: None)
    with pytest.raises(expected):
        emb.embed_texts(TEXTS)


class Loopback(ThreadingHTTPServer):
    """A loopback HTTP/1.1 server for the default session to talk to.

    `answer(handler, index, body)` replies to the index-th request (from
    0, in arrival order). The server counts the connections it accepts
    and keeps each request's target and headers.
    """

    daemon_threads = True

    def __init__(self, answer):
        super().__init__(("127.0.0.1", 0), LoopbackHandler)
        self.answer = answer
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = []  # (target, headers)
        self.thread = threading.Thread(target=self.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_address[1]}"

    def handle_error(self, request, client_address):
        pass  # a client that timed out and left is expected here

    def stop(self):
        self.shutdown()
        self.server_close()


class LoopbackHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with self.server.lock:
            index = len(self.server.requests)
            self.server.requests.append((self.path, self.headers))
        self.server.answer(self, index, json.loads(body))

    def do_CONNECT(self):
        with self.server.lock:
            self.server.requests.append((self.path, self.headers))
        reply(self, {"error": "no tunnels here"}, status=502)

    def log_message(self, format, *args):
        pass


def reply(handler, doc, status=200, headers=()):
    """Answer in one write, with a Content-Length and keep-alive."""
    body = json.dumps(doc).encode("utf-8")
    head = [f"HTTP/1.1 {status} X", "Content-Type: application/json",
            f"Content-Length: {len(body)}", *headers, "", ""]
    handler.wfile.write("\r\n".join(head).encode("ascii") + body)


def refuse_to_sleep(seconds):
    raise AssertionError(f"asked to sleep {seconds} s")


def answer_embedding(handler, index, body):
    reply(handler, {"data": [{"embedding": [float(len(body["input"])), 1.0]}]})


@pytest.fixture
def loopback():
    servers = []

    def start(answer=answer_embedding):
        servers.append(Loopback(answer))
        return servers[-1]

    yield start
    for server in servers:
        server.stop()


def loopback_embedder(server, sleep, **overrides):
    config = HttpProviderConfig(
        endpoint=f"{server.url}/embed", request_template={"input": "{text}"}, **overrides
    )
    return HttpEmbedder(config, sleep=sleep)


def test_fanned_out_batches_reuse_one_connection_per_slot(loopback):
    def slow(handler, index, body):
        time.sleep(0.1)  # every fan-out slot takes an item before any finishes
        answer_embedding(handler, index, body)

    server = loopback(slow)
    emb = loopback_embedder(server, sleep=refuse_to_sleep)
    try:
        emb.embed_text("on the calling thread")
        emb.embed_texts(TEXTS[: 2 * FANOUT_WIDTH])
        after_first = server.connections
        vecs = emb.embed_texts(TEXTS[: 2 * FANOUT_WIDTH])
    finally:
        emb.session.close()
    assert [v.values[0] for v in vecs] == [float(len(t)) for t in TEXTS[: 2 * FANOUT_WIDTH]]
    assert len(server.requests) == 1 + 4 * FANOUT_WIDTH
    assert 1 < after_first <= FANOUT_WIDTH + 1
    assert server.connections == after_first  # the second batch opened none


def test_connection_closed_while_idle_is_reopened_without_backoff(loopback):
    closed = threading.Event()

    def close_after_first(handler, index, body):
        answer_embedding(handler, index, body)  # announces keep-alive
        if index == 0:
            handler.close_connection = True
            handler.connection.shutdown(socket.SHUT_RDWR)
            closed.set()

    server = loopback(close_after_first)
    slept = []
    emb = loopback_embedder(server, sleep=slept.append)
    try:
        emb.embed_text("first")
        assert closed.wait(5)
        vec = emb.embed_text("second")
    finally:
        emb.session.close()
    assert vec.values.tolist() == [6.0, 1.0]
    assert slept == []
    assert server.connections == 2
    assert len(server.requests) == 2


def test_chunked_reply_parses(loopback):
    def chunked(handler, index, body):
        doc = json.dumps({"data": [{"embedding": [0.25, 0.5, 0.75]}]}).encode("utf-8")
        thirds = [doc[:7], doc[7:20], doc[20:]]
        handler.wfile.write(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + b"".join(b"%x\r\n%s\r\n" % (len(c), c) for c in thirds)
            + b"0\r\n\r\n"
        )

    server = loopback(chunked)
    emb = loopback_embedder(server, sleep=refuse_to_sleep)
    try:
        vecs = [emb.embed_text("a"), emb.embed_text("b")]
    finally:
        emb.session.close()
    assert [v.values.tolist() for v in vecs] == [[0.25, 0.5, 0.75]] * 2
    assert server.connections == 1  # the chunked reply kept the connection


def test_reply_cut_off_mid_body_closes_the_connection_and_is_retried(loopback):
    def cut_first(handler, index, body):
        if index > 0:
            return answer_embedding(handler, index, body)
        # the head promises more body than arrives before the connection ends
        handler.wfile.write(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b'Content-Length: 100\r\n\r\n{"data": [{"embe'
        )
        handler.close_connection = True
        handler.connection.shutdown(socket.SHUT_RDWR)

    server = loopback(cut_first)
    slept = []

    def backoff(seconds):
        # the cut connection is closed before the retry, not found dead by it
        open_sockets = [conn.sock for conn in emb.session._connections if conn.sock is not None]
        slept.append((seconds, open_sockets))

    emb = loopback_embedder(server, sleep=backoff)
    try:
        vec = emb.embed_text("whole")
    finally:
        emb.session.close()
    assert vec.values.tolist() == [5.0, 1.0]
    assert slept == [(1.0, [])]
    assert server.connections == 2
    assert len(server.requests) == 2


def test_timeout_is_retried_with_backoff(loopback):
    def stall_first(handler, index, body):
        if index == 0:
            time.sleep(1.0)
        answer_embedding(handler, index, body)

    server = loopback(stall_first)
    slept = []
    emb = loopback_embedder(server, sleep=slept.append, timeout=0.2)
    try:
        vec = emb.embed_text("late")
    finally:
        emb.session.close()
    assert vec.values.tolist() == [4.0, 1.0]
    assert slept == [1.0]
    assert len(server.requests) == 2


def test_redirect_is_not_followed(loopback):
    server = loopback(lambda handler, index, body: reply(
        handler, {}, status=302, headers=[f"Location: {handler.server.url}/elsewhere"]
    ))
    emb = loopback_embedder(server, sleep=refuse_to_sleep)
    try:
        with pytest.raises(ProviderUnavailable, match="HTTP 302"):
            emb.embed_text("x")
    finally:
        emb.session.close()
    assert [target for target, _ in server.requests] == ["/embed"]


@pytest.fixture
def proxy_env(monkeypatch):
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch


def test_http_proxy_is_used_with_its_credentials(loopback, proxy_env):
    proxy = loopback()
    proxy_env.setenv("http_proxy", proxy.url.replace("//", "//user:p%40ss@"))
    emb = HttpEmbedder(
        HttpProviderConfig(endpoint="http://models.invalid:8080/embed?v=2",
                           request_template={"input": "{text}"}),
        sleep=refuse_to_sleep,
    )
    try:
        assert emb.embed_text("abc").values.tolist() == [3.0, 1.0]
    finally:
        emb.session.close()
    [(target, headers)] = proxy.requests
    assert target == "http://models.invalid:8080/embed?v=2"
    assert headers["Host"] == "models.invalid:8080"
    assert headers["Proxy-Authorization"] == "Basic dXNlcjpwQHNz"  # user:p@ss


def test_https_through_a_proxy_asks_for_a_tunnel(loopback, proxy_env):
    proxy = loopback()
    proxy_env.setenv("https_proxy", proxy.url)
    slept = []
    emb = HttpEmbedder(
        HttpProviderConfig(endpoint="https://models.invalid/embed",
                           request_template={"input": "{text}"}),
        sleep=slept.append,
    )
    try:
        with pytest.raises(ProviderUnavailable, match="Tunnel connection failed: 502"):
            emb.embed_text("abc")
    finally:
        emb.session.close()
    assert [target for target, _ in proxy.requests] == ["models.invalid:443"] * 3
    assert slept == [1.0, 2.0]


def test_no_proxy_host_is_reached_directly(loopback, proxy_env):
    with socket.socket() as s:  # a port nothing listens on
        s.bind(("127.0.0.1", 0))
        dead = s.getsockname()[1]
    server = loopback()
    proxy_env.setenv("http_proxy", f"http://127.0.0.1:{dead}")
    proxy_env.setenv("no_proxy", "localhost,127.0.0.1")
    emb = loopback_embedder(server, sleep=refuse_to_sleep)
    try:
        assert emb.embed_text("abc").values.tolist() == [3.0, 1.0]
    finally:
        emb.session.close()
    assert [target for target, _ in server.requests] == ["/embed"]


class TlsLoopback(Loopback):
    """The loopback server over TLS, counting the handshakes it starts."""

    def __init__(self, answer, cert, key):
        self.tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        self.tls.load_cert_chain(cert, key)
        self.handshakes = 0  # only the serving thread counts
        super().__init__(answer)

    @property
    def url(self):
        return f"https://127.0.0.1:{self.server_address[1]}"

    def get_request(self):
        sock, address = self.socket.accept()
        self.handshakes += 1
        return self.tls.wrap_socket(sock, server_side=True), address


@pytest.fixture
def tls_loopback(tmp_path, proxy_env):
    """A TLS loopback server with a throwaway self-signed certificate
    for 127.0.0.1, and the path of that certificate."""
    if shutil.which("openssl") is None:
        pytest.skip("the openssl command is needed to make a certificate")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
         "-nodes", "-keyout", str(key), "-out", str(cert), "-days", "2",
         "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1"],
        check=True, capture_output=True, timeout=60,
    )
    server = TlsLoopback(answer_embedding, cert, key)
    yield server, cert
    server.stop()


def test_https_with_a_trusted_certificate_is_served(tls_loopback, monkeypatch):
    server, cert = tls_loopback
    monkeypatch.setenv("SSL_CERT_FILE", str(cert))  # read by ssl.create_default_context()
    emb = loopback_embedder(server, sleep=refuse_to_sleep)
    try:
        vecs = emb.embed_texts(["a", "bb", "ccc"])
    finally:
        emb.session.close()
    assert [v.values.tolist() for v in vecs] == [[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]]
    assert len(server.requests) == 3


def test_untrusted_certificate_fails_at_once(tls_loopback, monkeypatch):
    server, _cert = tls_loopback
    monkeypatch.delenv("SSL_CERT_FILE", raising=False)
    monkeypatch.delenv("SSL_CERT_DIR", raising=False)
    emb = loopback_embedder(server, sleep=refuse_to_sleep)
    try:
        with pytest.raises(ProviderUnavailable, match="CERTIFICATE_VERIFY_FAILED"):
            emb.embed_text("x")
    finally:
        emb.session.close()
    assert server.handshakes == 1
    assert server.requests == []


@pytest.mark.parametrize("endpoint", ["ftp://models.invalid/embed", "http:///embed",
                                      "http://models.invalid:99999/embed"])
def test_endpoint_that_is_not_an_http_url_fails_without_retry(endpoint):
    emb = HttpEmbedder(HttpProviderConfig(endpoint=endpoint, request_template={"input": "{text}"}),
                       sleep=refuse_to_sleep)
    with pytest.raises(ProviderUnavailable, match="URL|port"):
        emb.embed_text("abc")


def test_import_loads_neither_requests_nor_urllib3():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    code = (
        "import sys, viewfuse, viewfuse.pipeline\n"
        "loaded = sorted({'requests', 'urllib3'} & set(sys.modules))\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
