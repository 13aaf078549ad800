import threading
import time

import pytest
import requests

from viewfuse.errors import (
    DimensionContractViolation,
    MalformedProviderResponse,
    ProviderUnavailable,
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


def test_generator_non_numeric_logprobs_rejected():
    doc = {"choices": [{"text": "a", "logprobs": ["high", "low"]}]}
    gen = HttpCandidateGenerator(GEN_CONFIG, session=FakeSession(FakeResponse(doc)), sleep=lambda s: None)
    with pytest.raises(MalformedProviderResponse):
        gen.generate_candidates(Viewpoint.FRONT, "i.png", GenerationConfig(num_candidates=1))


def test_transport_errors_retry_with_backoff():
    slept = []
    session = FakeSession(
        requests.ConnectionError("down"),
        requests.Timeout("slow"),
        gen_response(["ok"]),
    )
    gen = HttpCandidateGenerator(GEN_CONFIG, session=session, sleep=slept.append)
    cands = gen.generate_candidates(Viewpoint.FRONT, "i.png", GenerationConfig(num_candidates=1))
    assert [c.text for c in cands] == ["ok"]
    assert slept == [1.0, 2.0]
    assert len(session.requests) == 3


def test_transport_errors_exhaust_attempts():
    session = FakeSession(
        requests.ConnectionError("a"),
        requests.ConnectionError("b"),
        requests.ConnectionError("c"),
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


def test_embedder_dimension_contract():
    session = FakeSession(emb_response([0.1, 0.2]), emb_response([0.1, 0.2, 0.3]))
    emb = HttpEmbedder(EMB_CONFIG, session=session, sleep=lambda s: None)
    emb.embed_text("first call fixes the dim")
    with pytest.raises(DimensionContractViolation):
        emb.embed_text("second must match")


@pytest.mark.parametrize("entry", [None, "abc", [0.2], "0.5", True])
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
    assert [cands[0].view for cands in out] == views


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
        {"text 2": emb_response([]), "text 9": requests.ConnectionError("down")},
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


def test_batch_reports_the_first_wrong_dimension_in_input_order():
    dims = {t: 3 for t in TEXTS}
    dims["text 4"] = 2
    dims["text 11"] = 5
    session = KeyedSession(
        {t: emb_response([0.5] * d) for t, d in dims.items()},
        delay=lambda key: 0.02 if key == "text 4" else 0.0,
    )
    emb = HttpEmbedder(EMB_CONFIG, session=session, sleep=lambda s: None)
    with pytest.raises(DimensionContractViolation, match="dim 2 != contracted 3"):
        emb.embed_texts(TEXTS)


def test_default_session_pools_one_connection_per_fanout_slot():
    emb = HttpEmbedder(EMB_CONFIG)
    for url in ("http://127.0.0.1/embed", EMB_CONFIG.endpoint):
        assert emb.session.get_adapter(url)._pool_maxsize == FANOUT_WIDTH
