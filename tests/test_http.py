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
    HttpCandidateGenerator,
    HttpEmbedder,
    HttpProviderConfig,
    extract_path,
    substitute_template,
)


class FakeResponse:
    def __init__(self, doc=None, status=200, body="not json"):
        self.status_code = status
        self._doc = doc
        self.text = body

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
    session = FakeSession(FakeResponse(status=500), gen_response(["never reached"]))
    gen = HttpCandidateGenerator(GEN_CONFIG, session=session, sleep=lambda s: None)
    with pytest.raises(ProviderUnavailable):
        gen.generate_candidates(Viewpoint.FRONT, "i.png", GenerationConfig(num_candidates=1))
    assert len(session.requests) == 1  # server errors are not transport errors


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
