"""Generic HTTP adapter for remote model endpoints.

Rather than hard-coding one vendor, each role is configured with an
endpoint, an auth header fed from an environment variable, a JSON
request template with placeholders, and response paths saying where to
find the generated texts, logprobs, or embedding in the reply.

Template placeholders: a string value that is exactly "{image}",
"{prompt}", "{temperature}", "{n}", "{text}", or "{cloud}" is replaced
by the typed value (numbers stay numbers, the cloud becomes a nested
[[x, y, z], ...] list); placeholders inside longer strings are
substituted textually.

Response paths are dotted, with [i] for list indices and [] to map
over a list: "choices[].text" collects the text field of every choice.

A batch call sends one request per item, FANOUT_WIDTH at a time, and
checks the answers in input order on the calling thread. Transport
errors, HTTP 429 and 5xx answers are retried with backoff; other
error statuses fail at once.
"""

import concurrent.futures
import logging
import os
import re
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

import requests
import requests.adapters

from ..errors import (
    DimensionContractViolation,
    MalformedProviderResponse,
    ProviderUnavailable,
)
from ..model import EmbeddingVector, PointCloud, Viewpoint, is_json_vector
from . import GenerationConfig, resolve_candidates

logger = logging.getLogger(__name__)

MAX_ATTEMPTS = 3
BACKOFF_SECONDS = 1.0
# longest wait a Retry-After header can ask for between two attempts
RETRY_AFTER_CAP_SECONDS = 30.0
# requests of one batch in flight at once, across every adapter in the
# process; each session's connection pool holds as many connections
FANOUT_WIDTH = 8
_FANOUT = concurrent.futures.ThreadPoolExecutor(
    max_workers=FANOUT_WIDTH, thread_name_prefix="viewfuse-http"
)

_PLACEHOLDER = re.compile(r"^\{(\w+)\}$")


@dataclass(frozen=True)
class HttpProviderConfig:
    endpoint: str
    request_template: dict
    model: str = ""
    api_key_env: str = "PROVIDER_API_KEY"
    auth_header: str = "Authorization"
    auth_scheme: str = "Bearer"
    timeout: float = 60.0
    # where in the response JSON to find things
    texts_path: str = "choices[].text"
    logprobs_path: str | None = "choices[].logprobs"
    embedding_path: str = "data[0].embedding"
    prompt: str = "Describe the {view} view of this object."
    extra_headers: dict = field(default_factory=dict)


def substitute_template(template: Any, values: dict[str, Any]) -> Any:
    """Fill placeholders in a JSON-shaped template."""
    if isinstance(template, dict):
        return {k: substitute_template(v, values) for k, v in template.items()}
    if isinstance(template, list):
        return [substitute_template(v, values) for v in template]
    if isinstance(template, str):
        m = _PLACEHOLDER.match(template)
        if m and m.group(1) in values:
            return values[m.group(1)]
        out = template
        for key, value in values.items():
            token = "{" + key + "}"
            if token in out:
                out = out.replace(token, str(value))
        return out
    return template


def _tokenize_path(path: str) -> list[tuple]:
    tokens: list[tuple] = []
    for part in path.split("."):
        m = re.fullmatch(r"(\w+)((?:\[\d*\])*)", part)
        if not m:
            raise MalformedProviderResponse(f"bad response path segment {part!r}")
        tokens.append(("key", m.group(1)))
        for idx in re.findall(r"\[(\d*)\]", m.group(2)):
            tokens.append(("map", None) if idx == "" else ("index", int(idx)))
    return tokens


def _walk(current: Any, tokens: list[tuple], path: str, lenient: bool = False) -> Any:
    for i, (op, arg) in enumerate(tokens):
        if op == "key":
            if not isinstance(current, dict) or arg not in current:
                if lenient:
                    return None
                raise MalformedProviderResponse(f"response lacks {arg!r} (path {path!r})")
            current = current[arg]
        elif op == "index":
            if not isinstance(current, list) or arg >= len(current):
                if lenient:
                    return None
                raise MalformedProviderResponse(
                    f"response list too short at [{arg}] (path {path!r})"
                )
            current = current[arg]
        else:  # map over a list, applying the rest of the path to each item
            if not isinstance(current, list):
                if lenient:
                    return None
                raise MalformedProviderResponse(f"expected a list for [] (path {path!r})")
            rest = tokens[i + 1 :]
            return [_walk(item, rest, path, lenient) for item in current]
    return current


def extract_path(doc: Any, path: str) -> Any:
    """Pull a value out of parsed JSON by dotted path."""
    return _walk(doc, _tokenize_path(path), path)


def extract_path_lenient(doc: Any, path: str) -> Any:
    """Like extract_path, but dead ends become None instead of errors."""
    return _walk(doc, _tokenize_path(path), path, lenient=True)


def _new_session() -> requests.Session:
    session = requests.Session()
    adapter = requests.adapters.HTTPAdapter(pool_maxsize=FANOUT_WIDTH)
    session.mount("http://", adapter)
    session.mount("https://", adapter)
    return session


def _retry_after(response) -> float | None:
    """An integer-seconds Retry-After header, capped; None when absent or
    in another form."""
    value = response.headers.get("Retry-After", "").strip()
    if not (value.isascii() and value.isdigit()):
        return None
    return min(float(value), RETRY_AFTER_CAP_SECONDS)


class _HttpBase:
    def __init__(self, config: HttpProviderConfig, session=None, sleep=time.sleep):
        self.config = config
        self.session = session if session is not None else _new_session()
        self.sleep = sleep
        self.model_id = config.model or config.endpoint

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json", **self.config.extra_headers}
        key = os.environ.get(self.config.api_key_env, "")
        if key:
            scheme = self.config.auth_scheme
            headers[self.config.auth_header] = f"{scheme} {key}".strip()
        return headers

    def _post(self, body: dict) -> dict:
        last_error = None
        retry_after = None
        for attempt in range(MAX_ATTEMPTS):
            if attempt > 0:
                delay = retry_after
                if delay is None:
                    delay = BACKOFF_SECONDS * (2 ** (attempt - 1))
                logger.info("retrying %s in %.1fs (attempt %d)", self.config.endpoint, delay, attempt + 1)
                self.sleep(delay)
            try:
                response = self.session.post(
                    self.config.endpoint,
                    json=body,
                    headers=self._headers(),
                    timeout=self.config.timeout,
                )
            except (requests.ConnectionError, requests.Timeout) as e:
                last_error = e
                retry_after = None
                continue
            status = response.status_code
            if status == 429 or status >= 500:
                last_error = f"HTTP {status}"
                retry_after = _retry_after(response)
                continue
            if status >= 400:
                raise ProviderUnavailable(f"{self.config.endpoint} answered HTTP {status}")
            try:
                return response.json()
            except ValueError as e:
                raise MalformedProviderResponse(
                    f"{self.config.endpoint} returned non-JSON body"
                ) from e
        raise ProviderUnavailable(
            f"{self.config.endpoint} failed after {MAX_ATTEMPTS} attempts: {last_error}"
        )

    def _post_many(self, bodies: list[dict]) -> Iterator[dict]:
        """The response documents of `bodies`, in input order.

        Several bodies are posted concurrently on the shared fan-out
        pool, and every post has finished before the first document is
        yielded. Callers parse each document before taking the next, so
        the first failing item in input order is the one raised,
        whether its post or its parse failed. One body is posted on the
        calling thread.
        """
        if len(bodies) == 1:
            yield self._post(bodies[0])
            return
        futures = [_FANOUT.submit(self._post, body) for body in bodies]
        concurrent.futures.wait(futures)
        for future in futures:
            yield future.result()


class HttpCandidateGenerator(_HttpBase):
    """Generation endpoint adapter; validates the candidate count."""

    def generate_candidates(
        self, view: Viewpoint, image_ref: str, cfg: GenerationConfig
    ) -> list:
        return self.generate_views([(view, image_ref)], cfg)[0]

    def generate_views(
        self, items: list[tuple[Viewpoint, str]], cfg: GenerationConfig
    ) -> list[list]:
        bodies = [
            substitute_template(
                self.config.request_template,
                {
                    "image": image_ref,
                    "prompt": self.config.prompt.replace("{view}", view.value),
                    "temperature": cfg.temperature,
                    "n": cfg.num_candidates,
                },
            )
            for view, image_ref in items
        ]
        return [
            self._candidates(view, doc, cfg)
            for (view, _), doc in zip(items, self._post_many(bodies))
        ]

    def _candidates(self, view: Viewpoint, doc: dict, cfg: GenerationConfig) -> list:
        texts = extract_path(doc, self.config.texts_path)
        if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
            raise MalformedProviderResponse(
                f"{self.config.texts_path!r} did not yield a list of strings"
            )
        if len(texts) != cfg.num_candidates:
            raise MalformedProviderResponse(
                f"expected {cfg.num_candidates} candidates, got {len(texts)}"
            )
        logprob_lists: list = [None] * len(texts)
        if self.config.logprobs_path is not None:
            # absent per choice is fine (per-candidate fallback); a
            # present-but-wrong-shape answer is a contract violation
            raw = extract_path_lenient(doc, self.config.logprobs_path)
            if raw is not None and not (
                isinstance(raw, list) and all(x is None for x in raw)
            ):
                if not isinstance(raw, list) or len(raw) != len(texts):
                    raise MalformedProviderResponse(
                        "logprobs list does not align with candidates"
                    )
                try:
                    logprob_lists = [
                        tuple(float(x) for x in lp) if lp is not None else None
                        for lp in raw
                    ]
                except (TypeError, ValueError):
                    raise MalformedProviderResponse(
                        "logprobs entries are not lists of numbers"
                    ) from None
        return resolve_candidates(view, texts, logprob_lists)


class HttpEmbedder(_HttpBase):
    """Embedding endpoint adapter shared by the three embedding roles."""

    expected_dim: int | None = None  # fixed by the first response

    def _embed_many(self, values: list[dict]) -> list[EmbeddingVector]:
        bodies = [substitute_template(self.config.request_template, v) for v in values]
        return [self._vector(doc) for doc in self._post_many(bodies)]

    def _vector(self, doc: dict) -> EmbeddingVector:
        raw = extract_path(doc, self.config.embedding_path)
        if not is_json_vector(raw):
            raise MalformedProviderResponse(
                f"{self.config.embedding_path!r} did not yield a vector of numbers"
            )
        vec = EmbeddingVector(raw)
        if self.expected_dim is None:
            self.expected_dim = vec.dim
        elif vec.dim != self.expected_dim:
            raise DimensionContractViolation(
                f"embedding dim {vec.dim} != contracted {self.expected_dim}"
            )
        return vec

    def embed_text(self, text: str) -> EmbeddingVector:
        return self.embed_texts([text])[0]

    def embed_texts(self, texts: list[str]) -> list[EmbeddingVector]:
        return self._embed_many([{"text": t} for t in texts])

    def embed_image(self, image_ref: str) -> EmbeddingVector:
        return self.embed_images([image_ref])[0]

    def embed_images(self, image_refs: list[str]) -> list[EmbeddingVector]:
        return self._embed_many([{"image": r} for r in image_refs])

    def embed_cloud(self, cloud: PointCloud) -> EmbeddingVector:
        return self._embed_many([{"cloud": cloud.points.tolist()}])[0]
