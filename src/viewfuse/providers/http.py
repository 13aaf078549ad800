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
error statuses, redirects included, and a TLS certificate that fails
verification fail at once.

Requests go out over stdlib http.client: one kept-alive connection per
thread and per (scheme, host, port), so each fan-out slot reuses its
own connection.
"""

import base64
import concurrent.futures
import contextlib
import http.client
import json
import logging
import math
import os
import re
import ssl
import threading
import time
import urllib.parse
import urllib.request
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

from ..errors import ConfigError, MalformedProviderResponse, ProviderUnavailable
from ..model import EmbeddingVector, PointCloud, Viewpoint
from . import CandidateGenerator, CloudEmbedder, GenerationConfig, ImageEmbedder, TextEmbedder
from . import resolve_candidates, vector_from_json

logger = logging.getLogger(__name__)

MAX_ATTEMPTS = 3
BACKOFF_SECONDS = 1.0
# longest wait a Retry-After header can ask for between two attempts
RETRY_AFTER_CAP_SECONDS = 30.0
# requests of one batch in flight at once, across every adapter in the
# process; each fan-out thread keeps its own connection per host
FANOUT_WIDTH = 8
_FANOUT = concurrent.futures.ThreadPoolExecutor(
    max_workers=FANOUT_WIDTH, thread_name_prefix="viewfuse-http"
)
# below the 6 connections Linux queues at Python's default listen backlog of 5
OPENING_LIMIT = 4

_PLACEHOLDER = re.compile(r"^\{(\w+)\}$")
# an HTTP header name (an RFC 9110 token), and a header value that
# http.client sends as is: Latin-1 with no line break
_HEADER_NAME = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+")
_HEADER_VALUE = re.compile(r"[^\r\n\u0100-\U0010ffff]*")


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

    def __post_init__(self):
        """Reject, before any request, a value every request would fail on."""
        if not 0.0 < self.timeout < math.inf:
            raise ConfigError(f"timeout must be finite and > 0, got {self.timeout!r}")
        try:
            _json_body(self.request_template)
        except ValueError as e:
            raise ConfigError(f"request_template must be valid JSON: {e}") from None
        if not _HEADER_NAME.fullmatch(self.auth_header):
            raise ConfigError(f"auth_header must be an HTTP header name, got {self.auth_header!r}")
        if not _HEADER_VALUE.fullmatch(self.auth_scheme):
            raise ConfigError(
                f"auth_scheme must be Latin-1 without line breaks, got {self.auth_scheme!r}"
            )
        for name, value in self.extra_headers.items():
            if not (
                _HEADER_NAME.fullmatch(name)
                and isinstance(value, str)
                and _HEADER_VALUE.fullmatch(value)
            ):
                raise ConfigError(
                    "extra_headers must be header names mapped to Latin-1 strings "
                    f"without line breaks, got {name!r}: {value!r}"
                )
        for name in ("texts_path", "logprobs_path", "embedding_path"):
            path = getattr(self, name)
            if path is None:
                continue
            try:
                _tokenize_path(path)
            except MalformedProviderResponse as e:
                raise ConfigError(f"{name} must be a response path: {e}") from None
        self.api_key()

    def api_key(self) -> str:
        """The key `api_key_env` holds, "" when it is unset.

        ConfigError, naming the variable and never the key, when no
        header could carry the key: it is not Latin-1 or holds a line break.
        """
        try:
            key = os.environ.get(self.api_key_env, "")
        except UnicodeEncodeError:  # a lone surrogate, which no variable name holds
            key = None
        if key is None or not _HEADER_VALUE.fullmatch(key):
            raise ConfigError(
                "api_key_env must be a variable that holds a Latin-1 key without "
                f"line breaks, got {self.api_key_env!r}"
            )
        return key


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


@dataclass(frozen=True)
class _Route:
    """How the requests to one URL are sent."""

    # (scheme, host, port) of the URL: each thread keeps one connection per key
    key: tuple[str, str, int]
    # where the connection goes: the URL's host, or the proxy
    host: str
    port: int
    # the request line's target: the path, or the whole URL through a plain HTTP proxy
    target: str
    # sent with every request: the credentials of a plain HTTP proxy
    headers: dict = field(default_factory=dict)
    # (host, port, headers) of the CONNECT tunnel to an HTTPS host behind a proxy
    tunnel: tuple[str, int, dict] | None = None


@dataclass(frozen=True)
class _Reply:
    status_code: int
    headers: http.client.HTTPMessage
    body: bytes

    def json(self) -> Any:
        return json.loads(self.body)


class KeepAliveSession:
    """POSTs JSON over stdlib http.client.

    Each thread keeps one connection alive per (scheme, host, port), so
    the fan-out threads never share a connection and need no lock. A
    request on a new connection waits while OPENING_LIMIT others wait
    for their first reply: the kernel drops the SYN of a connection
    beyond a server's full listen queue, and it retries only after 1 s.
    Proxies are read from the environment once, when the session is
    made: `http_proxy` and `https_proxy` name a plain HTTP proxy, HTTPS
    reaches its host through a CONNECT tunnel, and `no_proxy` lists the
    hosts reached directly. TLS is verified with
    ssl.create_default_context(). Redirects are returned, not followed.
    """

    def __init__(self):
        self._proxies = urllib.request.getproxies()
        self._routes: dict[str, _Route] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: list[http.client.HTTPConnection] = []
        self._tls: ssl.SSLContext | None = None
        self._opening = threading.BoundedSemaphore(OPENING_LIMIT)

    def post(self, url: str, json=None, headers=None, timeout=None) -> _Reply:
        """Send `json` as the body, as json.dumps(allow_nan=False) in UTF-8.

        A kept-alive connection that fails before the status line
        arrives (the server closed it while it was idle) is reopened
        and the request sent again at once, a single time.
        """
        route = self._routes.get(url) or self._route(url)
        body = _json_body(json)
        if route.headers:
            headers = {**route.headers, **(headers or {})}
        conn = self._connection(route)
        if conn.timeout != timeout:
            conn.timeout = timeout
            if conn.sock is not None:
                conn.sock.settimeout(timeout)
        with self._opening if conn.sock is None else contextlib.nullcontext():
            for fresh in (conn.sock is None, True):
                try:
                    conn.request("POST", route.target, body, headers or {})
                    response = conn.getresponse()
                    break
                except BaseException as e:
                    conn.close()
                    if fresh or not isinstance(e, ConnectionError):
                        raise
        try:
            data = response.read()
        except BaseException:
            conn.close()
            raise
        return _Reply(response.status, response.headers, data)

    def close(self) -> None:
        """Close every connection the session opened, in every thread."""
        with self._lock:
            for conn in self._connections:
                conn.close()

    def _route(self, url: str) -> _Route:
        parts = urllib.parse.urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ProviderUnavailable(f"{url!r} is not an http:// or https:// URL")
        try:
            port = parts.port or (443 if parts.scheme == "https" else 80)
        except ValueError as e:
            raise ProviderUnavailable(f"{url!r} has a bad port: {e}") from None
        key = (parts.scheme, parts.hostname, port)
        path = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
        proxy = self._proxies.get(parts.scheme)
        if not proxy or urllib.request.proxy_bypass_environment(
            f"{parts.hostname}:{port}", self._proxies
        ):
            route = _Route(key, parts.hostname, port, path)
        else:
            proxy = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            auth = {}
            if proxy.username is not None:
                user = urllib.parse.unquote(proxy.username)
                password = urllib.parse.unquote(proxy.password or "")
                token = base64.b64encode(f"{user}:{password}".encode()).decode("ascii")
                auth["Proxy-Authorization"] = f"Basic {token}"
            at = (key, proxy.hostname, proxy.port or 80)
            if parts.scheme == "https":
                route = _Route(*at, path, tunnel=(parts.hostname, port, auth))
            else:
                route = _Route(*at, urllib.parse.urlunsplit(parts._replace(fragment="")), auth)
        self._routes[url] = route
        return route

    def _connection(self, route: _Route) -> http.client.HTTPConnection:
        conns = getattr(self._local, "conns", None)
        if conns is None:
            conns = self._local.conns = {}
        conn = conns.get(route.key)
        if conn is None:
            if route.key[0] == "https":
                if self._tls is None:
                    self._tls = ssl.create_default_context()
                conn = http.client.HTTPSConnection(route.host, route.port, context=self._tls)
            else:
                conn = http.client.HTTPConnection(route.host, route.port)
            if route.tunnel is not None:
                conn.set_tunnel(*route.tunnel)
            conns[route.key] = conn
            with self._lock:
                self._connections.append(conn)
        return conn


def _json_body(doc) -> bytes:
    return json.dumps(doc, allow_nan=False).encode("utf-8")


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
        self.session = session if session is not None else KeepAliveSession()
        self.sleep = sleep
        self.model_id = config.model or config.endpoint

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json", **self.config.extra_headers}
        key = self.config.api_key()
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
            except ssl.SSLCertVerificationError as e:
                raise ProviderUnavailable(f"{self.config.endpoint}: {e}") from e
            except (OSError, http.client.HTTPException) as e:
                last_error = e
                retry_after = None
                continue
            status = response.status_code
            if status == 429 or status >= 500:
                last_error = f"HTTP {status}"
                retry_after = _retry_after(response)
                continue
            if status >= 300:
                raise ProviderUnavailable(f"{self.config.endpoint} answered HTTP {status}")
            try:
                return response.json()
            except (ValueError, RecursionError) as e:  # RecursionError: nested too deeply
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


class HttpCandidateGenerator(_HttpBase, CandidateGenerator):
    """Generation endpoint adapter; each reply decodes through resolve_candidates."""

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
        return [self._candidates(doc, cfg) for doc in self._post_many(bodies)]

    def _candidates(self, doc: dict, cfg: GenerationConfig) -> list:
        texts = extract_path(doc, self.config.texts_path)
        logprobs = None
        if self.config.logprobs_path is not None:
            logprobs = extract_path_lenient(doc, self.config.logprobs_path)
        # absent, for every choice or per choice, is fine (the confidence
        # fallback); a present-but-wrong-shape answer is a contract violation
        if logprobs is None or isinstance(logprobs, list) and all(x is None for x in logprobs):
            logprobs = [None] * cfg.num_candidates
        return resolve_candidates(texts, logprobs, cfg.num_candidates)


class HttpEmbedder(_HttpBase, TextEmbedder, ImageEmbedder, CloudEmbedder):
    """Embedding endpoint adapter shared by the three embedding roles."""

    def _embed_many(self, values: list[dict]) -> list[EmbeddingVector]:
        bodies = [substitute_template(self.config.request_template, v) for v in values]
        return [
            vector_from_json(extract_path(doc, self.config.embedding_path))
            for doc in self._post_many(bodies)
        ]

    def embed_texts(self, texts: list[str]) -> list[EmbeddingVector]:
        return self._embed_many([{"text": t} for t in texts])

    def embed_images(self, image_refs: list[str]) -> list[EmbeddingVector]:
        return self._embed_many([{"image": r} for r in image_refs])

    def embed_cloud(self, cloud: PointCloud) -> EmbeddingVector:
        return self._embed_many([{"cloud": cloud.points.tolist()}])[0]
