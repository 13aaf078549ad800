"""On-disk JSON cache for provider responses, in append-only segments.

Each entry is one line, `<32 hex digits>\t<payload JSON>\n`, appended
to this process's segment of its kind,
<cache_dir>/<kind>/<creation time_ns>-<pid>-<16 hex>.seg, with one
`write` under a lock. The payload is written with sorted keys and no
whitespace. The first use of a kind indexes its directory once: every
whole line of every segment, in name order (creation order) so that a
later line wins, and every per-entry <32 hex digits>.json file that an
earlier version wrote, which any segment line of its name supersedes.
A hit is one positioned read, and a miss touches no file. A torn last
line, or a line without its tab, is not indexed, so it is a miss. A hit
served from a per-entry file is appended once to the segment in the
current format, so an old cache converts itself as it is read.
A damaged entry, unreadable or not decodable to the cached type, is a
logged miss: the backing provider is invoked again and the entry
appended anew. A batch call keeps one entry per item: its hits are read
one by one, and only its misses go to the backing provider, in one
batch call.
"""

import base64
import binascii
import errno
import hashlib
import logging
import os
import threading
import time
import weakref
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..errors import CacheDirUnwritable, MalformedProviderResponse
from ..model import CandidateDescription, EmbeddingVector, PointCloud, Viewpoint
from ..model import canonical_json, parse_json
from . import CandidateGenerator, CloudEmbedder, GenerationConfig, ImageEmbedder, TextEmbedder
from . import ProviderSet, cloud_digest, resolve_candidates, vector_from_json

logger = logging.getLogger(__name__)

SEGMENT_SUFFIX = ".seg"
NAME_DIGITS = 32  # hex digits of an entry name, before the tab of its line
SCAN_CHUNK_BYTES = 1 << 16  # a segment is indexed this many bytes at a time
NOT_INDEXED = -1  # no entry of that name; a location is never negative


def _locate(number: int, offset: int, length: int) -> int:
    """One int for where an entry's payload lives: the number of its
    segment in the low 24 bits, its length in the next 32, its offset
    above them. A dict of 16-byte keys to these ints holds an entry in
    about 130 bytes."""
    return (offset << 32 | length) << 24 | number


def _key(name: str | bytes) -> bytes | None:
    """The 16 bytes a 32-hex-digit entry name stands for; None for any other name."""
    if len(name) != NAME_DIGITS:
        return None
    try:
        return binascii.unhexlify(name)
    except ValueError:  # binascii.Error, or a str that is not ASCII
        return None


def _close_all(fds: dict[int, int]) -> None:
    for fd in fds.values():
        os.close(fd)
    fds.clear()


class ResponseCache:
    """Append-only store of provider responses, one entry per logical call."""

    def __init__(self, cache_dir: str | Path):
        self.cache_dir = Path(cache_dir)
        self.hits = 0
        self.misses = 0
        # worker threads share the counters, the index and the segments
        self._lock = threading.Lock()
        # per kind: entry digest -> _locate() of a segment line, or None for a per-entry file
        self._index: dict[str, dict[bytes, int | None]] = {}
        self._segments: list[Path] = []  # every segment indexed or written, by number
        self._fds: dict[int, int] = {}  # open descriptors, by segment number
        self._writers: dict[str, int] = {}  # kind -> number of the segment this process appends to
        self._ends: dict[int, int] = {}  # bytes written so far, by segment number
        self._read_only: set[str] = set()  # kinds whose per-entry hits could not be copied forward
        weakref.finalize(self, _close_all, self._fds)

    def path(self, kind: str, model_id: str, key: dict) -> Path:
        """The address of one call of `kind` to `model_id` with request
        content `key`: <cache_dir>/<kind>/<entry name>.json, the file an
        earlier version kept the entry in. Identical calls map to one
        name, so hits survive restarts."""
        digest = hashlib.sha256(f"{kind}\n{model_id}\n{canonical_json(key)}".encode("utf-8"))
        return self.cache_dir / kind / f"{digest.hexdigest()[:NAME_DIGITS]}.json"

    def load(self, path: Path) -> dict:
        """The payload stored at `path`; FileNotFoundError when there is none,
        OSError, ParseError or ValueError when the entry is damaged."""
        location = self._entries(path.parent.name).get(bytes.fromhex(path.stem), NOT_INDEXED)
        if location == NOT_INDEXED:
            raise FileNotFoundError(errno.ENOENT, "no cache entry", str(path))
        data = path.read_bytes() if location is None else self._read(location)
        payload = parse_json(data, "cache entry")
        if not isinstance(payload, dict):
            raise ValueError("cache entry is not an object")
        return payload

    def store(self, path: Path, payload: dict) -> None:
        """Append `payload` as the entry at `path` to this process's segment of its kind."""
        kind = path.parent.name
        line = f"{path.stem}\t{canonical_json(payload)}\n".encode("utf-8")
        try:
            entries = self._entries(kind)
            with self._lock:
                number = self._writers.get(kind)
                if number is None:
                    number = self._writers[kind] = self._create_segment(path.parent)
                offset = self._ends[number]
                written = os.write(self._fds[number], line)
                self._ends[number] = offset + written
                if written != len(line):
                    del self._writers[kind]  # the next line goes to a new segment, not onto the torn one
                    raise OSError(errno.ENOSPC, f"wrote {written} of {len(line)} bytes")
                entries[bytes.fromhex(path.stem)] = _locate(
                    number, offset + NAME_DIGITS + 1, len(line) - NAME_DIGITS - 2
                )
        except OSError as e:
            raise CacheDirUnwritable(f"cannot write cache entry {path}: {e}") from e

    def close(self) -> None:
        """Close every segment; a later call opens what it needs again, in a new segment."""
        with self._lock:
            _close_all(self._fds)
            self._writers.clear()

    def _entries(self, kind: str) -> dict[bytes, int | None]:
        """The index of `kind`, built at its first use."""
        entries = self._index.get(kind)
        if entries is None:
            with self._lock:
                entries = self._index.get(kind)
                if entries is None:
                    entries = self._index[kind] = self._scan(self.cache_dir / kind)
        return entries

    def _scan(self, kind_dir: Path) -> dict[bytes, int | None]:
        entries: dict[bytes, int | None] = {}
        try:
            names = sorted(e.name for e in os.scandir(kind_dir))
        except FileNotFoundError:
            return entries
        except OSError as e:
            logger.warning("cannot list cache directory %s; its entries are misses: %s", kind_dir, e)
            return entries
        for name in names:
            stem, _, suffix = name.rpartition(".")
            if suffix == "json" and (key := _key(stem)) is not None:
                entries.setdefault(key, None)  # a segment line of the name wins, before or after
            elif suffix == SEGMENT_SUFFIX[1:]:
                self._segments.append(kind_dir / name)
                try:
                    self._scan_segment(entries, len(self._segments) - 1)
                except OSError as e:  # lines indexed before the error stay; a read of one fails as a miss
                    logger.warning("cannot read cache segment %s; its entries are misses: %s", kind_dir / name, e)
        return entries

    def _scan_segment(self, entries: dict[bytes, int | None], number: int) -> None:
        """Index each whole line of segment `number`, a later line of a name
        winning; split on b"\\n" alone, since a payload may hold U+2028."""
        path = self._segments[number]
        with open(path, "rb") as f:
            base = 0  # file offset of buf[0]
            buf = b""
            while chunk := f.read(SCAN_CHUNK_BYTES):
                buf += chunk
                start = 0
                while (end := buf.find(b"\n", start)) != -1:
                    tab = start + NAME_DIGITS
                    key = _key(buf[start:tab]) if tab < end and buf[tab : tab + 1] == b"\t" else None
                    if key is None:
                        logger.warning("cache segment %s: the line at byte %d names no entry", path, base + start)
                    else:
                        entries[key] = _locate(number, base + tab + 1, end - tab - 1)
                    start = end + 1
                base += start
                buf = buf[start:]
        if buf:
            logger.warning("cache segment %s ends in a torn line at byte %d; its entry is a miss", path, base)

    def _create_segment(self, kind_dir: Path) -> int:
        kind_dir.mkdir(parents=True, exist_ok=True)
        path = kind_dir / f"{time.time_ns():020d}-{os.getpid()}-{os.urandom(8).hex()}{SEGMENT_SUFFIX}"
        # 0o666: the umask decides, as for any new file
        fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT | os.O_EXCL, 0o666)
        number = len(self._segments)
        self._segments.append(path)
        self._fds[number] = fd
        self._ends[number] = 0
        return number

    def _read(self, location: int) -> bytes:
        number = location & 0xFFFFFF
        fd = self._fds.get(number)
        if fd is None:
            with self._lock:
                fd = self._fds.get(number)
                if fd is None:
                    fd = self._fds[number] = os.open(self._segments[number], os.O_RDONLY)
        return os.pread(fd, location >> 24 & 0xFFFFFFFF, location >> 56)

    def fetch_many(
        self,
        kind: str,
        model_id: str,
        keys: list[dict],
        invoke_many: Callable[[list[int]], list],
        encode: Callable[[Any], dict],
        decode: Callable[[dict], Any],
    ) -> list:
        """Decoded payloads of the calls `keys` describe, in order.

        Hits are read here, one at a time; a damaged entry is a logged
        miss, and a hit from a per-entry file is appended to the segment
        as `encode` gives it. The misses, given as their positions in
        `keys`, go to `invoke_many` in one call, which returns their
        responses in the same order; each is encoded and stored as its
        own entry. A key repeated within the batch is fetched once and
        its repeats count as hits, as they would one call at a time.
        """
        paths = [self.path(kind, model_id, key) for key in keys]
        results: list = [None] * len(keys)
        misses: list[int] = []
        missing: set[str] = set()  # by file name: a str hashes far faster than a Path
        for i, path in enumerate(paths):
            if path.name in missing:
                continue
            try:
                results[i] = decode(self.load(path))
            except FileNotFoundError:
                pass
            except (OSError, KeyError, TypeError, ValueError, MalformedProviderResponse) as e:
                logger.warning("treating undecodable cache entry %s as a miss: %r", path, e)
            else:
                if self._index[kind][bytes.fromhex(path.stem)] is None:
                    self._copy_forward(path, encode(results[i]))
                continue
            missing.add(path.name)
            misses.append(i)
        with self._lock:
            self.hits += len(keys) - len(misses)
            self.misses += len(misses)
        if not misses:
            return results
        fetched = {}
        for i, response in zip(misses, invoke_many(misses), strict=True):
            payload = encode(response)
            self.store(paths[i], payload)
            fetched[paths[i].name] = payload
        return [
            decode(fetched[path.name]) if path.name in fetched else value
            for path, value in zip(paths, results)
        ]

    def _copy_forward(self, path: Path, payload: dict) -> None:
        """Append a hit from a per-entry file; a cache that only its writer
        may write to stays readable, and after one failed append the hits
        of that kind are served as they are."""
        kind = path.parent.name
        if kind in self._read_only:
            return
        try:
            self.store(path, payload)
        except CacheDirUnwritable as e:
            self._read_only.add(kind)
            logger.warning("serving per-entry hits of %s without copying them forward: %s", kind, e)

    def stats(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses}


def _candidates_to_payload(candidates: list[CandidateDescription]) -> dict:
    return {"candidates": [{"text": c.text, "token_logprobs": list(c.token_logprobs)} for c in candidates]}


def _candidates_from_payload(payload: dict, n: int) -> list[CandidateDescription]:
    docs = payload["candidates"]
    logprobs = [d["token_logprobs"] for d in docs]
    if None in logprobs:  # the cache stores [] for absent logprobs, so a null is damage
        raise ValueError("a cached candidate has null logprobs")
    return resolve_candidates([d["text"] for d in docs], [None if lp == [] else lp for lp in logprobs], n)


def _vector_to_doc(vec: EmbeddingVector) -> dict:
    # the float64 bytes, not float text: exact, and a hit decodes several times faster
    return {"f64": base64.b64encode(vec.values.astype("<f8").tobytes()).decode("ascii")}


def _vector_from_doc(doc: dict) -> EmbeddingVector:
    """The vector of an embedding entry; KeyError, TypeError or ValueError,
    which fetch_many logs as a miss, when the entry holds none."""
    if "f64" not in doc:  # format 1: {"values": [...]} as JSON numbers, kept so old caches stay warm
        return vector_from_json(doc["values"])
    return EmbeddingVector(np.frombuffer(base64.b64decode(doc["f64"], validate=True), dtype="<f8"))


class _Cached:
    def __init__(self, inner, cache: ResponseCache):
        self.inner = inner
        self.cache = cache
        self.model_id = inner.model_id


class CachedCandidateGenerator(_Cached, CandidateGenerator):
    def generate_views(
        self, items: list[tuple[Viewpoint, str]], cfg: GenerationConfig
    ) -> list[list[CandidateDescription]]:
        return self.cache.fetch_many(
            "generate_candidates",
            self.model_id,
            [
                {
                    "view": view.value,
                    "image_ref": image_ref,
                    "temperature": cfg.temperature,
                    "n": cfg.num_candidates,
                    "phase": "integration",  # in every key written, so kept for the hits
                }
                for view, image_ref in items
            ],
            lambda misses: self.inner.generate_views([items[i] for i in misses], cfg),
            _candidates_to_payload,
            lambda payload: _candidates_from_payload(payload, cfg.num_candidates),
        )


class CachedEmbedder(_Cached, TextEmbedder, ImageEmbedder, CloudEmbedder):
    """Cache in front of one embedding role; like HttpEmbedder, one class
    serves all three."""

    def _fetch_many(self, kind: str, field: str, items: list, embed_many) -> list:
        """Embeddings of `items`, each keyed as `{field: item}`; misses go to `embed_many`."""
        return self.cache.fetch_many(
            kind,
            self.model_id,
            [{field: item} for item in items],
            lambda misses: embed_many([items[i] for i in misses]),
            _vector_to_doc,
            _vector_from_doc,
        )

    def embed_texts(self, texts: list[str]) -> list[EmbeddingVector]:
        return self._fetch_many("embed_text", "text", texts, self.inner.embed_texts)

    def embed_images(self, image_refs: list[str]) -> list[EmbeddingVector]:
        return self._fetch_many("embed_image", "image_ref", image_refs, self.inner.embed_images)

    def embed_cloud(self, cloud: PointCloud) -> EmbeddingVector:
        # key by coordinate digest: stable, and keeps keys small
        return self._fetch_many(
            "embed_cloud", "digest", [cloud_digest(cloud)], lambda _: [self.inner.embed_cloud(cloud)]
        )[0]


def wrap_with_cache(providers: ProviderSet, cache: ResponseCache) -> ProviderSet:
    """Same provider set with every call routed through the cache."""
    return ProviderSet(
        generator=CachedCandidateGenerator(providers.generator, cache),
        text_embedder=CachedEmbedder(providers.text_embedder, cache),
        image_embedder=CachedEmbedder(providers.image_embedder, cache),
        cloud_embedder=CachedEmbedder(providers.cloud_embedder, cache),
    )
