"""Domain types and manifest ingestion.

An object enters the engine as a manifest: an id, six view-image
references, a point-cloud reference, and free-form metadata. Point
clouds load from ascii PLY or a flat JSON array of [x, y, z] triples
and are downsampled to a configurable budget. The one JSON reader,
atomic writer, canonical encoder and seed function every module uses
live here too.
"""

import enum
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import EmptyPointCloud, MissingViewpoint, ParseError, ZeroNormVector

DEFAULT_POINT_BUDGET = 10_000
# leads the key of every record made for a manifest that was not
# accepted, and no accepted object_id, so the two can never collide
FAILURE_KEY_PREFIX = "@"
# write_atomic's temp name is "<name>.<TEMP_TOKEN_BYTES as hex>.tmp"
TEMP_TOKEN_BYTES = 8
# an id names the record file <id>.json, and the temp name of that file
# must fit in the 255 bytes most file systems allow for one name
MAX_OBJECT_ID_BYTES = 255 - len(".json") - len(f".{'00' * TEMP_TOKEN_BYTES}.tmp")


def stable_seed(*parts) -> int:
    """Platform-stable integer seed from string parts.

    A lone surrogate that a file name which is not UTF-8 decodes to is
    encoded back to its byte; every other string encodes as UTF-8.
    """
    joined = "\x1f".join(str(p) for p in parts).encode("utf-8", "surrogateescape")
    return int.from_bytes(hashlib.sha256(joined).digest()[:8], "big")


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """The one inner product: numpy's pairwise add.reduce sums in the same
    order on every CPU, where a BLAS product takes its kernel's order."""
    return float(np.add.reduce(a * b))


def canonical_json(doc) -> str:
    """One line with sorted keys and no whitespace.

    json.dumps, not json.dump: only a one-shot encode without indent
    takes stdlib's C encoder.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def write_atomic(path: Path, text: str) -> None:
    """Write `text` to `path` as UTF-8 through a temp file and a rename.

    Each call writes a temp name of its own, so two writers of one path
    are safe, and a reader never sees a partial file. The file gets the
    mode the umask gives. A failed write or rename removes the temp file
    and raises the error it failed with.
    """
    tmp = path.with_name(f"{path.name}.{os.urandom(TEMP_TOKEN_BYTES).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_bytes(path: Path, what: str) -> bytes:
    """The contents of `path`; ParseError naming `what` when it cannot be read."""
    try:
        return path.read_bytes()
    except OSError as e:
        raise ParseError(f"cannot read {what}: {e.strerror or e}") from None


def parse_json(data: bytes, what: str):
    """The JSON document `data` holds.

    Raises ParseError naming `what`, with the byte offset of the fault,
    when `data` is not UTF-8 or not valid JSON.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{what} is not UTF-8: {e.reason}", offset=e.start) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        offset = len(text[: e.pos].encode("utf-8"))
        raise ParseError(f"{what} is not valid JSON: {e.msg}", offset=offset) from None
    except ValueError as e:  # an integer literal longer than int() takes
        raise ParseError(f"{what} holds a number that cannot be read: {e}") from None
    except RecursionError:
        raise ParseError(f"{what} is nested too deeply") from None


class Viewpoint(enum.Enum):
    """The six standardized camera directions."""

    FRONT = "front"
    BACK = "back"
    LEFT = "left"
    RIGHT = "right"
    TOP = "top"
    BOTTOM = "bottom"

    @classmethod
    def from_string(cls, name: str) -> "Viewpoint":
        try:
            return cls(name)
        except ValueError:
            raise ParseError(f"unknown viewpoint {name!r}") from None


# Canonical ordering for serialization and tie-breaks.
VIEW_ORDER: tuple[Viewpoint, ...] = (
    Viewpoint.FRONT,
    Viewpoint.BACK,
    Viewpoint.LEFT,
    Viewpoint.RIGHT,
    Viewpoint.TOP,
    Viewpoint.BOTTOM,
)

SIDE_VIEWS: tuple[Viewpoint, ...] = (
    Viewpoint.LEFT,
    Viewpoint.RIGHT,
    Viewpoint.TOP,
    Viewpoint.BOTTOM,
)


class PointCloud:
    """Immutable set of (x, y, z) points in model units."""

    def __init__(self, points):
        arr = np.asarray(points, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ParseError(f"points must have shape (N, 3), got {arr.shape}")
        if arr.shape[0] == 0:
            raise EmptyPointCloud("point cloud has no points")
        if not np.all(np.isfinite(arr)):
            raise ParseError("point cloud contains non-finite coordinates")
        arr.setflags(write=False)
        self.points = arr

    @property
    def count(self) -> int:
        return int(self.points.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointCloud):
            return NotImplemented
        return np.array_equal(self.points, other.points)

    def __repr__(self) -> str:
        return f"PointCloud(count={self.count})"

    def digest_payload(self) -> bytes:
        """Stable byte serialization of coordinates rounded to 6 decimals.

        Rounding keeps the digest identical across platforms that
        format floats differently at the last ulp.
        """
        rounded = np.round(self.points, 6)
        # normalize -0.0 so the text form is unique
        rounded = rounded + 0.0
        template = "\n".join(["%.6f,%.6f,%.6f"] * rounded.shape[0])
        return (template % tuple(rounded.ravel().tolist())).encode("utf-8")


@dataclass(frozen=True, eq=False)
class EmbeddingVector:
    """Fixed-length real vector from an embedding provider: `values`, a
    read-only float64 copy of the array-like it is built from, and its
    `norm`, which the stages divide by; its square is a finite normal float."""

    values: np.ndarray
    norm: float = field(init=False, repr=False)

    def __post_init__(self):
        try:
            arr = np.array(self.values, dtype=np.float64)
        except (TypeError, ValueError) as e:
            raise ParseError(f"embedding is not a real vector: {e}") from None
        if arr.ndim != 1 or arr.size == 0:
            raise ParseError(f"embedding must be a non-empty 1-D vector, got shape {arr.shape}")
        with np.errstate(over="ignore"):  # an overflow is rejected just below
            squared_norm = dot(arr, arr)
        if not math.isfinite(squared_norm):
            raise ParseError("embedding has a non-finite component or its norm overflows")
        if squared_norm < np.finfo(np.float64).tiny:
            raise ZeroNormVector("an embedding of zero or subnormal norm has no direction to compare")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "norm", math.sqrt(squared_norm))

    @property
    def dim(self) -> int:
        return self.values.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingVector):
            return NotImplemented
        return np.array_equal(self.values, other.values)


@dataclass(frozen=True)
class CandidateDescription:
    """One generated description of one view.

    token_logprobs are natural-log probabilities, one per generated
    token, and raw_confidence their mean absolute value; when a provider
    could not supply logprobs the tuple is empty and raw_confidence
    carries the fallback providers.resolve_candidates documents.
    """

    text: str
    token_logprobs: tuple[float, ...]
    raw_confidence: float


@dataclass
class ObjectManifest:
    """A validated object ready for annotation."""

    object_id: str
    view_images: dict[Viewpoint, str]
    point_cloud: PointCloud
    metadata: dict = field(default_factory=dict)


def _parse_ply(data: bytes) -> np.ndarray:
    """Parse an ascii PLY file into an (N, 3) array of x, y, z.

    The vertex rows are read in one numpy call. Each row must carry
    its x, y and z fields as ASCII decimal floats; other vertex
    properties and the rows after the vertex element are not read.
    """
    # each byte that is not UTF-8 decodes to one lone surrogate and
    # encodes back to itself, so _line_offset counts the file's own bytes
    text = data.decode("utf-8", errors="surrogateescape")
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ParseError("not a PLY file (missing 'ply' magic)", offset=0)

    vertex_count = None
    props: list[str] = []
    in_vertex_element = False
    body_start = None
    for i, line in enumerate(lines[1:], start=1):
        stripped = line.strip()
        if stripped.startswith("format"):
            if "ascii" not in stripped:
                raise ParseError(
                    f"unsupported PLY format: {stripped!r}", offset=_line_offset(text, i)
                )
        elif stripped.startswith("element"):
            parts = stripped.split()
            in_vertex_element = len(parts) == 3 and parts[1] == "vertex"
            if in_vertex_element:
                try:
                    vertex_count = int(parts[2])
                    if vertex_count < 0:
                        raise ValueError
                except ValueError:
                    raise ParseError(
                        f"bad vertex count: {stripped!r}", offset=_line_offset(text, i)
                    ) from None
        elif stripped.startswith("property") and in_vertex_element:
            props.append(stripped.split()[-1])
        elif stripped == "end_header":
            body_start = i + 1
            break
    if body_start is None or vertex_count is None:
        raise ParseError(
            "PLY header missing end_header or vertex element",
            offset=_line_offset(text, body_start or len(lines)),
        )

    try:
        cols = (props.index("x"), props.index("y"), props.index("z"))
    except ValueError:
        raise ParseError(
            "PLY vertex element lacks x/y/z properties", offset=_line_offset(text, body_start)
        ) from None
    if vertex_count == 0:
        raise EmptyPointCloud("point cloud has no points")

    body = lines[body_start : body_start + vertex_count]
    # A truncated body, or one whose first row is blank, goes straight
    # to the row walk: loadtxt would only warn that it found no data.
    if len(body) == vertex_count and body[0].strip():
        try:
            points = np.loadtxt(body, comments=None, usecols=cols, ndmin=2)
        except ValueError:
            pass
        else:
            # loadtxt skips blank rows, so a blank row shows as a short read
            if points.shape == (vertex_count, 3):
                return points
    _raise_bad_ply_body(text, body_start, body, vertex_count, cols)


def _line_offset(text: str, index: int) -> int:
    """Byte offset of line `index` of `text`, each line counted with its
    own ending (one byte for LF, two for CRLF)."""
    lines = text.splitlines(keepends=True)[:index]
    return sum(len(line.encode("utf-8", "surrogateescape")) for line in lines)


def _is_ply_float(token: str) -> bool:
    """Whether numpy's text parser reads `token` as a float.

    That is Python's float() grammar without the digit-group
    underscores and non-ASCII digits only float() accepts.
    """
    if not token.isascii() or "_" in token:
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


def _raise_bad_ply_body(
    text: str, body_start: int, body: list[str], vertex_count: int, cols: tuple[int, int, int]
) -> NoReturn:
    """Raise the ParseError for the first vertex row that cannot be read.

    `body` is the lines of `text` from line `body_start` on.
    """
    for i, line in enumerate(body):
        fields = line.split()
        if len(fields) <= max(cols) or not all(_is_ply_float(fields[c]) for c in cols):
            raise ParseError(
                f"bad PLY vertex row: {line!r}", offset=_line_offset(text, body_start + i)
            )
    end = _line_offset(text, body_start + len(body))
    if len(body) < vertex_count:
        raise ParseError(
            f"PLY body truncated: expected {vertex_count} vertices, got {len(body)}",
            offset=end,
        )
    raise ParseError("PLY vertex rows could not be read", offset=end)  # linecov: not run in-process (no known input reaches it)


def is_json_number(value) -> bool:
    """Whether a parsed JSON value is a number a float can hold; true and
    false are not, nor is an integer beyond the largest finite float."""
    if isinstance(value, float):
        return True
    return isinstance(value, int) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def is_json_number_list(value) -> bool:
    """Whether a parsed JSON value is a list of JSON numbers, maybe empty.

    Python's JSON parser makes numbers exactly int or float (true and
    false are bool), so the element types are compared as a set,
    without a Python call per element; only a list that holds an int
    checks each element's range.
    """
    if not isinstance(value, list):
        return False
    types = set(map(type, value))
    return types <= {int, float} and (int not in types or all(map(is_json_number, value)))


def is_json_vector(value) -> bool:
    """Whether a parsed JSON value is a non-empty list of JSON numbers."""
    return is_json_number_list(value) and bool(value)


def encodes_as_utf8(value) -> bool:
    """Whether every string in a parsed JSON value can be encoded as
    UTF-8; one holding a lone surrogate (a JSON "\\ud800") cannot, so
    no record or cache entry could hold it."""
    try:
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def load_point_cloud(path: str | Path) -> PointCloud:
    """Load a cloud from ascii PLY or a flat JSON [[x, y, z], ...] array of numbers."""
    path = Path(path)
    data = read_bytes(path, f"point cloud {path.name}")
    if path.suffix.lower() == ".ply" or data[:4] == b"ply\n" or data[:5] == b"ply\r\n":
        return PointCloud(_parse_ply(data))
    parsed = parse_json(data, "point cloud")
    if not isinstance(parsed, list):
        raise ParseError("JSON point cloud must be an array of [x, y, z] triples")
    if len(parsed) == 0:
        raise EmptyPointCloud("point cloud has no points")
    for i, row in enumerate(parsed):
        if not (isinstance(row, list) and len(row) == 3 and all(map(is_json_number, row))):
            raise ParseError(f"JSON point cloud row {i} is not three numbers")
    return PointCloud(parsed)


def downsample(cloud: PointCloud, budget: int, seed: int) -> PointCloud:
    """Uniformly subsample to at most `budget` points, order-preserving."""
    if cloud.count <= budget:
        return cloud
    rng = np.random.default_rng(seed)
    idx = rng.choice(cloud.count, size=budget, replace=False)
    idx.sort()
    return PointCloud(cloud.points[idx])


def ingest_manifest(
    path: str | Path, point_budget: int = DEFAULT_POINT_BUDGET, seed: int = 0
) -> ObjectManifest:
    """Parse, validate, and load one object manifest.

    Relative point-cloud paths resolve against the manifest's directory.
    A file that cannot be read, decoded or re-encoded raises ParseError.
    """
    try:
        return _ingest_manifest(Path(path), point_budget, seed)
    except RecursionError:
        raise ParseError("manifest is nested too deeply") from None


def _ingest_manifest(path: Path, point_budget: int, seed: int) -> ObjectManifest:
    doc = parse_json(read_bytes(path, "manifest"), "manifest")
    if not isinstance(doc, dict):
        raise ParseError("manifest root must be a JSON object")

    allowed = {"object_id", "views", "point_cloud", "metadata"}
    unknown = set(doc) - allowed
    if unknown:
        raise ParseError(f"manifest has unknown keys: {sorted(unknown)}")

    object_id = doc.get("object_id")
    if not isinstance(object_id, str) or not object_id:
        raise ParseError("object_id must be a non-empty string")
    # the id names the record file, so it must stay one plain file name;
    # an absolute path always holds a separator
    if object_id in (".", "..") or any(c in object_id for c in "/\\\0"):
        raise ParseError(f"object_id {object_id!r} is not a plain file name")
    try:
        id_bytes = len(object_id.encode("utf-8"))
    except UnicodeEncodeError:
        raise ParseError(f"object_id {object_id!r} cannot be encoded as UTF-8") from None
    if id_bytes > MAX_OBJECT_ID_BYTES:
        raise ParseError(f"object_id is {id_bytes} bytes long, over {MAX_OBJECT_ID_BYTES}")
    if object_id.startswith(FAILURE_KEY_PREFIX):
        raise ParseError(
            f"object_id {object_id!r} starts with {FAILURE_KEY_PREFIX!r}, "
            "which is reserved for failure records"
        )
    for key in ("views", "point_cloud", "metadata"):
        if not encodes_as_utf8(doc.get(key)):
            raise ParseError(f"{key} holds a string that cannot be encoded as UTF-8")

    views_doc = doc.get("views")
    if not isinstance(views_doc, dict):
        raise ParseError("views must be an object mapping viewpoint to image reference")
    missing = [vp.value for vp in VIEW_ORDER if vp.value not in views_doc]
    if missing:
        raise MissingViewpoint(missing)
    unknown_views = set(views_doc) - {vp.value for vp in VIEW_ORDER}
    if unknown_views:
        raise ParseError(f"views has unknown keys: {sorted(unknown_views)}")
    view_images = {}
    for vp in VIEW_ORDER:
        ref = views_doc[vp.value]
        if not isinstance(ref, str) or not ref:
            raise ParseError(f"view {vp.value!r} reference must be a non-empty string")
        view_images[vp] = ref

    cloud_ref = doc.get("point_cloud")
    if not isinstance(cloud_ref, str) or not cloud_ref:
        raise ParseError("point_cloud must be a non-empty path string")
    cloud_path = Path(cloud_ref)
    if not cloud_path.is_absolute():
        cloud_path = path.parent / cloud_path
    cloud = downsample(load_point_cloud(cloud_path), point_budget, seed)

    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError("metadata must be an object")
    try:  # json.loads reads NaN, Infinity and 1e400, which a record cannot hold
        json.dumps(metadata, allow_nan=False)
    except ValueError:
        raise ParseError("metadata holds NaN or Infinity, which JSON cannot hold") from None

    return ObjectManifest(
        object_id=object_id,
        view_images=view_images,
        point_cloud=cloud,
        metadata=metadata,
    )

