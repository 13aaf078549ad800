import hashlib
import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import viewfuse.model as model
from viewfuse.errors import EmptyPointCloud, MissingViewpoint, ParseError, ZeroNormVector
from viewfuse.model import (
    VIEW_ORDER,
    EmbeddingVector,
    PointCloud,
    Viewpoint,
    downsample,
    ingest_manifest,
    load_point_cloud,
)
from viewfuse.providers import cloud_digest

PLY_SIMPLE = """ply
format ascii 1.0
comment generated fixture
element vertex 3
property float x
property float y
property float z
end_header
0.0 0.0 0.0
1.0 2.0 3.0
-1.5 0.5 2.25
"""


def test_viewpoint_from_string():
    assert Viewpoint.from_string("front") is Viewpoint.FRONT
    assert Viewpoint.from_string("bottom") is Viewpoint.BOTTOM


def test_viewpoint_unknown_rejected():
    with pytest.raises(ParseError):
        Viewpoint.from_string("side")


def test_view_order_covers_all_six():
    assert len(VIEW_ORDER) == 6
    assert set(VIEW_ORDER) == set(Viewpoint)


def test_point_cloud_shape_validation():
    with pytest.raises(ParseError):
        PointCloud([[1.0, 2.0]])
    with pytest.raises(EmptyPointCloud):
        PointCloud(np.zeros((0, 3)))
    with pytest.raises(ParseError):
        PointCloud([[1.0, 2.0, np.nan]])


def test_point_cloud_is_immutable():
    cloud = PointCloud([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 9.0


def test_point_cloud_equality_and_repr():
    cloud = PointCloud([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    assert cloud == PointCloud([[1, 2, 3], [0, 0, 0]])
    assert cloud != PointCloud([[1.0, 2.0, 3.0]])
    assert cloud.__eq__(cloud.points.tolist()) is NotImplemented
    assert (cloud == cloud.points.tolist()) is False
    assert repr(cloud) == "PointCloud(count=2)"


def test_embedding_vector_holds_a_read_only_float64_copy():
    source = np.array([1.0, 2.0, 3.0])
    vec = EmbeddingVector(source)
    source[0] = 9.0
    assert vec.values.dtype == np.float64
    assert vec.values.tolist() == [1.0, 2.0, 3.0]
    assert vec.dim == 3
    with pytest.raises(ValueError):
        vec.values[0] = 0.0
    assert vec == EmbeddingVector([1, 2, 3])
    assert vec != EmbeddingVector([1.0, 2.0])
    assert vec.__eq__([1.0, 2.0, 3.0]) is NotImplemented
    assert (vec == [1.0, 2.0, 3.0]) is False


@pytest.mark.parametrize(
    "values",
    [[], 1.0, [[1.0, 2.0]], [[1.0], [1.0, 2.0]], [1.0, np.nan], [np.inf], [None], ["a"], {"a": 1},
     # finite, but the squared norm the stages divide by overflows to inf
     [1e200, 1e200]],
)
def test_embedding_vector_rejects_what_is_not_a_finite_vector(values):
    with pytest.raises(ParseError):
        EmbeddingVector(values)


def test_embedding_vector_zero_rejected():
    # a zero vector has no cosine with anything, so it never enters a stage;
    # nor does one whose squared norm underflows to zero or a subnormal
    for values in ([0.0, -0.0], [1e-200, 1e-200], [1e-160, 1e-160]):
        with pytest.raises(ZeroNormVector):
            EmbeddingVector(values)


def test_write_atomic_raises_the_replace_error_when_the_clean_up_fails_too(tmp_path, monkeypatch):
    def failing(what):
        def fail(*args):
            raise OSError(f"{what} failed")

        return fail

    monkeypatch.setattr(model.os, "replace", failing("replace"))
    monkeypatch.setattr(model.os, "unlink", failing("unlink"))
    with pytest.raises(OSError, match="replace failed"):
        model.write_atomic(tmp_path / "out.json", "{}")
    monkeypatch.undo()
    [left] = tmp_path.iterdir()  # the temp file the clean-up could not remove
    assert left.name.startswith("out.json.") and left.read_text() == "{}"


def test_ply_parse(tmp_path):
    p = tmp_path / "cloud.ply"
    p.write_text(PLY_SIMPLE)
    cloud = load_point_cloud(p)
    assert cloud.count == 3
    assert cloud.points[1].tolist() == [1.0, 2.0, 3.0]


def test_ply_detected_by_magic_without_extension(tmp_path):
    p = tmp_path / "cloud.dat"
    p.write_text(PLY_SIMPLE)
    assert load_point_cloud(p).count == 3


def test_ply_property_order_respected(tmp_path):
    # z before x: columns must follow the declared property order
    content = PLY_SIMPLE.replace(
        "property float x\nproperty float y\nproperty float z",
        "property float z\nproperty float y\nproperty float x",
    )
    p = tmp_path / "cloud.ply"
    p.write_text(content)
    cloud = load_point_cloud(p)
    assert cloud.points[1].tolist() == [3.0, 2.0, 1.0]


def test_ply_binary_format_rejected(tmp_path):
    p = tmp_path / "cloud.ply"
    p.write_text(PLY_SIMPLE.replace("format ascii 1.0", "format binary_little_endian 1.0"))
    with pytest.raises(ParseError) as err:
        load_point_cloud(p)
    assert "format" in str(err.value)


def test_ply_truncated_body_reports_offset(tmp_path):
    p = tmp_path / "cloud.ply"
    p.write_text(PLY_SIMPLE.replace("element vertex 3", "element vertex 5"))
    with pytest.raises(ParseError) as err:
        load_point_cloud(p)
    assert "truncated" in str(err.value)
    assert err.value.offset is not None


def test_ply_zero_vertices_is_empty_cloud_without_warning(tmp_path):
    p = tmp_path / "cloud.ply"
    p.write_text(PLY_SIMPLE.replace("element vertex 3", "element vertex 0"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptyPointCloud):
            load_point_cloud(p)


def test_ply_negative_vertex_count_rejected(tmp_path):
    p = tmp_path / "cloud.ply"
    p.write_text(PLY_SIMPLE.replace("element vertex 3", "element vertex -2"))
    with pytest.raises(ParseError, match="bad vertex count"):
        load_point_cloud(p)


# Message and byte offset the per-row parser has always given. The body
# starts at byte 126, its second row at 138, and the three rows end at 164.
@pytest.mark.parametrize(
    "old, new, message, offset",
    [
        ("1.0 2.0 3.0", "1.0 2.0", "bad PLY vertex row: '1.0 2.0'", 138),
        ("1.0 2.0 3.0", "1.0 abc 3.0", "bad PLY vertex row: '1.0 abc 3.0'", 138),
        ("1.0 2.0 3.0\n", "\n1.0 2.0 3.0\n", "bad PLY vertex row: ''", 138),
        ("element vertex 3", "element vertex 5",
         "PLY body truncated: expected 5 vertices, got 3", 164),
        ("0.0 0.0 0.0\n1.0 2.0 3.0\n-1.5 0.5 2.25\n", "",
         "PLY body truncated: expected 3 vertices, got 0", 126),
        ("0.0 0.0 0.0\n1.0 2.0 3.0\n-1.5 0.5 2.25\n", "\n \n\t\n",
         "bad PLY vertex row: ''", 126),
        ("ply\n", "plx\n", "not a PLY file (missing 'ply' magic)", 0),
        ("end_header", "end_headr", "PLY header missing end_header or vertex element", 163),
    ],
    ids=["short-row", "non-numeric", "blank-row", "truncated", "no-body", "blank-body", "no-magic",
         "no-end-header"],
)
def test_ply_body_error_message_and_offset(tmp_path, old, new, message, offset):
    p = tmp_path / "cloud.ply"
    p.write_text(PLY_SIMPLE.replace(old, new))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError) as err:
            load_point_cloud(p)
    assert str(err.value) == message
    assert err.value.offset == offset


# The CRLF fixture is PLY_SIMPLE with two bytes per line ending: its
# body starts at byte 134 (line 9) and its rows end at byte 175.
@pytest.mark.parametrize(
    "old, new, message, offset",
    [
        ("0.0 0.0 0.0", "0.0 0.0", "bad PLY vertex row: '0.0 0.0'", 134),
        ("1.0 2.0 3.0", "1.0 abc 3.0", "bad PLY vertex row: '1.0 abc 3.0'", 147),
        ("element vertex 3", "element vertex 5",
         "PLY body truncated: expected 5 vertices, got 3", 175),
        ("element vertex 3", "element vertex x", "bad vertex count: 'element vertex x'", 50),
    ],
    ids=["bad-9th-line", "bad-10th-line", "truncated", "bad-count"],
)
def test_ply_crlf_error_offsets_count_both_bytes(tmp_path, old, new, message, offset):
    data = PLY_SIMPLE.replace(old, new).replace("\n", "\r\n").encode("ascii")
    p = tmp_path / "cloud.ply"
    p.write_bytes(data)
    with pytest.raises(ParseError) as err:
        load_point_cloud(p)
    assert str(err.value) == message
    assert err.value.offset == offset
    row = message.split(": ", 1)[1].strip("'")
    if row in new:
        assert data.index(row.encode("ascii")) == offset


def test_ply_offset_counts_the_bytes_of_a_non_utf8_comment(tmp_path):
    text = PLY_SIMPLE.replace("generated fixture", "caf\xe9").replace("1.0 2.0 3.0", "1 x 2")
    data = text.encode("latin-1")
    p = tmp_path / "cloud.ply"
    p.write_bytes(data)
    with pytest.raises(ParseError, match="^bad PLY vertex row: '1 x 2'$") as err:
        load_point_cloud(p)
    assert err.value.offset == data.index(b"1 x 2")


@pytest.mark.parametrize("token", ["1_0", "\u0663", "0x1p3", "nan(1)"])
def test_ply_token_outside_ascii_float_grammar_rejected(tmp_path, token):
    p = tmp_path / "cloud.ply"
    p.write_text(PLY_SIMPLE.replace("1.0 2.0 3.0", f"1.0 {token} 3.0"), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_point_cloud(p)
    assert str(err.value) == f"bad PLY vertex row: {f'1.0 {token} 3.0'!r}"
    assert err.value.offset == 138


_ply_coord = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6, allow_nan=False).map(lambda v: f"{v:.6f}"),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17E}"),
    st.sampled_from(["-0", "-0.0", "+0", "0.", ".5", "-.5e-3", "1e+5", "1E-7", "+3", "-4.9e-324"]),
)


@st.composite
def ascii_ply(draw):
    """(file bytes, expected (N, 3) array from a per-field float() read)."""
    extra = draw(st.lists(
        st.sampled_from(["nx", "ny", "nz", "red", "green", "blue", "intensity"]),
        unique=True, max_size=4,
    ))
    names = draw(st.permutations(["x", "y", "z", *extra]))
    rows = draw(st.lists(
        st.lists(_ply_coord, min_size=len(names), max_size=len(names)), min_size=1, max_size=12,
    ))
    sep = draw(st.sampled_from([" ", "  ", "\t"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    faces = draw(st.integers(0, 3))
    header = ["ply", "format ascii 1.0", f"element vertex {len(rows)}"]
    header += [f"property float {name}" for name in names]
    if faces:
        header += [f"element face {faces}", "property list uchar int vertex_indices"]
    header.append("end_header")
    body = [sep.join(row) for row in rows] + ["3 0 0 0"] * faces
    expected = np.array(
        [[float(row[names.index(axis)]) for axis in "xyz"] for row in rows], dtype=np.float64
    )
    return (newline.join(header + body) + newline).encode("ascii"), expected


@pytest.fixture(scope="module")
def ply_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ply") / "cloud.ply"


@settings(max_examples=200, deadline=None)
@given(ascii_ply())
def test_ply_parse_equals_per_field_float_reference(ply_path, case):
    data, expected = case
    ply_path.write_bytes(data)
    cloud = load_point_cloud(ply_path)
    assert cloud.points.shape == expected.shape
    assert cloud.points.tobytes() == expected.tobytes()


def test_ply_missing_xyz_rejected(tmp_path):
    p = tmp_path / "cloud.ply"
    p.write_text(PLY_SIMPLE.replace("property float z", "property float intensity"))
    with pytest.raises(ParseError):
        load_point_cloud(p)


def test_json_cloud_parse(tmp_path):
    p = tmp_path / "cloud.json"
    p.write_text(json.dumps([[0, 0, 0], [1, 2, 3]]))
    assert load_point_cloud(p).count == 2


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2, 3], [1, 2]],
        [[1, 2, "x"]],
        [[1, 2, "3"], [True, False, " 4e0 "]],
        [[1, 2, True]],
        [[1, 2, None]],
        [[1, 2, [3]]],
        [[1, 2, 3, 4]],
        [[1, 2, 3], 4],
        [{"x": 1, "y": 2, "z": 3}],
        [[1, 2, 3], [1, 2, 10**400]],
        [[-(10**400), 2, 3]],
    ],
)
def test_json_cloud_rows_must_be_three_numbers(tmp_path, rows):
    p = tmp_path / "cloud.json"
    p.write_text(json.dumps(rows))
    with pytest.raises(ParseError, match="is not three numbers"):
        load_point_cloud(p)


def test_json_cloud_takes_integers_up_to_the_largest_float(tmp_path):
    p = tmp_path / "cloud.json"
    p.write_text(json.dumps([[int(sys.float_info.max), -int(sys.float_info.max), 0]]))
    assert load_point_cloud(p).points[0, :2].tolist() == [sys.float_info.max, -sys.float_info.max]


def test_json_cloud_with_an_integer_too_long_to_read_is_a_parse_error(tmp_path):
    p = tmp_path / "cloud.json"
    p.write_text("[[1" + "0" * 5000 + ", 2, 3]]")
    with pytest.raises(ParseError, match="^point cloud holds a number that cannot be read"):
        load_point_cloud(p)


def test_json_cloud_that_is_not_an_array_rejected(tmp_path):
    p = tmp_path / "cloud.json"
    p.write_text(json.dumps({"points": [[0, 0, 0]]}))
    with pytest.raises(ParseError, match="must be an array of"):
        load_point_cloud(p)


def test_json_cloud_empty_rejected(tmp_path):
    p = tmp_path / "cloud.json"
    p.write_text("[]")
    with pytest.raises(EmptyPointCloud):
        load_point_cloud(p)


def test_garbage_cloud_rejected(tmp_path):
    p = tmp_path / "cloud.json"
    p.write_text("not a cloud")
    with pytest.raises(ParseError):
        load_point_cloud(p)


def test_missing_cloud_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="^cannot read point cloud nope.ply: No such file"):
        load_point_cloud(tmp_path / "nope.ply")


def test_cloud_path_that_is_a_directory_is_a_parse_error(tmp_path):
    (tmp_path / "cloud.json").mkdir()
    with pytest.raises(ParseError, match="^cannot read point cloud cloud.json: Is a directory"):
        load_point_cloud(tmp_path / "cloud.json")


def test_non_utf8_json_cloud_is_a_parse_error_at_the_bad_byte(tmp_path):
    p = tmp_path / "cloud.json"
    raw = b"[[1, 2, 3], [4, 5, \xff]]"
    p.write_bytes(raw)
    with pytest.raises(ParseError, match="^point cloud is not UTF-8") as err:
        load_point_cloud(p)
    assert err.value.offset == raw.index(b"\xff")


def test_downsample_under_budget_is_identity():
    cloud = PointCloud(np.arange(30.0).reshape(10, 3))
    assert downsample(cloud, 10, seed=1) is cloud
    assert downsample(cloud, 50, seed=1) is cloud


def test_downsample_exact_budget_order_preserving():
    rng = np.random.default_rng(7)
    cloud = PointCloud(rng.normal(size=(100, 3)))
    small = downsample(cloud, 25, seed=3)
    assert small.count == 25
    rows = {tuple(r) for r in cloud.points}
    assert all(tuple(r) in rows for r in small.points)
    # order-preserving: selected rows appear in original order
    idx = [int(np.flatnonzero((cloud.points == r).all(axis=1))[0]) for r in small.points]
    assert idx == sorted(idx)


def test_downsample_deterministic_per_seed():
    cloud = PointCloud(np.random.default_rng(0).normal(size=(60, 3)))
    a = downsample(cloud, 20, seed=5)
    b = downsample(cloud, 20, seed=5)
    c = downsample(cloud, 20, seed=6)
    assert a == b
    assert a != c


def test_digest_payload_stable_and_sign_normalized():
    a = PointCloud([[0.1234564, 1.0, -0.0]])
    b = PointCloud([[0.1234557, 1.0, 0.0]])  # rounds to the same 6 decimals
    assert a.digest_payload() == b.digest_payload()


def _fstring_digest_payload(points) -> bytes:
    """The per-row construction digest_payload must keep matching."""
    rounded = np.round(np.asarray(points, dtype=np.float64), 6) + 0.0
    return "\n".join(f"{x:.6f},{y:.6f},{z:.6f}" for x, y, z in rounded).encode("utf-8")


@pytest.mark.parametrize("scale", [1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6])
def test_digest_payload_matches_fstring_reference(scale):
    points = np.random.default_rng(7).normal(size=(500, 3)) * scale
    assert PointCloud(points).digest_payload() == _fstring_digest_payload(points)


def test_digest_payload_edge_values_match_fstring_reference():
    edges = [-0.0, 4e-7, -4e-7, 5e-7, -5e-7, 2.675, 1e9, -1e9, 0.0, 1.0000005, -2.5e-6, 123.4565]
    points = np.array(edges).reshape(-1, 3)
    assert PointCloud(points).digest_payload() == _fstring_digest_payload(points)
    single = [[-0.0, 5e-7, 2.675]]
    assert PointCloud(single).digest_payload() == _fstring_digest_payload(single)


def test_cloud_digest_pinned():
    # keys mock_truth.json entries and embed_cloud cache files
    cloud = PointCloud(np.random.default_rng(1234).normal(size=(1000, 3)))
    assert cloud_digest(cloud) == hashlib.sha256(_fstring_digest_payload(cloud.points)).hexdigest()
    assert cloud_digest(cloud) == "cd850781335321b2553ac240ec0c7ada1b7eaa13e339b73f100779d816e859e9"


def _write_manifest(tmp_path, views=None, **overrides):
    cloud_file = tmp_path / "cloud.json"
    cloud_file.write_text(json.dumps([[0, 0, 0], [1, 1, 1]]))
    doc = {
        "object_id": "obj_1",
        "views": views
        if views is not None
        else {vp.value: f"img_{vp.value}.png" for vp in VIEW_ORDER},
        "point_cloud": "cloud.json",
        "metadata": {"source": "test"},
    }
    doc.update(overrides)
    path = tmp_path / "obj_1.json"
    path.write_text(json.dumps(doc))
    return path


def test_ingest_manifest_happy_path(tmp_path):
    manifest = ingest_manifest(_write_manifest(tmp_path))
    assert manifest.object_id == "obj_1"
    assert manifest.view_images[Viewpoint.TOP] == "img_top.png"
    assert manifest.point_cloud.count == 2
    assert manifest.metadata == {"source": "test"}


@pytest.mark.parametrize(
    "object_id", ["../escape", "a/b", "a\\b", "nul\x00id", ".", "..", "/abs/obj", "C:\\obj"]
)
def test_ingest_manifest_rejects_unsafe_object_id(tmp_path, object_id):
    path = _write_manifest(tmp_path, object_id=object_id)
    with pytest.raises(ParseError, match="not a plain file name"):
        ingest_manifest(path)


SIX_VIEWS = {vp.value: f"img_{vp.value}.png" for vp in VIEW_ORDER}


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"object_id": ""}, "object_id must be a non-empty string"),
        ({"object_id": 7}, "object_id must be a non-empty string"),
        ({"views": ["img_front.png"]}, "views must be an object mapping viewpoint to image reference"),
        ({"views": {**SIX_VIEWS, "side": "x.png"}}, r"views has unknown keys: \['side'\]"),
        ({"views": {**SIX_VIEWS, "top": ""}}, "view 'top' reference must be a non-empty string"),
        ({"views": {**SIX_VIEWS, "top": 3}}, "view 'top' reference must be a non-empty string"),
        ({"point_cloud": ""}, "point_cloud must be a non-empty path string"),
        ({"metadata": ["source"]}, "metadata must be an object"),
    ],
    ids=["empty-id", "number-id", "views-list", "unknown-view", "empty-view-ref", "number-view-ref",
         "empty-cloud-path", "metadata-list"],
)
def test_ingest_manifest_rejects_a_malformed_field(tmp_path, overrides, message):
    with pytest.raises(ParseError, match=f"^{message}$"):
        ingest_manifest(_write_manifest(tmp_path, **overrides))


def test_ingest_manifest_turns_a_re_encode_that_overflows_into_a_parse_error(tmp_path, monkeypatch):
    # json.dumps recurses once per level, as json.loads does; run from a
    # deeper frame than the parse, it can overflow on a value that parsed
    def overflow(value):
        raise RecursionError("maximum recursion depth exceeded while encoding a JSON object")

    monkeypatch.setattr(model, "encodes_as_utf8", overflow)
    with pytest.raises(ParseError, match="^manifest is nested too deeply$"):
        ingest_manifest(_write_manifest(tmp_path))


def test_json_nested_past_the_recursion_limit_is_a_parse_error(tmp_path):
    deep = "[" * 100_000 + "]" * 100_000
    cloud = tmp_path / "deep.json"
    cloud.write_text(deep)
    with pytest.raises(ParseError, match="^point cloud is nested too deeply$"):
        load_point_cloud(cloud)
    manifest = tmp_path / "obj_1.json"
    manifest.write_text(f'{{"metadata": {deep}}}')
    with pytest.raises(ParseError, match="^manifest is nested too deeply$"):
        ingest_manifest(manifest)


def test_ingest_manifest_accepts_dotted_object_id(tmp_path):
    manifest = ingest_manifest(_write_manifest(tmp_path, object_id="obj.v2..final"))
    assert manifest.object_id == "obj.v2..final"


def test_ingest_manifest_missing_views_listed(tmp_path):
    views = {vp.value: "x.png" for vp in VIEW_ORDER if vp not in (Viewpoint.BACK, Viewpoint.TOP)}
    path = _write_manifest(tmp_path, views=views)
    with pytest.raises(MissingViewpoint) as err:
        ingest_manifest(path)
    assert "back" in str(err.value) and "top" in str(err.value)


def test_ingest_manifest_unknown_keys_rejected(tmp_path):
    path = _write_manifest(tmp_path, extra_field=1)
    with pytest.raises(ParseError) as err:
        ingest_manifest(path)
    assert "extra_field" in str(err.value)


def test_ingest_manifest_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        ingest_manifest(path)


def test_ingest_manifest_relative_cloud_path(tmp_path):
    sub = tmp_path / "nested"
    sub.mkdir()
    path = _write_manifest(sub)
    # manifest refs resolve against the manifest's own directory
    manifest = ingest_manifest(path)
    assert manifest.point_cloud.count == 2


def test_ingest_manifest_applies_point_budget(tmp_path):
    cloud_file = tmp_path / "cloud.json"
    pts = np.random.default_rng(1).normal(size=(500, 3))
    cloud_file.write_text(json.dumps(pts.tolist()))
    doc = {
        "object_id": "obj_2",
        "views": {vp.value: "i.png" for vp in VIEW_ORDER},
        "point_cloud": "cloud.json",
    }
    path = tmp_path / "obj_2.json"
    path.write_text(json.dumps(doc))
    manifest = ingest_manifest(path, point_budget=100, seed=9)
    assert manifest.point_cloud.count == 100


def test_non_utf8_manifest_is_a_parse_error_at_the_bad_byte(tmp_path):
    path = _write_manifest(tmp_path)
    raw = path.read_bytes().replace(b'"obj_1"', b'"obj_\xe9"')
    path.write_bytes(raw)
    with pytest.raises(ParseError, match="^manifest is not UTF-8") as err:
        ingest_manifest(path)
    assert err.value.offset == raw.index(b"\xe9")


def test_invalid_json_manifest_offset_counts_bytes(tmp_path):
    path = tmp_path / "obj_1.json"
    raw = '{"object_id": "café", "views": {,}}'.encode("utf-8")
    path.write_bytes(raw)
    with pytest.raises(ParseError, match="^manifest is not valid JSON") as err:
        ingest_manifest(path)
    assert err.value.offset == raw.index(b"{,") + 1 == 33


@pytest.mark.parametrize("make", [lambda p: None, lambda p: p.mkdir()], ids=["missing", "directory"])
def test_unreadable_manifest_is_a_parse_error(tmp_path, make):
    path = tmp_path / "obj_1.json"
    make(path)
    with pytest.raises(ParseError, match="^cannot read manifest: "):
        ingest_manifest(path)
