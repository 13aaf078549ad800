"""Synthetic demo corpus generator for mock-provider runs.

Writes object manifests, point-cloud files (alternating JSON and
ascii PLY so both parsers get exercised), and the truth sidecar the
mock cloud embedder reads. Objects listed in `mismatched` get a truth
entry pointing at a different concept, so their text/cloud similarity
lands far below any reasonable gate threshold and they surface in the
flagged export.
"""

import json
from pathlib import Path

import numpy as np

from .errors import OutOfRangeArgument
from .model import VIEW_ORDER, PointCloud
from .pipeline import MOCK_TRUTH_FILENAME, stable_seed
from .providers import cloud_digest
from .providers.mock import DEFAULT_CONCEPTS

DEMO_POINTS = 200


def _write_ply(path: Path, points: np.ndarray) -> None:
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(points)}",
        "property float x",
        "property float y",
        "property float z",
        "end_header",
    ]
    lines += [f"{x:.6f} {y:.6f} {z:.6f}" for x, y, z in points]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def build_demo_corpus(
    out_dir: str | Path,
    num_objects: int = 10,
    seed: int = 0,
    mismatched: list[int] | None = None,
) -> dict:
    """Create manifests + clouds + truth sidecar under out_dir.

    `mismatched` lists object indices whose cloud truth is deliberately
    wrong. Returns a description of what was written.
    """
    if num_objects < 1:
        raise OutOfRangeArgument("num_objects must be >= 1")
    mismatched = sorted(set(mismatched or []))
    for idx in mismatched:
        if not 0 <= idx < num_objects:
            raise OutOfRangeArgument(
                f"mismatched index {idx} outside 0..{num_objects - 1}"
            )

    out_dir = Path(out_dir)
    clouds_dir = out_dir / "clouds"
    clouds_dir.mkdir(parents=True, exist_ok=True)
    truth: dict[str, str] = {}
    manifest_paths: list[str] = []
    mismatched_ids: list[str] = []

    for i in range(num_objects):
        concept = DEFAULT_CONCEPTS[i % len(DEFAULT_CONCEPTS)]
        object_id = f"obj_{i:03d}"
        rng = np.random.default_rng(stable_seed("demo-cloud", seed, object_id))
        points = np.round(rng.normal(0.0, 1.0, size=(DEMO_POINTS, 3)), 6)

        # clouds live under a subdirectory so the corpus scan, which
        # treats every top-level *.json as a manifest, never sees them
        if i % 2 == 0:
            cloud_name = f"clouds/{object_id}.json"
            (out_dir / cloud_name).write_text(
                json.dumps([[float(x), float(y), float(z)] for x, y, z in points])
                + "\n",
                encoding="utf-8",
            )
        else:
            cloud_name = f"clouds/{object_id}.ply"
            _write_ply(out_dir / cloud_name, points)

        digest = cloud_digest(PointCloud(points))
        if i in mismatched:
            # point the truth at the next concept over: cosine between
            # distinct concept anchors is near zero, far below the gate
            truth[digest] = DEFAULT_CONCEPTS[(i + 1) % len(DEFAULT_CONCEPTS)]
            mismatched_ids.append(object_id)
        else:
            truth[digest] = concept

        manifest = {
            "object_id": object_id,
            "views": {
                vp.value: f"{concept}__{object_id}__{vp.value}.png"
                for vp in VIEW_ORDER
            },
            "point_cloud": cloud_name,
            "metadata": {"concept": concept, "index": i},
        }
        manifest_path = out_dir / f"{object_id}.json"
        manifest_path.write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        manifest_paths.append(str(manifest_path))

    (out_dir / MOCK_TRUTH_FILENAME).write_text(
        json.dumps(truth, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return {
        "corpus_dir": str(out_dir),
        "objects": num_objects,
        "manifests": manifest_paths,
        "mismatched_object_ids": mismatched_ids,
        "truth_file": str(out_dir / MOCK_TRUTH_FILENAME),
    }
