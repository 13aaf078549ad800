"""Seeded corpora for the benchmark workloads.

Demo corpora come from the program's own `build_demo_corpus`
(200-point clouds). `build_dense` writes 100k-point ascii PLY clouds,
which `demo-corpus` cannot, and keys `mock_truth.json` on the digest
of each cloud *after* the loader's downsampling, computed with the
public `downsample`,
`stable_seed` and `cloud_digest`. The coordinates are parsed back from
the written text with `float`, independently of the program's PLY
parser, so a parser that reads different values shows up as flags.
"""

import json
import random
from pathlib import Path

import numpy as np

from viewfuse.model import VIEW_ORDER, PointCloud, downsample
from viewfuse.pipeline import MOCK_TRUTH_FILENAME, stable_seed
from viewfuse.providers import cloud_digest
from viewfuse.providers.mock import DEFAULT_CONCEPTS


def mismatched_indices(seed: int, objects: int, count: int) -> list[int]:
    """Which objects get a wrong cloud truth, drawn from the workload seed."""
    return sorted(random.Random(f"mismatched:{seed}").sample(range(objects), count))


def build_dense(
    out_dir: Path,
    seed: int,
    objects: int,
    mismatched: list[int],
    points: int,
    point_budget: int,
) -> None:
    """Corpus of `points`-point PLY clouds whose `mismatched` objects get a wrong truth."""
    clouds_dir = out_dir / "clouds"
    clouds_dir.mkdir(parents=True, exist_ok=True)
    truth: dict[str, str] = {}
    for i in range(objects):
        concept = DEFAULT_CONCEPTS[i % len(DEFAULT_CONCEPTS)]
        object_id = f"obj_{i:03d}"
        rng = np.random.default_rng(stable_seed("dense-cloud", seed, object_id))
        rows = [f"{x:.6f} {y:.6f} {z:.6f}" for x, y, z in rng.normal(size=(points, 3)).tolist()]
        header = ["ply", "format ascii 1.0", f"element vertex {points}",
                  "property float x", "property float y", "property float z", "end_header"]
        (clouds_dir / f"{object_id}.ply").write_text(
            "\n".join(header + rows) + "\n", encoding="utf-8"
        )

        parsed = np.array([float(t) for t in " ".join(rows).split()]).reshape(-1, 3)
        # the manifest's file stem is what the loader seeds downsampling with
        sampled = downsample(
            PointCloud(parsed), point_budget, stable_seed("downsample", seed, object_id)
        )
        # a mismatched object's truth names the next concept over
        truth_concept = DEFAULT_CONCEPTS[(i + 1) % len(DEFAULT_CONCEPTS)] if i in mismatched else concept
        truth[cloud_digest(sampled)] = truth_concept

        manifest = {
            "object_id": object_id,
            "views": {vp.value: f"{concept}__{object_id}__{vp.value}.png" for vp in VIEW_ORDER},
            "point_cloud": f"clouds/{object_id}.ply",
            "metadata": {"concept": concept, "index": i},
        }
        (out_dir / f"{object_id}.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    (out_dir / MOCK_TRUTH_FILENAME).write_text(
        json.dumps(truth, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
