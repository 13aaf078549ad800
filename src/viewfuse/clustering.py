"""Density clustering of near-duplicate descriptions.

Candidates embed into a shared vector space; DBSCAN over cosine
distance (1 - cosine similarity) groups paraphrases, and the highest
scoring member of each cluster becomes its canonical representative.
Noise points are kept as their own singletons rather than dropped, so
a unique-but-correct description always survives deduplication.
"""

import numpy as np

from .model import EmbeddingVector

# Cluster id assigned to points that are not density-reachable from any core.
NOISE = -1


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine of two vectors of one dimension."""
    va, vb = a.values, b.values
    na, nb = float(np.linalg.norm(va)), float(np.linalg.norm(vb))
    return float(np.dot(va, vb) / (na * nb))


def _cosine_distance_matrix(embeddings: list[EmbeddingVector]) -> np.ndarray:
    mat = np.stack([e.values for e in embeddings])
    norms = np.linalg.norm(mat, axis=1)
    unit = mat / norms[:, None]
    sim = unit @ unit.T
    # numeric noise can push self-similarity past 1
    np.clip(sim, -1.0, 1.0, out=sim)
    return 1.0 - sim


def dbscan_cluster(
    embeddings: list[EmbeddingVector], eps: float, min_pts: int
) -> list[int]:
    """Classic DBSCAN over cosine distance: each embedding's cluster id, or NOISE.

    A point's neighborhood includes itself; only core points (at least
    min_pts neighbors) expand. Seeds are taken in ascending index order
    so the labeling is deterministic: cluster ids increase with the
    index of their first core point, and a border point reachable from
    several clusters joins the earliest one. It takes one or more
    embeddings of one dimension, `eps` > 0 and `min_pts` >= 1, as
    PipelineConfig holds them.
    """
    n = len(embeddings)
    dist = _cosine_distance_matrix(embeddings)
    neighbors = [np.flatnonzero(dist[i] <= eps) for i in range(n)]
    is_core = [len(neighbors[i]) >= min_pts for i in range(n)]

    labels = [None] * n  # None = unvisited, NOISE or id once decided
    cluster_id = 0
    for seed in range(n):
        if labels[seed] is not None:
            continue
        if not is_core[seed]:
            labels[seed] = NOISE  # may be reclaimed later as a border point
            continue
        labels[seed] = cluster_id
        queue = list(neighbors[seed])
        qi = 0
        while qi < len(queue):
            p = int(queue[qi])
            qi += 1
            if labels[p] == NOISE:
                labels[p] = cluster_id  # border point reclaimed
            if labels[p] is not None and labels[p] != cluster_id:
                continue
            if labels[p] is None:
                labels[p] = cluster_id
            if is_core[p]:
                for q in neighbors[p]:
                    q = int(q)
                    if labels[q] is None or labels[q] == NOISE:
                        queue.append(q)
        cluster_id += 1

    return labels


def select_canonical(labels: list[int], scores: list[float]) -> tuple[int, ...]:
    """The indices of the argmax-by-score representative of each cluster
    and of each noise point, ascending.

    Ties break toward the lowest candidate index; `scores` is parallel
    to `labels`.
    """
    best: dict[int, int] = {}  # cluster_id -> candidate index
    reps: list[int] = []
    for i, label in enumerate(labels):
        if label == NOISE:
            reps.append(i)
            continue
        cur = best.get(label)
        if cur is None or scores[i] > scores[cur]:
            best[label] = i
    reps.extend(best.values())
    return tuple(sorted(reps))
