"""Density clustering of near-duplicate descriptions.

Candidates embed into a shared vector space; DBSCAN over cosine
distance (1 - cosine similarity) groups paraphrases, and the highest
scoring member of each cluster becomes its canonical representative.
Noise points are kept as their own singletons rather than dropped, so
a unique-but-correct description always survives deduplication.
"""

from .model import EmbeddingVector, dot

# Cluster id assigned to points that are not density-reachable from any core.
NOISE = -1


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine of two vectors of one dimension; symmetric bit for bit."""
    return dot(a.values, b.values) / (a.norm * b.norm)


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
    # a cosine a few ulp below -1 counts as -1, so no distance exceeds 2
    neighbors = [
        [j for j, b in enumerate(embeddings) if 1.0 - max(cosine_similarity(a, b), -1.0) <= eps]
        for a in embeddings
    ]
    is_core = [len(nb) >= min_pts for nb in neighbors]

    labels = [NOISE] * n
    cluster_id = 0
    for seed in range(n):
        if labels[seed] != NOISE or not is_core[seed]:
            continue
        # claim every unclaimed point reachable from the seed; only cores expand
        labels[seed] = cluster_id
        stack = [seed]
        while stack:
            for q in neighbors[stack.pop()]:
                if labels[q] == NOISE:
                    labels[q] = cluster_id
                    if is_core[q]:
                        stack.append(q)
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
