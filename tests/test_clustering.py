import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_emb
from viewfuse.clustering import (
    NOISE,
    cosine_similarity,
    dbscan_cluster,
    select_canonical,
)


def dbscan_reference(embeddings, eps, min_pts):
    """Independent oracle: explicit reachability closure.

    Core points are found from the pairwise distance matrix, directly
    connected cores are merged into components via union-find, clusters
    are numbered by their smallest core index, and each non-core point
    joins the smallest-numbered cluster of any core neighbor (or is
    noise). No shared code with the production routine beyond numpy.
    """
    vecs = np.stack([e.values for e in embeddings])
    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    dist = 1.0 - np.clip(unit @ unit.T, -1.0, 1.0)
    n = len(embeddings)
    nb = [set(np.flatnonzero(dist[i] <= eps).tolist()) for i in range(n)]
    core = [len(nb[i]) >= min_pts for i in range(n)]

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        if not core[i]:
            continue
        for j in nb[i]:
            if core[j]:
                parent[find(i)] = find(j)

    comps = {}
    for i in range(n):
        if core[i]:
            comps.setdefault(find(i), []).append(i)
    ordered = sorted(comps.values(), key=min)
    label = {}
    for cid, members in enumerate(ordered):
        for i in members:
            label[i] = cid
    out = []
    for i in range(n):
        if core[i]:
            out.append(label[i])
        else:
            candidates = [label[j] for j in nb[i] if core[j]]
            out.append(min(candidates) if candidates else NOISE)
    return out


def test_cosine_identical_and_orthogonal(mk):
    assert cosine_similarity(mk(1, 0), mk(2, 0)) == pytest.approx(1.0)
    assert cosine_similarity(mk(1, 0), mk(0, 5)) == pytest.approx(0.0)
    assert cosine_similarity(mk(1, 0), mk(-3, 0)) == pytest.approx(-1.0)


def test_dbscan_single_point_is_noise(mk):
    # alone, a point cannot reach min_pts = 2
    assert dbscan_cluster([mk(1, 0)], 0.1, 2) == [NOISE]


def test_dbscan_two_groups_and_a_stray(mk):
    embs = [
        mk(1.0, 0.0),
        mk(0.999, 0.01),   # ~same direction as 0
        mk(0.0, 1.0),
        mk(0.01, 0.999),   # ~same direction as 2
        mk(-1.0, -1.0),    # far from both groups
    ]
    labels = dbscan_cluster(embs, 0.15, 2)
    assert labels == [0, 0, 1, 1, NOISE]


def test_dbscan_all_identical_directions(mk):
    embs = [mk(2, 2), mk(1, 1), mk(4, 4)]
    assert dbscan_cluster(embs, 0.05, 2) == [0, 0, 0]


def test_dbscan_chain_merges_into_one_cluster(mk):
    # consecutive points are within eps, endpoints are not: density
    # reachability still joins the whole chain through its cores
    angles = [0.0, 0.25, 0.5, 0.75, 1.0]
    embs = [mk(np.cos(a), np.sin(a)) for a in angles]
    eps = 1.0 - np.cos(0.3)
    labels = dbscan_cluster(embs, eps, 2)
    assert labels == [0, 0, 0, 0, 0]
    assert 1.0 - np.cos(1.0) > eps  # endpoints really are not direct neighbors


def test_dbscan_matches_reference_on_handmade_fixtures(mk):
    fixtures = [
        [mk(1, 0), mk(0.99, 0.05), mk(0, 1), mk(0.05, 0.99), mk(-1, 0)],
        [mk(1, 0, 0), mk(0, 1, 0), mk(0, 0, 1)],
        [mk(1, 1), mk(1, 1.001), mk(1, 0.999), mk(-1, 1), mk(-1, 1.001)],
        [mk(1, 0)] * 6,
        [mk(3, 4), mk(6, 8), mk(-4, 3)],
    ]
    for embs in fixtures:
        for eps in (0.05, 0.15, 0.5):
            for min_pts in (1, 2, 3):
                got = dbscan_cluster(embs, eps, min_pts)
                assert got == dbscan_reference(embs, eps, min_pts), (eps, min_pts)


def test_dbscan_matches_reference_on_random_fixtures():
    rng = np.random.default_rng(1234)
    for trial in range(300):
        n = int(rng.integers(1, 9))
        dim = int(rng.integers(2, 5))
        base = rng.normal(size=(n, dim))
        # duplicate some rows to provoke dense regions and exact ties
        for i in range(n):
            if rng.random() < 0.3 and n > 1:
                base[i] = base[int(rng.integers(0, n))] * rng.uniform(0.5, 2.0)
        norms = np.linalg.norm(base, axis=1)
        base[norms < 1e-9] = 1.0
        embs = [make_emb(*row) for row in base]
        eps = float(rng.choice([0.05, 0.15, 0.3, 0.8]))
        min_pts = int(rng.integers(1, 4))
        got = dbscan_cluster(embs, eps, min_pts)
        assert got == dbscan_reference(embs, eps, min_pts), (trial, eps, min_pts)


def test_dbscan_scale_invariance():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(8, 3))
    embs = [make_emb(*r) for r in rows]
    scaled = [make_emb(*(3.0 * r)) for r in rows]
    assert dbscan_cluster(embs, 0.15, 2) == dbscan_cluster(scaled, 0.15, 2)


coords = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
vectors = st.tuples(coords, coords, coords).filter(
    lambda t: sum(x * x for x in t) > 1e-6
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(vectors, min_size=1, max_size=8),
    st.sampled_from([0.05, 0.15, 0.4]),
    st.integers(min_value=1, max_value=3),
)
def test_dbscan_matches_reference_property(rows, eps, min_pts):
    embs = [make_emb(*r) for r in rows]
    assert dbscan_cluster(embs, eps, min_pts) == dbscan_reference(
        embs, eps, min_pts
    )


@settings(max_examples=80, deadline=None)
@given(st.lists(vectors, min_size=1, max_size=8))
def test_dbscan_labels_form_contiguous_ids(rows):
    labels = dbscan_cluster([make_emb(*r) for r in rows], 0.15, 2)
    ids = sorted({c for c in labels if c != NOISE})
    assert ids == list(range(len(ids)))


def test_select_canonical_highest_score_per_cluster(mk):
    labels = dbscan_cluster(
        [mk(1, 0), mk(0.99, 0.02), mk(0, 1), mk(0.02, 0.99)], 0.15, 2
    )
    assert select_canonical(labels, [0.3, 0.9, 0.8, 0.1]) == (1, 2)


def test_select_canonical_tie_takes_lowest_index(mk):
    labels = dbscan_cluster([mk(1, 0), mk(0.99, 0.02)], 0.15, 2)
    assert select_canonical(labels, [0.5, 0.5]) == (0,)


def test_select_canonical_noise_survives_as_singleton(mk):
    labels = dbscan_cluster([mk(1, 0), mk(0, 1), mk(-1, -1)], 0.05, 2)
    assert labels == [NOISE, NOISE, NOISE]
    assert select_canonical(labels, [0.2, 0.9, 0.4]) == (0, 1, 2)
