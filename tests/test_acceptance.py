"""Acceptance gate: one test per release criterion.

Each test is numbered; a terminal-summary hook in conftest.py prints a
single PASS/FAIL line per criterion after every run. Tolerances are
stated inline next to each assertion.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from viewfuse.bandit import BanditState, update_mean
from viewfuse.clustering import dbscan_cluster
from viewfuse.config import PipelineConfig
from viewfuse.confidence import compute_raw_confidence
from viewfuse.cost import estimate_cost
from viewfuse.demo import build_demo_corpus
from viewfuse.gating import (
    TruncatedGaussianPair,
    density_crossing_coefficients,
    error_rates,
    solve_optimal_threshold,
)
from viewfuse.model import EmbeddingVector
from viewfuse.pipeline import (
    build_providers,
    load_corpus_entries,
    record_to_json,
    run_corpus,
    run_pipeline,
)
from viewfuse.scoring import composite_score, relevance_weights
from viewfuse.simulate import BernoulliEnv, run_strategy, selection_experiment

REFERENCE_PARAMS = (0.65, 0.35, 0.1, 0.15)


# Constants as the source paper prints them for REFERENCE_PARAMS. A and B
# are right; C, the discriminant and both roots are not (see criterion 01).
PUBLISHED_DERIVATION = {
    "A": -55.56,
    "B": 98.89,
    "C": -37.6166,
    "discriminant": 1425.46,
    "root": 0.557,
    "rejected root": 1.224,
}


def _reference_derivation() -> dict[str, float]:
    """Closed forms of the equal-density derivation for REFERENCE_PARAMS.

    log N(x; mp, sp) = log N(x; mn, sn) rearranges to A x^2 + B x + C = 0.
    The discriminant and the roots use the textbook form of the crossing
    of two normal densities, written without A, B and C:
        Q     = (mp - mn)^2 + 2 (sn^2 - sp^2) ln(sn/sp)
        disc  = 4 Q / (sp sn)^2
        roots = (mn sp^2 - mp sn^2 -/+ sp sn sqrt(Q)) / (sp^2 - sn^2)
    """
    mp, mn, sp, sn = REFERENCE_PARAMS
    log_ratio = math.log(sn / sp)
    q = (mp - mn) ** 2 + 2.0 * (sn**2 - sp**2) * log_ratio
    centre = (mn * sp**2 - mp * sn**2) / (sp**2 - sn**2)
    half_width = sp * sn * math.sqrt(q) / abs(sp**2 - sn**2)
    return {
        "A": 1.0 / sn**2 - 1.0 / sp**2,  # -500/9
        "B": 2.0 * (mp / sp**2 - mn / sn**2),  # 890/9
        "C": mn**2 / sn**2 - mp**2 / sp**2 + 2.0 * log_ratio,  # -1325/36 + 2 ln(3/2)
        "discriminant": 4.0 * q / (sp * sn) ** 2,  # ~1780.2067
        "root": centre - half_width,  # ~0.510268, between the means
        "rejected root": centre + half_width,  # ~1.269732
    }


def test_criterion_01_threshold_derivation_reference_values():
    """Solver reproduces the equal-density derivation constants.

    Expected, from the closed forms in `_reference_derivation`:
    A = -500/9 (0.01), B = 890/9 (0.01), C = -1325/36 + 2 ln(3/2)
    ~ -35.99463 (0.001), discriminant ~ 1780.2067 (0.01), root ~ 0.510268
    (0.001), rejected root ~ 1.269732 (0.001), all in under 1 ms.

    Erratum. The paper prints A = -55.56, B = 98.89, C = -37.6166,
    discriminant = 1425.46, root = 0.557, rejected root = 1.224. A and B
    are right. C is the value the log term gives with its sign flipped
    (-37.61649). The discriminant and roots fit neither sign: the flipped
    sign gives 1419.79 with roots 0.5509 and 1.2291, and the printed roots
    imply a discriminant of about 1373.3, with a product that is not C/A.
    0.557 is not the total-error minimizer either: under the truncated
    model it gives FNR+FPR = 0.2608, against 0.2252 at 0.5103. The
    defining equation settles the values pinned here; scipy's brentq on
    the two norm.pdf curves gives 0.5102675 and 1.2697325.
    """
    want = _reference_derivation()
    # The printed A and B are the closed forms rounded to two places.
    assert round(want["A"], 2) == PUBLISHED_DERIVATION["A"]
    assert round(want["B"], 2) == PUBLISHED_DERIVATION["B"]
    # The pins agree with each other: disc = B^2 - 4AC, and the roots are
    # the quadratic formula of the pinned A, B and C.
    pin_a, pin_b, pin_c = want["A"], want["B"], want["C"]
    pin_disc = pin_b**2 - 4.0 * pin_a * pin_c
    assert want["discriminant"] == pytest.approx(pin_disc, rel=1e-12)
    pin_roots = sorted(
        (-pin_b + s * math.sqrt(pin_disc)) / (2.0 * pin_a) for s in (1.0, -1.0)
    )
    assert [want["root"], want["rejected root"]] == pytest.approx(pin_roots, rel=1e-12)

    pair = TruncatedGaussianPair(*REFERENCE_PARAMS)
    a, b, c = density_crossing_coefficients(pair)
    disc = b * b - 4.0 * a * c
    sq = math.sqrt(disc)
    roots = sorted(((-b + sq) / (2.0 * a), (-b - sq) / (2.0 * a)))
    root = solve_optimal_threshold(*REFERENCE_PARAMS)
    rejected = roots[1] if abs(roots[0] - root) < abs(roots[1] - root) else roots[0]

    t0 = time.perf_counter()
    for _ in range(200):
        solve_optimal_threshold(*REFERENCE_PARAMS)
    per_call = (time.perf_counter() - t0) / 200

    checks = [
        ("A", a, want["A"], 0.01),
        ("B", b, want["B"], 0.01),
        ("C", c, want["C"], 0.001),
        ("discriminant", disc, want["discriminant"], 0.01),
        ("root", root, want["root"], 0.001),
        ("rejected root", rejected, want["rejected root"], 0.001),
        ("runtime seconds", per_call, 0.0, 1e-3),
    ]
    problems = [
        f"  {name}: got {got!r}, expected {expected!r} +/- {tol}"
        + (f" (published {PUBLISHED_DERIVATION[name]})" if name in PUBLISHED_DERIVATION else "")
        for name, got, expected, tol in checks
        if abs(got - expected) > tol
    ]
    assert not problems, (
        "solver disagrees with the closed-form equal-density derivation. "
        "The published C, discriminant and roots are an erratum: C has the "
        "sign of its 2*ln(sn/sp) term flipped, and the discriminant and roots "
        "fit neither sign. A value that lands on the published one instead "
        "means the solver has taken on that error:\n" + "\n".join(problems)
    )

    # Sanity that the computed root really is the equal-density point.
    f_pos = math.exp(-((root - 0.65) ** 2) / (2 * 0.1**2)) / 0.1
    f_neg = math.exp(-((root - 0.35) ** 2) / (2 * 0.15**2)) / 0.15
    assert abs(f_pos - f_neg) < 1e-9 * max(f_pos, f_neg)


def test_criterion_02_grid_search_matches_solver_root():
    """Total-error grid over [0.4, 0.7] at step 0.001 bottoms out within
    one step of the solver's root. Runtime < 1 s."""
    pair = TruncatedGaussianPair(*REFERENCE_PARAMS)
    root = solve_optimal_threshold(*REFERENCE_PARAMS)

    t0 = time.perf_counter()
    best_alpha, best_total = None, math.inf
    for i in range(400, 701):
        alpha = i / 1000.0
        total = error_rates(pair, alpha)[2]
        if total < best_total:
            best_alpha, best_total = alpha, total
    elapsed = time.perf_counter() - t0

    assert abs(best_alpha - root) <= 0.001 + 1e-12, (best_alpha, root)
    assert elapsed < 1.0, f"grid search took {elapsed:.3f}s"


def test_criterion_03_ucb1_convergence_and_sublinear_regret():
    """5-arm Bernoulli [0.9, 0.6, 0.5, 0.4, 0.3], c=0.5, 10k rounds,
    20 seeds: mean final-1000 best-arm frequency > 0.9 and
    regret(10k)/10k < regret(1k)/1k. Runtime < 30 s."""
    env = BernoulliEnv((0.9, 0.6, 0.5, 0.4, 0.3))
    t0 = time.perf_counter()
    runs = [
        run_strategy(env, "ucb1", seed=s, rounds=10_000, exploration_weight=0.5)
        for s in range(20)
    ]
    elapsed = time.perf_counter() - t0

    mean_freq = sum(r.best_arm_frequency for r in runs) / len(runs)
    mean_rate_10k = sum(r.regret_at[10_000] / 10_000 for r in runs) / len(runs)
    mean_rate_1k = sum(r.regret_at[1_000] / 1_000 for r in runs) / len(runs)

    assert mean_freq > 0.9, f"mean final-window best-arm frequency {mean_freq:.4f}"
    assert mean_rate_10k < mean_rate_1k, (mean_rate_10k, mean_rate_1k)
    assert elapsed < 30.0, f"simulation took {elapsed:.1f}s"


def test_criterion_04_bandit_bookkeeping_equals_brute_force():
    """After 1000 random updates each arm's running mean equals the
    brute-force mean of its history within 1e-9 and pull counts sum to
    the round count exactly."""
    for seed in (11, 12, 13):
        rng = random.Random(seed)
        k = rng.randint(2, 8)
        state = BanditState(arm_count=k)
        history = [[] for _ in range(k)]
        for _ in range(1000):
            arm = rng.randrange(k)
            reward = rng.random()
            update_mean(state, arm, reward)
            history[arm].append(reward)
        assert sum(state.pulls) == 1000
        assert state.total_rounds == 1000
        for a in range(k):
            assert state.pulls[a] == len(history[a])
            expected = sum(history[a]) / len(history[a]) if history[a] else 0.0
            assert abs(state.means[a] - expected) <= 1e-9, (seed, a)


def test_criterion_05_formula_unit_checks():
    """Confidence of [-ln2, -ln2] is ln2 (1e-12); relevance softmax sums
    to 1 (1e-9) and the {1, -1} pair gives (0.8808, 0.1192) (1e-4);
    composite blend 0 and 1 reproduce their inputs exactly."""
    assert compute_raw_confidence([-math.log(2)] * 2) == pytest.approx(
        math.log(2), abs=1e-12
    )

    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 9):
        image = EmbeddingVector(rng.normal(size=6))
        texts = [EmbeddingVector(rng.normal(size=6)) for _ in range(n)]
        weights = relevance_weights(image, texts)
        assert abs(sum(weights) - 1.0) <= 1e-9

    # Two candidates at cosine +1 and -1 from the image direction.
    image = EmbeddingVector([1.0, 0.0])
    aligned = EmbeddingVector([2.0, 0.0])
    opposed = EmbeddingVector([-3.0, 0.0])
    w = relevance_weights(image, [aligned, opposed])
    assert w[0] == pytest.approx(0.8808, abs=1e-4)
    assert w[1] == pytest.approx(0.1192, abs=1e-4)

    assert composite_score(0.1 + 0.2, 0.9, 0.0) == 0.1 + 0.2
    assert composite_score(0.4, 0.7 * 0.9, 1.0) == 0.7 * 0.9


def _closure_clusters(rows: np.ndarray, eps: float, min_pts: int) -> list[int]:
    """Independent oracle: breadth-first reachability closure over the
    cosine-distance graph, cores expanded in ascending index order."""
    n = len(rows)
    unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    dist = 1.0 - unit @ unit.T
    neighbors = [set(np.flatnonzero(dist[i] <= eps)) for i in range(n)]
    core = [len(neighbors[i]) >= min_pts for i in range(n)]

    labels = [-1] * n
    assigned = [False] * n
    next_id = 0
    for start in range(n):
        if not core[start] or assigned[start]:
            continue
        frontier = [start]
        assigned[start] = True
        labels[start] = next_id
        while frontier:
            i = frontier.pop(0)
            for j in sorted(neighbors[i]):
                if not core[j] or assigned[j]:
                    continue
                assigned[j] = True
                labels[j] = next_id
                frontier.append(j)
        next_id += 1

    for i in range(n):
        if core[i]:
            continue
        reachable = [labels[j] for j in neighbors[i] if core[j]]
        labels[i] = min(reachable) if reachable else -1
    return labels


def test_criterion_06_clustering_matches_reachability_closure():
    """For fixtures of at most 8 embeddings the clustering matches an
    independent reachability-closure oracle exactly, and scaling every
    vector by 3 changes nothing."""
    rng = np.random.default_rng(99)
    fixtures = []
    for _ in range(150):
        n = int(rng.integers(1, 9))
        dim = int(rng.integers(2, 5))
        rows = rng.normal(size=(n, dim))
        if n >= 3 and rng.random() < 0.4:
            rows[int(rng.integers(1, n))] = rows[0] * float(rng.uniform(0.5, 2.0))
        fixtures.append(rows)
    fixtures.append(np.array([[1.0, 0.0], [0.99, 0.01], [-1.0, 0.0]]))
    fixtures.append(np.ones((6, 3)))

    for rows in fixtures:
        for eps in (0.05, 0.15, 0.3, 0.8):
            for min_pts in (1, 2, 3):
                embs = [EmbeddingVector(r) for r in rows]
                got = dbscan_cluster(embs, eps, min_pts)
                want = _closure_clusters(rows, eps, min_pts)
                assert got == want, (rows.tolist(), eps, min_pts, got, want)

                scaled = [EmbeddingVector(3.0 * r) for r in rows]
                rescan = dbscan_cluster(scaled, eps, min_pts)
                assert rescan == got, (rows.tolist(), eps, min_pts)


def test_criterion_07_end_to_end_determinism_and_warm_cache(tmp_path):
    """Two runs over a 10-object mock corpus with seed 42 produce
    byte-identical records, and a warm-cache rerun performs zero
    provider calls. Runtime < 10 s."""
    corpus = tmp_path / "corpus"
    build_demo_corpus(corpus, num_objects=10, seed=42)
    cfg = PipelineConfig(seed=42)
    manifests, failures = load_corpus_entries(corpus, cfg)
    assert failures == []

    t0 = time.perf_counter()
    first = run_pipeline(manifests, cfg, build_providers(cfg, True, corpus)[0])
    second = run_pipeline(manifests, cfg, build_providers(cfg, True, corpus)[0])
    blobs_a = [record_to_json(r).encode() for r in first]
    blobs_b = [record_to_json(r).encode() for r in second]
    assert blobs_a == blobs_b

    cached_cfg = PipelineConfig(seed=42, cache_dir=str(tmp_path / "cache"))
    providers, _, _ = build_providers(cached_cfg, True, corpus)
    run_pipeline(manifests, cached_cfg, providers)
    warm_providers, backing, _ = build_providers(cached_cfg, True, corpus)
    warm = run_pipeline(manifests, cached_cfg, warm_providers)
    elapsed = time.perf_counter() - t0

    assert backing.generator.calls == 0
    assert backing.text_embedder.calls == 0
    assert backing.image_embedder.calls == 0
    assert backing.cloud_embedder.calls == 0
    assert [record_to_json(r).encode() for r in warm] == blobs_a
    assert elapsed < 10.0, f"end-to-end runs took {elapsed:.1f}s"


def test_criterion_08_low_similarity_objects_routed_to_flagged(tmp_path):
    """A corpus built so objects 2, 5, and 7 embed away from their text
    puts exactly those three in flagged.jsonl."""
    corpus = tmp_path / "corpus"
    out_dir = tmp_path / "out"
    build_demo_corpus(corpus, num_objects=10, seed=0, mismatched=[2, 5, 7])
    summary = run_corpus(corpus, PipelineConfig(seed=42), mock=True, out_dir=out_dir)

    assert summary["flagged"] == 3
    flagged = [
        json.loads(line)
        for line in (out_dir / "flagged.jsonl").read_text().splitlines()
    ]
    assert [f["object_id"] for f in flagged] == ["obj_002", "obj_005", "obj_007"]
    for f in flagged:
        assert f["similarity"] < 0.557


def test_criterion_09_cost_estimate_reference_value():
    """estimate_cost(1, 0.001, 0.5, 1.0) equals 23.53 exactly."""
    assert estimate_cost(1, 0.001, 0.5, 1.0) == 23.53


def test_criterion_10_bandit_selection_beats_uniform_random():
    """Bandit-selected candidates score strictly higher mean composite
    than uniform-random selection over 1000 synthetic objects for each
    of 20 seeds."""
    result = selection_experiment(num_objects=1000, seeds=range(20))
    assert len(result["per_seed"]) == 20
    assert result["all_positive"], result["per_seed"]
    assert result["min_improvement"] > 0.0
    assert result["mean_improvement"] > 0.0
