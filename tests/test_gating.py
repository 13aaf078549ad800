import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm, truncnorm

from conftest import make_emb
from viewfuse.errors import DegenerateParams, NoRootInUnitInterval, OutOfRangeArgument
from viewfuse.gating import (
    FLAG_REASON,
    TruncatedGaussianPair,
    density_crossing_coefficients,
    error_rates,
    flagged_record,
    gate,
    kl_divergence,
    solve_optimal_threshold,
)

PARAMS = TruncatedGaussianPair(mu_pos=0.65, mu_neg=0.35, sigma_pos=0.1, sigma_neg=0.15)


def scipy_trunc(mu, sigma):
    a, b = (0.0 - mu) / sigma, (1.0 - mu) / sigma
    return truncnorm(a, b, loc=mu, scale=sigma)


def test_pair_validation():
    with pytest.raises(DegenerateParams):
        TruncatedGaussianPair(0.35, 0.65, 0.1, 0.15)  # means swapped
    with pytest.raises(DegenerateParams):
        TruncatedGaussianPair(0.65, 0.35, 0.0, 0.15)
    with pytest.raises(DegenerateParams):
        TruncatedGaussianPair(0.65, 0.35, 0.1, -0.1)
    with pytest.raises(DegenerateParams):
        TruncatedGaussianPair(math.nan, 0.35, 0.1, 0.15)


def test_gate_passes_at_and_above_threshold(mk):
    d = gate(mk(1, 0), mk(1, 0), threshold=0.557)
    assert d["passed"] and d["similarity"] == pytest.approx(1.0)
    assert d["flagged_reason"] is None


def test_gate_flags_below_threshold(mk):
    d = gate(mk(1, 0), mk(0, 1), threshold=0.557)
    assert not d["passed"]
    assert d["similarity"] == pytest.approx(0.0, abs=1e-12)
    assert d["flagged_reason"] == FLAG_REASON


def test_gate_boundary_is_inclusive(mk):
    # similarity exactly at the threshold passes
    d = gate(mk(1, 0), mk(1, 0), threshold=1.0 - 1e-12)
    assert d["passed"]


def test_flagged_record_shape(mk):
    d = gate(mk(1, 0), mk(0, 1), threshold=0.557)
    doc = flagged_record("obj_9", d, "a vase")
    assert doc["object_id"] == "obj_9"
    assert doc["threshold"] == 0.557
    assert doc["annotation"] == "a vase"


def test_coefficients_match_independent_construction():
    # expand log f_pos(x) = log f_neg(x) by hand with numpy, no shared code
    sp2, sn2 = PARAMS.sigma_pos**2, PARAMS.sigma_neg**2
    a = 1.0 / sn2 - 1.0 / sp2
    b = 2.0 * (PARAMS.mu_pos / sp2 - PARAMS.mu_neg / sn2)
    c = (
        PARAMS.mu_neg**2 / sn2
        - PARAMS.mu_pos**2 / sp2
        + 2.0 * np.log(PARAMS.sigma_neg / PARAMS.sigma_pos)
    )
    got = density_crossing_coefficients(PARAMS)
    assert got[0] == pytest.approx(a, rel=1e-12)
    assert got[1] == pytest.approx(b, rel=1e-12)
    assert got[2] == pytest.approx(c, rel=1e-12)


def test_solver_root_equalizes_densities():
    root = solve_optimal_threshold(0.65, 0.35, 0.1, 0.15)
    f_pos = norm.pdf(root, 0.65, 0.1)
    f_neg = norm.pdf(root, 0.35, 0.15)
    assert abs(f_pos - f_neg) < 1e-6
    assert 0.35 < root < 0.65


def test_solver_root_value_pinned():
    assert solve_optimal_threshold(0.65, 0.35, 0.1, 0.15) == pytest.approx(
        0.5102675364261126, abs=1e-12
    )


def test_solver_equal_sigmas_midpoint():
    assert solve_optimal_threshold(0.7, 0.3, 0.1, 0.1) == pytest.approx(0.5)


def test_solver_midpoint_outside_unit_interval_rejected():
    with pytest.raises(NoRootInUnitInterval):
        solve_optimal_threshold(1.9, 0.5, 0.2, 0.2)


def test_solver_random_parameters_equalize_densities_in_unit_interval():
    # close means with similar sigmas can push both crossings outside
    # the between-means gap, so only density equality and the (0, 1)
    # range are guaranteed; the between-means root is preferred when
    # one exists
    rng = np.random.default_rng(42)
    for _ in range(100):
        mu_neg = rng.uniform(0.05, 0.5)
        mu_pos = rng.uniform(mu_neg + 0.05, 0.95)
        sig_pos = rng.uniform(0.02, 0.3)
        sig_neg = rng.uniform(0.02, 0.3)
        if sig_pos == sig_neg:
            continue
        root = solve_optimal_threshold(mu_pos, mu_neg, sig_pos, sig_neg)
        assert 0.0 < root < 1.0
        assert abs(norm.pdf(root, mu_pos, sig_pos) - norm.pdf(root, mu_neg, sig_neg)) < 1e-6


def test_error_rates_match_scipy_truncnorm():
    pos = scipy_trunc(0.65, 0.1)
    neg = scipy_trunc(0.35, 0.15)
    for alpha in np.linspace(0.05, 0.95, 19):
        fnr, fpr, total = error_rates(PARAMS, float(alpha))
        assert fnr == pytest.approx(pos.cdf(alpha), abs=1e-9)
        assert fpr == pytest.approx(neg.sf(alpha), abs=1e-9)
        assert total == pytest.approx(fnr + fpr, abs=1e-12)


def test_error_rates_match_monte_carlo():
    pos = scipy_trunc(0.65, 0.1).rvs(size=200_000, random_state=7)
    neg = scipy_trunc(0.35, 0.15).rvs(size=200_000, random_state=8)
    alpha = 0.51
    fnr, fpr, _ = error_rates(PARAMS, alpha)
    assert fnr == pytest.approx(float(np.mean(pos < alpha)), abs=0.01)
    assert fpr == pytest.approx(float(np.mean(neg >= alpha)), abs=0.01)


def test_error_rates_monotone_in_threshold():
    grid = np.linspace(0.05, 0.95, 50)
    fnrs = [error_rates(PARAMS, float(a))[0] for a in grid]
    fprs = [error_rates(PARAMS, float(a))[1] for a in grid]
    assert all(x <= y + 1e-12 for x, y in zip(fnrs, fnrs[1:]))
    assert all(x >= y - 1e-12 for x, y in zip(fprs, fprs[1:]))


def test_total_error_minimized_near_solver_root():
    root = solve_optimal_threshold(0.65, 0.35, 0.1, 0.15)
    grid = np.arange(0.4, 0.7001, 0.001)
    totals = [error_rates(PARAMS, float(a))[2] for a in grid]
    best = float(grid[int(np.argmin(totals))])
    assert abs(best - root) <= 0.001 + 1e-9


def test_kl_divergence_matches_quadrature_oracle():
    pos = scipy_trunc(0.65, 0.1)
    neg = scipy_trunc(0.35, 0.15)

    def integrand(x):
        p = pos.pdf(x)
        if p <= 0.0:
            return 0.0
        return p * math.log(p / neg.pdf(x))

    expected, _err = integrate.quad(integrand, 0.0, 1.0, limit=200)
    assert kl_divergence(PARAMS) == pytest.approx(expected, abs=1e-3)


def test_kl_divergence_nonnegative_and_zero_on_self():
    assert kl_divergence(PARAMS) > 0.0
    # make the two components nearly identical: divergence collapses
    near = TruncatedGaussianPair(0.500001, 0.5, 0.1, 0.100001)
    assert kl_divergence(near) == pytest.approx(0.0, abs=1e-6)


def test_kl_divergence_point_count_floor():
    with pytest.raises(OutOfRangeArgument):
        kl_divergence(PARAMS, points=500)


def test_kl_divergence_converged_in_point_count():
    coarse = kl_divergence(PARAMS, points=1001)
    fine = kl_divergence(PARAMS, points=8001)
    assert coarse == pytest.approx(fine, abs=1e-4)
