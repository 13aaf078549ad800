"""Geometric-semantic gate and its threshold derivation.

An annotation passes when the cosine similarity between its text
embedding and the object's point-cloud embedding reaches the
threshold; otherwise it is flagged for manual review. The threshold
itself can be derived from a two-population model: similarity scores
of correct pairs and of mismatched pairs are each modeled as a
Gaussian truncated to [0, 1]. The solver places the cutoff where the
two *untruncated* normal densities cross, the root of a quadratic.
The exact total-error minimizer under the truncated model is where the
truncated densities cross; the two truncation masses differ, so the two
points differ slightly (0.510725 against the solver's 0.510268 for
mu = 0.65 / 0.35, sigma = 0.1 / 0.15). `error_rates` uses the truncated
model.
"""

import math
from dataclasses import dataclass

import numpy as np

from .clustering import cosine_similarity
from .errors import DegenerateParams, NoRootInUnitInterval, OutOfRangeArgument
from .model import EmbeddingVector

FLAG_REASON = "below_gate_threshold"


@dataclass(frozen=True)
class TruncatedGaussianPair:
    """Similarity-score model for matched (pos) and mismatched (neg) pairs.

    Both distributions live on the support [0, 1]; matched pairs must
    score higher on average than mismatched ones.
    """

    mu_pos: float
    mu_neg: float
    sigma_pos: float
    sigma_neg: float

    def __post_init__(self):
        for name in ("mu_pos", "mu_neg", "sigma_pos", "sigma_neg"):
            if not math.isfinite(getattr(self, name)):
                raise DegenerateParams(f"{name} must be finite")
        if self.sigma_pos <= 0 or self.sigma_neg <= 0:
            raise DegenerateParams("sigmas must be positive")
        if self.mu_pos <= self.mu_neg:
            raise DegenerateParams(
                f"mu_pos ({self.mu_pos}) must exceed mu_neg ({self.mu_neg})"
            )


def gate(
    text_emb: EmbeddingVector, cloud_emb: EmbeddingVector, threshold: float
) -> dict:
    """The record's gating document: similarity >= threshold passes."""
    sim = cosine_similarity(text_emb, cloud_emb)
    passed = sim >= threshold
    return {
        "similarity": sim,
        "threshold": threshold,
        "passed": passed,
        "flagged_reason": None if passed else FLAG_REASON,
    }


def _phi(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _trunc_mass(mu: float, sigma: float) -> float:
    """Probability mass an untruncated N(mu, sigma) places on [0, 1]."""
    return _phi((1.0 - mu) / sigma) - _phi((0.0 - mu) / sigma)


def _trunc_cdf(x: float, mu: float, sigma: float) -> float:
    """CDF of N(mu, sigma) truncated to [0, 1]."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    lo = _phi((0.0 - mu) / sigma)
    return (_phi((x - mu) / sigma) - lo) / _trunc_mass(mu, sigma)


def density_crossing_coefficients(
    params: TruncatedGaussianPair,
) -> tuple[float, float, float]:
    """Quadratic A, B, C whose roots are the equal-density points.

    Setting the two (untruncated) normal densities equal and taking
    logs gives A*x^2 + B*x + C = 0 with
        A = 1/sn^2 - 1/sp^2
        B = 2 * (mp/sp^2 - mn/sn^2)
        C = mn^2/sn^2 - mp^2/sp^2 + 2*ln(sn/sp)
    """
    mp, mn = params.mu_pos, params.mu_neg
    sp2, sn2 = params.sigma_pos**2, params.sigma_neg**2
    a = 1.0 / sn2 - 1.0 / sp2
    b = 2.0 * (mp / sp2 - mn / sn2)
    c = mn**2 / sn2 - mp**2 / sp2 + 2.0 * math.log(params.sigma_neg / params.sigma_pos)
    return a, b, c


def solve_optimal_threshold(
    mu_pos: float, mu_neg: float, sigma_pos: float, sigma_neg: float
) -> float:
    """The density-crossing threshold inside (0, 1).

    With equal sigmas the crossing is the midpoint of the means.
    Otherwise the quadratic has two roots; the one between the means is
    the error-minimizing crossing and is preferred. A root is required
    to lie strictly inside (0, 1).
    """
    params = TruncatedGaussianPair(
        mu_pos=mu_pos, mu_neg=mu_neg, sigma_pos=sigma_pos, sigma_neg=sigma_neg
    )
    if params.sigma_pos == params.sigma_neg:
        mid = (params.mu_pos + params.mu_neg) / 2.0
        if not 0.0 < mid < 1.0:
            raise NoRootInUnitInterval(f"midpoint {mid} outside (0, 1)")
        return mid

    a, b, c = density_crossing_coefficients(params)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise NoRootInUnitInterval("density curves do not cross")
    sq = math.sqrt(disc)
    roots = sorted(((-b + sq) / (2.0 * a), (-b - sq) / (2.0 * a)))

    between = [r for r in roots if params.mu_neg < r < params.mu_pos]
    if between:
        return between[0]
    in_unit = [r for r in roots if 0.0 < r < 1.0]
    if in_unit:
        return in_unit[0]
    raise NoRootInUnitInterval(f"no crossing in (0, 1); roots {roots}")


def error_rates(
    params: TruncatedGaussianPair, threshold: float
) -> tuple[float, float, float]:
    """(false negative rate, false positive rate, total) at a threshold.

    FNR is the matched-pair mass below the threshold; FPR is the
    mismatched-pair mass at or above it. Both use the truncated
    distributions, renormalized over [0, 1].
    """
    if not 0.0 <= threshold <= 1.0:
        raise OutOfRangeArgument(f"threshold must be in [0, 1], got {threshold!r}")
    fnr = _trunc_cdf(threshold, params.mu_pos, params.sigma_pos)
    fpr = 1.0 - _trunc_cdf(threshold, params.mu_neg, params.sigma_neg)
    return fnr, fpr, fnr + fpr


def kl_divergence(params: TruncatedGaussianPair, points: int = 4001) -> float:
    """KL(pos || neg) between the truncated densities, by quadrature."""
    if points < 1000:
        raise OutOfRangeArgument(f"at least 1000 quadrature points required, got {points}")
    xs = np.linspace(0.0, 1.0, points)
    zp = _trunc_mass(params.mu_pos, params.sigma_pos)
    zn = _trunc_mass(params.mu_neg, params.sigma_neg)
    p = np.exp(-((xs - params.mu_pos) ** 2) / (2.0 * params.sigma_pos**2)) / (
        params.sigma_pos * math.sqrt(2.0 * math.pi) * zp
    )
    q = np.exp(-((xs - params.mu_neg) ** 2) / (2.0 * params.sigma_neg**2)) / (
        params.sigma_neg * math.sqrt(2.0 * math.pi) * zn
    )
    return float(np.trapezoid(p * np.log(p / q), xs))


def flagged_record(object_id: str, gating: dict, annotation: str) -> dict:
    """The JSON-lines payload exported for one flagged object."""
    return {
        "object_id": object_id,
        "similarity": gating["similarity"],
        "threshold": gating["threshold"],
        "annotation": annotation,
    }
