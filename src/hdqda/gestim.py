"""Consistent error estimation from the training data alone.

Every quantity here is a function of the fitted sample statistics; no test
data and no true parameters enter. The estimators deliberately invert the
resolvent traces of the training fit instead of holding data out, so the full
sample stays available to the classifier and the estimate is deterministic
given the fit. All functions are pure: calling them twice on the same fit
yields byte-identical results.

Counts enter through the effective sample size n - 1: the de-meaned covariance
spends one degree of freedom on the mean, and at moderate dimension the
distinction is visible in the estimates. Two further finite-sample adjustments
keep the error estimate honest when p/n is only a few hundred: the quadratics
of the mean gap are debiased for the noise of the estimated means, and the
own-class resolvent trace carries a second-order correction for the curvature
of the trace inversion. Both adjustments vanish as the dimension grows, so the
large-p behavior is unchanged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import DegenerateEstimateError, InvalidRegularizerError
from .estimation import FittedStats

__all__ = [
    "BiasEstimate",
    "GEstimate",
    "delta_hat",
    "gamma1_hat",
    "theta_hat",
    "g_estimator_error",
]


def delta_hat(H: np.ndarray, n: int, gamma: float) -> float:
    """Estimate the resolvent fixed point from a fitted resolvent trace.

    Inverts the relation between Tr[H] and the deterministic equivalent at the
    effective count n - 1. For a resolvent actually produced by shrinking a
    de-meaned sample covariance the denominator is strictly positive, because
    the covariance has rank at most n - 1; a nonpositive value means the
    inputs do not belong together and is reported as an error rather than
    clamped.
    """
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("resolvent must be square, got shape %r" % (H.shape,))
    if n < 2:
        raise ValueError("need at least two observations, got n=%d" % (n,))
    if gamma <= 0.0:
        raise InvalidRegularizerError(
            "fixed-point inversion needs strictly positive shrinkage, got %r" % (gamma,)
        )
    m = n - 1
    p = H.shape[0]
    ratio = float(np.trace(H)) / m
    numerator = p / m - ratio
    denominator = 1.0 - p / m + ratio
    if denominator <= 0.0 or numerator < 0.0:
        raise DegenerateEstimateError(
            "resolvent trace %r is inconsistent with n=%d, p=%d" % (ratio * m, n, p)
        )
    return numerator / (gamma * denominator)


def gamma1_hat(delta0: float, n0: int, n1: int, gamma0: float) -> float:
    """Estimated majority-class shrinkage matched to the minority class.

    Equal counts return ``gamma0`` exactly, bit for bit, because the imbalance
    factor vanishes identically; the factor is formed from the effective
    counts to stay aligned with :func:`delta_hat`.
    """
    if n1 < n0:
        raise ValueError(
            "expected the minority class first: n0=%d exceeds n1=%d" % (n0, n1)
        )
    if n0 < 2:
        raise ValueError("need at least two observations, got n0=%d" % (n0,))
    if gamma0 <= 0.0:
        raise InvalidRegularizerError(
            "matched shrinkage needs strictly positive gamma0, got %r" % (gamma0,)
        )
    if delta0 < 0.0:
        raise ValueError("fixed-point estimate must be nonnegative, got %r" % (delta0,))
    ratio = (n0 - 1.0) / (n1 - 1.0)
    denominator = 1.0 - gamma0 * (ratio * delta0 - delta0)
    if denominator <= 0.0:
        raise DegenerateEstimateError(
            "matched shrinkage denominator is %r" % (denominator,)
        )
    return gamma0 / denominator


def _trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """Tr[a b] for symmetric a and b."""
    return float(np.sum(a * b))


def _trace_quartic(sigma: np.ndarray, left: np.ndarray, right: np.ndarray) -> float:
    """Tr[sigma left sigma right]."""
    return float(np.sum((sigma @ left) * (sigma @ right).T))


def _delta_corrected(
    sigma: np.ndarray, H: np.ndarray, delta: float, gamma: float, n: int, p: int
) -> float:
    """Fixed-point estimate with its second-order inversion bias removed.

    The trace inversion behind :func:`delta_hat` is exact only on average over
    the per-sample quadratic forms; the curvature of the inversion map leaves
    a downward bias of order one over n that matters in the own-class trace
    terms of the margins. The curvature scale is estimated from the same
    debiased quartic that the variance estimate uses, clipped at zero so a
    noisy small-sample quartic can only shrink the correction.
    """
    m = n - 1
    shrink = 1.0 + gamma * delta
    own_quartic = _trace_quartic(sigma, H, H)
    curvature = shrink**4 * own_quartic / p - (m / p) * delta**2 * shrink**2
    return delta + gamma * p * max(curvature, 0.0) / (m * m * shrink)


def _quad_variance_hat(
    sigma: np.ndarray,
    own_H: np.ndarray,
    other_H: np.ndarray,
    delta: float,
    gamma: float,
    n: int,
    p: int,
) -> float:
    """Estimated quadratic-form variance for one class.

    ``own_H`` is the class's resolvent at its own shrinkage, ``other_H`` the
    opposite class's resolvent; ``delta`` and ``gamma`` belong to the own
    class, and ``n`` is its training count. The de-biasing powers of
    (1 + gamma delta) undo the self-averaging of the sample covariance inside
    its own resolvent; the subtracted squares remove the noise the sample
    covariance contributes to the plain trace products.
    """
    m = n - 1
    shrink = 1.0 + gamma * delta
    own_quartic = _trace_quartic(sigma, own_H, own_H)
    cross_quartic = _trace_quartic(sigma, other_H, other_H)
    mixed_quartic = _trace_quartic(sigma, own_H, other_H)
    cross_trace = _trace_product(sigma, other_H)
    return (
        shrink**4 / p * own_quartic
        - m / p * delta**2 * shrink**2
        + cross_quartic / p
        - cross_trace**2 / (m * p)
        - 2.0 * shrink**2 / p * mixed_quartic
        + delta * shrink * 2.0 / p * cross_trace
    )


@dataclass(frozen=True)
class BiasEstimate:
    """Estimated error-minimizing bias with its margin components."""

    theta_hat: float
    beta_hat0: float
    beta_hat1: float
    alpha_hat: float
    B_hat0: float


@dataclass(frozen=True)
class _Pieces:
    """Shared ingredients of the bias and error estimates."""

    d0: float
    d1: float
    own_trace0: float
    own_trace1: float
    quad0: float
    quad1: float
    cross_trace0: float
    cross_trace1: float
    beta0: float
    beta1: float
    B0: float
    B1: float


def _pieces(fit: FittedStats) -> _Pieces:
    p = fit.p
    sqrt_p = math.sqrt(p)
    d0 = delta_hat(fit.H0, fit.n0, fit.gamma0)
    d1 = delta_hat(fit.H1, fit.n1, fit.gamma1)
    own0 = (fit.n0 - 1) * _delta_corrected(
        fit.sigma_hat0, fit.H0, d0, fit.gamma0, fit.n0, p
    )
    own1 = (fit.n1 - 1) * _delta_corrected(
        fit.sigma_hat1, fit.H1, d1, fit.gamma1, fit.n1, p
    )
    gap = fit.mu_hat0 - fit.mu_hat1
    quad0 = float(gap @ fit.H0 @ gap)
    quad1 = float(gap @ fit.H1 @ gap)
    cross_trace0 = _trace_product(fit.sigma_hat0, fit.H1)
    cross_trace1 = _trace_product(fit.sigma_hat1, fit.H0)

    # The gap quadratic feels the noise of its own estimated mean (upward, by
    # the cross trace over the count) and the own-mean quadratic that the rule
    # subtracts (upward, by the own trace over the count); both are removed so
    # the margins center where the realized rule actually sits.
    beta0 = (
        -quad1 / sqrt_p
        - (1.0 - 1.0 / fit.n0) * cross_trace0 / sqrt_p
        + (1.0 + 1.0 / fit.n0) * own0 / sqrt_p
    )
    beta1 = (
        -quad0 / sqrt_p
        - (1.0 - 1.0 / fit.n1) * cross_trace1 / sqrt_p
        + (1.0 + 1.0 / fit.n1) * own1 / sqrt_p
    )
    B0 = _quad_variance_hat(fit.sigma_hat0, fit.H0, fit.H1, d0, fit.gamma0, fit.n0, p)
    B1 = _quad_variance_hat(fit.sigma_hat1, fit.H1, fit.H0, d1, fit.gamma1, fit.n1, p)
    return _Pieces(
        d0=d0,
        d1=d1,
        own_trace0=own0,
        own_trace1=own1,
        quad0=quad0,
        quad1=quad1,
        cross_trace0=cross_trace0,
        cross_trace1=cross_trace1,
        beta0=beta0,
        beta1=beta1,
        B0=B0,
        B1=B1,
    )


def _bias_from(pieces: _Pieces, priors: tuple[float, float]) -> BiasEstimate:
    if pieces.B0 <= 0.0:
        raise DegenerateEstimateError("estimated score variance is %r" % (pieces.B0,))
    alpha = math.sqrt(2.0 * pieces.B0)
    log_odds = math.log(priors[1] / priors[0])
    theta = (pieces.beta1 - pieces.beta0) / 2.0
    if log_odds != 0.0:
        balance = pieces.beta1 + pieces.beta0
        if abs(balance) <= 1e-12 * max(1.0, abs(pieces.beta0), abs(pieces.beta1)):
            raise DegenerateEstimateError(
                "estimated class margins cancel; prior correction is undefined"
            )
        theta -= 2.0 * alpha**2 / balance * log_odds
    return BiasEstimate(
        theta_hat=theta,
        beta_hat0=pieces.beta0,
        beta_hat1=pieces.beta1,
        alpha_hat=alpha,
        B_hat0=pieces.B0,
    )


def theta_hat(fit: FittedStats, priors: tuple[float, float]) -> BiasEstimate:
    """Training-only estimate of the error-minimizing bias.

    ``fit`` should carry the matched majority-class shrinkage (the estimate
    from :func:`gamma1_hat`); the consistency of the result depends on it.
    """
    return _bias_from(_pieces(fit), priors)


@dataclass(frozen=True)
class GEstimate:
    """Training-only estimate of the per-class and total error rates.

    ``theta_hat`` records the bias the estimate was evaluated at, which need
    not be the estimated optimum. ``gamma1_hat`` mirrors the majority-class
    shrinkage of the fit that produced the estimate.
    """

    delta_hat0: float
    delta_hat1: float
    gamma1_hat: float
    beta_hat0: float
    beta_hat1: float
    alpha_hat: float
    B_hat0: float
    B_hat1: float
    theta_hat: float
    xi_hat0: float
    xi_hat1: float
    b_hat0: float
    b_hat1: float
    r_hat0: float
    r_hat1: float
    eps_hat0: float
    eps_hat1: float
    total_hat: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "delta_hat0": self.delta_hat0,
                "delta_hat1": self.delta_hat1,
                "gamma1_hat": self.gamma1_hat,
                "beta_hat0": self.beta_hat0,
                "beta_hat1": self.beta_hat1,
                "alpha_hat": self.alpha_hat,
                "B_hat0": self.B_hat0,
                "B_hat1": self.B_hat1,
                "theta_hat": self.theta_hat,
                "xi_hat0": self.xi_hat0,
                "xi_hat1": self.xi_hat1,
                "b_hat0": self.b_hat0,
                "b_hat1": self.b_hat1,
                "r_hat0": self.r_hat0,
                "r_hat1": self.r_hat1,
                "eps_hat0": self.eps_hat0,
                "eps_hat1": self.eps_hat1,
                "total_hat": self.total_hat,
            },
            sort_keys=True,
        )


def g_estimator_error(
    fit: FittedStats, theta: float, priors: tuple[float, float]
) -> GEstimate:
    """Estimate both class error rates of the two-shrinkage rule at ``theta``.

    Every ingredient comes from the fitted statistics; the result is what the
    tuner minimizes in place of cross-validation. The centering and trace
    parts split so that their differences reproduce the margins of
    :func:`theta_hat` exactly.
    """
    pieces = _pieces(fit)
    return _error_from(fit, pieces, _bias_from(pieces, priors), theta, priors)


def _bias_and_error(
    fit: FittedStats, priors: tuple[float, float]
) -> tuple[BiasEstimate, GEstimate]:
    """:func:`theta_hat` and the error estimate at that bias, from one ``_pieces``."""
    pieces = _pieces(fit)
    bias = _bias_from(pieces, priors)
    return bias, _error_from(fit, pieces, bias, bias.theta_hat, priors)


def _error_from(
    fit: FittedStats,
    pieces: _Pieces,
    bias: BiasEstimate,
    theta: float,
    priors: tuple[float, float],
) -> GEstimate:
    p = fit.p
    sqrt_p = math.sqrt(p)
    xi0 = theta - (
        pieces.quad1 - pieces.cross_trace0 / fit.n0 - pieces.own_trace0 / fit.n0
    ) / sqrt_p
    b0 = (pieces.cross_trace0 - pieces.own_trace0) / sqrt_p
    xi1 = theta + (
        pieces.quad0 - pieces.cross_trace1 / fit.n1 - pieces.own_trace1 / fit.n1
    ) / sqrt_p
    b1 = (-pieces.cross_trace1 + pieces.own_trace1) / sqrt_p

    gap = fit.mu_hat0 - fit.mu_hat1
    r0 = float(gap @ fit.H1 @ fit.sigma_hat0 @ fit.H1 @ gap) / p
    r1 = float(gap @ fit.H0 @ fit.sigma_hat1 @ fit.H0 @ gap) / p

    spreads = (2.0 * pieces.B0 + 4.0 * r0, 2.0 * pieces.B1 + 4.0 * r1)
    for spread in spreads:
        if spread <= 0.0:
            raise DegenerateEstimateError("estimated score spread is %r" % (spread,))
    eps0 = float(ndtr((xi0 - b0) / math.sqrt(spreads[0])))
    eps1 = float(ndtr(-(xi1 - b1) / math.sqrt(spreads[1])))
    return GEstimate(
        delta_hat0=pieces.d0,
        delta_hat1=pieces.d1,
        gamma1_hat=fit.gamma1,
        beta_hat0=pieces.beta0,
        beta_hat1=pieces.beta1,
        alpha_hat=bias.alpha_hat,
        B_hat0=pieces.B0,
        B_hat1=pieces.B1,
        theta_hat=theta,
        xi_hat0=xi0,
        xi_hat1=xi1,
        b_hat0=b0,
        b_hat1=b1,
        r_hat0=r0,
        r_hat1=r1,
        eps_hat0=eps0,
        eps_hat1=eps1,
        total_hat=priors[0] * eps0 + priors[1] * eps1,
    )
