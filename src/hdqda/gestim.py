"""Consistent error estimation from the training data alone.

Every quantity here is a function of the fitted sample statistics; no test
data and no true parameters enter. The estimators deliberately invert the
resolvent traces of the training fit instead of holding data out, so the full
sample stays available to the classifier and the estimate is deterministic
given the fit. Calling an estimator twice on the same fit yields
byte-identical results.

Every ingredient is a trace or quadratic form of a sample covariance against
one or two shrunk resolvents, taken on the spectral kernel of
:mod:`hdqda.estimation` that a fit derives and keeps
(:attr:`FittedStats.pair`). A shrinkage candidate thus costs O(p^2) and
forms no resolvent, which is what makes grid tuning cheap.

Counts enter through the effective sample size n - 1: the de-meaned covariance
spends one degree of freedom on the mean, and at moderate dimension the
distinction is visible in the estimates. Two further finite-sample adjustments
keep the error estimate honest when p/n is only a few hundred: the quadratics
of the mean gap are debiased for the noise of the estimated means, and the
own-class resolvent trace carries a second-order correction for the curvature
of the trace inversion. Both adjustments vanish as the dimension grows, so the
large-p behavior is unchanged.

This module builds the sample-spectrum margin record; the bias, error and
matched shrinkage formulas it feeds live once in :mod:`hdqda.rmt`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateEstimateError, InvalidRegularizerError
from .estimation import FittedStats, SpectralPair
from .model import _check_priors
from .rmt import _class_errors, _designed_bias, _Margins, _matched_shrinkage, _Vocabulary

_ESTIMATED = _Vocabulary("estimated", DegenerateEstimateError, DegenerateEstimateError)

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
    return _delta_from_trace(float(np.trace(H)), H.shape[0], n, gamma)


def _delta_from_trace(trace: float, p: int, n: int, gamma: float) -> float:
    """:func:`delta_hat` given Tr[H] = ``trace`` of a p x p resolvent."""
    if not 0.0 < gamma < math.inf:
        raise InvalidRegularizerError(
            "fixed-point inversion needs finite, strictly positive shrinkage, got %r" % (gamma,)
        )
    m = n - 1
    ratio = trace / m
    numerator = p / m - ratio
    denominator = 1.0 - p / m + ratio
    if not (denominator > 0.0 and numerator >= 0.0):
        raise DegenerateEstimateError(
            "resolvent trace %r is inconsistent with n=%d, p=%d" % (trace, n, p)
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
    if not 0.0 < gamma0 < math.inf:
        raise InvalidRegularizerError(
            "matched shrinkage needs finite, strictly positive gamma0, got %r" % (gamma0,)
        )
    return _matched_shrinkage(gamma0, delta0, (n0 - 1.0) / (n1 - 1.0), _ESTIMATED)


@dataclass(frozen=True)
class BiasEstimate:
    """Estimated error-minimizing bias with its margin components."""

    theta_hat: float
    beta_hat0: float
    beta_hat1: float
    alpha_hat: float
    B_hat0: float


def _pieces(
    pair: SpectralPair, quartic: tuple, gammas: tuple[float, float], counts: tuple[int, int]
) -> _Margins:
    """The sample-spectrum margins at ``gammas`` and ``counts``, every trace and
    quadratic form taken on the spectral kernel.

    ``pair`` holds the two sample covariances S_i and the mean gap
    mu_hat0 - mu_hat1, and ``quartic`` its :meth:`~SpectralPair.quartic_weights`;
    the resolvents H_i = (I + gamma_i S_i)^{-1} enter only as their eigenvalue
    weights w_i = 1 / (1 + gamma_i l_i), so no p x p product or factorization
    is formed here.
    """
    l = (pair.values0, pair.values1)
    p = l[0].shape[0]
    sqrt_p = math.sqrt(p)
    w = (1.0 / (1.0 + gammas[0] * l[0]), 1.0 / (1.0 + gammas[1] * l[1]))
    quad = (float(np.sum(pair.gap[0] ** 2 * w[0])), float(np.sum(pair.gap[1] ** 2 * w[1])))
    # Tr[S_i H_j] and Tr[S_i H_i S_i H_j] for j = 1 - i, over both bases.
    cross_trace = (pair.across(l[0], w[1]), pair.across(w[0], l[1]))
    mixed_quartic = (pair.across(l[0] ** 2 * w[0], w[1]), pair.across(w[0], l[1] ** 2 * w[1]))
    # gap^T H_j S_i H_j gap: carry the resolvent-weighted gap into the other basis.
    carried = (pair.rotation @ (w[1] * pair.gap[1]), pair.rotation.T @ (w[0] * pair.gap[0]))
    delta, beta, shift, trace_gap, B, r = [], [], [], [], [], []
    for i, sign in ((0, -1.0), (1, 1.0)):
        j, n, gamma = 1 - i, counts[i], gammas[i]
        m = n - 1
        d = _delta_from_trace(float(np.sum(w[i])), p, n, gamma)
        shrink = 1.0 + gamma * d
        # Debiased own quartic Tr[S_i H_i S_i H_i]: the powers of shrink undo
        # the self-averaging of the sample covariance inside its own resolvent.
        curvature = shrink**4 * float(np.sum((l[i] * w[i]) ** 2)) / p - m / p * d**2 * shrink**2
        # The trace inversion behind delta_hat is exact only on average; the
        # curvature of the inversion map leaves a downward bias of order 1/n in
        # the own trace, clipped so a noisy quartic can only shrink it.
        own = m * (d + gamma * p * max(curvature, 0.0) / (m * m * shrink))
        # The gap quadratic feels the noise of its own estimated mean (upward,
        # by the cross trace over the count) and the own-mean quadratic that
        # the rule subtracts (upward, by the own trace over the count); both
        # are removed so the margins center where the realized rule sits.
        beta.append(
            -quad[j] / sqrt_p
            - (1.0 - 1.0 / n) * cross_trace[i] / sqrt_p
            + (1.0 + 1.0 / n) * own / sqrt_p
        )
        # The same margin split into the score's centering and trace parts:
        # -shift -/+ trace_gap is beta to rounding.
        shift.append((quad[j] - cross_trace[i] / n - own / n) / sqrt_p)
        trace_gap.append(-sign * (cross_trace[i] - own) / sqrt_p)
        # Quadratic-form variance; the subtracted squares remove the noise the
        # sample covariance adds to the plain trace products.
        B.append(
            curvature
            + float(w[j] @ quartic[i] @ w[j]) / p
            - cross_trace[i] ** 2 / (m * p)
            - 2.0 * shrink**2 / p * mixed_quartic[i]
            + d * shrink * 2.0 / p * cross_trace[i]
        )
        delta.append(d)
        r.append(float(np.sum(l[i] * carried[i] ** 2)) / p)
    return _Margins(
        gammas, tuple(delta), tuple(beta), tuple(shift), tuple(trace_gap), tuple(B), tuple(r)
    )


def _fit_pieces(fit: FittedStats) -> _Margins:
    """The margins of ``fit``, computed on first use and kept on the fit like its
    :attr:`~FittedStats.pair`. They depend on the kernel, the shrinkage pair and
    the counts alone, never on the priors, so every estimator call shares them;
    ``dataclasses.replace`` and a reload start without them."""
    margins = fit.__dict__.get("_pieces")
    if margins is None:
        pair = fit.pair
        gammas, counts = (fit.gamma0, fit.gamma1), (fit.n0, fit.n1)
        margins = fit.__dict__["_pieces"] = _pieces(pair, pair.quartic_weights(), gammas, counts)
    return margins


def _candidate(
    pair: SpectralPair,
    quartic: tuple,
    gamma0: float,
    counts: tuple[int, int],
    priors: tuple[float, float],
) -> tuple[_Margins, BiasEstimate, GEstimate]:
    """One tuning candidate: the matched shrinkage :func:`gamma1_hat` at
    ``gamma0``, then :func:`theta_hat` and the error estimate at that bias, all
    from one set of margins on ``pair`` (with its ``quartic`` weights), which are
    returned too; their ``gammas`` are (``gamma0``, the matched shrinkage)."""
    p = pair.values0.shape[0]
    trace0 = float(np.sum(1.0 / (1.0 + gamma0 * pair.values0)))
    d0 = _delta_from_trace(trace0, p, counts[0], gamma0)
    gamma1 = gamma1_hat(d0, counts[0], counts[1], gamma0)
    margins = _pieces(pair, quartic, (gamma0, gamma1), counts)
    bias = _bias_from(margins, priors)
    return margins, bias, _error_from(margins, bias, bias.theta_hat, priors)


def _bias_from(margins: _Margins, priors: tuple[float, float]) -> BiasEstimate:
    (beta0, beta1), B0 = margins.beta, margins.variance[0]
    theta, alpha = _designed_bias(margins, priors, _ESTIMATED)
    return BiasEstimate(
        theta_hat=theta, beta_hat0=beta0, beta_hat1=beta1, alpha_hat=alpha, B_hat0=B0
    )


def theta_hat(fit: FittedStats, priors: tuple[float, float]) -> BiasEstimate:
    """Training-only estimate of the error-minimizing bias.

    ``fit`` should carry the matched majority-class shrinkage (the estimate
    from :func:`gamma1_hat`); the consistency of the result depends on it.
    """
    return _bias_from(_fit_pieces(fit), _check_priors(priors))


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
        return json.dumps(asdict(self), sort_keys=True)


def g_estimator_error(
    fit: FittedStats, theta: float, priors: tuple[float, float]
) -> GEstimate:
    """Estimate both class error rates of the two-shrinkage rule at ``theta``.

    Every ingredient comes from the fitted statistics; the result is what the
    tuner minimizes in place of cross-validation. The centering and trace
    parts split so that their differences reproduce the margins of
    :func:`theta_hat` to rounding.
    """
    priors = _check_priors(priors)
    margins = _fit_pieces(fit)
    return _error_from(margins, _bias_from(margins, priors), theta, priors)


def _error_from(
    margins: _Margins, bias: BiasEstimate, theta: float, priors: tuple[float, float]
) -> GEstimate:
    xi, eps, total = _class_errors(theta, margins, priors, _ESTIMATED)
    return GEstimate(
        delta_hat0=margins.delta[0],
        delta_hat1=margins.delta[1],
        gamma1_hat=margins.gammas[1],
        beta_hat0=margins.beta[0],
        beta_hat1=margins.beta[1],
        alpha_hat=bias.alpha_hat,
        B_hat0=margins.variance[0],
        B_hat1=margins.variance[1],
        theta_hat=theta,
        xi_hat0=xi[0],
        xi_hat1=xi[1],
        b_hat0=margins.trace_gap[0],
        b_hat1=margins.trace_gap[1],
        r_hat0=margins.offset[0],
        r_hat1=margins.offset[1],
        eps_hat0=eps[0],
        eps_hat1=eps[1],
        total_hat=total,
    )
