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
(:attr:`FittedStats.pair`). Both classes take one route: each form is its
value at an identity resolvent less a term on the resolvent's range, so either
basis may be thin (the kernel makes the minority's thin when n0 - 1 < p) and
its null directions enter in closed form. A shrinkage candidate thus costs a
few matrix-vector products on the kernel, at most O(p^2), and forms no
resolvent, which is what makes grid tuning cheap.

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
from .estimation import (
    FittedStats,
    SpectralPair,
    _check_whole,
    _in_float_range,
    _resolvent_weights,
)
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
    _check_whole(n, "n")
    if n < 2:
        raise ValueError("need at least two observations, got n=%d" % (n,))
    spent = H.shape[0] - float(np.trace(H))
    return _delta_from_range(spent, n - 1 - spent, gamma)


def _delta_from_range(spent: float, left: float, gamma: float) -> float:
    """:func:`delta_hat` = sum(v) / (gamma (m - sum(v))) at m = n - 1, from ``spent`` =
    sum(v) = p - Tr[H] and ``left`` = m - sum(v), each passed in rather than left to cancel."""
    if not 0.0 < gamma < math.inf:
        raise InvalidRegularizerError(
            "fixed-point inversion needs finite, strictly positive shrinkage, got %r" % (gamma,)
        )
    if not (spent >= 0.0 and left > 0.0):
        raise DegenerateEstimateError("resolvent range sum %r leaves %r of the count's degrees "
                                      "of freedom; the two are inconsistent" % (spent, left))
    return spent / (gamma * left)


def gamma1_hat(delta0: float, n0: int, n1: int, gamma0: float) -> float:
    """Estimated majority-class shrinkage matched to the minority class.

    Equal counts return ``gamma0`` exactly, bit for bit, because the imbalance
    factor vanishes identically; the factor is formed from the effective
    counts to stay aligned with :func:`delta_hat`.
    """
    _check_whole(n0, "n0")
    _check_whole(n1, "n1")
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


def _weights(values: np.ndarray, gamma: float, n: int) -> tuple:
    """A resolvent's range weights w and v (:func:`~hdqda.estimation._resolvent_weights`)
    and :func:`delta_hat` from sum(v) and m - sum(v) = (m - len(v)) + sum(w);
    margins and matching share it."""
    w, v = _resolvent_weights(values, gamma)
    left = (n - 1 - v.shape[0]) + float(np.sum(w))
    return w, v, _delta_from_range(float(np.sum(v)), left, gamma)


def _pieces(
    pair: SpectralPair, gammas: tuple[float, float], counts: tuple[int, int], weights0=None
) -> _Margins:
    """The sample-spectrum margins at ``gammas`` and ``counts``, every trace and
    quadratic form taken on the spectral kernel, by one route for any rank;
    ``weights0`` is class 0's :func:`_weights` when the caller has formed it.

    ``pair`` holds the two sample covariances S_i, the mean gap mu_hat0 - mu_hat1
    and their quartic weights :attr:`~SpectralPair.quartic`; the resolvents
    H_i = (I + gamma_i S_i)^{-1} enter only as their range weights
    v_i = gamma_i l_i w_i = 1 - w_i, zero on any null direction of S_i, so each
    form in H_j is its value at H_j = I less a range term, and no p x p product
    or factorization is formed here.
    """
    l, p = (pair.values0, pair.values1), pair.dim
    sqrt_p = math.sqrt(p)
    # W and R oriented with the test class's coordinates first.
    W, R = (pair.weights, pair.weights.T), (pair.rotation, pair.rotation.T)
    quartic = pair.quartic
    if weights0 is None:
        weights0 = _weights(l[0], gammas[0], counts[0])
    w, v, delta = zip(weights0, _weights(l[1], gammas[1], counts[1]))
    beta, shift, trace_gap, B, r = [], [], [], [], []
    for i, sign in ((0, -1.0), (1, 1.0)):
        j, n, gamma, d = 1 - i, counts[i], gammas[i], delta[i]
        m = n - 1
        shrink = 1.0 + gamma * d
        # Debiased own quartic Tr[S_i H_i S_i H_i]: the powers of shrink undo
        # the self-averaging of the sample covariance inside its own resolvent.
        curvature = shrink**4 * float(np.sum((l[i] * w[i]) ** 2)) / p - m / p * d**2 * shrink**2
        # The trace inversion behind delta_hat is exact only on average; the
        # curvature of the inversion map leaves a downward bias of order 1/n in
        # the own trace, clipped so a noisy quartic can only shrink it.
        own = m * (d + gamma * p * max(curvature, 0.0) / (m * m * shrink))
        # Class j's resolvent in class i's basis: diag(U_i^T H_j U_i) = 1 - reach,
        # the rows of W summing to 1 over class j's full basis.
        reach = W[i] @ v[j]
        cross = float(np.sum(l[i]) - l[i] @ reach)  # Tr[S_i H_j]
        quad = pair.gap_square - float(np.sum(pair.gap[j] ** 2 * v[j]))  # gap^T H_j gap
        # The gap quadratic feels the noise of its own estimated mean (upward,
        # by the cross trace over the count) and the own-mean quadratic that
        # the rule subtracts (upward, by the own trace over the count); both
        # are removed so the margins center where the realized rule sits. The
        # margin is -shift -/+ trace_gap, split as in ``rmt._limit_margins``.
        shift.append((quad - cross / n - own / n) / sqrt_p)
        trace_gap.append(-sign * (cross - own) / sqrt_p)
        beta.append(-shift[i] + sign * trace_gap[i])
        # Tr[S_i H_j S_i H_j], the rows of quartic[i] summing to W[i]^T l_i^2, and
        # Tr[S_i H_i S_i H_j].
        cross_quartic = float(np.sum(l[i] ** 2 * (1.0 - 2.0 * reach)) + v[j] @ quartic[i] @ v[j])
        mixed_quartic = float(np.sum(l[i] ** 2 * w[i] * (1.0 - reach)))
        # Quadratic-form variance; the subtracted squares remove the noise the
        # sample covariance adds to the plain trace products.
        B.append(
            curvature
            + cross_quartic / p
            - cross**2 / (m * p)
            - 2.0 * shrink**2 / p * mixed_quartic
            + d * shrink * 2.0 / p * cross
        )
        # gap^T H_j S_i H_j gap from U_i^T H_j gap.
        carried = pair.gap[i] - R[i] @ (v[j] * pair.gap[j])
        r.append(float(np.sum(l[i] * carried**2)) / p)
    return _Margins(gammas, delta, tuple(beta), tuple(shift), tuple(trace_gap), tuple(B), tuple(r))


@_in_float_range
def _fit_pieces(fit: FittedStats) -> _Margins:
    """The margins of ``fit``, on its kernel :attr:`~FittedStats.pair` at its
    shrinkage pair and counts; they never depend on the priors."""
    return _pieces(fit.pair, (fit.gamma0, fit.gamma1), (fit.n0, fit.n1))


@_in_float_range
def _candidate(
    pair: SpectralPair, gamma0: float, counts: tuple[int, int], priors: tuple[float, float]
) -> tuple[_Margins, BiasEstimate, GEstimate]:
    """One tuning candidate: the matched shrinkage :func:`gamma1_hat` at
    ``gamma0``, then :func:`theta_hat` and the error estimate at that bias, all
    from one set of margins on ``pair``, which are returned too; their
    ``gammas`` are (``gamma0``, the matched shrinkage)."""
    weights0 = _weights(pair.values0, gamma0, counts[0])
    gamma1 = gamma1_hat(weights0[2], counts[0], counts[1], gamma0)
    margins = _pieces(pair, (gamma0, gamma1), counts, weights0)
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
    parts are the very ones the margins of :func:`theta_hat` are formed from.
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
