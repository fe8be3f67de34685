"""Deterministic equivalents and asymptotic error prediction.

In the proportional regime (dimension and sample counts growing together) the
resolvent of each shrunken sample covariance concentrates around a
deterministic matrix driven by a scalar fixed point. The limiting error, the
matched shrinkage and the designed bias need only a few traces and quadratic
forms of those limits, and one spectral route computes them all: each class
covariance is diagonalized once, the fixed point is found on its spectrum
(:func:`eigen_delta_solver`), and every cross-class trace is a weighted sum
over the two eigenbases, on the kernel the training-only estimator shares
(:class:`~hdqda.estimation.SpectralPair`), which a mixture builds once and keeps.

The fixed point has one bracketed root-find and two independent trace maps:
:func:`eigen_delta_solver` sums over the spectrum, and :func:`solve_delta`
reads a Householder tridiagonal form of the dense covariance and never forms
an eigenvalue, so the two agreeing cross-checks the trace.

The designed bias, the class-error assembly and the matched shrinkage live here
once. They read one :class:`_Margins` record, built in one pass of one shape
from the true spectra here (:func:`_limit_margins`) and from the sample ones in
:mod:`hdqda.gestim`, each side naming its own failures.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack
from scipy.special import ndtr

from .errors import (
    ConvergenceError,
    DegenerateDesignError,
    InvalidRegularizerError,
    NotSpdError,
    StabilityError,
)
from .estimation import _check_whole, _shifted_inverse
from .model import MixtureModel, _is_symmetric

__all__ = [
    "DeterministicEquivalents",
    "AsymptoticPrediction",
    "ThetaDesign",
    "solve_delta",
    "eigen_delta_solver",
    "asymptotic_error",
    "gamma1_theoretical",
    "theta_star_theoretical",
]


@dataclass(frozen=True)
class DeterministicEquivalents:
    """Scalar fixed point and resolvent limit for one class.

    ``delta`` solves delta = (1/n) Tr[sigma (I + gamma/(1+gamma*delta) sigma)^-1]
    and ``T`` is the matrix inverse evaluated at the solution. ``phi`` is the
    second spectral moment (1/n) Tr[sigma^2 T^2] and ``phi_tilde`` the squared
    shrinkage of the fixed-point denominator. ``residual`` is the fixed-point
    gap |delta - (1/n) Tr[sigma T]| at the returned root and ``iterations``
    the number of trace-map evaluations the root-find spent.
    """

    delta: float
    T: np.ndarray
    phi: float
    phi_tilde: float
    gamma: float
    n: int
    residual: float = 0.0
    iterations: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("sample count must be positive, got %d" % (self.n,))
        if self.gamma < 0.0:
            raise InvalidRegularizerError("shrinkage must be nonnegative, got %r" % (self.gamma,))
        if self.delta < 0.0 or not math.isfinite(self.delta):
            raise StabilityError("fixed point must be finite and nonnegative, got %r" % (self.delta,))
        if not 0.0 < self.phi_tilde <= 1.0:
            raise StabilityError("shrinkage factor out of (0, 1]: %r" % (self.phi_tilde,))
        if self.stability_margin() <= 0.0:
            raise StabilityError(
                "spectral stability margin is %r; the fixed point is not admissible"
                % (self.stability_margin(),)
            )

    def stability_margin(self) -> float:
        """1 - gamma^2 phi phi_tilde; must stay strictly positive."""
        return 1.0 - self.gamma**2 * self.phi * self.phi_tilde


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Per-class limiting error rates with their building blocks.

    Arrays are indexed by class. ``mean_shift`` is the centering of the
    normalized score, ``trace_gap`` the resolvent-trace asymmetry, and the two
    variance fields split the limiting fluctuation into the quadratic-form
    part and the estimated-mean part.
    """

    eps0: float
    eps1: float
    total: float
    mean_shift: np.ndarray
    trace_gap: np.ndarray
    quad_variance: np.ndarray
    offset_variance: np.ndarray
    delta: np.ndarray
    phi: np.ndarray
    phi_tilde: np.ndarray


@dataclass(frozen=True)
class ThetaDesign:
    """Error-minimizing bias together with the class margins it balances."""

    theta_star: float
    beta0: float
    beta1: float
    alpha: float


class _Vocabulary(NamedTuple):
    """How a caller names its failures: margin adjective, bad-spread and degenerate-design errors."""

    adjective: str
    unstable: type[Exception]
    degenerate: type[Exception]


_LIMITING = _Vocabulary("limiting", StabilityError, DegenerateDesignError)


@dataclass(frozen=True)
class _Margins:
    """Everything the design and error formulas read, each pair indexed by the
    class of the test observation, with the shrinkage pair it was taken at.

    For test class i the score centers at xi_i = theta -/+ ``shift[i]`` and
    sits ``trace_gap[i]`` off it, ``beta[i]`` = -shift_i -/+ trace_gap_i is the
    margin the designed bias balances, and the score spread is
    2 ``variance[i]`` + 4 ``offset[i]``. :func:`_limit_margins` builds it from
    the true spectra, ``gestim._pieces`` from the sample ones, in one shape.
    """

    gammas: tuple[float, float]
    delta: tuple[float, float]
    beta: tuple[float, float]
    shift: tuple[float, float]
    trace_gap: tuple[float, float]
    variance: tuple[float, float]
    offset: tuple[float, float]


def _designed_bias(
    margins: _Margins, priors: tuple[float, float], words: _Vocabulary
) -> tuple[float, float]:
    """Bias minimizing the total error at margins beta0, beta1 and variance 2 B0, and
    alpha = sqrt(2 B0); unequal priors add a log-odds term that needs uncancelled margins."""
    (beta0, beta1), B0 = margins.beta, margins.variance[0]
    if not B0 > 0.0:
        raise words.unstable("%s score variance is %r" % (words.adjective, B0))
    alpha = math.sqrt(2.0 * B0)
    log_odds = math.log(priors[1] / priors[0])
    theta = (beta1 - beta0) / 2.0
    if log_odds != 0.0:
        balance = beta1 + beta0
        if abs(balance) <= 1e-12 * max(1.0, abs(beta0), abs(beta1)):
            raise words.degenerate(
                "%s class margins cancel; prior correction is undefined" % (words.adjective,)
            )
        theta -= 2.0 * alpha**2 / balance * log_odds
    return theta, alpha


def _class_errors(
    theta: float, margins: _Margins, priors, words: _Vocabulary
) -> tuple[list[float], list[float], float]:
    """Per test class i: the center xi_i = theta -/+ shift_i, the error
    Phi(+/-(xi_i - trace_gap_i) / sqrt(2 variance_i + 4 offset_i)) with upper
    signs for class 0, and the prior-weighted total."""
    if not math.isfinite(theta):
        raise ValueError("bias must be finite, got %r" % (theta,))
    xi, eps = [], []
    for i, sign in ((0, -1.0), (1, 1.0)):
        xi.append(theta + sign * margins.shift[i])
        spread = 2.0 * margins.variance[i] + 4.0 * margins.offset[i]
        if not spread > 0.0:
            raise words.unstable("%s score spread is %r" % (words.adjective, spread))
        eps.append(float(ndtr(-sign * (xi[i] - margins.trace_gap[i]) / math.sqrt(spread))))
    return xi, eps, priors[0] * eps[0] + priors[1] * eps[1]


def _matched_shrinkage(gamma0: float, delta0: float, ratio: float, words: _Vocabulary) -> float:
    """Majority shrinkage gamma0 / (1 - gamma0 (ratio - 1) delta0) balancing the
    two resolvent traces at count ratio n0/n1; a ratio of 1 returns gamma0 exactly."""
    if not 0.0 <= delta0 < math.inf:
        raise ValueError("delta0 must be finite and nonnegative, got %r" % (delta0,))
    denominator = 1.0 - gamma0 * (ratio * delta0 - delta0)
    if not denominator > 0.0:
        raise words.degenerate("matched shrinkage denominator is %r" % (denominator,))
    return gamma0 / denominator


def _check_solver_args(n: int, gamma: float) -> None:
    if not n >= 1:
        raise ValueError("sample count must be positive, got %r" % (n,))
    if not gamma >= 0.0:
        raise InvalidRegularizerError("shrinkage must be nonnegative, got %r" % (gamma,))
    if math.isinf(n):
        raise ValueError("sample count must be finite, got %r" % (n,))
    _check_whole(n, "sample count")
    if math.isinf(gamma):
        raise InvalidRegularizerError("shrinkage must be finite, got %r" % (gamma,))


def _fixed_point(
    trace_map: Callable[[float], float], upper: float, n: int, gamma: float
) -> tuple[float, int]:
    """The one root-find both solvers share: delta = trace_map(s(delta)) / n.

    ``trace_map(s)`` returns Tr[sigma (I + s sigma)^-1] and
    s(delta) = gamma / (1 + gamma delta). The root lies in [0, upper] with
    upper = Tr[sigma] / n, where the gap delta - trace_map(s)/n changes sign,
    and a derivative-free bracketing method closes in on it. Returns the root
    and the number of trace-map evaluations spent.
    """
    if gamma == 0.0 or upper == 0.0:
        return upper, 0

    def gap(delta: float) -> float:
        return delta - trace_map(gamma / (1.0 + gamma * delta)) / n

    top = gap(upper)
    if top <= 0.0:
        return upper, 1
    # Loaded here, not at import: fitting, tuning and scoring never root-find,
    # and scipy.optimize is a large share of the package's import time.
    from scipy import optimize

    # brentq evaluates both ends itself: answering the upper one from ``top``
    # makes its call count the number of trace-map evaluations made.
    root, info = optimize.brentq(
        lambda delta: top if delta == upper else gap(delta),
        0.0, upper, xtol=1e-14, full_output=True, disp=False,
    )
    if not info.converged:
        raise ConvergenceError(
            "fixed-point root-find did not converge after %d iterations: %s"
            % (info.iterations, info.flag)
        )
    return float(root), info.function_calls


def _shifted_trace(diagonal: np.ndarray, off: np.ndarray, scale: float) -> float:
    """Tr[(I + scale * tri)^-1] in O(p), tri the symmetric tridiagonal with ``diagonal``
    and ``off``: with f and g the pivots of A = I + scale * tri factored from the top
    and from the bottom (``dpttrf``), 1 / (A^-1)_ii = f_i + g_i - a_i."""
    a = 1.0 + scale * diagonal
    # At p = 1 the pivot is a itself; scipy's dpttrf rejects the empty off-diagonal.
    forward, backward, info = a, a, int(not a[0] > 0.0)
    if a.size > 1:
        forward, _, info = lapack.dpttrf(a, scale * off)
        backward, _, _ = lapack.dpttrf(a[::-1], scale * off[::-1])
    if info != 0:
        raise NotSpdError("I + %r * sigma is not positive definite: leading minor %d "
                          "fails on its tridiagonal form" % (scale, info))
    return float(np.sum(1.0 / (forward + backward[::-1] - a)))


def solve_delta(sigma: np.ndarray, n: int, gamma: float) -> DeterministicEquivalents:
    """Fixed point and resolvent limit on the dense covariance ``sigma`` (p x p,
    symmetric positive semidefinite) of a class with ``n`` training rows, at
    shrinkage ``gamma`` >= 0.

    One bracketed root-find, two independent trace maps: this one reduces sigma
    once to tridiagonal form (``dsytrd``), takes each step's Tr[(I + a sigma)^-1]
    from it in O(p) (:func:`_shifted_trace`) and the map through
    Tr[sigma (I + a sigma)^-1] = (p - Tr[(I + a sigma)^-1]) / a, so it never
    forms an eigenvalue and serves as the dense cross-check of
    :func:`eigen_delta_solver`. One Cholesky factorization at the root forms
    ``T``, and ``residual`` checks the tridiagonal trace against the dense sigma T.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.size == 0:
        raise ValueError("covariance must be square and nonempty, got shape %r" % (sigma.shape,))
    if not np.isfinite(sigma).all():
        raise ValueError("covariance has non-finite entries")
    if not _is_symmetric(sigma):
        raise ValueError("covariance is not symmetric within tolerance")
    _check_solver_args(n, gamma)
    p = sigma.shape[0]
    work, _ = lapack.dsytrd_lwork(p, lower=1)
    _, diagonal, off, _, _ = lapack.dsytrd(sigma, lower=1, lwork=int(work))
    delta, evaluations = _fixed_point(
        lambda scale: (p - _shifted_trace(diagonal, off, scale)) / scale,
        float(np.trace(sigma)) / n, n, gamma,
    )
    T, _ = _shifted_inverse(sigma, gamma / (1.0 + gamma * delta))
    product = sigma @ T
    return DeterministicEquivalents(
        delta=delta, T=T, phi=float(np.vdot(product, product)) / n,
        phi_tilde=1.0 / (1.0 + gamma * delta) ** 2, gamma=gamma, n=n,
        residual=abs(delta - float(np.trace(product)) / n), iterations=evaluations,
    )


def eigen_delta_solver(eigenvalues: np.ndarray, n: int, gamma: float) -> float:
    """Fixed point on a known spectrum.

    One bracketed root-find, two independent trace maps: this one sums
    l / (1 + s l) over the eigenvalues, while :func:`solve_delta` reads a
    tridiagonal form of the dense covariance, so the two agreeing is a
    meaningful cross-check of the trace, not a redundancy.
    """
    eig = np.asarray(eigenvalues, dtype=float).reshape(-1)
    if eig.size == 0:
        raise ValueError("need at least one eigenvalue")
    if not np.isfinite(eig).all():
        raise ValueError("covariance spectrum has non-finite entries")
    floor = -1e-12 * max(1.0, float(np.max(np.abs(eig), initial=0.0)))
    if np.any(eig < floor):
        raise NotSpdError("covariance spectrum has negative entries")
    eig = np.clip(eig, 0.0, None)
    _check_solver_args(n, gamma)
    return _fixed_point(
        lambda scale: float(np.sum(eig / (1.0 + scale * eig))),
        float(np.sum(eig)) / n,
        n,
        gamma,
    )[0]


def _limit_margins(
    model: MixtureModel, n0: int, n1: int, gamma0: float, gamma1: float
) -> tuple[tuple[tuple[float, float], tuple[float, float]], _Margins]:
    """The true-spectrum margins, every trace and quadratic form taken on the
    spectral kernel the mixture keeps (:attr:`~hdqda.model.MixtureModel.pair`),
    with (phi, phi_tilde) for :class:`AsymptoticPrediction`.

    The resolvent limit is T_i = U_i diag(t_i) U_i^T with t_i = 1 / (1 + s_i l_i)
    and s_i = gamma_i / (1 + gamma_i delta_i).
    """
    pair, p = model.pair, model.dim
    sqrt_p = math.sqrt(p)
    counts, gammas = (n0, n1), (gamma0, gamma1)
    l = (pair.values0, pair.values1)
    delta, t, phi, phi_tilde, margin = [], [], [], [], []
    for k in (0, 1):
        n, gamma = counts[k], gammas[k]
        d = eigen_delta_solver(l[k], n, gamma)
        scale = gamma / (1.0 + gamma * d) if gamma > 0.0 else 0.0
        t.append(1.0 / (1.0 + scale * l[k]))
        phi.append(float(np.sum(l[k] ** 2 * t[k] ** 2)) / n)
        phi_tilde.append(1.0 / (1.0 + gamma * d) ** 2)
        margin.append(1.0 - gamma**2 * phi[k] * phi_tilde[k])
        if margin[k] <= 0.0:
            raise StabilityError("spectral stability margin is %r" % (margin[k],))
        delta.append(d)
    across = pair.across
    # Tr[sigma_i T_j], ||sigma_i T_j||_F^2 = Tr[sigma_i^2 T_j^2], Tr[sigma_i^2 T_i T_j]
    # and Tr[sigma_i T_j sigma_j T_j] for j = 1 - i, over both bases.
    cross = (across(l[0], t[1]), across(t[0], l[1]))
    cross_sq = (across(l[0] ** 2, t[1] ** 2), across(t[0] ** 2, l[1] ** 2))
    mixed_sq = (across(l[0] ** 2 * t[0], t[1]), across(t[0], l[1] ** 2 * t[1]))
    sandwich = (across(l[0], l[1] * t[1] ** 2), across(l[0] * t[0] ** 2, l[1]))
    shift, trace_gap, beta, variance, offset = [], [], [], [], []
    for i, sign in ((0, -1.0), (1, 1.0)):
        j = 1 - i
        shift.append(float(np.sum(pair.gap[j] ** 2 * t[j])) / sqrt_p)
        trace_gap.append(sign * (float(np.sum(l[i] * t[i])) - cross[i]) / sqrt_p)
        beta.append(-shift[i] + sign * trace_gap[i])
        # The sandwich-squared fluctuation is sourced by the resolvent's own
        # Wishart noise, so it scales with the opposite class's sample count.
        variance.append(
            counts[i] / p * phi[i] / margin[i]
            + cross_sq[i] / p
            - 2.0 * mixed_sq[i] / p
            + (gammas[j] ** 2 * phi_tilde[j] / margin[j]) * sandwich[i] ** 2 / (counts[j] * p)
        )
        offset.append(float(np.sum(pair.gap[j] ** 2 * l[j] * t[j] ** 2)) / p / margin[j])
    margins = _Margins(gammas, *map(tuple, (delta, beta, shift, trace_gap, variance, offset)))
    return (tuple(phi), tuple(phi_tilde)), margins


def asymptotic_error(
    model: MixtureModel, n0: int, n1: int, gamma0: float, gamma1: float, theta: float
) -> AsymptoticPrediction:
    """Limiting per-class error of the two-shrinkage rule with bias ``theta``.

    The score spread of test class i is 2B + 4r. ``quad_variance`` B is the
    non-simplified quadratic-form variance, Wishart noise of both resolvents
    included; the simplified large-p forms are noticeably less accurate at
    moderate dimension. ``offset_variance`` r uses only the true mean gap g:
    r_i = g^T T_j Sigma_i T_j g / (p * margin_j) for j = 1 - i. It leaves out
    the noise of the estimated means, 4/p * sum_j Tr[Sigma_i T_j Sigma_j T_j] / n_j,
    which vanishes like 1/p but at desk dimension and small shrinkage is most
    of the gap to the exact conditional spread of
    :func:`~hdqda.discriminant.conditional_score_moments`.
    """
    (phi, phi_tilde), margins = _limit_margins(model, n0, n1, gamma0, gamma1)
    mean_shift, eps, total = _class_errors(theta, margins, (model.prior0, model.prior1), _LIMITING)
    return AsymptoticPrediction(
        eps0=eps[0], eps1=eps[1], total=total,
        mean_shift=np.array(mean_shift),
        trace_gap=np.array(margins.trace_gap),
        quad_variance=np.array(margins.variance),
        offset_variance=np.array(margins.offset),
        delta=np.asarray(margins.delta),
        phi=np.asarray(phi),
        phi_tilde=np.asarray(phi_tilde),
    )


def gamma1_theoretical(
    sigma0: np.ndarray, n0: int, n1: int, gamma0: float, *, delta0: float | None = None
) -> float:
    """Majority-class shrinkage matched to the minority-class choice.

    Balances the resolvent traces of the two classes so the trace asymmetry of
    the score stays bounded as the dimension grows. Requires the class-1 count
    to be at least the class-0 count (canonical orientation); equal counts
    return ``gamma0`` exactly. Without ``delta0`` the class-0 fixed point comes
    from :func:`eigen_delta_solver` on the spectrum of ``sigma0``.
    """
    if n1 < n0:
        raise ValueError(
            "expected the minority class first: n0=%d exceeds n1=%d" % (n0, n1)
        )
    _check_solver_args(n0, gamma0)
    _check_whole(n1, "n1")
    if delta0 is None:
        delta0 = eigen_delta_solver(np.linalg.eigvalsh(sigma0), n0, gamma0)
    return _matched_shrinkage(gamma0, delta0, n0 / n1, _LIMITING)


def theta_star_theoretical(
    model: MixtureModel, n0: int, n1: int, gamma0: float, gamma1: float
) -> ThetaDesign:
    """Bias minimizing the limiting total error at the given shrinkage pair.

    With equal priors the bias centers the two class margins exactly; with
    unequal priors a log-odds correction scaled by the common variance is
    subtracted, which requires the margins not to cancel.
    """
    _, margins = _limit_margins(model, n0, n1, gamma0, gamma1)
    beta0, beta1 = margins.beta
    theta, alpha = _designed_bias(margins, (model.prior0, model.prior1), _LIMITING)
    return ThetaDesign(theta_star=theta, beta0=beta0, beta1=beta1, alpha=alpha)
