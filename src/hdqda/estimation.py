"""Sample statistics, the shrunken resolvents every classifier builds on, and
the spectral kernel that the error estimator and the theory share.

The resolvent of a sample covariance at shrinkage gamma is (I + gamma * S)^{-1},
always SPD for gamma >= 0. A shifted sample covariance is factored here, by
LAPACK's Cholesky, once, when a resolvent is first read, the resolvent its SPD
inverse and its log-determinant from the same factor; no true one is factored,
as the theory works on spectra. A trace or quadratic form of covariances
against resolvents needs no resolvent: with each covariance diagonalized once
(:func:`eigenpair`), a resolvent is a weight vector on its eigenvalues, and
:class:`SpectralPair` takes every such trace at O(p^2) cost.

The paper's minority class has fewer rows than features, so its sample
covariance has rank r = n0 - 1 < p, and only its range is diagonalized, from a
pivoted Cholesky factor. Either basis may be thin, its null space, where every
resolvent is the identity, entering in closed form; only the minority's is, as
near full rank the range route is slower than a p x p ``eigh``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _lapack
from .errors import DegenerateEstimateError, InsufficientSamplesError, NotSpdError

__all__ = [
    "TrainingSet",
    "FittedStats",
    "PooledStats",
    "sample_moments",
    "regularized_resolvent",
    "fit",
    "fit_pooled",
]


@dataclass(frozen=True)
class TrainingSet:
    """Labeled training data as one row-block per class."""

    X0: np.ndarray
    X1: np.ndarray

    def __post_init__(self):
        x0 = np.asarray(self.X0, dtype=float)
        x1 = np.asarray(self.X1, dtype=float)
        if x0.ndim != 2 or x1.ndim != 2:
            raise ValueError("class blocks must be 2-D row matrices")
        if x0.shape[1] != x1.shape[1]:
            raise ValueError(
                "class blocks disagree on dimension: %d vs %d" % (x0.shape[1], x1.shape[1])
            )
        if x0.shape[1] == 0:
            raise ValueError("class blocks need at least one feature column")
        if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(x1))):
            raise ValueError("training data must be finite; found NaN or inf")
        if x0.shape[0] < 2 or x1.shape[0] < 2:
            raise InsufficientSamplesError(
                "need at least 2 rows per class, got %d and %d" % (x0.shape[0], x1.shape[0])
            )
        object.__setattr__(self, "X0", x0)
        object.__setattr__(self, "X1", x1)

    @property
    def n0(self) -> int:
        return self.X0.shape[0]

    @property
    def n1(self) -> int:
        return self.X1.shape[0]

    @property
    def n(self) -> int:
        return self.n0 + self.n1

    @property
    def p(self) -> int:
        return self.X0.shape[1]

    def swapped(self) -> "TrainingSet":
        return TrainingSet(self.X1, self.X0)


def _check_whole(n, name: str) -> None:
    """Reject a count that is not a whole number: a fraction, NaN, an infinity
    or a boolean; a whole float passes as its integer."""
    if isinstance(n, (bool, np.bool_)) or not float(n).is_integer():
        raise ValueError("%s must be a whole number, got %r" % (name, n))


def _in_float_range(
    estimate, *, error=DegenerateEstimateError, message="estimate leaves the float range"
):
    """``estimate`` with a value that overflows the float range, in numpy or in
    a float power, refused as DegenerateEstimateError, not left to warn or to
    raise a bare arithmetic error; tuning records it as a failed candidate.
    It guards the sample moments (:func:`sample_moments`, :func:`fit_pooled`),
    both routes into :func:`~hdqda.gestim._pieces`, the quartic weights
    included, and a draw's kernel (:func:`~hdqda.pipeline._canonical`).
    The limit's margins (:func:`~hdqda.rmt._limit_margins`) pass their own
    ``error`` and ``message``."""

    @functools.wraps(estimate)
    def guarded(*args, **kwargs):
        try:
            with np.errstate(over="raise"):
                return estimate(*args, **kwargs)
        except (FloatingPointError, OverflowError) as exc:
            raise error("%s: %s" % (message, exc)) from None

    return guarded


@_in_float_range
def sample_moments(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column mean and unbiased (n-1 normalized) sample covariance; rows so
    large that a moment overflows are refused (:func:`_in_float_range`)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("expected a 2-D row matrix, got shape %s" % (X.shape,))
    n = X.shape[0]
    if n < 2:
        raise InsufficientSamplesError("covariance needs n >= 2 rows, got %d" % n)
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (n - 1)
    cov = 0.5 * (cov + cov.T)
    return mean, cov


def _check_shrinkage(gamma: float) -> None:
    """Reject a NaN, infinite or negative shrinkage value."""
    if not 0.0 <= gamma < math.inf:
        raise ValueError("shrinkage parameter must be finite and >= 0, got %r" % (gamma,))


def _shifted_inverse(sigma_hat: np.ndarray, gamma: float) -> tuple[np.ndarray, float]:
    """(I + gamma * sigma_hat)^{-1} and log det(I + gamma * sigma_hat) from one LAPACK
    Cholesky factorization (``dpotrf``), the one place a shifted sample covariance is
    factored: the log-det from the factor's diagonal, the inverse from
    ``dpotri`` with its lower triangle mirrored, so it is exactly symmetric. A
    gamma * sigma_hat that overflows is refused as DegenerateEstimateError."""
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    _check_shrinkage(gamma)
    p = sigma_hat.shape[0]
    if gamma == 0.0:
        return np.eye(p), 0.0
    # I + gamma * sigma_hat, formed in the Fortran order LAPACK reads so that
    # it is factored and inverted in place; then its lower Cholesky factor.
    try:
        with np.errstate(over="raise"):
            factor = np.multiply(gamma, sigma_hat, order="F")
    except FloatingPointError:
        raise DegenerateEstimateError(
            "I + %r * sigma leaves the float range" % (gamma,)
        ) from None
    factor.flat[:: p + 1] += 1.0
    factor, info = _lapack.dpotrf(factor)
    if info != 0:
        cond = float(np.linalg.cond(gamma * sigma_hat + np.eye(p)))
        raise NotSpdError(
            "I + %r * sigma is not positive definite: leading minor %d fails "
            "(condition estimate %.3e)" % (gamma, info, cond)
        )
    logdet = 2.0 * float(np.sum(np.log(np.diagonal(factor))))
    # dpotri cannot fail on a factor. Both routines leave the strict upper
    # triangle as they found it, so the lower one's mirror is copied onto it.
    inverse, _ = _lapack.dpotri(factor)
    np.copyto(inverse, inverse.T.copy(), where=np.tri(p, k=-1, dtype=bool).T)
    return inverse, logdet


def regularized_resolvent(sigma_hat: np.ndarray, gamma: float) -> np.ndarray:
    """(I + gamma * sigma_hat)^{-1} via Cholesky; eigenvalues lie in (0, 1]."""
    return _shifted_inverse(sigma_hat, gamma)[0]


def eigenpair(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending, rounding negatives clipped to zero) and eigenbasis
    of a symmetric positive semidefinite matrix."""
    values, basis = np.linalg.eigh(matrix)
    return np.clip(values, 0.0, None), basis


class _Kept:
    """A value derived from its instance on first read and kept in the
    instance dict, which every later read finds before the class. The
    standard library's cached property holds one lock per class while it
    derives on Python < 3.12; this holds none, so instances on other threads
    never wait for each other's p^3 factorizations and eigenproblems. Two
    threads that read one instance's missing value may each derive it; the
    two are equal, and one is kept. It writes past a frozen dataclass's
    ``__setattr__``, and ``dataclasses.replace`` starts without what it
    kept."""

    def __init__(self, derive):
        self.derive = derive
        self.__doc__ = derive.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.derive(instance)
        instance.__dict__[self.name] = value
        return value


class SpectralPair:
    """Two covariances sigma_i = U_i diag(l_i) U_i^T, coupled by W = R o R with
    R = U_0^T U_1, and a mean ``gap`` expressed in each eigenbasis.

    A trace of a class-0 spectral function against a class-1 one is a0^T W a1
    (:meth:`across`); a trace within one class is a plain sum. A shared basis
    is the case W = I, up to rotations inside repeated eigenvalues.

    Either basis may be thin: p x r_i, the range of a rank-r_i sigma_i, so its
    values, its ``gap`` and its side of R and W cover the range only. Its
    p - r_i null directions then enter in closed form: there l_i = 0, and each
    row and column of R has unit norm over a full basis, so the null part of a
    row or column of W sums to 1 minus its kept part.
    """

    def __init__(self, spectra, gap: np.ndarray):
        (self.values0, basis0), (self.values1, basis1) = spectra
        self.dim = basis1.shape[0]
        self.rotation = basis0.T @ basis1
        self.weights = self.rotation * self.rotation
        self.gap = (basis0.T @ gap, basis1.T @ gap)
        self.gap_square = float(gap @ gap)

    def across(self, a0: np.ndarray, a1: np.ndarray) -> float:
        return float(a0 @ self.weights @ a1)

    @_Kept
    def quartic(self) -> tuple[np.ndarray, np.ndarray]:
        """The quartic weights (M0 o M0, M1 o M1), for M0 = R^T diag(l0) R and
        M1 = R diag(l1) R^T, each covariance in the other's basis, derived on
        first read and kept: Tr[sigma_0 H sigma_0 H] for H = U_1 diag(w) U_1^T
        is w^T (M0 o M0) w, and symmetrically. Each is its r_j x r_j block on
        the other class's range when that basis is thin."""
        R = self.rotation
        m0 = R.T @ (self.values0[:, None] * R)
        m1 = (R * self.values1) @ R.T
        return np.square(m0, out=m0), np.square(m1, out=m1)


def _range_eigenpair(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and p x r orthonormal basis of the range of a
    rank-deficient symmetric positive semidefinite matrix, r its numerical rank.

    A pivoted Cholesky factorization (``dpstrf``) finds r and writes the matrix
    as F F^T with F = P L of size p x r. F^T F = L^T L shares its nonzero
    spectrum, so an r x r eigh gives the eigenvalues l and F V / sqrt(l) the
    basis; no p x p eigenproblem is solved.
    """
    factor, pivots, rank, _ = _lapack.dpstrf(matrix)
    # The factor's first r columns, rows put back in the matrix's order. LAPACK
    # leaves the upper triangle as it found it and the trailing block unfactored.
    thin = np.tril(factor[:, :rank])[np.argsort(pivots)]
    values, vectors = np.linalg.eigh(thin.T @ thin)
    basis = thin @ vectors
    basis /= np.sqrt(values)
    return values, basis


def _sample_spectra(sigma_hat0, sigma_hat1, n0: int) -> tuple:
    """Both classes' ``(values, basis)``; the one place a sample covariance is
    diagonalized. When class 0's ``n0`` rows leave its covariance
    rank-deficient (n0 - 1 < p) only its range is diagonalized
    (:func:`_range_eigenpair`), and its basis is thin."""
    p = sigma_hat0.shape[0]
    spectrum0 = _range_eigenpair(sigma_hat0) if n0 - 1 < p else eigenpair(sigma_hat0)
    return spectrum0, eigenpair(sigma_hat1)


def _sample_pair(mu_hat0, mu_hat1, sigma_hat0, sigma_hat1, n0: int) -> SpectralPair:
    """The spectral kernel of two classes' sample moments, on :func:`_sample_spectra`."""
    return SpectralPair(_sample_spectra(sigma_hat0, sigma_hat1, n0), mu_hat0 - mu_hat1)


def _resolvent_weights(values, gamma) -> tuple:
    """Range weights w = 1 / (1 + gamma l) and v = gamma l w = 1 - w of the resolvent
    (I + gamma S)^{-1} on eigenvalues l of S: it is U diag(w) U^T on a full basis U,
    I - U diag(v) U^T on a thin one. Arrays broadcast, one column per shrinkage value."""
    w = 1.0 / (1.0 + gamma * values)
    return w, gamma * values * w


@dataclass(frozen=True)
class FittedStats:
    """Per-class sample moments and shrinkage parameters, checked at
    construction, and what follows from them, each derived on first read and
    kept (:class:`_Kept`): the resolvents ``H0`` and ``H1`` with the
    log-determinants of both shifted covariances (``_logdets``), formed
    together from one factorization per class; and the spectral kernel
    :attr:`pair`, which keeps its own quartic weights. None is an init field,
    so ``dataclasses.replace`` starts without them, and the error estimator,
    which reads only the kernel, never factors a shifted covariance.
    """

    mu_hat0: np.ndarray
    mu_hat1: np.ndarray
    sigma_hat0: np.ndarray
    sigma_hat1: np.ndarray
    gamma0: float
    gamma1: float
    n0: int
    n1: int

    def __post_init__(self):
        for name in ("mu_hat0", "mu_hat1", "sigma_hat0", "sigma_hat1"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError("%s must be finite; found NaN or inf" % name)
        for name in ("n0", "n1"):
            count = getattr(self, name)
            _check_whole(count, name)
            if count < 2:
                raise ValueError("%s must be at least 2, got %r" % (name, count))
        _check_shrinkage(self.gamma0)
        _check_shrinkage(self.gamma1)

    @_Kept
    def pair(self) -> SpectralPair:
        """The spectral kernel of the moments, which keeps its own quartic weights."""
        return _sample_pair(self.mu_hat0, self.mu_hat1, self.sigma_hat0, self.sigma_hat1, self.n0)

    @_Kept
    def _shifted(self) -> tuple:
        """Each class's :func:`_shifted_inverse`, both formed together."""
        return (
            _shifted_inverse(self.sigma_hat0, self.gamma0),
            _shifted_inverse(self.sigma_hat1, self.gamma1),
        )

    H0 = _Kept(lambda fit: fit._shifted[0][0])
    H1 = _Kept(lambda fit: fit._shifted[1][0])
    _logdets = _Kept(lambda fit: (fit._shifted[0][1], fit._shifted[1][1]))

    @property
    def p(self) -> int:
        return self.mu_hat0.shape[0]


def fit(train: TrainingSet, gamma0: float, gamma1: float) -> FittedStats:
    """Sample moments for both classes; their shrunken resolvents follow on first read."""
    (mu0, sig0), (mu1, sig1) = sample_moments(train.X0), sample_moments(train.X1)
    return FittedStats(mu0, mu1, sig0, sig1, float(gamma0), float(gamma1), train.n0, train.n1)


@dataclass(frozen=True)
class PooledStats:
    """Class means and a pooled covariance for the linear baseline, checked
    finite at construction, with its resolvent ``H`` derived there."""

    mu_hat0: np.ndarray
    mu_hat1: np.ndarray
    sigma_hat: np.ndarray
    gamma: float
    H: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("mu_hat0", "mu_hat1", "sigma_hat"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError("%s must be finite; found NaN or inf" % name)
        object.__setattr__(self, "H", regularized_resolvent(self.sigma_hat, self.gamma))


@_in_float_range
def fit_pooled(train: TrainingSet, gamma: float) -> PooledStats:
    """Pool the class covariances with n - 2 normalization; moments that
    overflow, or a pooled covariance that does, are refused
    (:func:`_in_float_range`)."""
    mu0, sig0 = sample_moments(train.X0)
    mu1, sig1 = sample_moments(train.X1)
    pooled = ((train.n0 - 1) * sig0 + (train.n1 - 1) * sig1) / (train.n - 2)
    return PooledStats(mu0, mu1, pooled, float(gamma))
