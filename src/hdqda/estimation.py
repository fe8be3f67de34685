"""Sample statistics, the shrunken resolvents every classifier builds on, and
the spectral kernel that the error estimator and the theory share.

The resolvent of a sample covariance at shrinkage gamma is (I + gamma * S)^{-1},
always SPD for gamma >= 0. Every shifted covariance, sample or true, is
factored here by LAPACK's Cholesky; a sample one once, when a resolvent is
first read, the resolvent its SPD inverse and its log-determinant from the same
factor. A trace or quadratic form of covariances against resolvents needs no
resolvent: with each covariance diagonalized once (:func:`eigenpair`), a
resolvent is a weight vector on its eigenvalues, and :class:`SpectralPair`
takes every such trace at O(p^2) cost.

The paper's minority class has fewer rows than features, so its sample
covariance has rank r = n0 - 1 < p, and only its range is diagonalized, from a
pivoted Cholesky factor. Either basis may be thin, its null space, where every
resolvent is the identity, entering in closed form; only the minority's is, as
near full rank the range route is slower than a p x p ``eigh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import lapack

from .errors import InsufficientSamplesError, NotSpdError

__all__ = [
    "TrainingSet",
    "FittedStats",
    "PooledStats",
    "sample_moments",
    "regularized_resolvent",
    "eigenpair",
    "SpectralPair",
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


def sample_moments(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column mean and unbiased (n-1 normalized) sample covariance."""
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
    Cholesky factorization (``dpotrf``), the one place a shifted covariance, sample or
    true, is factored: the log-det from the factor's diagonal, the inverse from
    ``dpotri`` with its lower triangle mirrored, so it is exactly symmetric."""
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    _check_shrinkage(gamma)
    if gamma == 0.0:
        return np.eye(sigma_hat.shape[0]), 0.0
    factor = gamma * sigma_hat  # I + gamma * sigma_hat, then its lower Cholesky factor
    factor.flat[:: sigma_hat.shape[0] + 1] += 1.0
    factor, info = lapack.dpotrf(factor, lower=1, clean=1, overwrite_a=1)
    if info != 0:
        cond = float(np.linalg.cond(gamma * sigma_hat + np.eye(sigma_hat.shape[0])))
        raise NotSpdError(
            "I + %r * sigma is not positive definite: leading minor %d fails "
            "(condition estimate %.3e)" % (gamma, info, cond)
        )
    logdet = 2.0 * float(np.sum(np.log(np.diagonal(factor))))
    # dpotri cannot fail on a factor, and it leaves the zeroed upper triangle
    # as it is, so adding the transposed strict lower triangle mirrors it.
    inverse, _ = lapack.dpotri(factor, lower=1, overwrite_c=1)
    inverse += np.tril(inverse, -1).T
    return inverse, logdet


def regularized_resolvent(sigma_hat: np.ndarray, gamma: float) -> np.ndarray:
    """(I + gamma * sigma_hat)^{-1} via Cholesky; eigenvalues lie in (0, 1]."""
    return _shifted_inverse(sigma_hat, gamma)[0]


def eigenpair(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending, rounding negatives clipped to zero) and eigenbasis
    of a symmetric positive semidefinite matrix."""
    values, basis = np.linalg.eigh(matrix)
    return np.clip(values, 0.0, None), basis


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

    def quartic_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """(M0 o M0, M1 o M1) for M0 = R^T diag(l0) R and M1 = R diag(l1) R^T, each
        covariance in the other's basis: Tr[sigma_0 H sigma_0 H] for
        H = U_1 diag(w) U_1^T is w^T (M0 o M0) w, and symmetrically; not kept.
        Each is its r_j x r_j block on the other class's range when that basis is thin."""
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
    factor, pivots, rank, _ = lapack.dpstrf(matrix, lower=1)
    # The factor's first r columns, rows put back in the matrix's order. LAPACK
    # leaves the upper triangle as it found it and the trailing block unfactored.
    thin = np.tril(factor[:, :rank])[np.argsort(pivots)]
    values, vectors = np.linalg.eigh(thin.T @ thin)
    basis = thin @ vectors
    basis /= np.sqrt(values)
    return values, basis


def _sample_pair(mu_hat0, mu_hat1, sigma_hat0, sigma_hat1, n0: int) -> SpectralPair:
    """The spectral kernel of two classes' sample moments; the one place a
    sample covariance is diagonalized. When class 0's ``n0`` rows leave its
    covariance rank-deficient (n0 - 1 < p) only its range is diagonalized
    (:func:`_range_eigenpair`), and its basis is thin."""
    p = sigma_hat0.shape[0]
    spectrum0 = _range_eigenpair(sigma_hat0) if n0 - 1 < p else eigenpair(sigma_hat0)
    return SpectralPair((spectrum0, eigenpair(sigma_hat1)), mu_hat0 - mu_hat1)


@dataclass(frozen=True)
class FittedStats:
    """Per-class sample moments and shrinkage parameters, checked at
    construction, and what follows from them, each derived on first read and
    kept: the resolvents ``H0`` and ``H1`` with the log-determinants of both
    shifted covariances (``_logdets``), formed together from one factorization
    per class; the spectral kernel :attr:`pair`; and, kept with it by
    :mod:`hdqda.gestim`, the error estimator's pieces. None is an init field,
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

    def __getattr__(self, name: str):
        # Reached only while ``name`` is missing from the instance dict. The
        # resolvents are kept there directly: ``cached_property`` would hold one
        # lock per class while factoring on Python < 3.12, so fits on other
        # threads would take turns at their p^3 factorizations.
        if name not in ("H0", "H1", "_logdets"):
            raise AttributeError("%r object has no attribute %r" % (type(self).__name__, name))
        H0, logdet0 = _shifted_inverse(self.sigma_hat0, self.gamma0)
        H1, logdet1 = _shifted_inverse(self.sigma_hat1, self.gamma1)
        self.__dict__.update(H0=H0, H1=H1, _logdets=(logdet0, logdet1))
        return self.__dict__[name]

    @property
    def p(self) -> int:
        return self.mu_hat0.shape[0]

    @cached_property
    def pair(self) -> SpectralPair:
        """The spectral kernel of the moments, built once and kept; never passed
        in, so ``dataclasses.replace`` starts without one."""
        return _sample_pair(
            self.mu_hat0, self.mu_hat1, self.sigma_hat0, self.sigma_hat1, self.n0
        )


def fit(train: TrainingSet, gamma0: float, gamma1: float) -> FittedStats:
    """Sample moments for both classes; their shrunken resolvents follow on first read."""
    (mu0, sig0), (mu1, sig1) = sample_moments(train.X0), sample_moments(train.X1)
    return FittedStats(mu0, mu1, sig0, sig1, float(gamma0), float(gamma1), train.n0, train.n1)


@dataclass(frozen=True)
class PooledStats:
    """Class means and a pooled covariance for the linear baseline, with its
    resolvent ``H`` derived at construction."""

    mu_hat0: np.ndarray
    mu_hat1: np.ndarray
    sigma_hat: np.ndarray
    gamma: float
    H: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "H", regularized_resolvent(self.sigma_hat, self.gamma))


def fit_pooled(train: TrainingSet, gamma: float) -> PooledStats:
    """Pool the class covariances with n - 2 normalization."""
    mu0, sig0 = sample_moments(train.X0)
    mu1, sig1 = sample_moments(train.X1)
    pooled = ((train.n0 - 1) * sig0 + (train.n1 - 1) * sig1) / (train.n - 2)
    return PooledStats(mu0, mu1, pooled, float(gamma))
