"""Sample statistics, the shrunken resolvents every classifier builds on, and
the spectral kernel that the error estimator and the theory share.

The resolvent of a sample covariance at shrinkage gamma is (I + gamma * S)^{-1},
always SPD for gamma >= 0. Each shifted covariance I + gamma * S is factored
once, here, by LAPACK's Cholesky; the resolvent is its SPD inverse and its
log-determinant comes from the same factor. A trace or quadratic form of
covariances against resolvents needs no resolvent: with each covariance
diagonalized once (:func:`eigenpair`), a resolvent is a weight vector on its
eigenvalues, and :class:`SpectralPair` takes every such trace at O(p^2) cost.
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


def _shifted_inverse(sigma_hat: np.ndarray, gamma: float) -> tuple[np.ndarray, float]:
    """(I + gamma * sigma_hat)^{-1} and log det(I + gamma * sigma_hat) from one
    LAPACK Cholesky factorization: the log-det from the factor's diagonal, the
    inverse from ``dpotri`` with its lower triangle mirrored, so it is exactly
    symmetric. The only place a shifted sample covariance is factored."""
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    if not 0.0 <= gamma < math.inf:
        raise ValueError("shrinkage parameter must be finite and >= 0, got %r" % (gamma,))
    p = sigma_hat.shape[0]
    if gamma == 0.0:
        return np.eye(p), 0.0
    shifted = gamma * sigma_hat
    shifted.flat[:: p + 1] += 1.0
    factor, info = lapack.dpotrf(shifted, lower=1, clean=1)
    if info != 0:
        cond = float(np.linalg.cond(shifted))
        raise NotSpdError(
            "resolvent factorization failed (condition estimate %.3e): "
            "leading minor %d is not positive definite" % (cond, info)
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
    """

    def __init__(self, spectra, gap: np.ndarray):
        (self.values0, basis0), (self.values1, basis1) = spectra
        self.rotation = basis0.T @ basis1
        self.weights = self.rotation * self.rotation
        self.gap = (basis0.T @ gap, basis1.T @ gap)

    def across(self, a0: np.ndarray, a1: np.ndarray) -> float:
        return float(a0 @ self.weights @ a1)

    def quartic_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """(M0 o M0, M1 o M1) for M0 = R^T diag(l0) R and M1 = R diag(l1) R^T, each
        covariance in the other's basis: Tr[sigma_0 H sigma_0 H] for
        H = U_1 diag(w) U_1^T is w^T (M0 o M0) w, and symmetrically; not kept."""
        R = self.rotation
        m0 = R.T @ (self.values0[:, None] * R)
        m1 = (R * self.values1) @ R.T
        return np.square(m0, out=m0), np.square(m1, out=m1)


def _sample_pair(mu_hat0, mu_hat1, sigma_hat0, sigma_hat1) -> SpectralPair:
    """The spectral kernel of two classes' sample moments; the one place a
    sample covariance is diagonalized."""
    return SpectralPair((eigenpair(sigma_hat0), eigenpair(sigma_hat1)), mu_hat0 - mu_hat1)


@dataclass(frozen=True)
class FittedStats:
    """Per-class sample moments and shrinkage parameters, and what follows from
    them: the resolvents ``H0`` and ``H1`` and the log-determinants of both
    shifted covariances, derived at construction from one factorization per
    class, and on first use the spectral kernel :attr:`pair` and, kept with it
    by :mod:`hdqda.gestim`, the error estimator's pieces.
    """

    mu_hat0: np.ndarray
    mu_hat1: np.ndarray
    sigma_hat0: np.ndarray
    sigma_hat1: np.ndarray
    gamma0: float
    gamma1: float
    n0: int
    n1: int
    H0: np.ndarray = field(init=False, repr=False, compare=False)
    H1: np.ndarray = field(init=False, repr=False, compare=False)
    _logdets: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        H0, logdet0 = _shifted_inverse(self.sigma_hat0, self.gamma0)
        H1, logdet1 = _shifted_inverse(self.sigma_hat1, self.gamma1)
        object.__setattr__(self, "H0", H0)
        object.__setattr__(self, "H1", H1)
        object.__setattr__(self, "_logdets", (logdet0, logdet1))

    @property
    def p(self) -> int:
        return self.mu_hat0.shape[0]

    @cached_property
    def pair(self) -> SpectralPair:
        """The spectral kernel of the moments, built once and kept; never passed
        in, so ``dataclasses.replace`` starts without one."""
        return _sample_pair(self.mu_hat0, self.mu_hat1, self.sigma_hat0, self.sigma_hat1)


def fit(train: TrainingSet, gamma0: float, gamma1: float) -> FittedStats:
    """Sample moments for both classes plus their shrunken resolvents."""
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
