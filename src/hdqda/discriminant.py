"""Classification scores, the decision rule, and empirical error measurement.

Three quadratic rules share one decision convention: a positive score assigns
class 0, anything else (ties included) assigns class 1. Every score function
takes a block of observations (a single one is a one-row block) and returns a
plain value vector.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InsufficientSamplesError
from .estimation import FittedStats, PooledStats, _resolvent_weights
from .model import MixtureModel, _check_priors

__all__ = [
    "RULE_TRUE_QDA",
    "RULE_STANDARD_RQDA",
    "RULE_IMPROVED_RQDA",
    "RULE_RLDA",
    "ErrorReport",
    "qda_scores_true",
    "rqda_scores",
    "improved_scores",
    "rlda_scores",
    "classify_values",
    "empirical_error",
    "conditional_score_moments",
]

RULE_TRUE_QDA = "true-qda"
RULE_STANDARD_RQDA = "standard-rqda"
RULE_IMPROVED_RQDA = "improved-rqda"
RULE_RLDA = "rlda"

@dataclass(frozen=True)
class ErrorReport:
    """Per-class and prior-weighted misclassification rates on a test set."""

    eps0: float
    eps1: float
    total: float
    n_test0: int
    n_test1: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _rows(X: np.ndarray, p: int) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim > 2 or X.shape[1] != p:
        raise ValueError("observations have shape %s, expected (rows, %d)" % (X.shape, p))
    # A finite sum means every entry is finite, so only a non-finite sum (which
    # finite entries give too when it overflows) needs the entrywise check.
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.sum(X))
    if not math.isfinite(total) and not np.isfinite(X).all():
        raise ValueError("observations must be finite; found NaN or inf")
    return X


def _finite_scores(values: np.ndarray) -> np.ndarray:
    """``values`` when every score is finite. A NaN or infinite score carries no
    label, so any such score raises ValueError with their count."""
    bad = values.size - np.count_nonzero(np.isfinite(values))
    if bad:
        raise ValueError("%d of %d scores are NaN or infinite" % (bad, values.size))
    return values


# Bytes of one rows x p float64 temporary in a scoring block.
_BLOCK_BYTES = 1 << 19


def _row_blocks(n: int, p: int) -> list[slice]:
    """Slices of ``n`` rows for scoring at dimension ``p`` in blocks, so that the
    rows x p temporaries stay small instead of covering every row. A block holds
    a multiple of 64 rows, as many as keep one rows x p float64 array within
    512 KiB, and never fewer than 64 (so past p = 1024 it exceeds that bound).
    The last block also takes the short tail, so it holds up to twice as many;
    fewer than two blocks' worth of rows is one block."""
    rows = 64 * max(1, _BLOCK_BYTES // (8 * p) // 64)
    blocks = max(1, n // rows)
    return [slice(k * rows, n if k == blocks - 1 else (k + 1) * rows) for k in range(blocks)]


def _quad_gap(X: np.ndarray, fit: FittedStats) -> np.ndarray:
    """Row-wise q1 - q0 for q_i = (x - mu_i)^T H_i (x - mu_i), as one quadratic
    form in H_1 - H_0: centred at mu_0 with d = x - mu_0, e = mu_1 - mu_0 and
    h = H_1 e, it is d^T (H_1 - H_0) d - 2 d^T h + e^T h.

    The rows are scored in :func:`_row_blocks`, so d and d (H_1 - H_0) are
    never whole rows x p arrays; a call with one block gives exactly the
    one-product result. Rows so far out that their forms overflow are refused
    by :func:`_finite_scores`. This is the route of a single fit; a grid of
    shrinkage values on one draw takes :func:`_grid_scores`.
    """
    gap = fit.H1 - fit.H0
    e = fit.mu_hat1 - fit.mu_hat0
    h = fit.H1 @ e
    offset = float(e @ h)
    out = np.empty(len(X))
    for block in _row_blocks(len(X), fit.p):
        d = X[block] - fit.mu_hat0
        out[block] = np.einsum("ij,ij->i", d @ gap, d) - 2.0 * (d @ h) + offset
    return _finite_scores(out)


def _grid_scores(X, spectra, means, candidates, priors) -> tuple[np.ndarray, np.ndarray]:
    """Improved- and standard-rule scores of ``X`` at every candidate of one
    draw's shrinkage grid: two rows x candidates arrays, equal to rounding to
    what :func:`improved_scores` and :func:`rqda_scores` give on fits there.

    ``spectra`` are the classes' ``(values, basis)`` of the draw's sample
    covariances, ``means`` their sample means, and ``candidates`` the vectors
    (gamma0, gamma1, theta): the improved rule takes (gamma0, gamma1) and the
    bias theta, the standard rule gamma0 for both classes and the log-odds of
    ``priors``. Each row block (:func:`_row_blocks`) is projected once per
    class, y = U^T (x - mu); every form is then sum(w y^2) on a full basis or
    |x - mu|^2 - sum(v y^2) on a thin one, with the weights of
    :func:`~hdqda.estimation._resolvent_weights`, and every log-determinant
    sum(log1p(gamma l)), so no resolvent is formed. Scores that overflow are
    refused by :func:`_finite_scores`.
    """
    prior0, prior1 = _check_priors(priors)
    p = means[0].shape[0]
    X = _rows(X, p)
    gamma0, gamma1, theta = (np.asarray(c, dtype=float) for c in candidates)
    # Improved columns first, then standard ones, all shrinkage values at once.
    gammas = (np.concatenate([gamma0, gamma0]), np.concatenate([gamma1, gamma0]))
    logdets = [np.sum(np.log1p(np.multiply.outer(l, gamma0)), axis=0) for l, _ in spectra]
    offsets = np.concatenate([
        -0.5 * theta * math.sqrt(p),
        0.5 * (logdets[1] - logdets[0]) - math.log(prior1 / prior0),
    ])
    # Per class, the weights each form sums: w on a full basis, v on a thin one.
    weights = []
    for (values, basis), shrinkage in zip(spectra, gammas):
        w, v = _resolvent_weights(values[:, None], shrinkage)
        weights.append(v if basis.shape[1] < p else w)
    out = np.empty((len(X), len(offsets)))
    for block in _row_blocks(len(X), p):
        forms = []
        for (_, basis), mu, weight in zip(spectra, means, weights):
            d = X[block] - mu
            y = d @ basis
            form = np.square(y, out=y) @ weight
            if basis.shape[1] < p:
                form = np.einsum("ij,ij->i", d, d)[:, None] - form
            forms.append(form)
        out[block] = offsets + 0.5 * (forms[1] - forms[0])
    _finite_scores(out)
    return out[:, : gamma0.size], out[:, gamma0.size :]


def qda_scores_true(X: np.ndarray, model: MixtureModel) -> np.ndarray:
    """Oracle quadratic rule on the true class statistics: each form is
    |(x - mu) L^-T|^2 with the inverse Cholesky factor the class keeps (the first
    call inverts L), or the product's bits with the reciprocals of a diagonal L's
    kept scale, plus sum(log diag L). Rows so far out that their forms overflow
    are refused by :func:`_finite_scores`."""
    X = _rows(X, model.dim)
    halves = []
    for stats in (model.class0, model.class1):
        d = X - stats.mean
        z = d @ stats._inverse_cholesky.T if stats._scale is None else d * (1.0 / stats._scale)
        half_logdet = float(np.sum(np.log(np.diag(stats.cholesky))))
        halves.append(0.5 * np.einsum("ij,ij->i", z, z) + half_logdet)
    return _finite_scores(halves[1] - halves[0] - math.log(model.prior1 / model.prior0))


def _require_shared_gamma(fit: FittedStats) -> float:
    if fit.gamma0 != fit.gamma1:
        raise ValueError(
            "the standard rule uses one shared shrinkage parameter; "
            "fit has gamma0=%r, gamma1=%r" % (fit.gamma0, fit.gamma1)
        )
    return fit.gamma0


def _logdet_ratio(fit: FittedStats) -> float:
    """log det H0 - log det H1, kept from the factorizations that formed them."""
    logdet0, logdet1 = fit._logdets
    return logdet1 - logdet0


def rqda_scores(X: np.ndarray, fit: FittedStats, priors: tuple[float, float]) -> np.ndarray:
    """Standard plug-in rule: shared shrinkage, log-det and prior offsets."""
    _require_shared_gamma(fit)
    prior0, prior1 = _check_priors(priors)
    X = _rows(X, fit.p)
    const = 0.5 * _logdet_ratio(fit) - math.log(prior1 / prior0)
    return const + 0.5 * _quad_gap(X, fit)


def improved_scores(X: np.ndarray, fit: FittedStats, theta: float) -> np.ndarray:
    """Two-shrinkage rule with an explicit bias replacing log-det and priors."""
    if not math.isfinite(theta):
        raise ValueError("bias must be finite, got %r" % (theta,))
    X = _rows(X, fit.p)
    return -0.5 * theta * math.sqrt(fit.p) + 0.5 * _quad_gap(X, fit)


def rlda_scores(X: np.ndarray, pooled: PooledStats, priors: tuple[float, float]) -> np.ndarray:
    """Linear baseline on the pooled shrunken covariance; a score that overflows
    is refused by :func:`_finite_scores`."""
    prior0, prior1 = _check_priors(priors)
    X = _rows(X, pooled.mu_hat0.shape[0])
    direction = pooled.H @ (pooled.mu_hat0 - pooled.mu_hat1)
    midpoint = 0.5 * (pooled.mu_hat0 + pooled.mu_hat1)
    return _finite_scores((X - midpoint) @ direction - math.log(prior1 / prior0))


def classify_values(values: np.ndarray) -> np.ndarray:
    """Label 0 where the score is strictly positive, label 1 otherwise; a NaN or
    infinite score is refused by :func:`_finite_scores`."""
    return np.where(_finite_scores(np.asarray(values)) > 0.0, 0, 1)


def empirical_error(
    scores0: np.ndarray, scores1: np.ndarray, priors: tuple[float, float]
) -> ErrorReport:
    """Misclassification rates from per-true-class score vectors."""
    prior0, prior1 = _check_priors(priors)
    scores0 = np.asarray(scores0, dtype=float).reshape(-1)
    scores1 = np.asarray(scores1, dtype=float).reshape(-1)
    if scores0.size == 0 or scores1.size == 0:
        raise InsufficientSamplesError(
            "need at least one test score per class, got %d and %d"
            % (scores0.size, scores1.size)
        )
    eps0 = float(np.mean(classify_values(scores0) != 0))
    eps1 = float(np.mean(classify_values(scores1) != 1))
    total = prior0 * eps0 + prior1 * eps1
    return ErrorReport(
        eps0=eps0, eps1=eps1, total=total, n_test0=scores0.size, n_test1=scores1.size
    )


def conditional_score_moments(
    fit: FittedStats,
    model: MixtureModel,
    theta: float = 0.0,
    rule_kind: str = RULE_IMPROVED_RQDA,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-class mean and variance of the normalized score.

    Conditions on the training data (through ``fit``) and averages over a test
    observation drawn from the true class distribution in ``model``. For the
    improved rule the score is normalized by 2/sqrt(p); for the standard rule
    by 1/sqrt(p), with the prior offset taken from the model. ``theta`` only
    enters the improved rule.

    Diagnostic use only: the true statistics are never available in training.
    """
    p = fit.p
    sqrt_p = math.sqrt(p)
    if rule_kind == RULE_IMPROVED_RQDA:
        mean_scale, var_scale = 2.0 / sqrt_p, 4.0 / p
        const = -theta
    elif rule_kind == RULE_STANDARD_RQDA:
        _require_shared_gamma(fit)
        mean_scale, var_scale = 1.0 / sqrt_p, 1.0 / p
        const = mean_scale * (
            0.5 * _logdet_ratio(fit) - math.log(model.prior1 / model.prior0)
        )
    else:
        raise ValueError("conditional moments are defined for the quadratic plug-in rules only")

    gap = fit.H1 - fit.H0
    means = np.empty(2)
    variances = np.empty(2)
    for i, stats in enumerate((model.class0, model.class1)):
        d0 = stats.mean - fit.mu_hat0
        d1 = stats.mean - fit.mu_hat1
        sigma = stats.covariance
        trace_gap = float(np.sum(sigma * fit.H1) - np.sum(sigma * fit.H0))
        quad_gap = float(d1 @ fit.H1 @ d1 - d0 @ fit.H0 @ d0)
        means[i] = const + 0.5 * mean_scale * (trace_gap + quad_gap)
        mixed = gap @ sigma
        linear = fit.H1 @ d1 - fit.H0 @ d0
        variances[i] = 0.5 * var_scale * float(np.sum(mixed * mixed.T)) + var_scale * float(
            linear @ sigma @ linear
        )
    return means, variances
