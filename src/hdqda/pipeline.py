"""End-to-end classifier workflow.

Everything downstream of raw per-class training arrays lives here: orienting
the classes so the minority is class 0, picking the minority shrinkage by
minimizing the training-only error estimate, deriving the matched shrinkage
and bias, predicting in the caller's original labels, and serializing the
whole model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .discriminant import classify_values, improved_scores
from .errors import HdqdaError, TuningError
from .estimation import FittedStats, TrainingSet, regularized_resolvent, sample_moments
from .gestim import BiasEstimate, _bias_and_error, delta_hat, gamma1_hat, theta_hat

__all__ = [
    "FORMAT_VERSION",
    "TuningEntry",
    "TuningResult",
    "ImprovedModel",
    "default_grid",
    "tune_gamma0",
    "fit_improved",
]

FORMAT_VERSION = 1


def default_grid() -> np.ndarray:
    """25 logarithmically spaced shrinkage candidates spanning 1e-2 to 1e2."""
    return np.logspace(-2.0, 2.0, 25)


def _check_priors(priors) -> tuple[float, float]:
    p0, p1 = float(priors[0]), float(priors[1])
    if not (0.0 < p0 < 1.0 and 0.0 < p1 < 1.0) or abs(p0 + p1 - 1.0) > 1e-12:
        raise ValueError("priors must be positive and sum to one, got %r" % (priors,))
    return p0, p1


def _fit_matched(train: TrainingSet, moments: tuple, gamma0: float) -> FittedStats:
    """Fit both classes with the majority shrinkage matched to ``gamma0``.

    ``moments`` holds the ``sample_moments`` of ``train.X0`` and ``train.X1``.
    """
    (mu0, sigma0), (mu1, sigma1) = moments
    H0 = regularized_resolvent(sigma0, gamma0)
    d0 = delta_hat(H0, train.n0, gamma0)
    g1 = gamma1_hat(d0, train.n0, train.n1, gamma0)
    H1 = regularized_resolvent(sigma1, g1)
    return FittedStats(
        mu_hat0=mu0,
        mu_hat1=mu1,
        sigma_hat0=sigma0,
        sigma_hat1=sigma1,
        gamma0=float(gamma0),
        gamma1=g1,
        H0=H0,
        H1=H1,
        n0=train.n0,
        n1=train.n1,
    )


@dataclass(frozen=True)
class TuningEntry:
    """One evaluated shrinkage candidate; exactly one of the two outcomes."""

    gamma0: float
    total_hat: float | None
    failure: str | None


@dataclass(frozen=True)
class TuningResult:
    gamma0: float
    entries: tuple[TuningEntry, ...]


def tune_gamma0(
    train: TrainingSet,
    *,
    grid: np.ndarray | None = None,
    priors: tuple[float, float] | None = None,
) -> TuningResult:
    """Pick the minority shrinkage minimizing the estimated total error.

    Candidates are evaluated in ascending order on the training data only;
    a candidate whose estimate leaves its valid regime is skipped and the
    reason recorded. Ties go to the smallest candidate. ``train`` must already
    have the minority class first.

    Raises
    ------
    TuningError
        If every candidate fails; per-candidate reasons ride along.
    """
    return _tune(train, grid, priors)[0]


def _tune(
    train: TrainingSet,
    grid: np.ndarray | None,
    priors: tuple[float, float] | None,
) -> tuple[TuningResult, FittedStats, BiasEstimate]:
    """:func:`tune_gamma0` plus the winning candidate's fit and bias."""
    if train.n1 < train.n0:
        raise ValueError(
            "expected the minority class first: n0=%d exceeds n1=%d"
            % (train.n0, train.n1)
        )
    if priors is None:
        priors = (train.n0 / train.n, train.n1 / train.n)
    priors = _check_priors(priors)
    candidates = default_grid() if grid is None else np.asarray(grid, dtype=float)
    if candidates.ndim != 1 or candidates.size == 0:
        raise ValueError("candidate grid must be a nonempty 1-D array")
    if np.any(candidates <= 0.0):
        raise ValueError("candidate shrinkage values must be strictly positive")
    candidates = np.sort(candidates)

    moments = (sample_moments(train.X0), sample_moments(train.X1))
    entries: list[TuningEntry] = []
    best: tuple[float, FittedStats, BiasEstimate] | None = None
    best_total: float | None = None
    failures: dict[float, str] = {}
    for gamma0 in candidates:
        gamma0 = float(gamma0)
        try:
            fit = _fit_matched(train, moments, gamma0)
            bias, estimate = _bias_and_error(fit, priors)
        except HdqdaError as exc:
            reason = "%s: %s" % (type(exc).__name__, exc)
            entries.append(TuningEntry(gamma0=gamma0, total_hat=None, failure=reason))
            failures[gamma0] = reason
            continue
        entries.append(
            TuningEntry(gamma0=gamma0, total_hat=estimate.total_hat, failure=None)
        )
        if best_total is None or estimate.total_hat < best_total:
            best_total = estimate.total_hat
            best = (gamma0, fit, bias)
    if best is None:
        raise TuningError(
            "all %d shrinkage candidates failed" % (candidates.size,),
            failures=failures,
        )
    best_gamma, best_fit, best_bias = best
    return TuningResult(gamma0=best_gamma, entries=tuple(entries)), best_fit, best_bias


@dataclass(frozen=True)
class ImprovedModel:
    """Fitted two-shrinkage classifier in canonical orientation.

    ``fit`` and ``priors`` describe the canonical classes (class 0 is the
    minority); ``label_map`` sends a canonical class index back to the label
    the caller trained with. ``trace`` records the tuning path, empty when the
    shrinkage was supplied directly.
    """

    fit: FittedStats
    theta: float
    label_map: tuple[int, int]
    priors: tuple[float, float]
    trace: tuple[TuningEntry, ...]

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        """Raw scores in canonical orientation; positive favors the minority."""
        return improved_scores(X, self.fit, self.theta)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Class labels in the caller's original labeling."""
        canonical = classify_values(self.decision_values(X))
        return np.asarray(self.label_map, dtype=int)[canonical]

    def to_json(self) -> str:
        fit = self.fit
        return json.dumps(
            {
                "format_version": FORMAT_VERSION,
                "theta": self.theta,
                "label_map": list(self.label_map),
                "priors": list(self.priors),
                "gamma0": fit.gamma0,
                "gamma1": fit.gamma1,
                "n0": fit.n0,
                "n1": fit.n1,
                "mu_hat0": fit.mu_hat0.tolist(),
                "mu_hat1": fit.mu_hat1.tolist(),
                "sigma_hat0": fit.sigma_hat0.tolist(),
                "sigma_hat1": fit.sigma_hat1.tolist(),
                "trace": [
                    {
                        "gamma0": entry.gamma0,
                        "total_hat": entry.total_hat,
                        "failure": entry.failure,
                    }
                    for entry in self.trace
                ],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, payload: str) -> "ImprovedModel":
        """Rebuild a model; resolvents are recomputed from the stored moments."""
        data = json.loads(payload)
        version = data.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(
                "unsupported model format %r; this build reads %d"
                % (version, FORMAT_VERSION)
            )
        sigma0 = np.asarray(data["sigma_hat0"], dtype=float)
        sigma1 = np.asarray(data["sigma_hat1"], dtype=float)
        fit = FittedStats(
            mu_hat0=np.asarray(data["mu_hat0"], dtype=float),
            mu_hat1=np.asarray(data["mu_hat1"], dtype=float),
            sigma_hat0=sigma0,
            sigma_hat1=sigma1,
            gamma0=float(data["gamma0"]),
            gamma1=float(data["gamma1"]),
            H0=regularized_resolvent(sigma0, float(data["gamma0"])),
            H1=regularized_resolvent(sigma1, float(data["gamma1"])),
            n0=int(data["n0"]),
            n1=int(data["n1"]),
        )
        trace = tuple(
            TuningEntry(
                gamma0=float(entry["gamma0"]),
                total_hat=None if entry["total_hat"] is None else float(entry["total_hat"]),
                failure=entry["failure"],
            )
            for entry in data["trace"]
        )
        label_map = tuple(int(v) for v in data["label_map"])
        if sorted(label_map) != [0, 1]:
            raise ValueError("label map must be a permutation of (0, 1)")
        priors = _check_priors(data["priors"])
        return cls(
            fit=fit,
            theta=float(data["theta"]),
            label_map=label_map,  # type: ignore[arg-type]
            priors=priors,
            trace=trace,
        )


def fit_improved(
    train: TrainingSet,
    gamma0: float | None = None,
    *,
    priors: tuple[float, float] | None = None,
    grid: np.ndarray | None = None,
) -> ImprovedModel:
    """Fit the improved classifier, tuning the minority shrinkage if not given.

    The classes are reoriented so the smaller one becomes class 0; supplied
    priors follow the caller's labeling and are swapped along with the data.
    Default priors are the training proportions.
    """
    swapped = train.n1 < train.n0
    canonical = train.swapped() if swapped else train
    if priors is not None:
        priors = _check_priors(priors)
        if swapped:
            priors = (priors[1], priors[0])
    else:
        priors = (canonical.n0 / canonical.n, canonical.n1 / canonical.n)

    if gamma0 is None:
        tuning, fit, bias = _tune(canonical, grid, priors)
        trace = tuning.entries
    else:
        if gamma0 <= 0.0:
            raise ValueError("shrinkage must be strictly positive, got %r" % (gamma0,))
        moments = (sample_moments(canonical.X0), sample_moments(canonical.X1))
        fit = _fit_matched(canonical, moments, float(gamma0))
        bias = theta_hat(fit, priors)
        trace = ()

    return ImprovedModel(
        fit=fit,
        theta=bias.theta_hat,
        label_map=(1, 0) if swapped else (0, 1),
        priors=priors,
        trace=trace,
    )
