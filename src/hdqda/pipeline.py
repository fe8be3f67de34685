"""End-to-end classifier workflow.

Everything downstream of raw per-class training arrays lives here: orienting
the classes so the minority is class 0, picking the minority shrinkage by
minimizing the training-only error estimate, deriving the matched shrinkage
and bias, predicting in the caller's original labels, and serializing the
whole model.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass

import numpy as np

from .discriminant import classify_values, improved_scores
from .errors import HdqdaError, TuningError
from .estimation import FittedStats, SpectralPair, TrainingSet, _sample_pair, sample_moments
from .gestim import BiasEstimate, _candidate
from .model import _check_priors, _is_symmetric
from .rmt import _Margins

__all__ = [
    "FORMAT_VERSION",
    "TuningEntry",
    "TuningResult",
    "ImprovedModel",
    "default_grid",
    "tune_gamma0",
    "fit_improved",
]

FORMAT_VERSION = 3
_ARRAY_FIELDS = ("mu_hat0", "mu_hat1", "sigma_hat0", "sigma_hat1")


def default_grid() -> np.ndarray:
    """25 logarithmically spaced shrinkage candidates spanning 1e-2 to 1e2."""
    return np.logspace(-2.0, 2.0, 25)


def _encode_array(array: np.ndarray) -> str:
    """Base64 text of the little-endian float64 bytes of ``array``, row-major."""
    return base64.b64encode(np.ascontiguousarray(array, dtype="<f8").tobytes()).decode("ascii")


def _packed(key: str, sigma: np.ndarray) -> np.ndarray:
    """The lower triangle of an exactly symmetric covariance, row by row: the
    order in which ``np.tril_indices(p)`` and a boolean ``np.tri`` mask list it."""
    if not np.array_equal(sigma, sigma.T):
        raise ValueError(
            "%s is not exactly symmetric; a model file stores its lower triangle only" % key
        )
    return sigma[np.tri(sigma.shape[0], dtype=bool)]


def _mirrored(packed: np.ndarray, p: int) -> np.ndarray:
    """The symmetric p x p matrix whose lower triangle, row by row, is ``packed``."""
    lower = np.tri(p, dtype=bool)
    matrix = np.empty((p, p))
    matrix[lower] = packed
    matrix.T[lower] = packed
    return matrix


def _field(data: dict, key: str):
    try:
        return data[key]
    except KeyError:
        raise ValueError("model file lacks the field %s" % key) from None


def _number(value, name: str) -> float:
    """A finite JSON number as a float; text, booleans, null and containers raise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("model field %s must be a number, got %r" % (name, value))
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError("model field %s holds a NaN or infinite number" % name)
    return number


def _whole(value, name: str) -> int:
    """A JSON number that is a whole number, as an int."""
    number = _number(value, name)
    if not number.is_integer():
        raise ValueError("model field %s must be a whole number, got %r" % (name, value))
    return int(number)


def _pair(data: dict, key: str, convert) -> tuple:
    """A two-entry list field, each entry passed through ``convert``."""
    value = _field(data, key)
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError("model field %s must be a list of two numbers, got %r" % (key, value))
    return tuple(convert(entry, key) for entry in value)


def _trace_entry(entry, index: int) -> TuningEntry:
    name = "trace[%d]" % index
    if not isinstance(entry, dict) or set(entry) != {"gamma0", "total_hat", "failure"}:
        raise ValueError(
            "model field %s must hold exactly gamma0, total_hat and failure" % name
        )
    total_hat, failure = entry["total_hat"], entry["failure"]
    if (total_hat is None) == (failure is None) or not isinstance(failure, (str, type(None))):
        raise ValueError(
            "model field %s must hold either a total_hat number or a failure text" % name
        )
    return TuningEntry(
        gamma0=_number(entry["gamma0"], name + ".gamma0"),
        total_hat=None if total_hat is None else _number(total_hat, name + ".total_hat"),
        failure=failure,
    )


def _decode_array(data: dict, key: str, version: int, shape: tuple[int, ...] | None) -> np.ndarray:
    """A stored moment as a writable native float64 array of ``shape`` (a
    nonempty vector when None): nested lists in format 1, :func:`_encode_array`
    text from format 2 on. Any decode failure or wrong size raises ValueError."""
    value = _field(data, key)
    try:
        if version == 1:
            array = np.array(value, dtype=float)
        else:
            raw = base64.b64decode(value, validate=True)
            array = np.frombuffer(raw, dtype="<f8").astype(float)
    except (TypeError, ValueError) as exc:
        raise ValueError("model field %s does not decode: %s" % (key, exc)) from exc
    expected = (array.size,) if shape is None else shape
    if version != 1 and array.size == math.prod(expected):
        array = array.reshape(expected)
    if array.size == 0 or array.shape != expected:
        raise ValueError(
            "model field %s has shape %s, expected %s" % (key, array.shape, expected)
        )
    return array


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
    if train.n1 < train.n0:
        raise ValueError(
            "expected the minority class first: n0=%d exceeds n1=%d"
            % (train.n0, train.n1)
        )
    canonical = _canonical(train, priors)
    return _tune(canonical, grid)[0]


@dataclass(frozen=True)
class _Canonical:
    """A training sample, minority class first, as every shrinkage value shares
    it: per-class ``(mean, covariance)`` moments, counts and priors, the
    ``label_map`` back to the caller's labels, the moments' kernel, its quartic weights."""

    moments: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    counts: tuple[int, int]
    priors: tuple[float, float]
    label_map: tuple[int, int]
    pair: SpectralPair
    quartic: tuple


def _canonical(train: TrainingSet, priors: tuple[float, float] | None) -> _Canonical:
    """Step one of :func:`fit_improved`: orient ``train`` and ``priors`` (the
    caller's labeling; the training proportions when None) so the smaller class
    comes first, then form its moments, their kernel and its quartic weights."""
    swapped = train.n1 < train.n0
    canonical = train.swapped() if swapped else train
    if priors is not None:
        priors = _check_priors(priors)
        if swapped:
            priors = (priors[1], priors[0])
    else:
        priors = (canonical.n0 / canonical.n, canonical.n1 / canonical.n)
    moments = (sample_moments(canonical.X0), sample_moments(canonical.X1))
    (mu0, sig0), (mu1, sig1) = moments
    pair = _sample_pair(mu0, mu1, sig0, sig1, canonical.n0)
    return _Canonical(
        moments=moments,
        counts=(canonical.n0, canonical.n1),
        priors=priors,
        label_map=(1, 0) if swapped else (0, 1),
        pair=pair,
        quartic=pair.quartic_weights(),
    )


def _tune(
    canonical: _Canonical, grid: np.ndarray | None
) -> tuple[TuningResult, _Margins, BiasEstimate]:
    """:func:`tune_gamma0` on a canonical sample, plus the winning candidate's
    pieces (with its matched gamma1) and bias."""
    candidates = default_grid() if grid is None else np.asarray(grid, dtype=float)
    if candidates.ndim != 1 or candidates.size == 0:
        raise ValueError("candidate grid must be a nonempty 1-D array")
    if not np.all(np.isfinite(candidates) & (candidates > 0.0)):
        raise ValueError("candidate shrinkage values must be finite and strictly positive")
    candidates = np.sort(candidates)

    pair, counts, priors = canonical.pair, canonical.counts, canonical.priors
    entries: list[TuningEntry] = []
    best: tuple[float, _Margins, BiasEstimate] | None = None
    for gamma0 in candidates:
        gamma0 = float(gamma0)
        try:
            pieces, bias, estimate = _candidate(pair, canonical.quartic, gamma0, counts, priors)
        except HdqdaError as exc:
            reason = "%s: %s" % (type(exc).__name__, exc)
            entries.append(TuningEntry(gamma0=gamma0, total_hat=None, failure=reason))
            continue
        entries.append(TuningEntry(gamma0=gamma0, total_hat=estimate.total_hat, failure=None))
        if best is None or estimate.total_hat < best[0]:
            best = (estimate.total_hat, pieces, bias)
    if best is None:
        raise TuningError(
            "all %d shrinkage candidates failed" % (candidates.size,),
            failures={entry.gamma0: entry.failure for entry in entries},
        )
    _, best_pieces, best_bias = best
    tuning = TuningResult(gamma0=best_pieces.gammas[0], entries=tuple(entries))
    return tuning, best_pieces, best_bias


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
        """The model file: ``json.dumps`` of every field with sorted keys and
        no NaN, byte for byte. Base64 text needs no escaping, so each moment is
        quoted as it is, only the small fields pass through the encoder, and
        the file is joined once from its parts. Format 3 stores each covariance
        as its lower triangle, so one that is not exactly symmetric is refused
        with a ValueError naming it; every covariance a fit forms from data is.
        """
        fit = self.fit
        small = {
            "format_version": FORMAT_VERSION,
            "theta": self.theta,
            "label_map": list(self.label_map),
            "priors": list(self.priors),
            "gamma0": fit.gamma0,
            "gamma1": fit.gamma1,
            "n0": fit.n0,
            "n1": fit.n1,
            "trace": [
                {"gamma0": entry.gamma0, "total_hat": entry.total_hat, "failure": entry.failure}
                for entry in self.trace
            ],
        }
        fields = {key: json.dumps(value, sort_keys=True, allow_nan=False) for key, value in small.items()}
        for key in _ARRAY_FIELDS:
            array = getattr(fit, key)
            fields[key] = '"%s"' % _encode_array(_packed(key, array) if array.ndim == 2 else array)
        parts = []
        for key in sorted(fields):
            parts += [", " if parts else "{", '"%s": ' % key, fields[key]]
        parts.append("}")
        return "".join(parts)

    @classmethod
    def from_json(cls, payload: str) -> "ImprovedModel":
        """Rebuild a model; both resolvents are formed from the stored moments
        while loading, so a covariance that leaves I + gamma * sigma indefinite
        raises :class:`~hdqda.errors.NotSpdError` here, not at the first score.

        Reads format 3, where ``mu_hat0``, ``mu_hat1``, ``sigma_hat0`` and
        ``sigma_hat1`` are strict base64 text of little-endian float64 bytes,
        each covariance its p(p+1)/2 lower-triangle values row by row (the
        order of ``np.tril_indices(p)``); format 2, the same text with each
        covariance whole, row-major; and format 1, where they are nested JSON
        lists. Either way the moments come back as writable native float64
        arrays bitwise equal to the saved ones.

        Raises ValueError, naming the field, for a file this build cannot
        trust: a payload that is not a JSON object, another format version, a
        missing field, a moment that does not decode (non-base64 text, a byte
        count that is not a multiple of 8) or has the wrong size (both means of
        one length p, each covariance p * p values, or p(p+1)/2 in format 3),
        an asymmetric covariance in format 1 or 2,
        a number stored as text, boolean or null, a NaN or infinite number,
        nonpositive shrinkage, a training count or label that is not a whole
        number, a training count below 2, a label map that is not a
        permutation of (0, 1), bad priors, or a trace entry that does not hold
        exactly a number ``gamma0`` and one of a number ``total_hat`` or a text
        ``failure``.
        """
        data = json.loads(payload)
        if not isinstance(data, dict):
            raise ValueError("model file must hold a JSON object, got %s" % type(data).__name__)
        version = data.get("format_version")
        if isinstance(version, bool) or version not in (1, 2, FORMAT_VERSION):
            raise ValueError(
                "unsupported model format %r; this build reads 1 to %d"
                % (version, FORMAT_VERSION)
            )
        mu0 = _decode_array(data, "mu_hat0", version, None)
        p = mu0.size
        stored = (p * (p + 1) // 2,) if version == 3 else (p, p)
        mu1, sigma0, sigma1 = (
            _decode_array(data, key, version, shape)
            for key, shape in zip(_ARRAY_FIELDS[1:], ((p,), stored, stored))
        )
        if version == 3:
            sigma0, sigma1 = _mirrored(sigma0, p), _mirrored(sigma1, p)
        theta, gamma0, gamma1 = (
            _number(_field(data, key), key) for key in ("theta", "gamma0", "gamma1")
        )
        n0, n1 = (_whole(_field(data, key), key) for key in ("n0", "n1"))
        entries = _field(data, "trace")
        if not isinstance(entries, list):
            raise ValueError("model field trace must be a list, got %r" % (entries,))
        trace = tuple(_trace_entry(entry, i) for i, entry in enumerate(entries))
        for key, array in zip(_ARRAY_FIELDS, (mu0, mu1, sigma0, sigma1)):
            if not np.all(np.isfinite(array)):
                raise ValueError("model field %s holds a NaN or infinite number" % key)
        for key, sigma in (("sigma_hat0", sigma0), ("sigma_hat1", sigma1)):
            if version != 3 and not _is_symmetric(sigma):
                raise ValueError("model field %s is not symmetric" % key)
        if min(gamma0, gamma1) <= 0.0:
            raise ValueError("model needs positive shrinkage, got gamma %r, %r" % (gamma0, gamma1))
        label_map = _pair(data, "label_map", _whole)
        if sorted(label_map) != [0, 1]:
            raise ValueError("model field label_map must be a permutation of (0, 1)")
        priors = _check_priors(_pair(data, "priors", _number))
        fit = FittedStats(mu0, mu1, sigma0, sigma1, gamma0, gamma1, n0, n1)
        del data, entries  # the parsed file, base64 text and all, goes before the resolvents
        fit.H0  # forms both resolvents now, refusing a covariance they cannot invert
        return cls(
            fit=fit,
            theta=theta,
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
    return _fit_canonical(_canonical(train, priors), gamma0, grid)


def _fit_canonical(
    canonical: _Canonical, gamma0: float | None, grid: np.ndarray | None
) -> ImprovedModel:
    """Step two of :func:`fit_improved`: the model at ``gamma0``, or tuned over
    ``grid`` when it is None, on the moments and kernel of ``canonical``, which
    a caller may keep across shrinkage values. Nothing here factors a shifted
    covariance: the fit forms its resolvents when first read, by ``predict`` or
    scoring, never by the estimators."""
    if gamma0 is not None and not 0.0 < gamma0 < math.inf:
        raise ValueError("shrinkage must be finite and strictly positive, got %r" % (gamma0,))
    pair, counts, priors = canonical.pair, canonical.counts, canonical.priors
    if gamma0 is None:
        tuning, pieces, bias = _tune(canonical, grid)
        trace = tuning.entries
    else:
        pieces, bias, _ = _candidate(pair, canonical.quartic, float(gamma0), counts, priors)
        trace = ()
    (mu0, sig0), (mu1, sig1) = canonical.moments
    fit = FittedStats(mu0, mu1, sig0, sig1, *pieces.gammas, *counts)
    # The one place a fit is seeded with what it derives on first use: ``pair``
    # and ``pieces`` are what ``fit.pair`` and the estimators would build from
    # these very moments, shrinkage pair and counts, so ``g_estimator_error``
    # and ``theta_hat`` read them without a second spectrum, rotation or
    # ``quartic_weights``.
    fit.__dict__["pair"] = pair
    fit.__dict__["_pieces"] = pieces
    return ImprovedModel(
        fit=fit,
        theta=bias.theta_hat,
        label_map=canonical.label_map,
        priors=priors,
        trace=trace,
    )
