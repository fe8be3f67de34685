"""Ground-truth two-class Gaussian mixture: scenario construction and sampling.

A class is a Gaussian with mean vector and SPD covariance; a mixture is two such
classes with priors. Synthetic benchmark scenarios use an isotropic base
covariance for class 0 and a low-rank spiked perturbation of it for class 1,
with a mean shift that keeps the squared distance constant in the dimension.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import NotSpdError
from .estimation import SpectralPair, _both, _Kept, eigenpair

__all__ = [
    "ClassStatistics",
    "MixtureModel",
    "ScenarioConfig",
    "ScenarioData",
    "make_spiked_covariance",
    "sample_class",
    "build_mixture",
    "sample_scenario",
    "stream",
]

_SYM_RTOL = 1e-12


def _is_symmetric(m: np.ndarray) -> bool:
    """Whether a square matrix is symmetric within _SYM_RTOL of its largest entry (or of 1)."""
    scale = float(np.max(np.abs(m), initial=0.0))
    return float(np.max(np.abs(m - m.T), initial=0.0)) <= _SYM_RTOL * max(scale, 1.0)


def _as_covariance(a) -> np.ndarray:
    """``a`` as a float array if square and nonempty, finite and symmetric within
    _SYM_RTOL, the one check of a true covariance. A bad shape or an asymmetry is
    NotSpdError; a non-finite entry is ValueError, named before the symmetry test warns."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise NotSpdError("covariance must be square and nonempty, got shape %r" % (m.shape,))
    if not np.isfinite(m).all():
        raise ValueError("covariance must be finite; found NaN or inf")
    if not _is_symmetric(m):
        raise NotSpdError("covariance is not symmetric within tolerance")
    return m


@dataclass(frozen=True)
class ClassStatistics:
    """Mean and SPD covariance of one Gaussian class, checked by
    :func:`_as_covariance`, with the lower Cholesky factor L its validation
    computes and, kept from first use, its spectrum and the inverse factor L^-1
    that :func:`~hdqda.discriminant.qda_scores_true` whitens with.

    When that factor is diagonal (a diagonal covariance, such as the isotropic
    class 0 of every synthetic scenario) its diagonal is kept as the scale that
    :func:`sample_class` draws with and the oracle whitens with; otherwise None.
    """

    mean: np.ndarray
    covariance: np.ndarray
    cholesky: np.ndarray = field(init=False, repr=False, compare=False)
    _scale: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = _as_covariance(self.covariance)
        if mean.shape[0] != cov.shape[0]:
            raise ValueError(
                "mean length %d does not match covariance dimension %d"
                % (mean.shape[0], cov.shape[0])
            )
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean must be finite; found NaN or inf")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise NotSpdError("covariance is not positive definite: %s" % exc) from exc
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "cholesky", chol)
        diagonal = None if np.any(np.tril(chol, -1)) else np.diagonal(chol).copy()
        object.__setattr__(self, "_scale", diagonal)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @_Kept
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`~hdqda.estimation.eigenpair` of the covariance."""
        return eigenpair(self.covariance)

    @_Kept
    def _inverse_cholesky(self) -> np.ndarray:
        """L^-1, lower triangular: (x - mu)^T Sigma^-1 (x - mu) = |L^-1 (x - mu)|^2."""
        return np.tril(np.linalg.inv(self.cholesky))


def _check_priors(priors) -> tuple[float, float]:
    """Exactly two priors in (0, 1) that sum to one, as floats."""
    if len(priors) != 2:
        raise ValueError("priors must be a pair, got %r" % (priors,))
    p0, p1 = float(priors[0]), float(priors[1])
    if not (0.0 < p0 < 1.0 and 0.0 < p1 < 1.0) or abs(p0 + p1 - 1.0) > 1e-12:
        raise ValueError("priors must be positive and sum to one, got %r" % (priors,))
    return p0, p1


@dataclass(frozen=True)
class MixtureModel:
    """Two Gaussian classes with prior probabilities summing to one and, kept
    from first use, their spectral kernel :attr:`pair`."""

    class0: ClassStatistics
    class1: ClassStatistics
    prior0: float
    prior1: float

    def __post_init__(self):
        if self.class0.dim != self.class1.dim:
            raise ValueError(
                "classes live in different dimensions: %d vs %d"
                % (self.class0.dim, self.class1.dim)
            )
        _check_priors((self.prior0, self.prior1))

    @property
    def dim(self) -> int:
        return self.class0.dim

    def swapped(self) -> "MixtureModel":
        """The same mixture with the class roles exchanged."""
        return MixtureModel(self.class1, self.class0, self.prior1, self.prior0)

    @_Kept
    def pair(self) -> SpectralPair:
        """The spectral kernel of the two class covariances and the mean gap
        mu1 - mu0, built once from the classes' kept spectra; never passed in,
        so :meth:`swapped` and ``dataclasses.replace`` start without one."""
        return SpectralPair(
            (self.class0.spectrum, self.class1.spectrum), self.class1.mean - self.class0.mean
        )


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of a synthetic benchmark scenario.

    Class 0 has covariance ``base_scale * I``; class 1 adds a rank-
    ``spike_rank`` perturbation of magnitude ``spike_strength``. The class-1
    mean is offset by ``mean_offset / sqrt(p)`` in every coordinate.
    """

    p: int
    n0: int
    n1: int
    test0: int
    test1: int
    base_scale: float = 4.0
    spike_strength: float = 3.0
    spike_rank: int | None = None
    mean_offset: float = 3.0
    prior0: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in _CONFIG_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool):
                raise ValueError("%s must be a number, not a boolean, got %r" % (name, value))
            if name in ("base_scale", "spike_strength", "mean_offset", "prior0"):
                if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                    raise ValueError("%s must be a finite number, got %r" % (name, value))
            elif not isinstance(value, numbers.Integral) and (name, value) != ("spike_rank", None):
                raise ValueError("%s must be an integer, got %r" % (name, value))
        if self.p < 1:
            raise ValueError("dimension p must be >= 1")
        if self.n0 < 2 or self.n1 < 2:
            raise ValueError("training counts n0, n1 must each be >= 2")
        if self.test0 < 1 or self.test1 < 1:
            raise ValueError("test counts must each be >= 1")
        if self.spike_rank is None:
            object.__setattr__(self, "spike_rank", math.isqrt(self.p - 1) + 1 if self.p > 1 else 1)
        if not 0 <= self.spike_rank <= self.p:
            raise ValueError("spike_rank must lie in [0, p=%d], got %d" % (self.p, self.spike_rank))
        if self.seed < 0:
            raise ValueError("seed must be >= 0, got %d" % (self.seed,))
        if not 0.0 < self.prior0 < 1.0:
            raise ValueError("prior0 must lie in (0, 1), got %r" % (self.prior0,))
        if self.base_scale <= 0.0:
            raise ValueError("base_scale must be > 0, got %r" % (self.base_scale,))
        if self.base_scale + min(0.0, self.spike_strength) <= 0.0:
            raise ValueError(
                "base_scale + spike_strength must be > 0, got %r + %r"
                % (self.base_scale, self.spike_strength)
            )
        _check_scale_range(self.base_scale, self.spike_strength)

    def to_json(self) -> str:
        return json.dumps({k: getattr(self, k) for k in _CONFIG_FIELDS}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("scenario config must be a JSON object")
        unknown = sorted(set(data) - set(_CONFIG_FIELDS))
        if unknown:
            raise ValueError("unknown scenario config fields: %s" % ", ".join(unknown))
        missing = sorted(set(_CONFIG_FIELDS) - set(data))
        if missing:
            raise ValueError("missing scenario config fields: %s" % ", ".join(missing))
        return cls(**data)


_CONFIG_FIELDS = tuple(f.name for f in fields(ScenarioConfig))


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key) with a fixed spawn path.

    The same (seed, key) always yields the same stream, and distinct keys give
    statistically independent streams, so worker scheduling never changes what
    any one task draws.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _check_scale_range(base_scale: float, spike_strength: float) -> None:
    """Refuse scales whose covariance base_scale * I + (B + B^T) / 2, B = spike_strength
    * Q Q^T, may overflow: base_scale + 2 |spike_strength| bounds its entries and B + B^T's."""
    if not math.isfinite(float(base_scale) + 2.0 * abs(float(spike_strength))):
        raise ValueError("scales base_scale=%r, spike_strength=%r put the covariance past "
                         "the float range" % (base_scale, spike_strength))


def make_spiked_covariance(
    base_scale: float,
    spike_strength: float,
    spike_rank: int,
    p: int,
    seed: int,
) -> np.ndarray:
    """Isotropic covariance plus a random low-rank symmetric perturbation.

    Returns ``base_scale * I + spike_strength * Q Q^T`` where Q has
    ``spike_rank`` orthonormal columns drawn Haar-uniformly. The eigenvalue
    multiset is exactly ``spike_rank`` copies of ``base_scale + spike_strength``
    and ``p - spike_rank`` copies of ``base_scale``.
    """
    if not 0 <= spike_rank <= p:
        raise ValueError("spike_rank must lie in [0, %d], got %d" % (p, spike_rank))
    if base_scale <= 0.0 or base_scale + min(0.0, spike_strength) <= 0.0:
        raise NotSpdError(
            "scales base_scale=%r, spike_strength=%r do not yield a positive definite matrix"
            % (base_scale, spike_strength)
        )
    _check_scale_range(base_scale, spike_strength)
    sigma = base_scale * np.eye(p)
    if spike_rank == 0 or spike_strength == 0.0:
        return sigma
    rng = stream(seed, 0)
    g = rng.standard_normal((p, spike_rank))
    q, r = np.linalg.qr(g)
    # Sign correction makes Q Haar-distributed and deterministic given the draw.
    q = q * np.sign(np.diag(r))
    bump = spike_strength * (q @ q.T)
    sigma += 0.5 * (bump + bump.T)
    return sigma


def _fill_class(
    stats: ClassStatistics, rng: np.random.Generator, out: np.ndarray, scratch: np.ndarray | None
) -> np.ndarray:
    """Fill ``out`` (rows x dim) with rows of the class law drawn from ``rng``,
    allocating nothing: the standard normals go straight into ``out`` for a
    diagonal factor and into the first rows of ``scratch`` for the product."""
    if stats._scale is None:
        z = rng.standard_normal(out=scratch[: out.shape[0]])
        np.matmul(z, stats.cholesky.T, out=out)
    else:
        rng.standard_normal(out=out)
        out *= stats._scale
    out += stats.mean
    return out


def _scratch(stats: ClassStatistics, n: int) -> np.ndarray | None:
    """The normals buffer :func:`_fill_class` needs for up to n rows, if any."""
    return None if stats._scale is not None else np.empty((n, stats.dim))


def sample_class(stats: ClassStatistics, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n rows from the class distribution via its Cholesky factor L.

    Any L with L L^T equal to the covariance yields the same law; the Cholesky
    factor is the cheapest such choice. A diagonal L scales the standard
    normal draws column by column instead of multiplying by L^T: each entry of
    that product is one rounded product plus exact zeros, so the rows are
    bitwise those of the product, drawn without it.
    """
    if n < 1:
        raise ValueError("need at least one sample, got n=%d" % n)
    return _fill_class(stats, rng, np.empty((n, stats.dim)), _scratch(stats, n))


def build_mixture(config: ScenarioConfig) -> MixtureModel:
    """Materialize the ground-truth mixture a scenario config describes."""
    p = config.p
    cov0 = config.base_scale * np.eye(p)
    cov1 = make_spiked_covariance(
        config.base_scale, config.spike_strength, config.spike_rank, p, config.seed
    )
    mu0 = np.zeros(p)
    mu1 = np.full(p, config.mean_offset / math.sqrt(p))
    return MixtureModel(
        class0=ClassStatistics(mu0, cov0),
        class1=ClassStatistics(mu1, cov1),
        prior0=config.prior0,
        prior1=1.0 - config.prior0,
    )


@dataclass(frozen=True)
class ScenarioData:
    """One sampled realization of a scenario: raw train and test blocks."""

    model: MixtureModel
    train0: np.ndarray
    train1: np.ndarray
    test0: np.ndarray
    test1: np.ndarray


def sample_scenario(
    config: ScenarioConfig,
    *,
    model: MixtureModel | None = None,
    replicate: int = 0,
) -> ScenarioData:
    """Draw the train/test blocks of one scenario replicate.

    The ground-truth model is fixed by the config (spawn key 0 feeds the spiked
    basis); replicate r draws its four blocks from spawn keys (1..4, r), so
    replicates are independent and reproducible in any execution order.

    The two classes are drawn through :func:`~hdqda.estimation._both`:
    on the main thread, while numpy's OpenBLAS runs one thread of its own, a
    helper fills class 1's blocks (train1, then test1: the normals, then the
    product with the Cholesky factor) while the calling thread fills class
    0's; elsewhere, as on the CLI's ``--threads`` workers or under a
    multi-threaded BLAS, the calling thread fills the four blocks itself.
    Every array is allocated on the calling thread; the helper only fills.
    Each block reads only its own stream and writes only its own array, so
    the bytes are those of :func:`sample_class` run block after block,
    whatever the scheduling, and an error of either class reaches the caller.
    """
    if model is None:
        model = build_mixture(config)

    def plan(stats: ClassStatistics, rows: tuple[int, int], keys: tuple[int, int]) -> list:
        """Arguments of :func:`_fill_class` for a class's train and test blocks,
        which share one normals buffer (they are drawn one after the other)."""
        scratch = _scratch(stats, max(rows))
        return [
            (stats, stream(config.seed, key, replicate), np.empty((n, stats.dim)), scratch)
            for n, key in zip(rows, keys)
        ]

    def fill(blocks: list) -> None:
        for args in blocks:
            _fill_class(*args)

    class0 = plan(model.class0, (config.n0, config.test0), (1, 3))
    class1 = plan(model.class1, (config.n1, config.test1), (2, 4))
    _both(lambda: fill(class0), lambda: fill(class1))
    (_, _, train0, _), (_, _, test0, _) = class0
    (_, _, train1, _), (_, _, test1, _) = class1
    return ScenarioData(model=model, train0=train0, train1=train1, test0=test0, test1=test1)
