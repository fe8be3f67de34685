import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.special import ndtr

from hdqda.errors import (
    ConvergenceError,
    InvalidRegularizerError,
    NotSpdError,
    StabilityError,
)
from hdqda import _lapack, rmt
from hdqda.estimation import SpectralPair
from hdqda.model import ClassStatistics, MixtureModel, build_mixture
from hdqda.rmt import (
    _Margins,
    asymptotic_error,
    eigen_delta_solver,
    gamma1_theoretical,
    solve_delta,
    theta_star_theoretical,
)

from conftest import random_spd, small_config


def _isotropic_delta(sigma: float, gamma: float, c: float) -> float:
    """Positive root of the scalar fixed-point equation for sigma * I.

    gamma d^2 + d (1 + gamma sigma - c gamma sigma) - c sigma = 0, c = p / n.
    """
    b = 1.0 + gamma * sigma - c * gamma * sigma
    return (-b + math.sqrt(b * b + 4.0 * gamma * c * sigma)) / (2.0 * gamma)


def _resolvent_limit(sigma: np.ndarray, gamma: float, delta: float) -> np.ndarray:
    """T = (I + s sigma)^-1 at s = gamma / (1 + gamma delta), by a dense inverse."""
    scale = gamma / (1.0 + gamma * delta)
    return np.linalg.inv(np.eye(sigma.shape[0]) + scale * sigma)


def test_dense_route_satisfies_its_own_fixed_point():
    """The spectral root and moments satisfy the fixed point and phi's
    definition with T from a dense inverse."""
    rng = np.random.default_rng(2)
    sigma = random_spd(40, rng)
    eq = solve_delta(sigma, 60, 1.3)
    T_direct = _resolvent_limit(sigma, 1.3, eq.delta)
    assert eq.delta == pytest.approx(np.trace(sigma @ T_direct) / 60, abs=1e-8)
    assert eq.phi == pytest.approx(float(np.sum((sigma @ T_direct) ** 2)) / 60, rel=1e-12)
    assert eq.stability_margin() > 0.0
    assert eq.residual <= 1e-12 * max(1.0, eq.delta)
    assert 2 <= eq.iterations <= 20


def test_both_routes_agree_on_a_generic_spectrum():
    """Both solvers hit the root of the fixed point whose traces come from dense solves."""
    rng = np.random.default_rng(3)
    sigma = random_spd(50, rng)
    eigs = np.linalg.eigvalsh(sigma)
    for n, gamma in ((25, 0.2), (50, 1.0), (100, 8.0)):
        reference = _dense_fixed_point(sigma, n, gamma)
        assert solve_delta(sigma, n, gamma).delta == pytest.approx(reference, rel=1e-12)
        assert eigen_delta_solver(eigs, n, gamma) == pytest.approx(reference, rel=1e-12)


def test_isotropic_fixed_point_matches_the_closed_form():
    p, n = 80, 40
    delta = solve_delta(3.0 * np.eye(p), n, 2.0).delta
    assert delta == pytest.approx(_isotropic_delta(3.0, 2.0, p / n), abs=1e-9)


def test_zero_shrinkage_short_circuits():
    sigma = np.diag(np.array([1.0, 2.0, 3.0]))
    eq = solve_delta(sigma, 6, 0.0)
    assert eq.delta == pytest.approx(1.0)
    assert eq.residual == 0.0 and eq.iterations == 0
    assert eigen_delta_solver(np.array([1.0, 2.0, 3.0]), 6, 0.0) == pytest.approx(1.0)


def test_solver_argument_validation():
    sigma = np.eye(3)
    with pytest.raises(ValueError):
        solve_delta(np.zeros((2, 3)), 5, 1.0)
    with pytest.raises(ValueError):
        solve_delta(sigma, 0, 1.0)
    with pytest.raises(InvalidRegularizerError):
        solve_delta(sigma, 5, -1.0)
    with pytest.raises(NotSpdError):
        eigen_delta_solver(np.array([1.0, -2.0]), 5, 1.0)
    with pytest.raises(InvalidRegularizerError):
        eigen_delta_solver(np.array([1.0, 2.0]), 5, math.nan)
    with pytest.raises(ValueError, match="covariance spectrum has non-finite entries"):
        eigen_delta_solver(np.array([math.nan, 1.0]), 10, 1.0)
    with pytest.raises(ValueError, match="sample count must be positive, got nan"):
        eigen_delta_solver(np.ones(3), math.nan, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="covariance must be finite; found NaN or inf"):
            solve_delta(np.diag([1.0, bad, 2.0]), 10, 1.0)
    with pytest.raises(InvalidRegularizerError, match="shrinkage must be finite, got inf"):
        gamma1_theoretical(np.eye(3), 10, 20, math.inf, delta0=0.5)
    with pytest.raises(ValueError, match="delta0 must be finite and nonnegative, got inf"):
        gamma1_theoretical(np.eye(3), 10, 20, 0.5, delta0=math.inf)
    # A count is a whole number: not a fraction and not a boolean, though a
    # whole float passes as its integer.
    for bad in (2.5, True):
        message = "sample count must be a whole number, got %r" % (bad,)
        with pytest.raises(ValueError, match=message):
            solve_delta(sigma, bad, 1.0)
        with pytest.raises(ValueError, match=message):
            eigen_delta_solver(np.ones(3), bad, 1.0)
    with pytest.raises(ValueError, match="n1 must be a whole number, got 20.5"):
        gamma1_theoretical(np.eye(3), 10, 20.5, 0.5)
    with pytest.raises(ValueError, match="n1 must be a whole number, got True"):
        gamma1_theoretical(np.eye(3), 1, True, 0.5)
    assert solve_delta(sigma, 100.0, 1.0).delta == solve_delta(sigma, 100, 1.0).delta
    assert eigen_delta_solver(np.ones(3), 100.0, 1.0) == eigen_delta_solver(np.ones(3), 100, 1.0)
    model = _commuting_model(p=12, seed=1)
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="bias must be finite"):
            asymptotic_error(model, 20, 30, 0.5, 0.9, theta)
    # Both theory entry points rely on the fixed-point solver's own checks.
    for args, error, message in (
        ((0, 30, 0.5, 0.9), ValueError, "sample count must be positive, got 0"),
        ((20, 30, -1.0, 0.9), InvalidRegularizerError, "shrinkage must be nonnegative, got -1.0"),
        ((20, 30, 0.5, math.nan), InvalidRegularizerError, "shrinkage must be nonnegative, got nan"),
        ((20, 30, 0.5, math.inf), InvalidRegularizerError, "shrinkage must be finite, got inf"),
        ((20, math.inf, 0.5, 0.9), ValueError, "sample count must be finite, got inf"),
        ((20.5, 30, 0.5, 0.9), ValueError, "sample count must be a whole number, got 20.5"),
        ((20, True, 0.5, 0.9), ValueError, "sample count must be a whole number, got True"),
    ):
        for call in (
            lambda: theta_star_theoretical(model, *args),
            lambda: asymptotic_error(model, *args, 0.0),
        ):
            with pytest.raises(error) as raised:
                call()
            assert type(raised.value) is error and str(raised.value) == message


def test_nonconverged_root_find_raises(monkeypatch):
    monkeypatch.setattr(rmt, "_MAX_ROOT_STEPS", 1)
    sigma = random_spd(30, np.random.default_rng(0))
    with pytest.raises(ConvergenceError, match="after 1 iterations"):
        solve_delta(sigma, 10, 5.0)
    with pytest.raises(ConvergenceError, match="after 1 iterations"):
        eigen_delta_solver(np.linalg.eigvalsh(sigma), 10, 5.0)


def test_newton_root_find_matches_a_tight_scipy_root():
    """On random eigen-route fixed points (p 1-400, up to half the spectrum zero,
    gamma log-uniform on [1e-8, 1e8]) the root is within 1e-13 relative of
    scipy's ``brentq`` run to its relative tolerance alone, however small the
    root, and each solve spends at most 20 gap evaluations."""
    rng = np.random.default_rng(23)
    for _ in range(300):
        p = int(rng.integers(1, 401))
        eig = 10.0 ** rng.uniform(-2.0, 2.0, p)
        eig[: int(rng.integers(0, p // 2 + 1))] = 0.0
        n, gamma = int(rng.integers(1, 2 * p + 1)), float(10.0 ** rng.uniform(-8.0, 8.0))

        def gap(delta, eig=eig, n=n, gamma=gamma):
            return delta - float(np.sum(eig / (1.0 + gamma / (1.0 + gamma * delta) * eig))) / n

        root = optimize.brentq(gap, 0.0, float(np.sum(eig)) / n, xtol=1e-300)
        _, found, evaluations = rmt._spectral_fixed_point(eig, n, gamma)
        assert abs(found - root) <= 1e-13 * root
        assert 1 <= evaluations <= 20


def test_an_overflowing_trace_stops_the_root_find():
    """A spectrum whose trace overflows leaves the gap NaN at the upper end;
    the root-find refuses it instead of stepping on to a root."""
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="gap is NaN at delta=inf"):
        eigen_delta_solver(np.full(2, 1e308), 1, 1e300)


def _multiprecision_root(eig, n: int, gamma: float):
    """The fixed point at 100 digits, by bisection on the geometric mean of a
    bracket that starts at [0, Tr / n], to 1e-40 relative."""
    import mpmath

    with mpmath.workdps(100):
        eig, gamma = [mpmath.mpf(float(l)) for l in eig], mpmath.mpf(gamma)
        lo, hi = mpmath.mpf(0), mpmath.fsum(eig) / n
        while hi - lo > hi * mpmath.mpf(10) ** -40:
            mid = mpmath.sqrt(lo * hi) if lo > 0 else hi / 2**64
            trace = mpmath.fsum(l / (1 + gamma * l / (1 + gamma * mid)) for l in eig)
            lo, hi = (lo, mid) if mid - trace / n > 0 else (mid, hi)
        return hi


@pytest.mark.parametrize("regime", ["p-equals-n", "p-above-n", "p-below-n"])
def test_the_root_keeps_its_digits_at_any_shrinkage(regime):
    """Against a 100-digit root on random spectra (p up to 40, gamma
    log-uniform on [1e-8, 1e40]) the root is within 1e-14 relative. At p = n
    the root is nearly double and near 1/sqrt(gamma): with l = 1 and gamma =
    1e60 it is 1e-30, reached in about 100 evaluations."""
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(["p-equals-n", "p-above-n", "p-below-n"].index(regime))
    cases = [([1.0], 1, 1e60)] if regime == "p-equals-n" else []
    for _ in range(15):
        p = int(rng.integers(2, 41))
        n = {"p-equals-n": p, "p-above-n": int(rng.integers(1, p)),
             "p-below-n": p + int(rng.integers(1, 40))}
        eig = 10.0 ** rng.uniform(-2.0, 2.0, p)
        cases.append((eig, n[regime], float(10.0 ** rng.uniform(-8.0, 40.0))))
    for eig, n, gamma in cases:
        root = _multiprecision_root(eig, n, gamma)
        assert abs(eigen_delta_solver(eig, n, gamma) - root) <= 1e-14 * root


def test_root_find_evaluates_each_point_once(monkeypatch):
    """Every gap evaluation is at a new point, ``iterations`` counts them,
    and a solve factors no shifted covariance: the theory stays on the spectrum."""
    newton_step, dpotrf = rmt._newton_step, _lapack.dpotrf
    points, factored = [], []

    def step_spy(eig, n, gamma, delta):
        points.append(delta)
        return newton_step(eig, n, gamma, delta)

    def factor_spy(a):
        factored.append(a.shape)
        return dpotrf(a)

    monkeypatch.setattr(rmt, "_newton_step", step_spy)
    monkeypatch.setattr(_lapack, "dpotrf", factor_spy)
    sigma = random_spd(60, np.random.default_rng(0))
    eq = solve_delta(sigma, 30, 2.0)
    assert eq.iterations == len(points) >= 3
    assert len(set(points)) == len(points)
    assert factored == [] and not hasattr(rmt, "_shifted_inverse")
    assert abs(eq.delta - eigen_delta_solver(np.linalg.eigvalsh(sigma), 30, 2.0)) <= 1e-12


def test_phi_matches_scipy_and_a_multiprecision_reference():
    """Phi(x) = erfc(-x / sqrt(2)) / 2, on 6000 points from -37 (Phi about 6e-300)
    to 8. Rounding x / sqrt(2) alone moves Phi by about x^2 units in the last
    place far in the lower tail, so each bound grows with it: the largest gap
    to mpmath was 0.8 (1 + x^2) units for this form and 2.0 (1 + x^2) for
    scipy's ndtr, which are equally accurate."""
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for x in np.linspace(-37.0, 8.0, 6000).tolist():
            phi, reference = rmt._normal_cdf(x), mpmath.ncdf(x)
            room = (1.0 + x * x) * eps * phi
            assert abs(phi - float(ndtr(x))) <= 4.0 * room
            assert float(abs(phi - reference)) <= 1.5 * room


def test_one_dimensional_solve_matches_the_spectral_route():
    eq = solve_delta([[2.0]], 3, 0.5)
    assert eq.delta == pytest.approx(eigen_delta_solver([2.0], 3, 0.5), rel=1e-15, abs=0.0)
    assert eq.delta == pytest.approx(0.36092084343274, rel=1e-13)
    T = _resolvent_limit(np.array([[2.0]]), 0.5, eq.delta)
    assert T[0, 0] == pytest.approx(1.0 / (1.0 + 2.0 * 0.5 / (1.0 + 0.5 * eq.delta)))


def test_solve_delta_rejects_asymmetric_empty_and_indefinite_covariances():
    sigma = np.array([[2.0, 0.5], [0.5 + 1e-9, 1.0]])
    with pytest.raises(ValueError, match="covariance is not symmetric within tolerance"):
        solve_delta(sigma, 10, 1.0)
    # An asymmetry within the tolerance is rounding, as in ClassStatistics.
    sigma[1, 0] = 0.5 + 1e-13
    assert solve_delta(sigma, 10, 1.0).delta > 0.0
    with pytest.raises(ValueError, match="nonempty"):
        solve_delta(np.zeros((0, 0)), 10, 1.0)
    # A negative eigenvalue is refused before the root-find starts, whether or
    # not I + s sigma would stay positive definite between 0 and Tr[sigma] / n.
    rotation = np.linalg.qr(np.random.default_rng(4).standard_normal((6, 6)))[0]
    indefinite = (rotation * np.array([-3.0, 1.0, 2.0, 4.0, 5.0, 6.0])) @ rotation.T
    for sigma, n, gamma in (
        (np.diag([-2.0, 5.0]), 1, 10.0),
        (0.5 * (indefinite + indefinite.T), 1, 10.0),
        (np.diag([1.0, -0.5]), 100, 1.0),
    ):
        with pytest.raises(NotSpdError, match="covariance spectrum has negative entries"):
            solve_delta(sigma, n, gamma)


def _identity_mixture(scale: float) -> MixtureModel:
    """Two ``scale * I`` classes in p=3, means 0 and 1."""
    return MixtureModel(
        ClassStatistics(np.zeros(3), scale * np.eye(3)),
        ClassStatistics(np.ones(3), scale * np.eye(3)),
        0.5,
        0.5,
    )


def _spread_mixture(scale: float) -> MixtureModel:
    """``scale * I`` and ``scale * diag(1, 2, 3, 4)`` in p=4, means 0 and 1."""
    return MixtureModel(
        ClassStatistics(np.zeros(4), scale * np.eye(4)),
        ClassStatistics(np.ones(4), scale * np.diag([1.0, 2.0, 3.0, 4.0])),
        0.5,
        0.5,
    )


@pytest.mark.parametrize(
    "call, message",
    [
        # gamma * delta overflows at the root-find's start, which the first
        # Newton step would return unmoved.
        pytest.param(
            lambda: solve_delta(1e10 * np.eye(3), 1, 1e300),
            r"gamma \* delta overflows at gamma=1e\+300, delta=30000000000\.0",
            id="dense-scale",
        ),
        pytest.param(
            lambda: eigen_delta_solver([1e100] * 3, 3, 1e300),
            r"gamma \* delta overflows at gamma=1e\+300, delta=1e\+100",
            id="eigen-start",
        ),
        pytest.param(
            lambda: gamma1_theoretical(1e100 * np.eye(3), 3, 6, 1e300),
            r"gamma \* delta overflows at gamma=1e\+300, delta=1e\+100",
            id="matched-start",
        ),
        pytest.param(
            lambda: theta_star_theoretical(_identity_mixture(1e10), 5, 5, 1e300, 1e300),
            r"gamma \* delta overflows at gamma=1e\+300",
            id="eigen-margin-large-classes",
        ),
        # (1 + gamma * delta)^2 overflows at the root, on either route.
        pytest.param(
            lambda: solve_delta(1e200 * np.eye(3), 1, 1.0),
            r"\(1 \+ gamma \* delta\)\^2 overflows at gamma=1\.0",
            id="dense-phi-tilde",
        ),
        pytest.param(
            lambda: asymptotic_error(_identity_mixture(1.0), 2, 2, 1e200, 1e200, 0.0),
            r"\(1 \+ gamma \* delta\)\^2 overflows at gamma=1e\+200",
            id="eigen-phi-tilde",
        ),
        # gamma^2 overflows in the stability margin, on either route.
        pytest.param(
            lambda: solve_delta(np.eye(3), 5, 1e200),
            r"gamma\^2 overflows at gamma=1e\+200",
            id="dense-margin",
        ),
        pytest.param(
            lambda: theta_star_theoretical(_identity_mixture(1.0), 5, 5, 1e200, 1e200),
            r"gamma\^2 overflows at gamma=1e\+200",
            id="eigen-margin",
        ),
        # The squared spectra in the limit's moments overflow, in either call.
        pytest.param(
            lambda: asymptotic_error(_spread_mixture(1e160), 8, 12, 1.0, 1.0, 0.0),
            r"limiting margins leave the float range: overflow",
            id="margins-1e160",
        ),
        pytest.param(
            lambda: theta_star_theoretical(_spread_mixture(1e200), 8, 12, 1.0, 1.0),
            r"limiting margins leave the float range: overflow",
            id="margins-1e200",
        ),
    ],
)
def test_past_the_float_range_the_theory_raises_stability_error(call, message):
    """Arithmetic past the float range fails as a StabilityError, which the CLI
    maps to exit 2, never as Python's bare OverflowError."""
    with pytest.raises(StabilityError, match=message):
        call()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(5, 120),
    gamma=st.floats(1e-3, 50.0),
    scale=st.floats(0.1, 10.0),
)
def test_route_agreement_property(seed, n, gamma, scale):
    """solve_delta's root on a rotated, non-diagonal covariance equals the
    dense fixed point, whose trace map solves with I + s sigma."""
    rng = np.random.default_rng(seed)
    rotation = np.linalg.qr(rng.standard_normal((16, 16)))[0]
    sigma = (rotation * (scale * rng.uniform(0.2, 3.0, size=16))) @ rotation.T
    sigma = 0.5 * (sigma + sigma.T)
    eq = solve_delta(sigma, n, gamma)
    dense = _dense_fixed_point(sigma, n, gamma)
    assert eq.delta >= 0.0
    assert abs(eq.delta - dense) <= 1e-12 * max(1.0, dense)
    assert eq.residual <= 1e-12 * max(1.0, eq.delta)


def _dense_fixed_point(sigma: np.ndarray, n: int, gamma: float) -> float:
    """Root of delta - Tr[sigma (I + s sigma)^-1] / n with s = gamma / (1 + gamma
    delta), each trace from a dense solve and the root from scipy's brentq."""
    identity = np.eye(sigma.shape[0])

    def gap(delta):
        scale = gamma / (1.0 + gamma * delta)
        return delta - float(np.trace(np.linalg.solve(identity + scale * sigma, sigma))) / n

    return optimize.brentq(gap, 0.0, float(np.trace(sigma)) / n, xtol=1e-14)


def _commuting_model(p=48, seed=0):
    config = small_config(p=p, seed=seed, spike_rank=5, spike_strength=6.0)
    return build_mixture(config)


def _dense_margins(model: MixtureModel, n0: int, n1: int, gamma0: float, gamma1: float):
    """Reference (phi, phi_tilde) and margins from the dense resolvent limits T,
    inverted at :func:`solve_delta`'s roots, phi = ||sigma T||_F^2 / n included;
    every trace and quadratic form is taken on dense matrices."""
    sigmas = (model.class0.covariance, model.class1.covariance)
    counts, gammas, p = (n0, n1), (gamma0, gamma1), model.dim
    eqs = [solve_delta(sigmas[i], counts[i], gammas[i]) for i in (0, 1)]
    T = tuple(_resolvent_limit(sigmas[i], gammas[i], eqs[i].delta) for i in (0, 1))
    phi = tuple(float(np.sum((sigmas[i] @ T[i]) ** 2)) / counts[i] for i in (0, 1))
    margin = tuple(1.0 - gammas[i] ** 2 * phi[i] * eqs[i].phi_tilde for i in (0, 1))
    mu = model.class1.mean - model.class0.mean
    shift, trace_gap, beta, variance, offset = [], [], [], [], []
    for i, sign in ((0, -1.0), (1, 1.0)):
        j = 1 - i
        sandwiched = T[j] @ sigmas[j] @ T[j]
        shift.append(float(mu @ T[j] @ mu) / math.sqrt(p))
        trace_gap.append(float(np.sum(sigmas[i] * (T[i] - T[j]))) * sign / math.sqrt(p))
        beta.append(-shift[i] + sign * trace_gap[i])
        variance.append(
            counts[i] / p * phi[i] / margin[i]
            + float(np.sum((sigmas[i] @ T[j]) ** 2)) / p
            - 2.0 * float(np.sum((sigmas[i] @ T[1]) * (sigmas[i] @ T[0]).T)) / p
            + gammas[j] ** 2 * eqs[j].phi_tilde / margin[j]
            * float(np.sum(sigmas[i] * sandwiched)) ** 2 / (counts[j] * p)
        )
        offset.append(float(mu @ sandwiched @ mu) / p / margin[j])
    fixed = tuple(eq.delta for eq in eqs)
    margins = _Margins(gammas, fixed, *map(tuple, (beta, shift, trace_gap, variance, offset)))
    return (phi, tuple(eq.phi_tilde for eq in eqs)), margins


def _covariance_pair(kind: str, p: int, rng: np.random.Generator):
    if kind == "generic":
        return random_spd(p, rng), random_spd(p, rng)
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    base = rng.uniform(0.5, 3.0)
    rank = max(1, p // 4)
    spikes1 = np.zeros(p)
    spikes1[-rank:] = rng.uniform(1.0, 8.0, rank)
    sigma1 = (q * (base + spikes1)) @ q.T
    if kind == "isotropic":
        return base * np.eye(p), sigma1
    spikes0 = np.zeros(p)
    spikes0[:rank] = rng.uniform(1.0, 8.0, rank)
    return (q * (base + spikes0)) @ q.T, sigma1


def _assert_close(got, want, what: str) -> None:
    # Relative to max(1, |want|): the normalized margins are differences of
    # O(1) terms and may sit near zero without being ill-determined.
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    gap = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
    assert np.all(gap <= 1e-10), "%s: %r vs dense %r" % (what, got, want)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["generic", "shared-basis", "isotropic"]),
    seed=st.integers(0, 10_000),
    p=st.integers(4, 40),
    n_scale=st.floats(0.5, 3.0),
    imbalance=st.floats(1.0, 2.0),
    gamma0=st.floats(0.05, 20.0),
    gamma1=st.floats(0.05, 20.0),
    prior0=st.sampled_from([0.5, 0.3]),
)
def test_spectral_route_matches_the_dense_reference(
    kind, seed, p, n_scale, imbalance, gamma0, gamma1, prior0
):
    """Spectral margins and the error and bias built on them equal the
    dense-resolvent reference for non-commuting, commuting and isotropic pairs."""
    rng = np.random.default_rng(seed)
    sigma0, sigma1 = _covariance_pair(kind, p, rng)
    mu = rng.standard_normal(p) * 3.0 / math.sqrt(p)
    model = MixtureModel(
        class0=ClassStatistics(np.zeros(p), 0.5 * (sigma0 + sigma0.T)),
        class1=ClassStatistics(mu, 0.5 * (sigma1 + sigma1.T)),
        prior0=prior0,
        prior1=1.0 - prior0,
    )
    n0 = max(2, int(n_scale * p))
    n1 = max(n0, int(imbalance * n0))
    args = (model, n0, n1, gamma0, gamma1)

    (phi, phi_tilde), spectral = rmt._limit_margins(*args)
    (dense_phi, dense_phi_tilde), dense = _dense_margins(*args)
    _assert_close(phi, dense_phi, "phi")
    _assert_close(phi_tilde, dense_phi_tilde, "phi_tilde")
    for field in dataclasses.fields(_Margins):
        _assert_close(
            getattr(spectral, field.name), getattr(dense, field.name), field.name
        )

    design = theta_star_theoretical(*args)
    prediction = asymptotic_error(*args, design.theta_star)
    with mock.patch.object(rmt, "_limit_margins", _dense_margins):
        dense_design = theta_star_theoretical(*args)
        dense_prediction = asymptotic_error(*args, design.theta_star)
    # With unequal priors the bias divides by beta0 + beta1; near cancellation
    # that division amplifies any last-digit difference, whichever route.
    balance = abs(dense_design.beta0 + dense_design.beta1)
    assume(balance >= 1e-2 * max(1.0, abs(dense_design.beta0), abs(dense_design.beta1)))
    for field in dataclasses.fields(design):
        _assert_close(
            getattr(design, field.name), getattr(dense_design, field.name), field.name
        )
    for field in dataclasses.fields(prediction):
        _assert_close(
            getattr(prediction, field.name),
            getattr(dense_prediction, field.name),
            field.name,
        )


def test_a_mixture_keeps_one_spectral_kernel(monkeypatch):
    """The design and the limiting error at it share the kernel the mixture
    builds on first use; ``swapped`` and ``dataclasses.replace`` start without
    one, and a kept kernel gives a fresh mixture's outputs bitwise."""
    model, fresh = _commuting_model(p=30, seed=2), _commuting_model(p=30, seed=2)
    builds, build = [], SpectralPair.__init__

    def counting(self, *args):
        builds.append(args)
        build(self, *args)

    monkeypatch.setattr(SpectralPair, "__init__", counting)
    args = (40, 60, 0.9, 0.8)
    design = theta_star_theoretical(model, *args)
    prediction = asymptotic_error(model, *args, design.theta_star)
    assert len(builds) == 1 and model.__dict__["pair"] is model.pair
    assert "pair" not in model.swapped().__dict__
    assert "pair" not in dataclasses.replace(model, prior0=0.5, prior1=0.5).__dict__

    again = theta_star_theoretical(model, *args)
    assert len(builds) == 1
    fresh_design = theta_star_theoretical(fresh, *args)
    fresh_prediction = asymptotic_error(fresh, *args, fresh_design.theta_star)
    assert len(builds) == 2
    assert design == again == fresh_design
    for field in dataclasses.fields(prediction):
        kept, built = getattr(prediction, field.name), getattr(fresh_prediction, field.name)
        assert np.asarray(kept).tobytes() == np.asarray(built).tobytes(), field.name


def test_prediction_is_a_proper_error_pair():
    model = _commuting_model(seed=4)
    pred = asymptotic_error(model, 50, 100, 0.5, 0.9, 0.2)
    assert 0.0 < pred.eps0 < 1.0 and 0.0 < pred.eps1 < 1.0
    assert pred.total == pytest.approx(
        model.prior0 * pred.eps0 + model.prior1 * pred.eps1, abs=1e-14
    )


def test_bias_trades_the_two_class_errors_monotonically():
    model = _commuting_model(seed=5)
    thetas = np.linspace(-3.0, 3.0, 7)
    preds = [asymptotic_error(model, 50, 100, 0.5, 0.9, t) for t in thetas]
    eps0 = [pr.eps0 for pr in preds]
    eps1 = [pr.eps1 for pr in preds]
    assert all(a <= b + 1e-12 for a, b in zip(eps0, eps0[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(eps1, eps1[1:]))


def test_matched_shrinkage_equals_gamma0_for_balanced_counts():
    sigma = random_spd(30, np.random.default_rng(6))
    assert gamma1_theoretical(sigma, 40, 40, 1.7) == 1.7


def test_matched_shrinkage_closed_form_and_orientation_guard():
    sigma = random_spd(30, np.random.default_rng(7))
    n0, n1, gamma0 = 35, 70, 0.8
    delta0 = solve_delta(sigma, n0, gamma0).delta
    expected = gamma0 / (1.0 - (1.0 / n1 - 1.0 / n0) * gamma0 * n0 * delta0)
    assert gamma1_theoretical(sigma, n0, n1, gamma0) == pytest.approx(
        expected, rel=1e-10
    )
    with pytest.raises(ValueError, match="minority class first"):
        gamma1_theoretical(sigma, 70, 35, gamma0)
    for delta0 in (-0.01, math.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            gamma1_theoretical(sigma, n0, n1, gamma0, delta0=delta0)


def test_gamma1_theoretical_refuses_a_malformed_covariance():
    """Without ``delta0`` the class-0 covariance gets solve_delta's checks: an
    asymmetric matrix, which eigvalsh would read by its lower triangle alone, and
    a non-square one are refused by name."""
    with pytest.raises(ValueError, match="covariance is not symmetric within tolerance"):
        gamma1_theoretical(np.array([[1.0, 5.0], [0.0, 1.0]]), 4, 8, 0.5)
    with pytest.raises(ValueError, match=r"covariance must be square and nonempty, got shape \(2, 3\)"):
        gamma1_theoretical(np.ones((2, 3)), 4, 8, 0.5)
    # With delta0 given the covariance is not read.
    assert gamma1_theoretical(np.ones((2, 3)), 4, 8, 0.5, delta0=0.25) == pytest.approx(0.5 / 1.0625)


@pytest.mark.parametrize(
    "covariance, error, message",
    [
        pytest.param(np.ones((2, 3)), NotSpdError,
                     "covariance must be square and nonempty, got shape (2, 3)", id="non-square"),
        pytest.param(np.zeros((0, 0)), NotSpdError,
                     "covariance must be square and nonempty, got shape (0, 0)", id="empty"),
        pytest.param(np.diag([1.0, math.nan]), ValueError,
                     "covariance must be finite; found NaN or inf", id="nan"),
        pytest.param(np.diag([math.inf, 1.0]), ValueError,
                     "covariance must be finite; found NaN or inf", id="inf"),
        pytest.param(np.array([[1.0, 5.0], [0.0, 1.0]]), NotSpdError,
                     "covariance is not symmetric within tolerance", id="asymmetric"),
    ],
)
def test_every_reader_of_a_true_covariance_refuses_it_alike(covariance, error, message):
    """ClassStatistics, solve_delta and gamma1_theoretical (without delta0)
    share one check: the same exception class and message for each bad input."""
    for call in (
        lambda: ClassStatistics(np.zeros(covariance.shape[0]), covariance),
        lambda: solve_delta(covariance, 4, 0.5),
        lambda: gamma1_theoretical(covariance, 4, 8, 0.5),
    ):
        with pytest.raises(ValueError) as raised:
            call()
        assert type(raised.value) is error
        assert str(raised.value) == message


def test_design_centers_margins_at_equal_priors():
    config = small_config(p=60, prior0=0.5, seed=8)
    model = build_mixture(config)
    gamma1 = gamma1_theoretical(model.class0.covariance, 60, 120, 0.9)
    design = theta_star_theoretical(model, 60, 120, 0.9, gamma1)
    assert design.alpha > 0.0
    assert design.theta_star == pytest.approx(
        (design.beta1 - design.beta0) / 2.0, abs=1e-14
    )


def test_design_satisfies_the_stationarity_identity_at_unequal_priors():
    config = small_config(p=60, prior0=0.3, seed=8)
    model = build_mixture(config)
    gamma1 = gamma1_theoretical(model.class0.covariance, 60, 120, 0.9)
    design = theta_star_theoretical(model, 60, 120, 0.9, gamma1)
    identity = (
        math.log(model.prior0 / model.prior1)
        + ((design.beta1 - design.theta_star) / (2.0 * design.alpha)) ** 2
        - ((design.beta0 + design.theta_star) / (2.0 * design.alpha)) ** 2
    )
    assert abs(identity) <= 1e-9


def test_inadmissible_fixed_point_records_are_rejected():
    # Genuine solver output always has a positive margin; the record type
    # still refuses forged values so downstream code can trust the fields.
    from hdqda.rmt import DeterministicEquivalents

    with pytest.raises(StabilityError):
        DeterministicEquivalents(delta=1.0, phi=10.0, gamma=1.0, n=4)
    with pytest.raises(StabilityError):
        DeterministicEquivalents(delta=-0.5, phi=0.1, gamma=1.0, n=4)
    with pytest.raises(InvalidRegularizerError):
        DeterministicEquivalents(delta=0.5, phi=0.1, gamma=-1.0, n=4)
    # A NaN margin is not > 0 either.
    with pytest.raises(StabilityError, match="margin is nan"):
        DeterministicEquivalents(delta=0.5, phi=math.nan, gamma=1.0, n=4)
    # phi_tilde is derived from the record's own delta and gamma, never stored
    # as given, so it cannot disagree with them.
    record = DeterministicEquivalents(delta=1.0, phi=0.1, gamma=1.0, n=4)
    assert record.phi_tilde == 0.25 and record.stability_margin() == 0.975
    with pytest.raises(TypeError, match="phi_tilde"):
        DeterministicEquivalents(delta=1.0, phi=0.1, phi_tilde=1.0, gamma=1.0, n=4)
    # The record keeps no dense resolvent limit.
    assert "T" not in {field.name for field in dataclasses.fields(DeterministicEquivalents)}
