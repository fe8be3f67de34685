import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.linalg import lapack, solve_triangular

from hdqda.errors import (
    ConvergenceError,
    InvalidRegularizerError,
    NotSpdError,
    StabilityError,
)
from hdqda import rmt
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


def test_dense_route_satisfies_its_own_fixed_point():
    rng = np.random.default_rng(2)
    sigma = random_spd(40, rng)
    eq = solve_delta(sigma, 60, 1.3)
    scale = 1.3 / (1.0 + 1.3 * eq.delta)
    T_direct = np.linalg.inv(np.eye(40) + scale * sigma)
    np.testing.assert_allclose(eq.T, T_direct, atol=1e-9)
    assert eq.delta == pytest.approx(np.trace(sigma @ eq.T) / 60, abs=1e-8)
    assert eq.stability_margin() > 0.0
    assert eq.residual <= 1e-12 * max(1.0, eq.delta)
    assert 2 <= eq.iterations <= 20


def test_both_routes_agree_on_a_generic_spectrum():
    rng = np.random.default_rng(3)
    sigma = random_spd(50, rng)
    eigs = np.linalg.eigvalsh(sigma)
    for n, gamma in ((25, 0.2), (50, 1.0), (100, 8.0)):
        dense = solve_delta(sigma, n, gamma).delta
        scalar = eigen_delta_solver(eigs, n, gamma)
        assert dense == pytest.approx(scalar, rel=1e-12)


def test_isotropic_fixed_point_matches_the_closed_form():
    p, n = 80, 40
    delta = solve_delta(3.0 * np.eye(p), n, 2.0).delta
    assert delta == pytest.approx(_isotropic_delta(3.0, 2.0, p / n), abs=1e-9)


def test_zero_shrinkage_short_circuits():
    sigma = np.diag(np.array([1.0, 2.0, 3.0]))
    eq = solve_delta(sigma, 6, 0.0)
    assert eq.delta == pytest.approx(1.0)
    np.testing.assert_array_equal(eq.T, np.eye(3))
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
        with pytest.raises(ValueError, match="covariance has non-finite entries"):
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
    brentq = optimize.brentq
    monkeypatch.setattr(
        optimize, "brentq", lambda *args, **kwargs: brentq(*args, maxiter=1, **kwargs)
    )
    sigma = random_spd(30, np.random.default_rng(0))
    with pytest.raises(ConvergenceError, match="after 1 iterations"):
        solve_delta(sigma, 10, 5.0)
    with pytest.raises(ConvergenceError, match="after 1 iterations"):
        eigen_delta_solver(np.linalg.eigvalsh(sigma), 10, 5.0)


def test_root_find_evaluates_each_point_once(monkeypatch):
    """Every trace-map evaluation is at a new point, ``iterations`` counts them,
    and the dense shifted covariance is factored once per solve, at the root."""
    shifted_trace, shifted_inverse = rmt._shifted_trace, rmt._shifted_inverse
    scales, factored = [], []

    def trace_spy(diagonal, off, scale):
        scales.append(scale)
        return shifted_trace(diagonal, off, scale)

    def inverse_spy(sigma, scale):
        factored.append(scale)
        return shifted_inverse(sigma, scale)

    monkeypatch.setattr(rmt, "_shifted_trace", trace_spy)
    monkeypatch.setattr(rmt, "_shifted_inverse", inverse_spy)
    sigma = random_spd(60, np.random.default_rng(0))
    eq = solve_delta(sigma, 30, 2.0)
    assert eq.iterations == len(scales) >= 3
    assert len(set(scales)) == len(scales)
    assert factored == [2.0 / (1.0 + 2.0 * eq.delta)]
    assert abs(eq.delta - eigen_delta_solver(np.linalg.eigvalsh(sigma), 30, 2.0)) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(
    p=st.integers(1, 80),
    rank_share=st.floats(0.02, 2.0),
    log_scale=st.floats(-3.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=1, rank_share=1.0, log_scale=0.0, seed=0)
@example(p=2, rank_share=0.5, log_scale=2.0, seed=1)
@example(p=2, rank_share=1.0, log_scale=-3.0, seed=2)
@example(p=66, rank_share=0.021484375, log_scale=-3.0, seed=767)  # rank 1, worst rounding
def test_tridiagonal_trace_matches_the_cholesky_route(p, rank_share, log_scale, seed):
    """The O(p) trace on the Householder tridiagonal form gives the trace map
    (p - ||L^-1||_F^2) / s of the Cholesky factor L of I + s sigma, for
    positive definite and rank-deficient covariances.

    Both routes subtract a trace of order p from p and divide by s, so each
    carries a rounding of some p * eps / s that no route avoids: at rank 1 and
    s = 1e-3 it is up to 5e-11 of the map against the exact spectral sum. The
    bound is 1e-11 relative plus 64 times that rounding; the largest gap seen
    over 6000 draws was 37 times it."""
    rng = np.random.default_rng(seed)
    m = max(1, round(rank_share * p))
    A = rng.standard_normal((p, m))
    sigma = A @ A.T / max(m, p)
    scale = 10.0**log_scale
    _, diagonal, off, _, _ = lapack.dsytrd(sigma, lower=1)
    tridiagonal = (p - rmt._shifted_trace(diagonal, off, scale)) / scale
    inverse = solve_triangular(np.linalg.cholesky(np.eye(p) + scale * sigma), np.eye(p), lower=True)
    dense = (p - float(np.sum(inverse * inverse))) / scale
    assert abs(tridiagonal - dense) <= 1e-11 * dense + 64 * p * np.finfo(float).eps / scale


def test_one_dimensional_solve_matches_the_spectral_route():
    eq = solve_delta([[2.0]], 3, 0.5)
    assert eq.delta == pytest.approx(eigen_delta_solver([2.0], 3, 0.5), rel=1e-15, abs=0.0)
    assert eq.delta == pytest.approx(0.36092084343274, rel=1e-13)
    assert eq.T[0, 0] == pytest.approx(1.0 / (1.0 + 2.0 * 0.5 / (1.0 + 0.5 * eq.delta)))


def test_solve_delta_rejects_asymmetric_empty_and_indefinite_covariances():
    sigma = np.array([[2.0, 0.5], [0.5 + 1e-9, 1.0]])
    with pytest.raises(ValueError, match="covariance is not symmetric within tolerance"):
        solve_delta(sigma, 10, 1.0)
    # An asymmetry within the tolerance is rounding, as in ClassStatistics.
    sigma[1, 0] = 0.5 + 1e-13
    assert solve_delta(sigma, 10, 1.0).delta > 0.0
    with pytest.raises(ValueError, match="nonempty"):
        solve_delta(np.zeros((0, 0)), 10, 1.0)
    # I + s diag(-2, 5) loses its first leading minor at s = 1/2; the root-find
    # first tries s = gamma = 10, at delta = 0.
    with pytest.raises(NotSpdError, match=r"I \+ 10\.0 \* sigma is not positive definite: leading minor 1 fails"):
        solve_delta(np.diag([-2.0, 5.0]), 1, 10.0)
    rotation = np.linalg.qr(np.random.default_rng(4).standard_normal((6, 6)))[0]
    indefinite = (rotation * np.array([-3.0, 1.0, 2.0, 4.0, 5.0, 6.0])) @ rotation.T
    with pytest.raises(NotSpdError, match=r"not positive definite: leading minor [1-6] fails"):
        solve_delta(0.5 * (indefinite + indefinite.T), 1, 10.0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(5, 120),
    gamma=st.floats(1e-3, 50.0),
    scale=st.floats(0.1, 10.0),
)
def test_route_agreement_property(seed, n, gamma, scale):
    """The dense and the spectral trace map give the same root."""
    rng = np.random.default_rng(seed)
    eigs = scale * rng.uniform(0.2, 3.0, size=16)
    dense = solve_delta(np.diag(eigs), n, gamma).delta
    scalar = eigen_delta_solver(eigs, n, gamma)
    assert dense >= 0.0
    assert abs(dense - scalar) <= 1e-12 * max(1.0, scalar)


def _commuting_model(p=48, seed=0):
    config = small_config(p=p, seed=seed, spike_rank=5, spike_strength=6.0)
    return build_mixture(config)


def _dense_margins(model: MixtureModel, n0: int, n1: int, gamma0: float, gamma1: float):
    """Reference (phi, phi_tilde) and margins from the dense resolvent limits of
    :func:`solve_delta`; no eigendecomposition."""
    sigmas = (model.class0.covariance, model.class1.covariance)
    counts, gammas, p = (n0, n1), (gamma0, gamma1), model.dim
    eqs = [solve_delta(sigmas[i], counts[i], gammas[i]) for i in (0, 1)]
    margin = tuple(eq.stability_margin() for eq in eqs)
    mu = model.class1.mean - model.class0.mean
    T = (eqs[0].T, eqs[1].T)
    shift, trace_gap, beta, variance, offset = [], [], [], [], []
    for i, sign in ((0, -1.0), (1, 1.0)):
        j = 1 - i
        sandwiched = T[j] @ sigmas[j] @ T[j]
        shift.append(float(mu @ T[j] @ mu) / math.sqrt(p))
        trace_gap.append(float(np.sum(sigmas[i] * (T[i] - T[j]))) * sign / math.sqrt(p))
        beta.append(-shift[i] + sign * trace_gap[i])
        variance.append(
            counts[i] / p * eqs[i].phi / margin[i]
            + float(np.sum((sigmas[i] @ T[j]) ** 2)) / p
            - 2.0 * float(np.sum((sigmas[i] @ T[1]) * (sigmas[i] @ T[0]).T)) / p
            + gammas[j] ** 2 * eqs[j].phi_tilde / margin[j]
            * float(np.sum(sigmas[i] * sandwiched)) ** 2 / (counts[j] * p)
        )
        offset.append(float(mu @ sandwiched @ mu) / p / margin[j])
    fixed = tuple(eq.delta for eq in eqs)
    margins = _Margins(gammas, fixed, *map(tuple, (beta, shift, trace_gap, variance, offset)))
    return (tuple(eq.phi for eq in eqs), tuple(eq.phi_tilde for eq in eqs)), margins


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
        DeterministicEquivalents(
            delta=1.0, T=np.eye(2), phi=10.0, phi_tilde=1.0, gamma=1.0, n=4
        )
    with pytest.raises(StabilityError):
        DeterministicEquivalents(
            delta=-0.5, T=np.eye(2), phi=0.1, phi_tilde=1.0, gamma=1.0, n=4
        )
    with pytest.raises(InvalidRegularizerError):
        DeterministicEquivalents(
            delta=0.5, T=np.eye(2), phi=0.1, phi_tilde=1.0, gamma=-1.0, n=4
        )
