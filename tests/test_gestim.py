import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hdqda import gestim, rmt
from hdqda.errors import (
    DegenerateDesignError,
    DegenerateEstimateError,
    InvalidRegularizerError,
    StabilityError,
)
from hdqda.estimation import (
    FittedStats,
    SpectralPair,
    TrainingSet,
    fit,
    regularized_resolvent,
    sample_moments,
)
from hdqda.gestim import (
    _fit_pieces,
    _pieces,
    delta_hat,
    g_estimator_error,
    gamma1_hat,
    theta_hat,
)
from hdqda.model import build_mixture, sample_scenario
from hdqda.pipeline import fit_improved
from hdqda.rmt import (
    asymptotic_error,
    eigen_delta_solver,
    gamma1_theoretical,
    theta_star_theoretical,
)

from conftest import small_config


def _fitted(p=60, n0=50, n1=100, gamma0=0.8, gamma1=1.1, seed=0):
    config = small_config(p=p, n0=n1, n1=n0, seed=seed)  # original majority first
    data = sample_scenario(config, model=build_mixture(config))
    # Canonical orientation: minority class in slot 0.
    return fit(TrainingSet(X0=data.train1, X1=data.train0), gamma0, gamma1)


def test_delta_hat_tracks_the_deterministic_fixed_point():
    config = small_config(p=240, n0=480, n1=240, seed=2)
    model = build_mixture(config)
    data = sample_scenario(config, model=model)
    _, sigma = sample_moments(data.train1)
    H = regularized_resolvent(sigma, 0.7)
    estimate = delta_hat(H, 240, 0.7)
    limit = eigen_delta_solver(
        np.linalg.eigvalsh(model.class1.covariance), 240, 0.7
    )
    assert estimate == pytest.approx(limit, abs=0.05)


def test_delta_hat_input_validation():
    H = 0.5 * np.eye(6)
    with pytest.raises(ValueError):
        delta_hat(np.zeros((2, 3)), 10, 1.0)
    with pytest.raises(ValueError):
        delta_hat(H, 1, 1.0)
    with pytest.raises(InvalidRegularizerError):
        delta_hat(H, 10, 0.0)
    with pytest.raises(InvalidRegularizerError):
        delta_hat(H, 10, float("nan"))
    with pytest.raises(InvalidRegularizerError, match="finite"):
        delta_hat(H, 10, float("inf"))


def test_delta_hat_rejects_inconsistent_traces():
    # Tr[H] below p - (n - 1) is impossible for a genuine shrunken resolvent.
    bogus = 0.01 * np.eye(20)
    with pytest.raises(DegenerateEstimateError):
        delta_hat(bogus, 5, 1.0)
    with pytest.raises(DegenerateEstimateError):
        delta_hat(np.full((20, 20), np.nan), 5, 1.0)


def test_gamma1_hat_is_bitwise_gamma0_for_balanced_counts():
    for gamma0 in (0.037, 1.0, 52.2):
        assert gamma1_hat(0.83, 64, 64, gamma0) == gamma0


def test_gamma1_hat_validation():
    with pytest.raises(ValueError, match="minority class first"):
        gamma1_hat(0.5, 30, 20, 1.0)
    with pytest.raises(ValueError):
        gamma1_hat(0.5, 1, 20, 1.0)
    with pytest.raises(InvalidRegularizerError):
        gamma1_hat(0.5, 10, 20, -1.0)
    with pytest.raises(ValueError):
        gamma1_hat(-0.5, 10, 20, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        gamma1_hat(float("nan"), 10, 20, 1.0)
    with pytest.raises(InvalidRegularizerError):
        gamma1_hat(0.5, 10, 20, float("nan"))
    with pytest.raises(InvalidRegularizerError, match="finite"):
        gamma1_hat(0.5, 10, 20, float("inf"))


@pytest.mark.parametrize("priors", [(0.0, 1.0), (2.0, -1.0), (float("nan"), 0.5), (0.5, 0.6)])
def test_estimator_entry_points_reject_bad_priors(priors):
    fitted = _fitted(p=20, n0=20, n1=30)
    with pytest.raises(ValueError, match="priors must be positive and sum to one"):
        theta_hat(fitted, priors)
    with pytest.raises(ValueError, match="priors must be positive and sum to one"):
        g_estimator_error(fitted, 0.1, priors)


def test_error_estimate_rejects_a_nonfinite_bias():
    fitted = _fitted(p=20, n0=20, n1=30)
    for theta in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="bias must be finite"):
            g_estimator_error(fitted, theta, (0.5, 0.5))


def test_estimate_is_deterministic_on_the_same_fit():
    fitted = _fitted()
    priors = (1.0 / 3.0, 2.0 / 3.0)
    theta = theta_hat(fitted, priors).theta_hat
    first = g_estimator_error(fitted, theta, priors)
    second = g_estimator_error(fitted, theta, priors)
    assert first.to_json() == second.to_json()


def test_reported_delta_is_the_plain_trace_inversion():
    fitted = _fitted(seed=3)
    estimate = g_estimator_error(fitted, 0.1, (0.5, 0.5))
    # Sum of eigenvalue weights against Tr[H]: equal up to summation order.
    assert estimate.delta_hat0 == pytest.approx(
        delta_hat(fitted.H0, fitted.n0, fitted.gamma0), rel=1e-12
    )
    assert estimate.delta_hat1 == pytest.approx(
        delta_hat(fitted.H1, fitted.n1, fitted.gamma1), rel=1e-12
    )
    assert estimate.gamma1_hat == fitted.gamma1


def test_centering_splits_reproduce_the_margins():
    """xi - b must equal theta +/- beta on both sides, to rounding."""
    fitted = _fitted(seed=4)
    priors = (0.25, 0.75)
    bias = theta_hat(fitted, priors)
    estimate = g_estimator_error(fitted, bias.theta_hat, priors)
    lhs0 = estimate.xi_hat0 - estimate.b_hat0
    lhs1 = estimate.xi_hat1 - estimate.b_hat1
    assert lhs0 == pytest.approx(bias.theta_hat + estimate.beta_hat0, abs=1e-12)
    assert lhs1 == pytest.approx(bias.theta_hat - estimate.beta_hat1, abs=1e-12)


def test_estimate_fields_are_coherent():
    fitted = _fitted(seed=5)
    priors = (1.0 / 3.0, 2.0 / 3.0)
    estimate = g_estimator_error(fitted, 0.4, priors)
    assert 0.0 < estimate.eps_hat0 < 1.0
    assert 0.0 < estimate.eps_hat1 < 1.0
    assert estimate.total_hat == pytest.approx(
        priors[0] * estimate.eps_hat0 + priors[1] * estimate.eps_hat1, abs=1e-14
    )
    assert estimate.theta_hat == 0.4
    assert estimate.B_hat0 > 0.0 and estimate.alpha_hat > 0.0
    assert estimate.r_hat0 >= 0.0 and estimate.r_hat1 >= 0.0


def test_bias_estimate_reduces_to_margin_midpoint_at_equal_priors():
    fitted = _fitted(seed=6)
    bias = theta_hat(fitted, (0.5, 0.5))
    assert bias.theta_hat == pytest.approx(
        (bias.beta_hat1 - bias.beta_hat0) / 2.0, abs=1e-14
    )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 500),
    gamma0=st.floats(0.05, 20.0),
)
def test_matched_estimate_never_leaves_its_domain(seed, gamma0):
    """gamma1_hat composed with delta_hat stays positive and finite."""
    fitted = _fitted(p=30, n0=25, n1=50, gamma0=gamma0, gamma1=gamma0, seed=seed)
    d0 = delta_hat(fitted.H0, fitted.n0, fitted.gamma0)
    g1 = gamma1_hat(d0, fitted.n0, fitted.n1, gamma0)
    assert np.isfinite(g1) and g1 > 0.0
    # More samples support a weaker matched shrinkage, never a stronger one.
    assert g1 <= gamma0


def _trace_quartic(sigma, left, right):
    """Tr[sigma left sigma right], the dense reference."""
    return float(np.sum((sigma @ left) * (sigma @ right).T))


def _dense_pieces(fitted):
    """Every field of the spectral margins from dense p x p products, and the
    leading term shrink**4 Tr[S H S H] / p of each variance estimate."""
    S, H = (fitted.sigma_hat0, fitted.sigma_hat1), (fitted.H0, fitted.H1)
    counts, gammas, p = (fitted.n0, fitted.n1), (fitted.gamma0, fitted.gamma1), fitted.p
    gap = fitted.mu_hat0 - fitted.mu_hat1
    sqrt_p = np.sqrt(p)
    fields = {name: [] for name in ("delta", "beta", "shift", "trace_gap", "variance", "offset")}
    leading = []
    for i, sign in ((0, -1.0), (1, 1.0)):
        j, n, gamma = 1 - i, counts[i], gammas[i]
        m = n - 1
        d = delta_hat(H[i], n, gamma)
        shrink = 1.0 + gamma * d
        leading.append(shrink**4 * _trace_quartic(S[i], H[i], H[i]) / p)
        curvature = leading[i] - m / p * d**2 * shrink**2
        own = m * (d + gamma * p * max(curvature, 0.0) / (m**2 * shrink))
        quad = float(gap @ H[j] @ gap)
        cross = float(np.sum(S[i] * H[j]))
        fields["delta"].append(d)
        fields["beta"].append((-quad - (1 - 1 / n) * cross + (1 + 1 / n) * own) / sqrt_p)
        fields["shift"].append((quad - cross / n - own / n) / sqrt_p)
        fields["trace_gap"].append(-sign * (cross - own) / sqrt_p)
        fields["variance"].append(
            curvature
            + _trace_quartic(S[i], H[j], H[j]) / p
            - cross**2 / (m * p)
            - 2.0 * shrink**2 / p * _trace_quartic(S[i], H[i], H[j])
            + d * shrink * 2.0 / p * cross
        )
        fields["offset"].append(float(gap @ H[j] @ S[i] @ H[j] @ gap) / p)
    return leading, dict(gammas=gammas, **fields)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    p=st.sampled_from([12, 30, 70]),
    n0=st.integers(8, 60),
    extra=st.integers(0, 60),
    gamma0=st.floats(0.01, 50.0),
    gamma1=st.floats(0.01, 50.0),
)
@example(seed=1, p=30, n0=20, extra=8, gamma0=0.3, gamma1=1.7)  # both ranks below p
@example(seed=1, p=70, n0=40, extra=10, gamma0=0.2, gamma1=0.9)
@example(seed=2, p=12, n0=40, extra=20, gamma0=2.0, gamma1=0.5)  # both full rank
def test_spectral_pieces_match_the_dense_reference(seed, p, n0, extra, gamma0, gamma1):
    """Rank-deficient (p > n - 1) and full-rank fits, with gamma0 != gamma1.

    Each variance estimate B is a difference of terms as large as
    shrink**4 Tr[S H S H] / p. Where that leading term exceeds max(1, |B|)
    thirtyfold, the cancellation amplifies the last digits of either route
    past the tolerance (about 1e-14 times the ratio, on random draws; an
    extended-precision check of one such draw put the dense route off too),
    so those draws are skipped.
    """
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.3, 3.0, p)
    rotation = np.linalg.qr(rng.standard_normal((p, p)))[0]
    X0 = rng.standard_normal((n0, p)) * scales
    X1 = rng.standard_normal((n0 + extra, p)) @ rotation + 0.4
    fitted = fit(TrainingSet(X0=X0, X1=X1), gamma0, gamma1)
    try:
        leading, reference = _dense_pieces(fitted)
    except DegenerateEstimateError:
        with pytest.raises(DegenerateEstimateError):
            _fit_pieces(fitted)
        return
    assume(all(term <= 30.0 * max(1.0, abs(B)) for term, B in zip(leading, reference["variance"])))
    margins = _fit_pieces(fitted)
    assert sorted(reference) == sorted(f.name for f in dataclasses.fields(margins))
    for name, expected in reference.items():
        for i in (0, 1):
            got = getattr(margins, name)[i]
            assert abs(got - expected[i]) <= 1e-12 * max(1.0, abs(expected[i])), (name, i, got, expected[i])


def test_each_covariance_is_diagonalized_once(monkeypatch):
    calls = {"count": 0}
    real = np.linalg.eigh

    def counting(matrix, *args, **kwargs):
        calls["count"] += 1
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    pairs = {"count": 0}
    build = SpectralPair.__init__

    def counting_pair(self, *args):
        pairs["count"] += 1
        build(self, *args)

    monkeypatch.setattr(SpectralPair, "__init__", counting_pair)
    config = small_config(p=30, n0=60, n1=30, seed=9)
    model = build_mixture(config)
    data = sample_scenario(config, model=model)
    tuned = fit_improved(TrainingSet(X0=data.train0, X1=data.train1), None)
    g_estimator_error(tuned.fit, tuned.theta, tuned.priors)
    theta_hat(tuned.fit, tuned.priors)
    assert calls["count"] == 2
    assert pairs["count"] == 1  # the tuned fit keeps the kernel it was tuned on

    calls["count"] = 0
    design = theta_star_theoretical(model, 60, 30, 0.9, 0.8)
    asymptotic_error(model, 60, 30, 0.9, 0.8, design.theta_star)
    assert calls["count"] == 2


def test_a_replaced_covariance_gets_its_own_kernel():
    """``dataclasses.replace`` starts without the kernel of the fit it copies,
    so its estimates are those of a fit built fresh from the same fields."""
    config = small_config(p=10, n0=24, n1=12, seed=4)
    data = sample_scenario(config, model=build_mixture(config))
    tuned = fit_improved(TrainingSet(X0=data.train0, X1=data.train1), 0.8)
    g_estimator_error(tuned.fit, tuned.theta, tuned.priors)  # the kernel is in use
    replaced = dataclasses.replace(tuned.fit, sigma_hat0=3.0 * tuned.fit.sigma_hat0)
    assert "pair" not in replaced.__dict__ and "_pieces" not in replaced.__dict__
    fields = {f.name: getattr(replaced, f.name) for f in dataclasses.fields(replaced) if f.init}
    fresh = FittedStats(**fields)
    assert _fit_pieces(replaced) == _fit_pieces(fresh) != _fit_pieces(tuned.fit)
    assert (
        g_estimator_error(replaced, tuned.theta, tuned.priors).to_json()
        == g_estimator_error(fresh, tuned.theta, tuned.priors).to_json()
    )
    assert (
        theta_hat(replaced, tuned.priors) == theta_hat(fresh, tuned.priors)
        != theta_hat(tuned.fit, tuned.priors)
    )


def _counting(monkeypatch):
    """Count ``quartic_weights`` calls and ``SpectralPair`` builds."""
    calls = {"quartic": 0, "pair": 0}
    quartic, build = SpectralPair.quartic_weights, SpectralPair.__init__

    def counting_quartic(self):
        calls["quartic"] += 1
        return quartic(self)

    def counting_pair(self, *args):
        calls["pair"] += 1
        build(self, *args)

    monkeypatch.setattr(SpectralPair, "quartic_weights", counting_quartic)
    monkeypatch.setattr(SpectralPair, "__init__", counting_pair)
    return calls


@pytest.mark.parametrize("gamma0", [None, 0.8])
def test_a_fit_and_both_estimators_take_the_pieces_once(monkeypatch, gamma0):
    config = small_config(p=30, n0=60, n1=30, seed=9)
    data = sample_scenario(config, model=build_mixture(config))
    calls = _counting(monkeypatch)
    model = fit_improved(TrainingSet(X0=data.train0, X1=data.train1), gamma0)
    g_estimator_error(model.fit, model.theta, model.priors)
    theta_hat(model.fit, model.priors)
    theta_hat(model.fit, (0.5, 0.5))  # the pieces never depend on the priors
    assert calls == {"quartic": 1, "pair": 1}


# Three kinds of draw, (p, n0, n1, seed): p > n and p < n, both majority
# first, and minority first.
_THREE_DRAWS = [(60, 40, 20, 11), (12, 80, 40, 12), (30, 24, 48, 13)]


@pytest.mark.parametrize("draw", _THREE_DRAWS)
@pytest.mark.parametrize("gamma0", [None, 0.7])
def test_kept_pieces_equal_fresh_ones_field_by_field(draw, gamma0):
    p, n0, n1, seed = draw
    data = sample_scenario(small_config(p=p, n0=n0, n1=n1, seed=seed), replicate=1)
    model = fit_improved(TrainingSet(X0=data.train0, X1=data.train1), gamma0)
    fitted = model.fit
    kept = fitted.__dict__["_pieces"]
    pair = fitted.pair
    fresh = _pieces(
        pair, pair.quartic_weights(), (fitted.gamma0, fitted.gamma1), (fitted.n0, fitted.n1)
    )
    for field in dataclasses.fields(kept):
        assert getattr(kept, field.name) == getattr(fresh, field.name), field.name
    reloaded = FittedStats(
        fitted.mu_hat0, fitted.mu_hat1, fitted.sigma_hat0, fitted.sigma_hat1,
        fitted.gamma0, fitted.gamma1, fitted.n0, fitted.n1,
    )
    assert (
        g_estimator_error(fitted, model.theta, model.priors).to_json()
        == g_estimator_error(reloaded, model.theta, model.priors).to_json()
    )
    assert theta_hat(fitted, model.priors) == theta_hat(reloaded, model.priors)
    assert theta_hat(fitted, model.priors).theta_hat == model.theta


def test_error_estimate_tracks_the_limit_on_one_draw():
    """Single-replicate sanity under the asymptotic regime; loose bound."""
    config = small_config(p=200, n0=200, n1=100, test0=10, test1=10, seed=7)
    model = build_mixture(config)
    data = sample_scenario(config, model=model)
    canonical = TrainingSet(X0=data.train1, X1=data.train0)
    gamma0 = 1.0
    fitted_plain = fit(canonical, gamma0, gamma0)
    d0 = delta_hat(fitted_plain.H0, canonical.n0, gamma0)
    g1 = gamma1_hat(d0, canonical.n0, canonical.n1, gamma0)
    fitted = fit(canonical, gamma0, g1)
    priors = (1.0 / 3.0, 2.0 / 3.0)
    bias = theta_hat(fitted, priors)
    estimate = g_estimator_error(fitted, bias.theta_hat, priors)
    canonical_model = model.swapped()
    limit = asymptotic_error(
        canonical_model, canonical.n0, canonical.n1, gamma0, g1, bias.theta_hat
    )
    assert estimate.total_hat == pytest.approx(limit.total, abs=0.05)


def test_each_margin_is_its_shift_and_trace_gap():
    """beta_i = -shift_i -/+ trace_gap_i, upper sign for class 0. The limit
    forms beta from that split, so there it holds bitwise; the estimate forms
    beta and the split from the same traces in different orders, so there it
    holds to rounding (worst seen 1.0e-14 relative)."""
    for p in (30, 60, 200):
        config = small_config(p=p, n0=p, n1=p // 2, seed=3)
        model = build_mixture(config)
        data = sample_scenario(config, model=model)
        for gamma0 in (0.01, 1.0, 100.0):
            fitted = fit_improved(TrainingSet(X0=data.train0, X1=data.train1), gamma0).fit
            estimate = _fit_pieces(fitted)
            _, limit = rmt._limit_margins(
                model.swapped(), fitted.n0, fitted.n1, fitted.gamma0, fitted.gamma1
            )
            for i, sign in ((0, -1.0), (1, 1.0)):
                assert limit.beta[i] == -limit.shift[i] + sign * limit.trace_gap[i]
                split = -estimate.shift[i] + sign * estimate.trace_gap[i]
                assert abs(split - estimate.beta[i]) <= 1e-13 * max(1.0, abs(estimate.beta[i]))


@pytest.mark.parametrize("gamma0", [0.1, 1.0])
def test_estimated_margins_track_the_limit_term_by_term(gamma0):
    """Estimated against limiting margins, field by field, at the fit's own
    shrinkage pair: the spiked 2:1 scenario of the limiting-error acceptance
    check at p=400, three replicates, class 0 the minority.

    The fixed point and the quadratic-form variance agree within a few
    percent on single draws (worst seen: delta 1.05%, variance 4.4%).
    ``trace_gap`` and ``beta`` are differences of traces of order sqrt(p) and
    scatter by up to 0.4 and 0.7 from draw to draw, so they are not asserted;
    nor is ``offset``, which the estimate puts 2-3 times above the limit: the
    limit leaves out the noise of the estimated means (see
    :func:`~hdqda.rmt.asymptotic_error`).
    """
    config = small_config(p=400, n0=400, n1=200, prior0=2.0 / 3.0, seed=11)
    model = build_mixture(config)
    for replicate in range(3):
        data = sample_scenario(config, model=model, replicate=replicate)
        fitted = fit_improved(TrainingSet(X0=data.train0, X1=data.train1), gamma0).fit
        estimate = _fit_pieces(fitted)
        _, limit = rmt._limit_margins(
            model.swapped(), fitted.n0, fitted.n1, fitted.gamma0, fitted.gamma1
        )
        assert estimate.gammas == limit.gammas
        for name, tolerance in (("delta", 0.02), ("variance", 0.09)):
            for i in (0, 1):
                got, want = getattr(estimate, name)[i], getattr(limit, name)[i]
                assert abs(got - want) <= tolerance * abs(want), (name, i, replicate, got, want)


_PRIORS = (1.0 / 3.0, 2.0 / 3.0)


@pytest.mark.parametrize(
    "module, shared, call",
    [
        (gestim, "_designed_bias", lambda fitted, model: theta_hat(fitted, _PRIORS)),
        (rmt, "_designed_bias", lambda fitted, model: theta_star_theoretical(model, 40, 60, 0.9, 0.8)),
        (gestim, "_class_errors", lambda fitted, model: g_estimator_error(fitted, 0.1, _PRIORS)),
        (rmt, "_class_errors", lambda fitted, model: asymptotic_error(model, 40, 60, 0.9, 0.8, 0.1)),
        (gestim, "_matched_shrinkage", lambda fitted, model: gamma1_hat(0.4, 20, 30, 0.9)),
        (
            rmt,
            "_matched_shrinkage",
            lambda fitted, model: gamma1_theoretical(model.class0.covariance, 40, 60, 0.9),
        ),
    ],
    ids=["theta_hat", "theta_star", "g_estimator", "asymptotic", "gamma1_hat", "gamma1_theoretical"],
)
def test_estimator_and_theory_share_one_formula(monkeypatch, module, shared, call):
    """Each public entry point reaches the one rmt formula exactly once."""
    real = getattr(rmt, shared)
    assert getattr(module, shared) is real
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, shared, spy)
    call(_fitted(p=20, n0=20, n1=30), build_mixture(small_config(p=20, prior0=0.4, seed=3)))
    assert len(calls) == 1


def _margins(beta=(0.2, 0.5), variance=(1.0, 1.0)):
    return rmt._Margins(
        gammas=(1.0, 1.0), delta=(0.5, 0.5), beta=beta, shift=(0.1, 0.1),
        trace_gap=(0.0, 0.0), variance=variance, offset=(0.0, 0.0),
    )


_FAILURES = {
    "variance": lambda words: rmt._designed_bias(_margins(variance=(-1.0, 1.0)), _PRIORS, words),
    "cancel": lambda words: rmt._designed_bias(_margins(beta=(-0.3, 0.3)), _PRIORS, words),
    "spread": lambda words: rmt._class_errors(0.0, _margins(variance=(0.5, -1.0)), _PRIORS, words),
    "matched": lambda words: rmt._matched_shrinkage(1.0, 2.0, 3.0, words),
}
_ESTIMATED, _LIMITING = gestim._ESTIMATED, rmt._LIMITING
_CANCEL = "class margins cancel; prior correction is undefined"


@pytest.mark.parametrize(
    "words, path, error, message",
    [
        (_ESTIMATED, "variance", DegenerateEstimateError, "estimated score variance is -1.0"),
        (_ESTIMATED, "cancel", DegenerateEstimateError, "estimated " + _CANCEL),
        (_ESTIMATED, "spread", DegenerateEstimateError, "estimated score spread is -2.0"),
        (_ESTIMATED, "matched", DegenerateEstimateError, "matched shrinkage denominator is -3.0"),
        (_LIMITING, "variance", StabilityError, "limiting score variance is -1.0"),
        (_LIMITING, "cancel", DegenerateDesignError, "limiting " + _CANCEL),
        (_LIMITING, "spread", StabilityError, "limiting score spread is -2.0"),
        (_LIMITING, "matched", DegenerateDesignError, "matched shrinkage denominator is -3.0"),
    ],
    ids=[
        "%s-%s" % (words, path)
        for words in ("estimated", "limiting")
        for path in ("variance", "cancel", "spread", "matched")
    ],
)
def test_each_vocabulary_names_its_failures(words, path, error, message):
    """The estimator's messages reach tuning traces and model files verbatim."""
    with pytest.raises(error) as raised:
        _FAILURES[path](words)
    assert type(raised.value) is error and str(raised.value) == message
