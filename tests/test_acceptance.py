"""Acceptance gate: ten frozen checks, one printed verdict line each.

Every scenario, seed, and tolerance below is pinned. Runs with -s so the
verdict lines land in the captured log; the full file stays inside the
runtime budgets stated per check.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from hdqda import (
    ScenarioConfig,
    TrainingSet,
    asymptotic_error,
    build_mixture,
    classify_values,
    conditional_score_moments,
    delta_hat,
    eigen_delta_solver,
    empirical_error,
    fit,
    fit_improved,
    fit_pooled,
    g_estimator_error,
    gamma1_hat,
    gamma1_theoretical,
    improved_scores,
    rlda_scores,
    rqda_scores,
    sample_class,
    sample_scenario,
    solve_delta,
    stream,
    theta_star_theoretical,
)


def _verdict(number: int, passed: bool, detail: str) -> None:
    print("[criterion %d] %s: %s" % (number, "PASS" if passed else "FAIL", detail), flush=True)
    assert passed, "criterion %d failed: %s" % (number, detail)


def _caller_total(improved, data, priors) -> float:
    eps0 = float(np.mean(improved.predict(data.test0) != 0))
    eps1 = float(np.mean(improved.predict(data.test1) != 1))
    return priors[0] * eps0 + priors[1] * eps1


def test_fixed_point_matches_isotropic_closed_form():
    # For sigma*I, solve_delta on the dense matrix and eigen_delta_solver on its
    # spectrum must both hit the positive root of
    # gamma*d^2 + d*(1 + gamma*sigma - c*gamma*sigma) - c*sigma = 0, c = p/n.
    start = time.perf_counter()
    p = 100
    worst = 0.0
    evaluations = 0
    for sigma in (1.0, 4.0, 10.0):
        for gamma in (0.1, 1.0, 10.0):
            for c in (0.5, 1.0, 2.0):
                n = int(round(p / c))
                b = 1.0 + gamma * sigma - c * gamma * sigma
                root = (-b + math.sqrt(b * b + 4.0 * gamma * c * sigma)) / (2.0 * gamma)
                solved = solve_delta(sigma * np.eye(p), n, gamma)
                evaluations += solved.iterations
                dense = solved.delta
                eigen = eigen_delta_solver(np.full(p, sigma), n, gamma)
                worst = max(worst, abs(dense - root), abs(eigen - root))
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        worst <= 1e-8 and elapsed < 1.0,
        "worst |delta - closed form| = %.2e (tol 1e-8) over 27 configs, %.2fs (budget 1s)"
        % (worst, elapsed),
    )
    # Newton's method from above needs a handful of spectral evaluations a solve.
    assert evaluations <= 300, "%d spectral evaluations" % (evaluations,)


def test_balanced_counts_collapse_the_minority_shrinkage():
    # Equal training counts must leave the second regularizer untouched,
    # bit for bit, on both the theoretical and the estimated route.
    rng = np.random.default_rng(2)
    worst_estimated = 0.0
    worst_theoretical = 0.0
    for k in range(10):
        p = int(rng.integers(20, 60))
        n = int(rng.integers(p + 5, 2 * p + 40))
        gamma0 = float(rng.uniform(0.05, 20.0))
        config = ScenarioConfig(
            p=p, n0=n, n1=n, test0=4, test1=4,
            base_scale=float(rng.uniform(0.5, 6.0)),
            spike_strength=float(rng.uniform(0.0, 8.0)),
            spike_rank=None,
            mean_offset=float(rng.uniform(0.5, 4.0)),
            prior0=0.5, seed=20 + k,
        )
        model = build_mixture(config)
        data = sample_scenario(config, model=model)
        fitted = fit(TrainingSet(X0=data.train0, X1=data.train1), gamma0, gamma0)
        d0 = delta_hat(fitted.H0, n, gamma0)
        worst_estimated = max(worst_estimated, abs(gamma1_hat(d0, n, n, gamma0) - gamma0))
        worst_theoretical = max(
            worst_theoretical,
            abs(gamma1_theoretical(model.class0.covariance, n, n, gamma0) - gamma0),
        )
    _verdict(
        2,
        worst_estimated == 0.0 and worst_theoretical == 0.0,
        "10 balanced scenarios: worst |gamma1_hat - gamma0| = %.1e, worst theoretical = %.1e (both must be exactly 0)"
        % (worst_estimated, worst_theoretical),
    )


def test_shared_shrinkage_collapses_under_imbalance():
    # Identical covariances, 2:1 test imbalance, heavy shared shrinkage:
    # the single-regularizer rule funnels everything into one class and its
    # total error lands on a class prior.
    start = time.perf_counter()
    config = ScenarioConfig(
        p=400, n0=200, n1=400, test0=1000, test1=2000,
        base_scale=10.0, spike_strength=0.0, spike_rank=None,
        mean_offset=3.0, prior0=1.0 / 3.0, seed=3,
    )
    model = build_mixture(config)
    data = sample_scenario(config, model=model)
    shared = fit(TrainingSet(X0=data.train0, X1=data.train1), 10.0, 10.0)
    priors = (model.prior0, model.prior1)
    scores0 = rqda_scores(data.test0, shared, priors)
    scores1 = rqda_scores(data.test1, shared, priors)
    predictions = np.concatenate([classify_values(scores0), classify_values(scores1)])
    collapse = max(float(np.mean(predictions == 0)), float(np.mean(predictions == 1)))
    total = empirical_error(scores0, scores1, priors).total
    prior_gap = min(abs(total - priors[0]), abs(total - priors[1]))
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        collapse >= 0.95 and prior_gap <= 0.02 and elapsed < 30.0,
        "%.1f%% of test points share one label (need >= 95%%), total error %.4f sits %.4f from a prior (tol 0.02), %.1fs (budget 30s)"
        % (100.0 * collapse, total, prior_gap, elapsed),
    )


def test_conditional_score_moments_match_monte_carlo():
    # (n0, n1, base, spike, offset, gamma0, gamma1, theta) per scenario.
    scenarios = (
        (60, 80, 4.0, 3.0, 3.0, 1.0, 2.0, 0.7),
        (70, 70, 2.0, 8.0, 2.0, 0.5, 0.5, -0.4),
        (55, 90, 1.0, 5.0, 4.0, 2.0, 1.0, 0.0),
        (80, 60, 6.0, 2.0, 1.0, 0.2, 3.0, 1.5),
        (65, 100, 3.0, 0.0, 2.5, 5.0, 0.8, -1.0),
    )
    p = 50
    draws = 100_000
    worst_z = 0.0
    for k, (n0, n1, base, spike, offset, gamma0, gamma1, theta) in enumerate(scenarios):
        config = ScenarioConfig(
            p=p, n0=n0, n1=n1, test0=4, test1=4,
            base_scale=base, spike_strength=spike, spike_rank=None,
            mean_offset=offset, prior0=0.5, seed=40 + k,
        )
        model = build_mixture(config)
        data = sample_scenario(config, model=model)
        fitted = fit(TrainingSet(X0=data.train0, X1=data.train1), gamma0, gamma1)
        means, variances = conditional_score_moments(fitted, model, theta)
        for i, stats in enumerate((model.class0, model.class1)):
            X = sample_class(stats, draws, stream(config.seed, 9, i))
            normalized = (2.0 / math.sqrt(p)) * improved_scores(X, fitted, theta)
            sample_mean = float(normalized.mean())
            sample_var = float(normalized.var())
            z_mean = abs(sample_mean - means[i]) / math.sqrt(sample_var / draws)
            fourth = float(np.mean((normalized - sample_mean) ** 4))
            se_var = math.sqrt((fourth - sample_var**2) / draws)
            z_var = abs(sample_var - variances[i]) / se_var
            worst_z = max(worst_z, z_mean, z_var)
    _verdict(
        4,
        worst_z <= 3.0,
        "worst moment z-score %.2f over 5 scenarios x 2 classes x {mean, variance} at %d draws (limit 3)"
        % (worst_z, draws),
    )


@pytest.fixture(scope="module")
def gamma_sweep_gaps():
    """Shared sweep for the limiting-error and estimator-accuracy checks.

    Desk-scale spiked scenario at p=200 with a 2:1 majority, 10-point
    shrinkage grid, 20 training replicates, 3000 test points per replicate.
    """
    config = ScenarioConfig(
        p=200, n0=200, n1=100, test0=2000, test1=1000,
        base_scale=4.0, spike_strength=3.0, spike_rank=None,
        mean_offset=3.0, prior0=2.0 / 3.0, seed=11,
    )
    model = build_mixture(config)
    canonical = model.swapped()
    n0c, n1c = config.n1, config.n0
    priors = (model.prior0, model.prior1)
    grid = np.logspace(-2, 2, 10)

    start = time.perf_counter()
    limit_gap_medians = []
    estimate_gap_medians = []
    for gamma0 in grid:
        gamma1 = gamma1_theoretical(canonical.class0.covariance, n0c, n1c, gamma0)
        design = theta_star_theoretical(canonical, n0c, n1c, gamma0, gamma1)
        limit_total = asymptotic_error(
            canonical, n0c, n1c, gamma0, gamma1, design.theta_star
        ).total
        limit_gaps = []
        estimate_gaps = []
        for replicate in range(20):
            data = sample_scenario(config, model=model, replicate=replicate)
            train = TrainingSet(X0=data.train0, X1=data.train1)
            improved = fit_improved(train, float(gamma0), priors=priors)
            empirical = _caller_total(improved, data, priors)
            estimate = g_estimator_error(
                improved.fit, improved.theta, improved.priors
            ).total_hat
            limit_gaps.append(abs(limit_total - empirical))
            estimate_gaps.append(abs(estimate - empirical))
        limit_gap_medians.append(float(np.median(limit_gaps)))
        estimate_gap_medians.append(float(np.median(estimate_gaps)))
    elapsed = time.perf_counter() - start
    return limit_gap_medians, estimate_gap_medians, elapsed


def test_limiting_error_tracks_empirical_error_over_the_grid(gamma_sweep_gaps):
    limit_gap_medians, _, elapsed = gamma_sweep_gaps
    gap = float(np.median(limit_gap_medians))
    _verdict(
        5,
        gap <= 0.03 and elapsed < 300.0,
        "median |limiting total - empirical total| = %.4f over the 10-point grid (tol 0.03), sweep %.1fs (budget 300s)"
        % (gap, elapsed),
    )


def test_training_only_estimate_tracks_empirical_error(gamma_sweep_gaps):
    _, estimate_gap_medians, _ = gamma_sweep_gaps
    gap = float(np.median(estimate_gap_medians))
    _verdict(
        6,
        gap <= 0.03,
        "median |estimated total - empirical total| = %.4f across the grid (tol 0.03), worst grid point %.4f"
        % (gap, max(estimate_gap_medians)),
    )


def test_plugin_estimates_tighten_as_dimension_grows():
    # Median gaps to the four limiting quantities must not grow as p
    # quadruples at fixed count ratios. The error gap compares estimator and
    # limit at the same fitted design so it isolates estimation noise.
    start = time.perf_counter()
    gamma0 = 0.5
    gap_names = ("delta", "gamma1", "theta", "error")
    medians = {name: [] for name in gap_names}
    for p in (100, 400, 1600):
        config = ScenarioConfig(
            p=p, n0=p, n1=p // 2, test0=10, test1=10,
            base_scale=2.0, spike_strength=8.0, spike_rank=None,
            mean_offset=3.0, prior0=2.0 / 3.0, seed=7,
        )
        model = build_mixture(config)
        canonical = model.swapped()
        n0c, n1c = p // 2, p
        spectrum = np.linalg.eigvalsh(canonical.class0.covariance)
        delta_limit = eigen_delta_solver(spectrum, n0c, gamma0)
        gamma1_limit = gamma1_theoretical(
            canonical.class0.covariance, n0c, n1c, gamma0, delta0=delta_limit
        )
        design = theta_star_theoretical(canonical, n0c, n1c, gamma0, gamma1_limit)
        gaps = {name: [] for name in gap_names}
        for replicate in range(20):
            data = sample_scenario(config, model=model, replicate=replicate)
            train = TrainingSet(X0=data.train0, X1=data.train1)
            improved = fit_improved(
                train, gamma0, priors=(model.prior0, model.prior1)
            )
            estimate = g_estimator_error(improved.fit, improved.theta, improved.priors)
            limit_at_fit = asymptotic_error(
                canonical, n0c, n1c, gamma0, improved.fit.gamma1, improved.theta
            )
            gaps["delta"].append(abs(estimate.delta_hat0 - delta_limit))
            gaps["gamma1"].append(abs(improved.fit.gamma1 - gamma1_limit))
            gaps["theta"].append(abs(improved.theta - design.theta_star))
            gaps["error"].append(abs(estimate.total_hat - limit_at_fit.total))
        for name in gap_names:
            medians[name].append(float(np.median(gaps[name])))
    elapsed = time.perf_counter() - start
    monotone = all(
        medians[name][0] >= medians[name][1] >= medians[name][2] for name in gap_names
    )
    detail = ", ".join(
        "%s %.4f->%.4f->%.4f" % (name, *medians[name]) for name in gap_names
    )
    _verdict(
        7,
        monotone and elapsed < 1200.0,
        "median gaps over p in {100, 400, 1600}: %s (each must be non-increasing), %.0fs (budget 1200s)"
        % (detail, elapsed),
    )


def test_designed_shrinkage_bounds_the_trace_bias():
    # The trace-difference term of the limiting score stays order one under
    # the designed second regularizer but grows like sqrt(p) when both
    # classes share one regularizer.
    gamma0 = 1.0
    designed = []
    matched = []
    for p in (100, 400, 1600):
        config = ScenarioConfig(
            p=p, n0=2 * p, n1=p, test0=4, test1=4,
            base_scale=4.0, spike_strength=3.0, spike_rank=None,
            mean_offset=3.0, prior0=2.0 / 3.0, seed=7,
        )
        model = build_mixture(config)
        canonical = model.swapped()
        n0c, n1c = p, 2 * p
        gamma1 = gamma1_theoretical(canonical.class0.covariance, n0c, n1c, gamma0)
        for bucket, g1 in ((designed, gamma1), (matched, gamma0)):
            prediction = asymptotic_error(canonical, n0c, n1c, gamma0, g1, 0.0)
            bucket.append(float(np.max(np.abs(prediction.trace_gap))))
    growth = matched[2] / matched[0]
    bracketed = all(0.78 <= value <= 0.79 for value in designed)
    _verdict(
        8,
        bracketed and growth >= 3.0,
        "designed max trace bias %.4f/%.4f/%.4f (bracket [0.78, 0.79]); shared-regularizer bias %.2f->%.2f->%.2f grows %.1fx (need >= 3x)"
        % (*designed, *matched, growth),
    )


def test_designed_bias_sits_at_the_total_error_argmin():
    # (p, n0, n1, base, spike, offset, gamma0) per scenario, equal priors.
    scenarios = (
        (150, 150, 300, 4.0, 3.0, 3.0, 1.0),
        (120, 100, 200, 2.0, 8.0, 3.0, 0.5),
        (100, 80, 240, 1.0, 5.0, 2.0, 2.0),
        (200, 150, 150, 6.0, 2.0, 4.0, 0.3),
        (80, 90, 120, 3.0, 6.0, 1.5, 5.0),
    )
    prior0 = prior1 = 0.5
    worst_grid_gap = 0.0
    worst_identity = 0.0
    for k, (p, n0, n1, base, spike, offset, gamma0) in enumerate(scenarios):
        config = ScenarioConfig(
            p=p, n0=n0, n1=n1, test0=4, test1=4,
            base_scale=base, spike_strength=spike, spike_rank=None,
            mean_offset=offset, prior0=prior0, seed=100 + k,
        )
        model = build_mixture(config)
        gamma1 = gamma1_theoretical(model.class0.covariance, n0, n1, gamma0)
        design = theta_star_theoretical(model, n0, n1, gamma0, gamma1)
        thetas = design.theta_star + np.arange(-2000, 2001, dtype=float) * 1e-3
        objective = prior0 * norm.cdf(
            (design.beta0 + thetas) / design.alpha
        ) + prior1 * norm.cdf((design.beta1 - thetas) / design.alpha)
        argmin = float(thetas[int(np.argmin(objective))])
        worst_grid_gap = max(worst_grid_gap, abs(argmin - design.theta_star))
        stationarity = math.log(prior0 / prior1) + (
            (design.beta1 - design.theta_star) ** 2
            - (design.beta0 + design.theta_star) ** 2
        ) / (2.0 * design.alpha**2)
        worst_identity = max(worst_identity, abs(stationarity))
    _verdict(
        9,
        worst_grid_gap <= 1e-3 and worst_identity <= 1e-9,
        "worst |argmin - designed bias| = %.2e (grid step 1e-3), worst stationarity residual %.2e (tol 1e-9)"
        % (worst_grid_gap, worst_identity),
    )


def test_tuned_rule_beats_both_baselines():
    # Spiked 2:1 scenario; the standard rule and the pooled linear rule both
    # reuse the shrinkage the tuner picked for the improved rule.
    config = ScenarioConfig(
        p=200, n0=200, n1=100, test0=2000, test1=1000,
        base_scale=2.0, spike_strength=8.0, spike_rank=None,
        mean_offset=3.0, prior0=2.0 / 3.0, seed=11,
    )
    model = build_mixture(config)
    priors = (model.prior0, model.prior1)
    grid = np.logspace(-2, 2, 12)
    wins_standard = 0
    wins_linear = 0
    totals = np.zeros(3)
    for replicate in range(20):
        data = sample_scenario(config, model=model, replicate=replicate)
        train = TrainingSet(X0=data.train0, X1=data.train1)
        improved = fit_improved(train, None, priors=priors, grid=grid)
        improved_total = _caller_total(improved, data, priors)
        tuned = improved.fit.gamma0
        shared = fit(train, tuned, tuned)
        standard_total = empirical_error(
            rqda_scores(data.test0, shared, priors),
            rqda_scores(data.test1, shared, priors),
            priors,
        ).total
        pooled = fit_pooled(train, tuned)
        linear_total = empirical_error(
            rlda_scores(data.test0, pooled, priors),
            rlda_scores(data.test1, pooled, priors),
            priors,
        ).total
        wins_standard += improved_total < standard_total
        wins_linear += improved_total < linear_total
        totals += (improved_total, standard_total, linear_total)
    totals /= 20.0
    _verdict(
        10,
        wins_standard >= 18 and wins_linear >= 14,
        "beats standard rule %d/20 (need 18), beats pooled linear rule %d/20 (need 14); mean errors %.4f/%.4f/%.4f"
        % (wins_standard, wins_linear, *totals),
    )
