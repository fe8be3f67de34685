import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdqda import estimation
from hdqda.discriminant import RULE_STANDARD_RQDA, conditional_score_moments, rqda_scores
from hdqda.errors import InsufficientSamplesError, NotSpdError
from hdqda.estimation import (
    FittedStats,
    PooledStats,
    TrainingSet,
    _shifted_inverse,
    fit,
    fit_pooled,
    regularized_resolvent,
    sample_moments,
)
from hdqda.pipeline import ImprovedModel, fit_improved

from conftest import random_spd


def test_sample_moments_match_numpy_reference():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 7))
    mean, cov = sample_moments(X)
    np.testing.assert_allclose(mean, X.mean(axis=0), atol=1e-14)
    np.testing.assert_allclose(cov, np.cov(X, rowvar=False), atol=1e-12)
    np.testing.assert_array_equal(cov, cov.T)


def test_sample_moments_rejects_thin_input():
    with pytest.raises(InsufficientSamplesError):
        sample_moments(np.zeros((1, 5)))
    with pytest.raises(ValueError):
        sample_moments(np.zeros(5))


def test_training_set_validation():
    with pytest.raises(InsufficientSamplesError):
        TrainingSet(X0=np.zeros((1, 3)), X1=np.zeros((5, 3)))
    with pytest.raises(ValueError):
        TrainingSet(X0=np.zeros((4, 3)), X1=np.zeros((4, 2)))
    train = TrainingSet(X0=np.zeros((4, 3)), X1=np.ones((6, 3)))
    assert (train.n0, train.n1, train.n, train.p) == (4, 6, 10, 3)
    for bad in (np.nan, np.inf):
        X0 = np.zeros((4, 3))
        X0[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            TrainingSet(X0=X0, X1=np.ones((6, 3)))
    back = train.swapped()
    assert back.n0 == 6
    np.testing.assert_array_equal(back.X1, train.X0)


def test_resolvent_inverts_the_shifted_matrix():
    rng = np.random.default_rng(1)
    sigma = random_spd(20, rng)
    for gamma in (0.05, 1.0, 30.0):
        H = regularized_resolvent(sigma, gamma)
        np.testing.assert_allclose(
            H @ (np.eye(20) + gamma * sigma), np.eye(20), atol=1e-10
        )
        eigs = np.linalg.eigvalsh(H)
        assert np.all(eigs > 0.0) and np.all(eigs <= 1.0 + 1e-12)


def test_resolvent_gamma_zero_is_identity_and_negative_rejected():
    sigma = np.eye(4)
    np.testing.assert_array_equal(regularized_resolvent(sigma, 0.0), np.eye(4))
    with pytest.raises(ValueError):
        regularized_resolvent(sigma, -0.5)
    for gamma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and >= 0"):
            regularized_resolvent(sigma, gamma)
    train = TrainingSet(X0=np.eye(4), X1=np.ones((5, 4)) + np.eye(5, 4))
    with pytest.raises(ValueError, match="finite and >= 0, got inf"):
        fit(train, math.inf, math.inf)
    with pytest.raises(ValueError, match="finite and >= 0, got nan"):
        fit_pooled(train, math.nan)


def test_resolvent_fails_loudly_off_the_spd_cone():
    with pytest.raises(NotSpdError):
        regularized_resolvent(-10.0 * np.eye(3), 1.0)


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(1, 60),
    rank_share=st.floats(0.02, 2.0),
    gamma=st.floats(0.01, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_shifted_inverse_matches_the_dense_reference(p, rank_share, gamma, seed):
    """One factorization gives the dense inverse, exactly symmetric, and the
    log-determinant, for rank-deficient and full-rank sample covariances."""
    rng = np.random.default_rng(seed)
    m = max(1, round(rank_share * p))
    A = rng.standard_normal((p, m))
    S = A @ A.T / max(m, p)
    shifted = np.eye(p) + gamma * S
    H, logdet = _shifted_inverse(S, gamma)
    reference = np.linalg.inv(shifted)
    assert np.all(np.abs(H - reference) <= 1e-12 * np.maximum(1.0, np.abs(reference)))
    assert np.array_equal(H, H.T)
    sign, reference_logdet = np.linalg.slogdet(shifted)
    assert sign == 1.0
    assert abs(logdet - reference_logdet) <= 1e-12 * max(1.0, abs(reference_logdet))


def test_each_shifted_covariance_is_factored_once(small_scenario, small_train, monkeypatch):
    """A fit, a reload and a tuned fit factor each class once; scoring with the
    standard rule and its exact moments reuse the fit's log-determinants."""
    _, model, data = small_scenario
    calls = []
    factor = estimation._shifted_inverse

    def spy(sigma, gamma):
        calls.append(gamma)
        return factor(sigma, gamma)

    monkeypatch.setattr(estimation, "_shifted_inverse", spy)
    fitted = fit(small_train, 0.7, 0.7)
    assert len(calls) == 2
    rqda_scores(data.test0, fitted, (0.4, 0.6))
    conditional_score_moments(fitted, model, rule_kind=RULE_STANDARD_RQDA)
    assert len(calls) == 2
    tuned = fit_improved(small_train, None, grid=np.logspace(-1, 1, 5))
    assert len(calls) == 4
    ImprovedModel.from_json(tuned.to_json())
    assert len(calls) == 6


def test_fit_wires_moments_and_resolvents(small_train):
    fitted = fit(small_train, 0.7, 2.5)
    mu0, sig0 = sample_moments(small_train.X0)
    np.testing.assert_array_equal(fitted.mu_hat0, mu0)
    np.testing.assert_array_equal(fitted.sigma_hat0, sig0)
    np.testing.assert_array_equal(
        fitted.H1, regularized_resolvent(fitted.sigma_hat1, 2.5)
    )
    assert (fitted.gamma0, fitted.gamma1) == (0.7, 2.5)
    assert (fitted.n0, fitted.n1) == (small_train.n0, small_train.n1)
    p = small_train.p
    for H, gamma, sigma in ((fitted.H0, 0.7, fitted.sigma_hat0), (fitted.H1, 2.5, fitted.sigma_hat1)):
        residual = H @ (np.eye(p) + gamma * sigma) - np.eye(p)
        assert np.max(np.abs(residual)) < 1e-10


def test_a_fit_derives_its_resolvents_from_its_moments(small_train):
    """H and the log-determinants follow from the moments and the shrinkage at
    construction, again on ``replace``, and cannot be supplied."""
    (mu0, sig0), (mu1, sig1) = sample_moments(small_train.X0), sample_moments(small_train.X1)
    n0, n1, p = small_train.n0, small_train.n1, small_train.p
    fitted = FittedStats(mu0, mu1, sig0, sig1, 0.7, 2.5, n0, n1)
    moved = dataclasses.replace(fitted, gamma0=4.0)
    for stats, gammas in ((fitted, (0.7, 2.5)), (moved, (4.0, 2.5))):
        for H, logdet, sigma, gamma in zip(
            (stats.H0, stats.H1), stats._logdets, (sig0, sig1), gammas
        ):
            np.testing.assert_array_equal(H, regularized_resolvent(sigma, gamma))
            sign, reference = np.linalg.slogdet(np.eye(p) + gamma * sigma)
            assert sign == 1.0 and abs(logdet - reference) <= 1e-12 * abs(reference)
    pooled = PooledStats(mu0, mu1, sig1, 1.3)
    np.testing.assert_array_equal(pooled.H, regularized_resolvent(sig1, 1.3))
    with pytest.raises(TypeError):
        FittedStats(mu0, mu1, sig0, sig1, 0.7, 2.5, n0, n1, H0=fitted.H0)
    with pytest.raises(TypeError):
        PooledStats(mu0, mu1, sig1, 1.3, H=pooled.H)


def test_fit_pooled_uses_n_minus_two_normalization(small_train):
    pooled = fit_pooled(small_train, 1.3)
    _, sig0 = sample_moments(small_train.X0)
    _, sig1 = sample_moments(small_train.X1)
    expected = (
        (small_train.n0 - 1) * sig0 + (small_train.n1 - 1) * sig1
    ) / (small_train.n - 2)
    np.testing.assert_allclose(pooled.sigma_hat, expected, atol=1e-14)
    np.testing.assert_array_equal(pooled.H, regularized_resolvent(expected, 1.3))
