import dataclasses
import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdqda import estimation
from hdqda.discriminant import RULE_STANDARD_RQDA, conditional_score_moments, rlda_scores, rqda_scores
from hdqda.errors import DegenerateEstimateError, InsufficientSamplesError, NotSpdError
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
from hdqda.gestim import g_estimator_error, theta_hat
from hdqda.pipeline import ImprovedModel, fit_improved

from conftest import on_a_worker, random_spd


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
    with pytest.raises(ValueError, match="at least one feature column"):
        TrainingSet(X0=np.zeros((5, 0)), X1=np.zeros((6, 0)))
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
    """Resolvents are formed on first read, each class factored once: never by
    a fit or the estimators, once when a model first scores, once on reload
    and never again when the reloaded model scores. Scoring with the standard
    rule and its exact moments reuse the fit's log-determinants."""
    _, model, data = small_scenario
    calls = []
    factor = estimation._invert_shifted

    def spy(shifted, sigma, gamma):
        calls.append(gamma)
        return factor(shifted, sigma, gamma)

    monkeypatch.setattr(estimation, "_invert_shifted", spy)
    fitted = fit(small_train, 0.7, 0.7)
    assert len(calls) == 0
    rqda_scores(data.test0, fitted, (0.4, 0.6))
    conditional_score_moments(fitted, model, rule_kind=RULE_STANDARD_RQDA)
    assert len(calls) == 2
    tuned = fit_improved(small_train, None, grid=np.logspace(-1, 1, 5))
    bias = theta_hat(tuned.fit, tuned.priors)
    g_estimator_error(tuned.fit, bias.theta_hat, tuned.priors)
    assert len(calls) == 2
    tuned.predict(data.test0)
    assert len(calls) == 4
    reloaded = ImprovedModel.from_json(tuned.to_json())
    assert len(calls) == 6
    reloaded.predict(data.test0)
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


def _draw(name: str) -> TrainingSet:
    """A training draw: the minority second, so ``fit_improved`` swaps it
    ("swapped"), or a minority of fewer rows than features first ("thin")."""
    rng = np.random.default_rng(21)
    p = 60
    counts = {"swapped": (120, 70), "thin": (30, 90)}[name]
    scales = [rng.uniform(0.5, 3.0, p), rng.uniform(0.5, 3.0, p)]
    X0, X1 = (rng.standard_normal((n, p)) * scale + shift for n, scale, shift in zip(counts, scales, (0.0, 0.4)))
    return TrainingSet(X0, X1)


@pytest.mark.parametrize("name", ["swapped", "thin"])
def test_both_classes_factored_at_once_equal_one_thread_bit_for_bit(name, helper_open, thread_starts):
    """On the main thread class 1 is factored and inverted on a helper while
    class 0 is here; a worker thread does both itself. H0, H1 and the
    log-determinants are equal bit for bit."""
    train = _draw(name)
    for draw in (train, train.swapped()):
        fitted = fit(draw, 0.8, 3.0)
        serial = on_a_worker(lambda: dataclasses.replace(fitted)._shifted)
        started, alive = len(thread_starts), threading.active_count()
        assert fitted.H0.tobytes() == serial[0][0].tobytes()
        assert fitted.H1.tobytes() == serial[1][0].tobytes()
        assert fitted._logdets == (serial[0][1], serial[1][1])
        assert len(thread_starts) - started == 1 and threading.active_count() == alive


def _indefinite_fit(gamma0: float, gamma1: float, fail: tuple[bool, bool]) -> FittedStats:
    """A fit whose class-i I + gamma_i * sigma_i is indefinite where ``fail[i]``:
    there sigma_i = -2 I, so I + gamma_i * sigma_i fails at its first minor."""
    p = 4
    sigmas = [-2.0 * np.eye(p) if bad else np.eye(p) for bad in fail]
    return FittedStats(np.zeros(p), np.ones(p), *sigmas, gamma0, gamma1, 10, 10)


@pytest.mark.parametrize("fail", [(True, True), (False, True)])
def test_a_failed_factorization_reaches_the_caller_class_0s_first(fail, helper_open, thread_starts, monkeypatch):
    """Both classes indefinite: class 0's NotSpdError, with its message as when
    one thread factors both. Class 1 alone: class 1's, raised on the helper.
    Either way the helper ran, and no thread outlives the read, although
    class 1 takes longer than class 0 to fail."""
    invert = estimation._invert_shifted

    def slow_class1(shifted, sigma, gamma):
        if gamma == 2.0:
            time.sleep(0.2)
        return invert(shifted, sigma, gamma)

    monkeypatch.setattr(estimation, "_invert_shifted", slow_class1)
    alive = threading.active_count()
    fitted = _indefinite_fit(1.0, 2.0, fail)
    message = "I + %r * sigma is not positive definite: leading minor 1 fails (condition estimate 1.000e+00)"
    message = "^%s$" % re.escape(message % (1.0 if fail[0] else 2.0))
    with pytest.raises(NotSpdError, match=message):
        fitted.H0
    assert len(thread_starts) == 1 and threading.active_count() == alive
    with pytest.raises(NotSpdError, match=message):
        on_a_worker(lambda: _indefinite_fit(1.0, 2.0, fail).H1)


@pytest.mark.parametrize("overflowing", [0, 1])
def test_a_shifted_covariance_that_overflows_is_refused_before_any_helper(overflowing, helper_open, thread_starts):
    """gamma * sigma past the float range, in either class, is a
    DegenerateEstimateError raised while the caller forms the shifted
    covariances, so no helper starts."""
    p = 3
    sigmas = [np.eye(p), np.eye(p)]
    sigmas[overflowing] = 1e300 * np.eye(p)
    fitted = FittedStats(np.zeros(p), np.ones(p), *sigmas, 1e10, 1e10, 10, 10)
    with pytest.raises(DegenerateEstimateError, match=re.escape("I + 10000000000.0 * sigma leaves the float range")):
        fitted._logdets
    assert thread_starts == []


def test_a_closed_gate_factors_both_classes_on_the_caller(helper_closed, small_train, thread_starts):
    """With numpy's OpenBLAS at two threads, or no reader of its count, a fit
    read on the main thread starts no helper and keeps the same bits."""
    fitted = fit(small_train, 0.7, 2.5)
    serial = on_a_worker(lambda: fit(small_train, 0.7, 2.5)._shifted)
    started = len(thread_starts)
    assert fitted.H0.tobytes() == serial[0][0].tobytes() and fitted._logdets[1] == serial[1][1]
    assert len(thread_starts) == started


@pytest.mark.skipif(estimation._lapack.blas_threads() is None, reason="numpy's BLAS exports no thread reader")
@pytest.mark.parametrize("threads", ["1", "2"])
def test_importing_the_package_leaves_the_blas_thread_count_unchanged(threads):
    """A fresh interpreter reads numpy's OpenBLAS thread count itself, imports
    hdqda and reads it again; the package's reader gives the same count."""
    script = (
        "import ctypes, numpy.linalg._umath_linalg as linalg\n"
        "read = ctypes.CDLL(linalg.__file__).scipy_openblas_get_num_threads64_\n"
        "read.restype = ctypes.c_int\n"
        "before = read()\n"
        "import hdqda, hdqda.cli\n"
        "print(before, read(), hdqda._lapack.blas_threads())\n"
    )
    src = str(Path(estimation.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == [threads] * 3


def test_fits_derive_their_kernels_without_a_shared_lock(small_train, monkeypatch):
    """While one fit builds its spectral kernel, another fit's kernel is built
    on another thread without waiting for it."""
    first, second = fit(small_train, 1.0, 1.0), fit(small_train, 2.0, 2.0)
    entered, release = threading.Event(), threading.Event()
    real = estimation._sample_pair
    calls = []

    def blocking(*args):
        calls.append(args)
        if len(calls) == 1:
            entered.set()
            release.wait(30.0)
        return real(*args)

    monkeypatch.setattr(estimation, "_sample_pair", blocking)
    reader = threading.Thread(target=lambda: first.pair)
    reader.start()
    try:
        assert entered.wait(30.0)
        built = []
        other = threading.Thread(target=lambda: built.append(second.pair))
        other.start()
        other.join(1.0)
        assert built, "the second fit's kernel waited for the first fit's"
    finally:
        release.set()
        reader.join()
    assert isinstance(first.pair, estimation.SpectralPair) and len(calls) == 2

    # Likewise for two kernels' quartic weights, the first held inside its
    # derivation, where it reads its class-0 eigenvalues.
    held, other = first.pair, second.pair
    entered.clear()
    release.clear()

    class Held(np.ndarray):
        def __getitem__(self, key):
            entered.set()
            release.wait(30.0)
            return np.asarray(self)[key]

    values0 = held.values0
    held.values0 = values0.view(Held)
    reader = threading.Thread(target=lambda: held.quartic)
    reader.start()
    try:
        assert entered.wait(30.0)
        derived = []
        deriver = threading.Thread(target=lambda: derived.append(other.quartic))
        deriver.start()
        deriver.join(1.0)
        assert derived, "the second kernel's quartic weights waited for the first's"
    finally:
        release.set()
        reader.join()
    held.values0 = values0
    assert "quartic" in vars(held) and derived[0] is other.quartic


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("mu_hat0", np.array([0.0, math.nan, 0.0]), "mu_hat0 must be finite"),
        ("mu_hat1", np.array([0.0, 0.0, math.inf]), "mu_hat1 must be finite"),
        ("sigma_hat0", np.diag([1.0, math.nan, 1.0]), "sigma_hat0 must be finite"),
        ("sigma_hat1", np.diag([1.0, 1.0, -math.inf]), "sigma_hat1 must be finite"),
        ("n0", 10.5, "n0 must be a whole number, got 10.5"),
        ("n0", True, "n0 must be a whole number, got True"),
        ("n0", 1, "n0 must be at least 2, got 1"),
        ("n1", math.nan, "n1 must be a whole number, got nan"),
        ("n1", False, "n1 must be a whole number, got False"),
        ("n1", 0, "n1 must be at least 2, got 0"),
    ],
)
def test_a_fit_rejects_nonfinite_moments_and_bad_counts(field, value, message):
    """A NaN moment would build NaN resolvents whose scores label as class 1,
    and the kernel's route is chosen from n0, so both are refused by name."""
    fields = dict(
        mu_hat0=np.zeros(3), mu_hat1=np.ones(3), sigma_hat0=np.eye(3), sigma_hat1=np.eye(3),
        gamma0=1.0, gamma1=1.0, n0=10, n1=10,
    )
    FittedStats(**fields)
    fields[field] = value
    with pytest.raises(ValueError, match=message):
        FittedStats(**fields)


@pytest.mark.parametrize(
    "field, value",
    [("mu_hat0", np.array([0.0, math.nan, 0.0])), ("sigma_hat", np.diag([1.0, math.inf, 1.0]))],
)
def test_pooled_stats_reject_nonfinite_moments(field, value):
    fields = dict(mu_hat0=np.zeros(3), mu_hat1=np.ones(3), sigma_hat=np.eye(3), gamma=1.0)
    PooledStats(**fields)
    fields[field] = value
    with pytest.raises(ValueError, match="%s must be finite" % field):
        PooledStats(**fields)


def _scaled_draw(scale: float) -> TrainingSet:
    """p = 5 with 8 and 12 standard-normal rows, class 1 shifted by 1, scaled."""
    rng = np.random.default_rng(0)
    X0, X1 = rng.standard_normal((8, 5)), rng.standard_normal((12, 5)) + 1.0
    return TrainingSet(X0=scale * X0, X1=scale * X1)


# From about 3e153 on this draw each class's sample covariance overflows.
@pytest.mark.parametrize("scale", [3e153, 1e160, 1e200])
def test_both_fits_refuse_moments_that_overflow(scale):
    """Moments that leave the float range raise DegenerateEstimateError, with
    no RuntimeWarning (an error under this suite's filter). fit_pooled used to
    return a model whose pooled covariance was not finite, and whose linear
    scores of 0 labeled every row class 1."""
    train = _scaled_draw(scale)
    with pytest.raises(DegenerateEstimateError, match="float range"):
        rqda_scores(train.X0, fit(train, 1.0, 1.0), (0.5, 0.5))
    with pytest.raises(DegenerateEstimateError, match="float range"):
        rlda_scores(train.X0, fit_pooled(train, 1.0), (0.5, 0.5))


def test_a_pooled_covariance_that_overflows_is_refused():
    """At 2.5e153 each class's covariance is finite, so the quadratic rule
    scores, but their count-weighted sum overflows while it is pooled."""
    train = _scaled_draw(2.5e153)
    assert np.all(np.isfinite(rqda_scores(train.X0, fit(train, 1.0, 1.0), (0.5, 0.5))))
    with pytest.raises(DegenerateEstimateError, match="float range: overflow encountered in add"):
        fit_pooled(train, 1.0)


@pytest.mark.parametrize("gamma", [1e300, 1e307])
def test_a_shifted_covariance_that_overflows_is_refused(gamma):
    """On the draw scaled by 1e5 the moments are finite but gamma * sigma_hat
    is not: the quadratic rule's resolvents are refused as the pooled one is,
    with no RuntimeWarning (an error under this suite's filter)."""
    train = _scaled_draw(1e5)
    message = re.escape("I + %r * sigma leaves the float range" % (gamma,))
    with pytest.raises(DegenerateEstimateError, match=message):
        rqda_scores(train.X0, fit(train, gamma, gamma), (0.5, 0.5))
    with pytest.raises(DegenerateEstimateError, match="float range"):
        fit_pooled(train, gamma)


def test_fit_pooled_uses_n_minus_two_normalization(small_train):
    pooled = fit_pooled(small_train, 1.3)
    _, sig0 = sample_moments(small_train.X0)
    _, sig1 = sample_moments(small_train.X1)
    expected = (
        (small_train.n0 - 1) * sig0 + (small_train.n1 - 1) * sig1
    ) / (small_train.n - 2)
    np.testing.assert_allclose(pooled.sigma_hat, expected, atol=1e-14)
    np.testing.assert_array_equal(pooled.H, regularized_resolvent(expected, 1.3))
