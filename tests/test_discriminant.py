import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hdqda.discriminant import (
    _BLOCK_BYTES,
    _grid_scores,
    _logdet_ratio,
    _row_blocks,
    _rows,
    classify_values,
    conditional_score_moments,
    empirical_error,
    improved_scores,
    qda_scores_true,
    rlda_scores,
    rqda_scores,
)
from hdqda.errors import InsufficientSamplesError
from hdqda.estimation import FittedStats, TrainingSet, _sample_spectra, fit, fit_pooled
from hdqda.model import ClassStatistics, MixtureModel, sample_class, stream

from conftest import on_a_worker


def _toy_fit(p=5, seed=0, gamma0=0.8, gamma1=2.0, n0=12, n1=9):
    rng = np.random.default_rng(seed)
    sig0 = np.diag(rng.uniform(0.5, 2.0, p))
    sig1 = np.diag(rng.uniform(0.5, 2.0, p))
    return FittedStats(
        mu_hat0=rng.standard_normal(p),
        mu_hat1=rng.standard_normal(p),
        sigma_hat0=sig0,
        sigma_hat1=sig1,
        gamma0=gamma0,
        gamma1=gamma1,
        n0=n0,
        n1=n1,
    )


def test_improved_score_matches_hand_computed_quadratics():
    fitted = _toy_fit()
    theta = 0.6
    x = np.arange(5, dtype=float)
    d0 = x - fitted.mu_hat0
    d1 = x - fitted.mu_hat1
    expected = (
        -0.5 * theta * math.sqrt(5)
        - 0.5 * d0 @ fitted.H0 @ d0
        + 0.5 * d1 @ fitted.H1 @ d1
    )
    got = improved_scores(x[None, :], fitted, theta)
    assert got.shape == (1,)
    assert got[0] == pytest.approx(expected, abs=1e-12)


def test_improved_scores_batch_agrees_with_single_point():
    fitted = _toy_fit(seed=3)
    X = np.random.default_rng(4).standard_normal((11, 5))
    batch = improved_scores(X, fitted, -0.9)
    singles = [improved_scores(x[None, :], fitted, -0.9)[0] for x in X]
    np.testing.assert_allclose(batch, singles, atol=1e-12)


def test_swapping_class_roles_negates_the_improved_score():
    fitted = _toy_fit(seed=5)
    swapped = FittedStats(
        mu_hat0=fitted.mu_hat1,
        mu_hat1=fitted.mu_hat0,
        sigma_hat0=fitted.sigma_hat1,
        sigma_hat1=fitted.sigma_hat0,
        gamma0=fitted.gamma1,
        gamma1=fitted.gamma0,
        n0=fitted.n1,
        n1=fitted.n0,
    )
    X = np.random.default_rng(6).standard_normal((7, 5))
    np.testing.assert_allclose(
        improved_scores(X, swapped, -1.1),
        -improved_scores(X, fitted, 1.1),
        atol=1e-10,
    )


def _two_forms(X, fitted, dtype=float):
    """Reference q0 and q1: one row-wise quadratic form per class, each centred
    at its own mean, computed in ``dtype``."""
    X = np.asarray(X, dtype=dtype)
    forms = []
    for mu, H in ((fitted.mu_hat0, fitted.H0), (fitted.mu_hat1, fitted.H1)):
        d = X - np.asarray(mu, dtype=dtype)
        forms.append(np.einsum("ij,ij->i", d @ np.asarray(H, dtype=dtype), d))
    return forms


def _gap_case(p, n0, n1, offset, separation, seed, n_test=30):
    """Training set and ``n_test`` test rows per class of two Gaussian classes
    with unequal random covariances, centred ``offset`` away from the origin."""
    rng = np.random.default_rng(seed)
    scales = [rng.uniform(0.3, 3.0, p) for _ in range(2)]
    means = [np.full(p, offset), np.full(p, offset) + separation * rng.standard_normal(p)]
    blocks = [
        mean + (rng.standard_normal((n, p)) @ rng.standard_normal((p, p)) / np.sqrt(p)) * scale
        for mean, scale, n in zip(means, scales, (n0 + n_test, n1 + n_test))
    ]
    train = TrainingSet(X0=blocks[0][:n0], X1=blocks[1][:n1])
    return train, np.vstack([blocks[0][n0:], blocks[1][n1:]])


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(2, 60),
    n0=st.integers(3, 80),
    n1=st.integers(3, 80),
    gamma0=st.floats(0.01, 100.0),
    gamma1=st.floats(0.01, 100.0),
    offset=st.floats(-1e3, 1e3),
    separation=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_scores_match_the_dense_two_form_reference(p, n0, n1, gamma0, gamma1, offset, separation, seed):
    assume(gamma0 != gamma1)
    train, X = _gap_case(p, n0, n1, offset, separation, seed)
    priors = (0.3, 0.7)
    for g0, g1 in ((gamma0, gamma1), (gamma0, gamma0)):
        fitted = fit(train, g0, g1)
        q0, q1 = _two_forms(X, fitted)
        tolerance = 1e-12 * np.maximum(1.0, q0 + q1)
        improved = -0.5 * 0.7 * math.sqrt(p) - 0.5 * q0 + 0.5 * q1
        assert np.all(np.abs(improved_scores(X, fitted, 0.7) - improved) <= tolerance)
        if g0 == g1:
            const = 0.5 * _logdet_ratio(fitted) - math.log(priors[1] / priors[0])
            standard = const - 0.5 * q0 + 0.5 * q1
            assert np.all(np.abs(rqda_scores(X, fitted, priors) - standard) <= tolerance)


def _grid_case(train, X, grid, theta, priors):
    """Grid scores of ``X`` on the spectra of ``train``'s moments at the
    (gamma0, gamma1) pairs of ``grid``, each at bias ``theta`` + its index, and
    the single-fit route's improved and standard scores with the dense q0 + q1
    of each fit, one list entry per grid pair."""
    shared = fit(train, 1.0, 1.0)
    spectra = _sample_spectra(shared.sigma_hat0, shared.sigma_hat1, train.n0)
    gamma0, gamma1 = (np.array(values) for values in zip(*grid))
    thetas = theta + np.arange(len(grid))
    got = _grid_scores(X, spectra, (shared.mu_hat0, shared.mu_hat1), (gamma0, gamma1, thetas), priors)
    expected = []
    for (g0, g1), bias in zip(grid, thetas):
        fitted, standard = fit(train, g0, g1), fit(train, g0, g0)
        expected.append((
            improved_scores(X, fitted, bias), sum(_two_forms(X, fitted)),
            rqda_scores(X, standard, priors), sum(_two_forms(X, standard)),
        ))
    return spectra, got, expected


def _assert_grid_matches(got, expected):
    for j, (improved, improved_forms, standard, standard_forms) in enumerate(expected):
        assert np.all(np.abs(got[0][:, j] - improved) <= 1e-12 * np.maximum(1.0, improved_forms))
        assert np.all(np.abs(got[1][:, j] - standard) <= 1e-12 * np.maximum(1.0, standard_forms))


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(2, 40),
    n0=st.integers(3, 60),
    n1=st.integers(3, 60),
    grid=st.lists(st.tuples(st.floats(0.01, 100.0), st.floats(0.01, 100.0)), min_size=2, max_size=5),
    theta=st.floats(-5.0, 5.0),
    offset=st.floats(-1e3, 1e3),
    separation=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=30, n0=10, n1=50, grid=[(0.01, 0.01), (1.0, 0.5), (100.0, 30.0)], theta=0.3,
         offset=2.0, separation=1.0, seed=1)  # thin class 0, full once swapped
@example(p=5, n0=40, n1=20, grid=[(0.01, 0.01), (1.0, 0.5), (100.0, 30.0)], theta=-0.3,
         offset=-2.0, separation=1.0, seed=2)  # two full bases
def test_grid_scores_match_the_single_fit_route(p, n0, n1, grid, theta, offset, separation, seed):
    """The grid scorer gives both rules' single-fit scores at every pair of a
    grid on one draw, within the bound the single-fit route keeps against the
    dense two-form reference, with either class first, so class 0, whose basis
    is thin when it has n - 1 < p rows, is the minority or the majority."""
    train, X = _gap_case(p, n0, n1, offset, separation, seed)
    priors = (0.3, 0.7)
    for oriented in (train, train.swapped()):
        spectra, got, expected = _grid_case(oriented, X, grid, theta, priors)
        assert (spectra[0][1].shape[1] < p) == (oriented.n0 - 1 < p)  # the thin route
        _assert_grid_matches(got, expected)


def test_grid_scores_refuse_overflow_and_nonfinite_rows():
    """Rows whose forms overflow are refused as :func:`_finite_scores` refuses
    them, so no label is made from them; a NaN or infinite entry is refused by
    the finiteness check of the single-fit route."""
    train, _ = _gap_case(20, 10, 30, 0.0, 1.0, 5)  # a thin class-0 basis
    shared = fit(train, 1.0, 1.0)
    spectra = _sample_spectra(shared.sigma_hat0, shared.sigma_hat1, train.n0)
    means, candidates = (shared.mu_hat0, shared.mu_hat1), ([1.0, 2.0], [0.5, 1.0], [0.0, 0.0])
    X = np.full((2, 20), 1e200)
    X[1] *= -1.0
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="8 of 8 scores are NaN or infinite"):
            _grid_scores(X, spectra, means, candidates, (0.5, 0.5))
    for bad in (np.nan, np.inf):
        X = np.zeros((3, 20))
        X[1, 4] = bad
        with pytest.raises(ValueError, match="observations must be finite"):
            _grid_scores(X, spectra, means, candidates, (0.5, 0.5))


def _block_rows(p):
    """Rows in one block of the scoring kernel at dimension p."""
    return 64 * max(1, _BLOCK_BYTES // (8 * p) // 64)


@pytest.mark.parametrize("p", [1, 37, 200, 1100])
def test_blocked_scores_match_the_dense_two_form_reference(p):
    rows = _block_rows(p)
    # Three whole blocks and a ragged tail, split between the two classes.
    n_test = (3 * rows + rows // 3 + 8) // 2
    train, X = _gap_case(p, 40, 30, 5.0, 2.0, p, n_test=n_test)
    assert len(X) >= 3 * rows + rows // 3 + 7
    priors = (0.3, 0.7)
    for gamma0, gamma1 in ((0.5, 2.0), (2.0, 2.0)):
        fitted = fit(train, gamma0, gamma1)
        q0, q1 = _two_forms(X, fitted)
        tolerance = 1e-12 * np.maximum(1.0, q0 + q1)
        improved = -0.5 * 0.7 * math.sqrt(p) - 0.5 * q0 + 0.5 * q1
        assert np.all(np.abs(improved_scores(X, fitted, 0.7) - improved) <= tolerance)
        if gamma0 == gamma1:
            const = 0.5 * _logdet_ratio(fitted) - math.log(priors[1] / priors[0])
            standard = const - 0.5 * q0 + 0.5 * q1
            assert np.all(np.abs(rqda_scores(X, fitted, priors) - standard) <= tolerance)
    # The grid scorer over the same blocks, on a thin class-0 basis past p = 39.
    _assert_grid_matches(*_grid_case(train, X, [(0.5, 2.0), (2.0, 2.0)], 0.7, priors)[1:])


@pytest.mark.parametrize("p", [1, 200])
def test_scoring_a_block_equals_scoring_its_halves(p):
    rows = _block_rows(p)
    train, X = _gap_case(p, 40, 30, -3.0, 1.0, 11, n_test=2 * rows + rows // 2 + 5)
    fitted = fit(train, 1.5, 1.5)
    q0, q1 = _two_forms(X, fitted)
    half = len(X) // 2 + 3
    for score in (
        lambda Y: improved_scores(Y, fitted, -0.4),
        lambda Y: rqda_scores(Y, fitted, (0.4, 0.6)),
    ):
        halves = np.concatenate([score(X[:half]), score(X[half:])])
        assert np.all(np.abs(score(X) - halves) <= 1e-12 * np.maximum(1.0, q0 + q1))


def _rows_in_blocks(blocks: int, p: int) -> int:
    """A row count that :func:`_row_blocks` splits into ``blocks`` blocks at
    dimension p, the last one with a ragged tail."""
    rows = _block_rows(p)
    return blocks * rows + rows // 3 + 7


@pytest.mark.parametrize("blocks", [1, 2, 5])
def test_two_threads_score_bit_for_bit_as_one(blocks, helper_open, thread_starts):
    """On the main thread the row blocks are split between the caller and a
    helper, one helper per call from two blocks on; a worker thread scores
    them all itself. The scores of both rules are equal bit for bit: one
    block, two, and an odd count whose last block takes a tail."""
    p = 200
    train, _ = _gap_case(p, 150, 250, 2.0, 1.0, 8)
    X = 2.0 + np.random.default_rng(blocks).standard_normal((_rows_in_blocks(blocks, p), p))
    assert len(_row_blocks(len(X), p)) == blocks
    improved, shared = fit(train, 0.5, 2.0), fit(train, 1.5, 1.5)
    score = lambda: (improved_scores(X, improved, 0.3), rqda_scores(X, shared, (0.4, 0.6)))
    serial = on_a_worker(score)
    started, alive = len(thread_starts), threading.active_count()
    two = score()
    assert len(thread_starts) - started == (2 if blocks > 1 else 0)
    assert threading.active_count() == alive
    for got, want in zip(two, serial):
        assert got.tobytes() == want.tobytes()


def _traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scoring_memory_stays_below_one_rows_by_p_array(helper_open):
    """Scoring holds a few block temporaries and the scores, and no rows x p
    array, not even the byte-per-entry mask of a finiteness check. Scored in
    two halves on two threads, each half holds its own few block temporaries,
    and still no rows x p array."""
    train, _ = _gap_case(100, 60, 80, 0.0, 1.0, 3)
    fitted = fit(train, 0.8, 1.6)
    fitted.H0  # form the resolvents before measuring
    X = np.random.default_rng(4).standard_normal((20000, 100))
    peak = _traced_peak(lambda: on_a_worker(lambda: improved_scores(X, fitted, 0.2)))
    assert peak < 3 * _BLOCK_BYTES + 8 * len(X) < X.size, peak
    peak = _traced_peak(lambda: improved_scores(X, fitted, 0.2))
    assert peak < 2 * 3 * _BLOCK_BYTES + 8 * len(X) < X.nbytes, peak
    # Nor does grid scoring hold a whole projection of the rows: a few block
    # temporaries and the scores of three candidates under two rules.
    spectra = _sample_spectra(fitted.sigma_hat0, fitted.sigma_hat1, fitted.n0)
    candidates = ([0.5, 1.0, 2.0], [0.4, 0.8, 1.6], [0.0, 0.1, 0.2])
    means = (fitted.mu_hat0, fitted.mu_hat1)
    peak = _traced_peak(lambda: _grid_scores(X, spectra, means, candidates, (0.5, 0.5)))
    assert peak < 4 * _BLOCK_BYTES + 8 * 6 * len(X) < X.nbytes, peak


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="long double carries no extra precision here"
)
def test_score_gap_is_accurate_against_a_long_double_reference():
    train, X = _gap_case(50, 40, 120, 25.0, 3.0, 7)
    for gamma in (0.01, 1.0, 100.0):
        fitted = fit(train, gamma, 0.5 * gamma)
        q0, q1 = _two_forms(X, fitted, np.longdouble)
        got = 2.0 * improved_scores(X, fitted, 0.0)
        error = np.abs(got.astype(np.longdouble) - (q1 - q0)).astype(float)
        assert np.all(error <= 1e-14 * np.maximum(1.0, (q0 + q1).astype(float))), gamma


def test_classify_positive_is_class_zero_ties_go_to_class_one():
    np.testing.assert_array_equal(
        classify_values(np.array([1e-12, 0.0, -1e-12])), [0, 1, 1]
    )


def test_nan_or_infinite_scores_never_become_labels():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="1 of 3 scores are NaN or infinite"):
            classify_values(np.array([1.0, bad, -1.0]))
    with pytest.raises(ValueError, match="2 of 2 scores are NaN or infinite"):
        classify_values(np.array([np.nan, np.inf]))


def test_empirical_error_refuses_nan_or_infinite_scores():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="1 of 2 scores are NaN or infinite"):
            empirical_error(np.array([0.5, bad]), np.array([-1.0]), (0.5, 0.5))
        with pytest.raises(ValueError, match="1 of 1 scores are NaN or infinite"):
            empirical_error(np.array([0.5]), np.array([bad]), (0.5, 0.5))


def test_scores_reject_observations_of_more_than_two_axes():
    with pytest.raises(ValueError, match=r"observations have shape \(2, 5, 1\), expected \(rows, 5\)"):
        improved_scores(np.zeros((2, 5, 1)), _toy_fit(), 0.0)


def test_scores_reject_nonfinite_observations():
    fitted = _toy_fit(seed=2)
    for bad in (np.nan, np.inf, -np.inf):
        X = np.random.default_rng(9).standard_normal((3, 5))
        X[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            improved_scores(X, fitted, 0.0)
        with pytest.raises(ValueError, match="finite"):
            improved_scores(np.zeros((3, 5)), fitted, bad)


def test_the_finiteness_check_sees_every_entry_and_survives_overflow():
    """A block is refused for any NaN or infinite entry, also beside finite
    entries whose sum overflows, and accepted when only the sum overflows."""
    huge = np.zeros((4, 3))
    huge[0, 0] = huge[2, 1] = 1e308
    np.testing.assert_array_equal(_rows(huge, 3), huge)
    for bad in (np.nan, np.inf, -np.inf):
        for base in (np.zeros((4, 3)), huge):
            X = base.copy()
            X[3, 2] = bad
            with pytest.raises(ValueError, match="finite"):
                _rows(X, 3)
    X = np.zeros((4, 3))
    X[1, 0], X[2, 2] = np.inf, -np.inf  # their sum is NaN
    with pytest.raises(ValueError, match="finite"):
        _rows(X, 3)


def test_standard_rule_includes_logdet_and_prior_offsets(small_train):
    fitted = fit(small_train, 1.5, 1.5)
    priors = (0.25, 0.75)
    x = small_train.X0[0]
    d0 = x - fitted.mu_hat0
    d1 = x - fitted.mu_hat1
    p = fitted.p
    sign0, logdet0 = np.linalg.slogdet(np.eye(p) + 1.5 * fitted.sigma_hat0)
    sign1, logdet1 = np.linalg.slogdet(np.eye(p) + 1.5 * fitted.sigma_hat1)
    assert sign0 == sign1 == 1.0
    expected = (
        0.5 * (logdet1 - logdet0)
        - math.log(priors[1] / priors[0])
        - 0.5 * d0 @ fitted.H0 @ d0
        + 0.5 * d1 @ fitted.H1 @ d1
    )
    got = rqda_scores(x, fitted, priors)[0]
    assert got == pytest.approx(expected, abs=1e-9)


def test_standard_rule_requires_shared_shrinkage(small_train):
    fitted = fit(small_train, 1.0, 2.0)
    with pytest.raises(ValueError, match="shared shrinkage"):
        rqda_scores(small_train.X0, fitted, (0.5, 0.5))


def test_linear_rule_is_affine_in_the_observation(small_train):
    pooled = fit_pooled(small_train, 0.9)
    priors = (1.0 / 3.0, 2.0 / 3.0)
    rng = np.random.default_rng(8)
    x, y = rng.standard_normal((2, small_train.p))
    s = rlda_scores(np.vstack([x, y, 0.5 * (x + y)]), pooled, priors)
    # Affine map: the midpoint score is the mean of the endpoint scores.
    assert s[2] == pytest.approx(0.5 * (s[0] + s[1]), abs=1e-10)
    direction = pooled.H @ (pooled.mu_hat0 - pooled.mu_hat1)
    expected = (x - 0.5 * (pooled.mu_hat0 + pooled.mu_hat1)) @ direction - math.log(
        priors[1] / priors[0]
    )
    assert s[0] == pytest.approx(expected, abs=1e-10)


def test_the_oracle_refuses_overflowing_rows_without_a_warning():
    """Rows whose two halves overflow are refused by the score check's own
    ValueError, under this suite's RuntimeWarning filter and with no errstate,
    on a diagonal class and on a dense one."""
    model = MixtureModel(
        class0=ClassStatistics(np.zeros(5), 2.0 * np.eye(5)),
        class1=ClassStatistics(np.ones(5), np.eye(5) + 0.5),
        prior0=0.4,
        prior1=0.6,
    )
    X = np.full((2, 5), 1e200)
    X[1] *= -1.0
    with pytest.raises(ValueError, match="2 of 2 scores are NaN or infinite"):
        qda_scores_true(X, model)


def test_true_qda_recovers_the_bayes_rule_on_known_gaussians():
    mean1 = np.array([2.0, 0.0])
    model = MixtureModel(
        class0=ClassStatistics(np.zeros(2), np.eye(2)),
        class1=ClassStatistics(mean1, 4.0 * np.eye(2)),
        prior0=0.5,
        prior1=0.5,
    )
    X = np.array([[0.0, 0.0], [2.0, 0.0]])
    got = qda_scores_true(X, model)
    # Hand-computed log-likelihood ratio, equal priors.
    for row, x in enumerate(X):
        q0 = x @ x
        q1 = (x - mean1) @ (x - mean1) / 4.0
        expected = 0.5 * math.log(16.0) - 0.5 * q0 + 0.5 * q1
        assert got[row] == pytest.approx(expected, abs=1e-12)


def test_true_qda_matches_a_dense_inverse_and_slogdet_reference():
    rng = np.random.default_rng(21)
    p = 30
    classes = []
    for scale in (1.0, 2.5):
        A = rng.standard_normal((p, p))
        classes.append(ClassStatistics(rng.standard_normal(p), scale * (A @ A.T / p + np.eye(p))))
    model = MixtureModel(class0=classes[0], class1=classes[1], prior0=0.3, prior1=0.7)
    X = rng.standard_normal((500, p)) * 2.0
    forms = []
    for stats in classes:
        d = X - stats.mean
        sign, logdet = np.linalg.slogdet(stats.covariance)
        assert sign == 1.0
        forms.append(np.einsum("ij,jk,ik->i", d, np.linalg.inv(stats.covariance), d) + logdet)
    expected = 0.5 * (forms[1] - forms[0]) - math.log(0.7 / 0.3)
    got = qda_scores_true(X, model)
    scale = np.maximum(1.0, np.abs(forms[0]) + np.abs(forms[1]))
    assert np.all(np.abs(got - expected) <= 1e-12 * scale)
    # Ill-conditioned classes against a 50-digit reference on the same float
    # covariances, relative to |form0| + |form1|. The error is the Cholesky
    # factor's rounding, about kappa * eps; each bound is twice what a
    # triangular solve per call (LAPACK's dtrtrs) read on these inputs,
    # 1.7e-13 and 4.4e-10.
    mpmath = pytest.importorskip("mpmath")
    p = 40
    for kappa, bound in ((1e6, 3.5e-13), (1e10, 9e-10)):
        classes = []
        for _ in range(2):
            rotation = np.linalg.qr(rng.standard_normal((p, p)))[0]
            sigma = (rotation * np.logspace(0.0, math.log10(kappa), p)) @ rotation.T
            classes.append(ClassStatistics(rng.standard_normal(p), 0.5 * (sigma + sigma.T)))
        model = MixtureModel(class0=classes[0], class1=classes[1], prior0=0.3, prior1=0.7)
        X = rng.standard_normal((20, p)) * 2.0
        got = qda_scores_true(X, model)
        with mpmath.workdps(50):
            forms = []
            for stats in classes:
                sigma = mpmath.matrix(stats.covariance.tolist())
                inverse, logdet = mpmath.inverse(sigma), mpmath.log(mpmath.det(sigma))
                rows, mean = mpmath.matrix(X.tolist()), mpmath.matrix([stats.mean.tolist()])
                d = [rows[i, :] - mean for i in range(len(X))]
                forms.append([(row * inverse * row.T)[0] + logdet for row in d])
            for k, (form0, form1) in enumerate(zip(*forms)):
                expected = (form1 - form0) / 2 - mpmath.log(mpmath.mpf(0.7) / mpmath.mpf(0.3))
                assert abs(got[k] - expected) <= bound * (abs(form0) + abs(form1))


@pytest.mark.parametrize("base", [2.0, 3.0, 4.0, 7.3, None])
def test_true_qda_scales_a_diagonal_class_without_inverting_it(base):
    """A diagonal class (isotropic at ``base``, or a random diagonal at p=300)
    is whitened by the reciprocals of its kept scale, bit for bit as the dense
    product with L^-T that a non-diagonal class takes, and never inverts L."""
    rng = np.random.default_rng(8)
    p = 300 if base is None else 20
    diagonal = rng.uniform(0.5, 5.0, p) if base is None else np.full(p, base)
    spiked = rng.standard_normal((p, p)) / math.sqrt(p)
    model = MixtureModel(
        class0=ClassStatistics(rng.standard_normal(p), np.diag(diagonal)),
        class1=ClassStatistics(rng.standard_normal(p), spiked @ spiked.T + np.eye(p)),
        prior0=0.4,
        prior1=0.6,
    )
    X = rng.standard_normal((200, p)) * 3.0
    got = qda_scores_true(X, model)
    assert model.class0._scale is not None and model.class1._scale is None
    assert "_inverse_cholesky" not in model.class0.__dict__
    dense = ClassStatistics(model.class0.mean, model.class0.covariance)
    object.__setattr__(dense, "_scale", None)  # as if the factor were not diagonal
    reference = qda_scores_true(X, MixtureModel(dense, model.class1, 0.4, 0.6))
    assert "_inverse_cholesky" in dense.__dict__
    np.testing.assert_array_equal(got, reference)


def test_empirical_error_weights_priors_and_counts_ties_as_class_one():
    scores0 = np.array([1.0, -1.0, 0.0, 2.0])   # two of four misread as class 1
    scores1 = np.array([-3.0, 0.0, 1.0])        # one of three misread as class 0
    report = empirical_error(scores0, scores1, (0.25, 0.75))
    assert report.eps0 == pytest.approx(0.5)
    assert report.eps1 == pytest.approx(1.0 / 3.0)
    assert report.total == pytest.approx(0.25 * 0.5 + 0.75 / 3.0)
    assert (report.n_test0, report.n_test1) == (4, 3)
    with pytest.raises(InsufficientSamplesError):
        empirical_error(np.array([]), scores1, (0.5, 0.5))


@pytest.mark.parametrize(
    "priors", [(float("nan"), 0.5), (0.5, 0.6), (0.0, 1.0), (0.3, 0.7, 42.0)]
)
def test_scorers_and_error_reject_bad_priors(small_train, priors):
    X = small_train.X0[:3]
    with pytest.raises(ValueError, match="priors must"):
        rqda_scores(X, fit(small_train, 1.0, 1.0), priors)
    with pytest.raises(ValueError, match="priors must"):
        rlda_scores(X, fit_pooled(small_train, 1.0), priors)
    with pytest.raises(ValueError, match="priors must"):
        empirical_error(np.ones(3), -np.ones(3), priors)


def test_conditional_moments_match_monte_carlo():
    rng_model = MixtureModel(
        class0=ClassStatistics(np.zeros(6), 2.0 * np.eye(6)),
        class1=ClassStatistics(
            np.full(6, 0.8), 2.0 * np.eye(6) + 0.5 * np.ones((6, 6))
        ),
        prior0=0.5,
        prior1=0.5,
    )
    rng = np.random.default_rng(11)
    X0 = sample_class(rng_model.class0, 40, rng)
    X1 = sample_class(rng_model.class1, 30, rng)
    fitted = fit(TrainingSet(X0=X0, X1=X1), 0.6, 1.4)
    theta = 0.3
    means, variances = conditional_score_moments(fitted, rng_model, theta)
    scale = 2.0 / math.sqrt(6)
    n = 400_000
    for i, stats in enumerate((rng_model.class0, rng_model.class1)):
        draws = sample_class(stats, n, stream(99, i))
        s = scale * improved_scores(draws, fitted, theta)
        assert s.mean() == pytest.approx(means[i], abs=5 * math.sqrt(variances[i] / n))
        assert np.var(s, ddof=1) == pytest.approx(variances[i], rel=0.02)


def test_conditional_moments_reject_unknown_rule(small_train):
    fitted = fit(small_train, 1.0, 1.0)
    model = MixtureModel(
        class0=ClassStatistics(np.zeros(small_train.p), np.eye(small_train.p)),
        class1=ClassStatistics(np.ones(small_train.p), np.eye(small_train.p)),
        prior0=0.5,
        prior1=0.5,
    )
    with pytest.raises(ValueError):
        conditional_score_moments(fitted, model, 0.0, rule_kind="rlda")
