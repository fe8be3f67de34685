import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hdqda import model as model_module
from hdqda.errors import NotSpdError
from hdqda.model import (
    ClassStatistics,
    MixtureModel,
    ScenarioConfig,
    build_mixture,
    make_spiked_covariance,
    sample_class,
    sample_scenario,
    stream,
)

from conftest import random_spd, small_config


def test_scenario_config_rejects_bad_sizes():
    with pytest.raises(ValueError):
        small_config(p=0)
    with pytest.raises(ValueError):
        small_config(n0=1)
    with pytest.raises(ValueError):
        small_config(n1=1)
    with pytest.raises(ValueError):
        small_config(test0=0)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("prior0", 1.5, "prior0"),
        ("prior0", 0.0, "prior0"),
        ("spike_rank", 50, "spike_rank"),
        ("spike_rank", -1, "spike_rank"),
        ("base_scale", -1.0, "base_scale"),
        ("spike_strength", -4.0, "base_scale \\+ spike_strength"),
        ("p", 10.0, "p must be an integer"),
        ("seed", "3", "seed must be an integer"),
        ("mean_offset", float("nan"), "mean_offset"),
        ("p", True, "p must be a number, not a boolean"),
        ("seed", False, "seed must be a number, not a boolean"),
        ("spike_rank", True, "spike_rank"),
        ("base_scale", True, "base_scale"),
        ("prior0", True, "prior0"),
        ("seed", -1, "seed must be >= 0"),
    ],
)
def test_scenario_config_rejects_what_build_mixture_rejects(field, value, message):
    with pytest.raises(ValueError, match=message):
        small_config(**{"p": 20, field: value})


def test_scenario_config_default_spike_rank_scales_with_sqrt_p():
    assert small_config(p=100).spike_rank == 10
    assert small_config(p=101).spike_rank == 11
    assert small_config(p=1).spike_rank == 1


def test_scenario_config_json_round_trip():
    config = small_config(seed=9, spike_rank=3)
    again = ScenarioConfig.from_json(config.to_json())
    assert again == config


def test_scenario_config_from_json_rejects_unknown_and_missing_fields():
    config = small_config()
    import json

    payload = json.loads(config.to_json())
    payload["bogus"] = 1
    with pytest.raises(ValueError, match="unknown"):
        ScenarioConfig.from_json(json.dumps(payload))
    del payload["bogus"]
    del payload["p"]
    with pytest.raises(ValueError, match="missing"):
        ScenarioConfig.from_json(json.dumps(payload))


def test_spiked_covariance_eigenvalues_are_exactly_two_levels():
    p, rank = 30, 4
    sigma = make_spiked_covariance(2.0, 5.0, rank, p, seed=1)
    eigs = np.sort(np.linalg.eigvalsh(sigma))
    np.testing.assert_allclose(eigs[: p - rank], 2.0, atol=1e-10)
    np.testing.assert_allclose(eigs[p - rank :], 7.0, atol=1e-10)
    np.testing.assert_allclose(sigma, sigma.T, atol=0)


def test_spiked_covariance_deterministic_in_seed():
    a = make_spiked_covariance(1.0, 3.0, 5, 40, seed=7)
    b = make_spiked_covariance(1.0, 3.0, 5, 40, seed=7)
    c = make_spiked_covariance(1.0, 3.0, 5, 40, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_spiked_covariance_zero_rank_is_isotropic():
    sigma = make_spiked_covariance(3.0, 5.0, 0, 12, seed=0)
    np.testing.assert_array_equal(sigma, 3.0 * np.eye(12))


def test_spiked_covariance_rejects_indefinite_scales():
    with pytest.raises(NotSpdError):
        make_spiked_covariance(1.0, -2.0, 3, 10, seed=0)
    with pytest.raises(ValueError):
        make_spiked_covariance(1.0, 1.0, 11, 10, seed=0)


def test_scales_past_the_float_range_are_refused_before_they_warn():
    """Under this suite's RuntimeWarning filter, scales whose covariance would
    overflow are refused as ValueError before any entry is formed, by the
    config and by the builder alike."""
    for base, spike in ((1.0, 1e308), (1e308, 1e308)):
        with pytest.raises(ValueError, match="past the float range"):
            make_spiked_covariance(base, spike, 3, 5, 0)
        with pytest.raises(ValueError, match="past the float range"):
            small_config(p=5, base_scale=base, spike_strength=spike)
    assert np.isfinite(make_spiked_covariance(1e307, 1e307, 3, 5, 0)).all()


def test_class_statistics_validation():
    with pytest.raises(NotSpdError):
        ClassStatistics(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(NotSpdError):
        ClassStatistics(np.zeros(2), -np.eye(2))
    with pytest.raises(ValueError):
        ClassStatistics(np.zeros(3), np.eye(2))
    bad = np.eye(2)
    for field, mean, cov in (
        ("mean", [np.nan, 0.0], bad),
        ("mean", [0.0, -np.inf], bad),
        ("covariance", np.zeros(2), [[np.nan, 0.0], [0.0, 1.0]]),
        ("covariance", np.zeros(2), [[np.inf, 0.0], [0.0, 1.0]]),
        ("covariance", np.zeros(2), [[1.0, np.nan], [np.nan, 1.0]]),
    ):
        # Rejected by name before the symmetry test can warn on inf - inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as raised:
                ClassStatistics(mean, cov)
        assert type(raised.value) is ValueError
        assert str(raised.value) == "%s must be finite; found NaN or inf" % field


def test_mixture_model_validation_and_swap():
    stats2 = ClassStatistics(np.zeros(2), np.eye(2))
    stats3 = ClassStatistics(np.zeros(3), np.eye(3))
    with pytest.raises(ValueError):
        MixtureModel(stats2, stats3, 0.5, 0.5)
    with pytest.raises(ValueError):
        MixtureModel(stats2, stats2, 0.7, 0.7)
    model = MixtureModel(stats2, ClassStatistics(np.ones(2), 2.0 * np.eye(2)), 0.25, 0.75)
    back = model.swapped().swapped()
    assert back.prior0 == model.prior0
    assert np.array_equal(back.class0.mean, model.class0.mean)
    assert model.swapped().prior0 == 0.75


def test_build_mixture_places_means_and_priors():
    config = small_config(p=16, mean_offset=2.0, prior0=0.3)
    model = build_mixture(config)
    assert model.prior1 == pytest.approx(0.7)
    np.testing.assert_array_equal(model.class0.mean, np.zeros(16))
    np.testing.assert_allclose(model.class1.mean, 0.5 * np.ones(16))
    np.testing.assert_array_equal(model.class0.covariance, 4.0 * np.eye(16))


def test_stream_reproducible_and_key_separated():
    a = stream(5, 1, 2).standard_normal(4)
    b = stream(5, 1, 2).standard_normal(4)
    c = stream(5, 1, 3).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_class_shape_and_law():
    stats = ClassStatistics(np.array([1.0, -2.0]), np.array([[2.0, 0.6], [0.6, 1.0]]))
    X = sample_class(stats, 200_000, stream(0, 0))
    assert X.shape == (200_000, 2)
    np.testing.assert_allclose(X.mean(axis=0), stats.mean, atol=0.02)
    np.testing.assert_allclose(np.cov(X, rowvar=False), stats.covariance, atol=0.03)


# (p, n0, n1, test0, test1, base_scale, spike_strength): every scenario shape
# the acceptance tests sample, isotropic class 1 included.
_ACCEPTANCE_SHAPES = [
    (40, 60, 60, 4, 4, 3.0, 5.0),
    (400, 200, 400, 1000, 2000, 10.0, 0.0),
    (50, 60, 80, 4, 4, 4.0, 3.0),
    (50, 65, 100, 4, 4, 3.0, 0.0),
    (200, 200, 100, 2000, 1000, 4.0, 3.0),
    (200, 200, 100, 2000, 1000, 2.0, 8.0),
    (100, 100, 50, 10, 10, 2.0, 8.0),
    (400, 400, 200, 10, 10, 2.0, 8.0),
    (1600, 1600, 800, 10, 10, 2.0, 8.0),
]


def _product_route(stats, n, rng):
    """The dense reference: standard normals times the transposed factor."""
    return stats.mean + rng.standard_normal((n, stats.dim)) @ stats.cholesky.T


@pytest.mark.parametrize("shape", _ACCEPTANCE_SHAPES)
def test_sample_scenario_equals_the_product_route_bitwise(shape):
    p, n0, n1, test0, test1, base, spike = shape
    config = small_config(
        p=p, n0=n0, n1=n1, test0=test0, test1=test1, base_scale=base, spike_strength=spike, seed=5
    )
    model = build_mixture(config)
    data = sample_scenario(config, model=model, replicate=2)
    assert model.class0._scale is not None
    assert (model.class1._scale is None) == (spike != 0.0)  # a spiked class keeps the product
    blocks = (
        (data.train0, model.class0, n0, 1),
        (data.train1, model.class1, n1, 2),
        (data.test0, model.class0, test0, 3),
        (data.test1, model.class1, test1, 4),
    )
    for block, stats, n, key in blocks:
        reference = _product_route(stats, n, stream(config.seed, key, 2))
        assert block.tobytes() == reference.tobytes()


def test_a_diagonal_covariance_samples_by_its_scale_bitwise():
    rng = np.random.default_rng(4)
    stats = ClassStatistics(rng.standard_normal(30), np.diag(rng.uniform(0.1, 9.0, 30)))
    assert stats._scale is not None
    X = sample_class(stats, 500, stream(8, 1))
    assert X.tobytes() == _product_route(stats, 500, stream(8, 1)).tobytes()


def test_sample_scenario_replicates_are_reproducible_and_distinct():
    config = small_config(seed=3)
    model = build_mixture(config)
    a = sample_scenario(config, model=model, replicate=2)
    b = sample_scenario(config, model=model, replicate=2)
    c = sample_scenario(config, model=model, replicate=3)
    np.testing.assert_array_equal(a.train0, b.train0)
    np.testing.assert_array_equal(a.test1, b.test1)
    assert not np.array_equal(a.train0, c.train0)
    assert a.train0.shape == (config.n0, config.p)
    assert a.test1.shape == (config.test1, config.p)


def _serial_draw(config, model, replicate):
    """train0, train1, test0, test1 by :func:`sample_class`, one block after
    another on the streams (seed, k, replicate), k = 1..4."""
    blocks = (
        (model.class0, config.n0, 1),
        (model.class1, config.n1, 2),
        (model.class0, config.test0, 3),
        (model.class1, config.test1, 4),
    )
    return [sample_class(stats, n, stream(config.seed, key, replicate)) for stats, n, key in blocks]


def _drawn_bytes(data):
    return [block.tobytes() for block in (data.train0, data.train1, data.test0, data.test1)]


def _concurrent_case(name):
    """A synthetic mixture (diagonal class 0, spiked class 1), or a hand-built
    one whose two covariances are both non-diagonal, so both threads multiply."""
    if name == "synthetic":
        config = small_config(p=60, n0=80, n1=40, test0=300, test1=150, seed=9)
        return config, build_mixture(config)
    rng = np.random.default_rng(12)
    classes = [ClassStatistics(rng.standard_normal(20), random_spd(20, rng)) for _ in range(2)]
    config = small_config(p=20, n0=30, n1=50, test0=70, test1=40, seed=4)
    return config, MixtureModel(classes[0], classes[1], 0.4, 0.6)


@pytest.mark.parametrize("name", ["synthetic", "both non-diagonal"])
def test_sample_scenario_equals_sample_class_drawn_serially(name):
    config, model = _concurrent_case(name)
    assert (model.class0._scale is None) == (name != "synthetic")
    assert model.class1._scale is None
    data = sample_scenario(config, model=model, replicate=3)
    assert _drawn_bytes(data) == [block.tobytes() for block in _serial_draw(config, model, 3)]


@pytest.mark.parametrize("name", ["synthetic", "both non-diagonal"])
def test_sample_scenario_is_bitwise_when_four_threads_call_it_at_once(name, helper_open):
    # Three pool workers, as CLI --threads workers, draw beside the main thread:
    # four callers at once, and the main thread's draws add a helper each.
    config, model = _concurrent_case(name)
    draw = lambda r: sample_scenario(config, model=model, replicate=r)
    with ThreadPoolExecutor(max_workers=3) as pool:
        pending = [pool.submit(draw, r) for r in range(3, 12)]
        here = [draw(r) for r in range(3)]
        drawn = here + [future.result(timeout=60) for future in pending]
    for replicate, data in enumerate(drawn):
        serial = _serial_draw(config, model, replicate)
        assert _drawn_bytes(data) == [block.tobytes() for block in serial]


def _record_fills(monkeypatch, fail_on=None):
    """Patch ``_fill_class`` to log (class, filling thread) per block and to
    raise on the first block of the class ``fail_on``."""
    fill, filled_on = model_module._fill_class, []

    def recording(stats, *args):
        filled_on.append((stats, threading.current_thread()))
        if stats is fail_on:
            raise FloatingPointError("injected class-1 failure")
        return fill(stats, *args)

    monkeypatch.setattr(model_module, "_fill_class", recording)
    return filled_on


def test_a_worker_thread_draws_all_four_blocks_itself(monkeypatch):
    config = small_config(seed=2)
    model = build_mixture(config)
    filled_on = _record_fills(monkeypatch)
    with ThreadPoolExecutor(max_workers=1) as pool:
        worker, data = pool.submit(
            lambda: (threading.current_thread(), sample_scenario(config, model=model))
        ).result(timeout=60)
    assert [thread for _, thread in filled_on] == [worker] * 4
    assert _drawn_bytes(data) == [block.tobytes() for block in _serial_draw(config, model, 0)]


def test_the_main_thread_draws_all_four_blocks_itself_behind_a_closed_gate(monkeypatch, helper_closed, thread_starts):
    """With numpy's OpenBLAS at two threads, or no reader of its count, the
    main thread starts no helper and fills the four blocks in serial order."""
    config = small_config(seed=2)
    model = build_mixture(config)
    filled_on = _record_fills(monkeypatch)
    data = sample_scenario(config, model=model)
    assert thread_starts == []
    caller = threading.current_thread()
    assert filled_on == [(model.class0, caller)] * 2 + [(model.class1, caller)] * 2
    assert _drawn_bytes(data) == [block.tobytes() for block in _serial_draw(config, model, 0)]


def test_a_failure_filling_class1_reaches_the_caller_and_no_thread_outlives_the_call(monkeypatch, helper_open):
    config = small_config(seed=2)
    model = build_mixture(config)
    before = threading.active_count()
    sample_scenario(config, model=model)
    assert threading.active_count() == before

    filled_on = _record_fills(monkeypatch, fail_on=model.class1)
    with pytest.raises(FloatingPointError, match="injected class-1 failure"):
        sample_scenario(config, model=model)
    assert threading.active_count() == before
    caller = threading.current_thread()
    # Class 0's two blocks are filled here; class 1's first block fails on the helper.
    assert sorted((stats is model.class1, thread is caller) for stats, thread in filled_on) == [
        (False, True), (False, True), (True, False)
    ]


def test_mixtures_and_classes_derive_their_kept_values_without_a_shared_lock(monkeypatch):
    """While one mixture builds its spectral kernel, another mixture's kernel is
    built on another thread without waiting for it; likewise two classes'
    spectra."""
    entered, release = threading.Event(), threading.Event()

    def held(real):
        """``real``, held on its first call until ``release`` is set."""
        calls = []

        def derive(*args):
            calls.append(args)
            if len(calls) == 1:
                entered.set()
                release.wait(30.0)
            return real(*args)

        return derive

    def beside(first, second) -> list:
        """Run ``first`` on one thread until it is held, then ``second`` on
        another for up to a second; what ``second`` returned in that time."""
        entered.clear()
        release.clear()
        reader = threading.Thread(target=first)
        reader.start()
        try:
            assert entered.wait(30.0)
            returned = []
            other = threading.Thread(target=lambda: returned.append(second()))
            other.start()
            other.join(1.0)
            return returned
        finally:
            release.set()
            reader.join(30.0)

    mixtures = [build_mixture(small_config(seed=seed)) for seed in (1, 2)]
    for mixture in mixtures:  # the spectra first, so only the kernels are held
        mixture.class0.spectrum, mixture.class1.spectrum
    monkeypatch.setattr(model_module, "SpectralPair", held(model_module.SpectralPair))
    built = beside(lambda: mixtures[0].pair, lambda: mixtures[1].pair)
    assert built, "the second mixture's kernel waited for the first mixture's"
    assert built[0] is mixtures[1].pair and "pair" in vars(mixtures[0])

    rng = np.random.default_rng(5)
    classes = [ClassStatistics(np.zeros(6), random_spd(6, rng)) for _ in range(2)]
    monkeypatch.setattr(model_module, "eigenpair", held(model_module.eigenpair))
    derived = beside(lambda: classes[0].spectrum, lambda: classes[1].spectrum)
    assert derived, "the second class's spectrum waited for the first class's"
    assert derived[0] is classes[1].spectrum and "spectrum" in vars(classes[0])
