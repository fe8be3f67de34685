import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hdqda import _lapack
from hdqda.estimation import TrainingSet
from hdqda.model import ScenarioConfig, build_mixture, sample_scenario


def small_config(**overrides) -> ScenarioConfig:
    """Fast desk scenario; override any field for a variant."""
    values = dict(
        p=24,
        n0=40,
        n1=20,
        test0=50,
        test1=25,
        base_scale=4.0,
        spike_strength=3.0,
        spike_rank=None,
        mean_offset=3.0,
        prior0=2.0 / 3.0,
        seed=0,
    )
    values.update(overrides)
    return ScenarioConfig(**values)


@pytest.fixture
def small_scenario():
    config = small_config()
    model = build_mixture(config)
    data = sample_scenario(config, model=model)
    return config, model, data


@pytest.fixture
def small_train(small_scenario):
    _, _, data = small_scenario
    return TrainingSet(X0=data.train0, X1=data.train1)


def random_spd(p: int, rng: np.random.Generator) -> np.ndarray:
    """Random SPD matrix with eigenvalues bounded away from zero."""
    g = rng.standard_normal((p, p))
    q, _ = np.linalg.qr(g)
    eigs = rng.uniform(0.5, 5.0, size=p)
    return (q * eigs) @ q.T


def on_a_worker(call):
    """``call()`` on a pool worker thread, where the package runs every pair
    of halves serially (:func:`hdqda.estimation._both`)."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(call).result(timeout=120)


@pytest.fixture
def helper_open(monkeypatch):
    """numpy's OpenBLAS reads one thread, so the helper of
    :func:`hdqda.estimation._both` runs on the main thread whatever the real
    BLAS setting is."""
    monkeypatch.setattr(_lapack, "_openblas_get_num_threads", lambda: 1)


@pytest.fixture(params=["two threads", "no reader"])
def helper_closed(request, monkeypatch):
    """numpy's OpenBLAS reads two threads, or exports no reader: either way
    the package starts no helper thread."""
    reader = (lambda: 2) if request.param == "two threads" else None
    monkeypatch.setattr(_lapack, "_openblas_get_num_threads", reader)
    assert _lapack.blas_threads() == (2 if reader else None)


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started during the test, in order."""
    started, start = [], threading.Thread.start

    def recording(thread):
        started.append(thread)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return started
