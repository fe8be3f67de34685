"""The ctypes LAPACK binding against scipy's wrappers of the same routines.

The two link different OpenBLAS builds, whose blocked kernels may round
differently, so results are compared at a relative tolerance, not bit for bit.
Over 32 random SPD matrices of order 50 to 700, numpy 2.4's OpenBLAS 0.3.31
against scipy 1.17's 0.3.30, dpotrf differed in 2 by at most 1.7e-16 of the
largest entry and the other routines agreed bit for bit; RTOL is about 450
units in the last place.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

from hdqda import _lapack
from hdqda.errors import NotSpdError
from hdqda.estimation import _shifted_inverse

RTOL = 1e-13


def _close(actual, expected) -> bool:
    """Entry-wise within RTOL of the larger entry of ``expected``."""
    scale = max(1.0, float(np.max(np.abs(expected), initial=0.0)))
    return bool(np.all(np.abs(np.asarray(actual) - expected) <= RTOL * scale))


def _psd(p: int, rank: int, seed: int) -> np.ndarray:
    """A symmetric positive semidefinite p x p matrix of rank ``rank``."""
    A = np.random.default_rng(seed).standard_normal((p, rank))
    return A @ A.T / p


def _layouts(matrix: np.ndarray) -> dict:
    """``matrix`` C-ordered, Fortran-ordered and as a non-contiguous view."""
    p = matrix.shape[0]
    padded = np.zeros((2 * p, 2 * p))
    padded[::2, ::2] = matrix
    return {
        "C": np.array(matrix, order="C"),
        "F": np.array(matrix, order="F"),
        "strided": padded[::2, ::2],
    }


# (p, rank): full rank, rank-deficient, and the one-dimensional case.
SHAPES = [(1, 1), (2, 1), (7, 7), (40, 40), (40, 13), (130, 130), (130, 60)]


@pytest.mark.parametrize("p, rank", SHAPES)
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_cholesky_and_inverse_match_scipy(p, rank, layout):
    shifted = np.eye(p) + _psd(p, rank, p + rank)
    matrix = _layouts(shifted)[layout]
    # Only a writeable Fortran-ordered float64 input is factored in place;
    # at p = 1 every layout is Fortran-ordered.
    in_place = matrix.flags.f_contiguous
    factor, info = _lapack.dpotrf(matrix)
    expected, expected_info = lapack.dpotrf(shifted, lower=1, clean=1)
    assert info == expected_info == 0
    assert _close(np.tril(factor), expected)
    assert np.array_equal(np.triu(factor, 1), np.triu(shifted, 1))
    assert (factor is matrix) == in_place
    if not in_place:
        assert np.array_equal(matrix, shifted)
    inverse, info = _lapack.dpotri(factor)
    expected_inverse, _ = lapack.dpotri(expected, lower=1)
    assert info == 0
    assert _close(np.tril(inverse), np.tril(expected_inverse))


@pytest.mark.parametrize("p, rank", SHAPES)
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_pivoted_cholesky_matches_scipy(p, rank, layout):
    matrix = _psd(p, rank, 3 * p + rank)
    view = _layouts(matrix)[layout]
    before = view.copy()
    factor, pivots, found, info = _lapack.dpstrf(view)
    expected, expected_pivots, expected_rank, expected_info = lapack.dpstrf(matrix, lower=1)
    assert np.array_equal(view, before)
    assert found == expected_rank == rank
    assert info == expected_info == int(rank < p)
    assert np.array_equal(pivots, expected_pivots)
    assert _close(np.tril(factor[:, :found]), np.tril(expected[:, :found]))


def test_a_read_only_input_is_copied_not_written():
    shifted = np.eye(5) + _psd(5, 5, 0)
    frozen = np.asfortranarray(shifted)
    frozen.flags.writeable = False
    factor, info = _lapack.dpotrf(frozen)
    assert info == 0 and factor is not frozen
    assert np.array_equal(frozen, shifted)


@pytest.mark.parametrize("minor", [1, 3])
def test_the_failing_leading_minor_is_named(minor):
    """I + sigma with sigma's leading (minor - 1) block positive and its
    minor-th diagonal entry -2: the first leading minor that fails is ``minor``."""
    sigma = np.diag([1.0, 1.0, 1.0, 1.0])
    sigma[minor - 1, minor - 1] = -2.0
    assert _lapack.dpotrf(np.eye(4) + sigma)[1] == lapack.dpotrf(np.eye(4) + sigma, lower=1)[1]
    with pytest.raises(NotSpdError, match="leading minor %d fails" % minor):
        _shifted_inverse(sigma, 1.0)


def test_two_threads_calling_at_once_get_the_serial_results():
    """Each call makes its own integers and info, and ctypes releases the GIL
    during it, so two threads factoring at once get what one thread gets."""
    inputs = [np.eye(120) + _psd(120, 60 + 10 * k, k) for k in range(8)]

    def work(k):
        matrix = inputs[k]
        factor, info = _lapack.dpotrf(matrix)
        inverse, _ = _lapack.dpotri(factor.copy(order="F"))
        pivoted = _lapack.dpstrf(matrix)
        return [factor, info, inverse, *pivoted]

    serial = [work(k) for k in range(8)]
    results = [[None] * 8 for _ in range(2)]
    start = threading.Barrier(2)

    def run(slot):
        start.wait(timeout=30)
        for _ in range(5):
            for k in range(8):
                results[slot][k] = work(k)

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(2)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    for slot in range(2):
        for got, expected in zip(results[slot], serial):
            for a, b in zip(got, expected):
                assert np.array_equal(a, b)


def test_a_numpy_without_the_routines_fails_on_import_with_a_clear_message():
    """Where numpy's library exports no ``scipy_<name>_64_`` symbols, importing
    the package raises ImportError naming the symbol and numpy's LAPACK."""
    src = str(Path(_lapack.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = """
import ctypes

class Empty:
    def __init__(self, path):
        pass

ctypes.CDLL = Empty
try:
    import hdqda
except ImportError as exc:
    print(exc)
"""
    done = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert "scipy_dpotrf_64_" in done.stdout
    assert "this numpy was built with LAPACK" in done.stdout
