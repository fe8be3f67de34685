"""The three LAPACK routines the package calls (``dpotrf``, ``dpotri`` and
``dpstrf``), bound with ``ctypes`` from the OpenBLAS that numpy itself loads,
so no second LAPACK is needed, and a reader of that library's thread count
(:func:`blas_threads`).

numpy's linear-algebra extension links that library, and a handle opened on
the extension finds its symbols through the extension's own dependencies;
nothing searches the file system. numpy 2 wheels export each routine as
``scipy_<name>_64_`` with 64-bit integers; where a name is missing, importing
this module raises ``ImportError`` naming it and numpy's LAPACK.

Each wrapper takes exactly the form its one call site needs, in the lower
triangle throughout. Arrays reach LAPACK in Fortran order: a wrapper that
factors in place overwrites its input when that is already a writeable
Fortran-ordered float64 array and works on a copy otherwise, as scipy's
``overwrite_a`` does. Every call makes its own integers and ``info``, and
ctypes releases the GIL for the call, so threads may call these at once.

The thread count comes from ``scipy_openblas_get_num_threads64_``, found by
the same lookup. It is only read: nothing here changes a process-wide setting.
Where the library does not export it (a numpy built on another BLAS), the
reader reports no count rather than failing the import.
"""

from __future__ import annotations

import ctypes

import numpy as np
import numpy.linalg._umath_linalg as _umath_linalg

_LIBRARY = ctypes.CDLL(_umath_linalg.__file__)
_INT = ctypes.POINTER(ctypes.c_int64)
_PTR = ctypes.c_void_p
_CHAR = ctypes.c_char_p
_LEN = ctypes.c_size_t  # a Fortran character argument's hidden length


def _bind(name: str, *argtypes):
    symbol = "scipy_%s_64_" % name
    try:
        routine = getattr(_LIBRARY, symbol)
    except AttributeError:
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        raise ImportError(
            "hdqda needs LAPACK's %s with 64-bit integers as %s in numpy's own library %s; "
            "this numpy was built with LAPACK %s %s, which does not export it"
            % (name, symbol, _umath_linalg.__file__, lapack.get("name"), lapack.get("version"))
        ) from None
    routine.argtypes = argtypes
    routine.restype = None
    return routine


_dpotrf = _bind("dpotrf", _CHAR, _INT, _PTR, _INT, _INT, _LEN)
_dpotri = _bind("dpotri", _CHAR, _INT, _PTR, _INT, _INT, _LEN)
_dpstrf = _bind(
    "dpstrf", _CHAR, _INT, _PTR, _INT, _PTR, _INT, ctypes.POINTER(ctypes.c_double), _PTR, _INT, _LEN
)


def _thread_reader():
    try:
        reader = _LIBRARY.scipy_openblas_get_num_threads64_
    except AttributeError:
        return None
    reader.argtypes = ()
    reader.restype = ctypes.c_int
    return reader


_openblas_get_num_threads = _thread_reader()


def blas_threads() -> int | None:
    """The number of threads numpy's OpenBLAS runs a call on, or None where it
    exports no reader."""
    reader = _openblas_get_num_threads
    return None if reader is None else reader()


def _int(value: int):
    return ctypes.byref(ctypes.c_int64(value))


def _address(a: np.ndarray):
    """The address of a writeable Fortran-ordered array's first element, or
    NULL for an empty one. Taken through the buffer protocol of the array's
    C-ordered transpose, which refuses a read-only or non-contiguous array and
    costs a third of ``a.ctypes.data``."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a.T)) if a.size else None


def _writeable_fortran(a) -> np.ndarray:
    """``a`` itself when LAPACK may write to it in Fortran order, else a copy."""
    if (
        isinstance(a, np.ndarray)
        and a.dtype == np.float64
        and a.flags.f_contiguous
        and a.flags.writeable
    ):
        return a
    return np.array(a, dtype=np.float64, order="F")


def _square(a: np.ndarray) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix, got shape %r" % (a.shape,))
    return a.shape[0]


def dpotrf(a) -> tuple[np.ndarray, int]:
    """Lower Cholesky factor L of symmetric ``a`` = L L^T, in place when
    possible, and LAPACK's ``info``: 0, or the order of the first leading minor
    that is not positive definite. The strict upper triangle keeps ``a``'s."""
    a = _writeable_fortran(a)
    n = _square(a)
    info = ctypes.c_int64(0)
    _dpotrf(b"L", _int(n), _address(a), _int(max(n, 1)), ctypes.byref(info), 1)
    return a, info.value


def dpotri(factor) -> tuple[np.ndarray, int]:
    """The inverse of L L^T from its lower Cholesky factor ``factor``, written to
    the lower triangle in place when possible, and LAPACK's ``info``. The strict
    upper triangle keeps ``factor``'s."""
    factor = _writeable_fortran(factor)
    n = _square(factor)
    info = ctypes.c_int64(0)
    _dpotri(b"L", _int(n), _address(factor), _int(max(n, 1)), ctypes.byref(info), 1)
    return factor, info.value


def dpstrf(a) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Pivoted lower Cholesky factorization P^T a P = L L^T of a copy of
    symmetric positive semidefinite ``a`` at LAPACK's default tolerance:
    the factor (its first ``rank`` columns are L's; the strict upper triangle
    keeps ``a``'s and the trailing block is unfactored), the 1-based pivots,
    the numerical rank, and ``info``: 1 when ``a`` is rank-deficient."""
    a = np.array(a, dtype=np.float64, order="F")
    n = _square(a)
    pivots, work = np.empty(n, dtype=np.int64), np.empty(2 * n)
    rank, info = ctypes.c_int64(0), ctypes.c_int64(0)
    _dpstrf(
        b"L", _int(n), _address(a), _int(max(n, 1)), _address(pivots), ctypes.byref(rank),
        ctypes.byref(ctypes.c_double(-1.0)), _address(work), ctypes.byref(info), 1,
    )
    return a, pivots, rank.value, info.value
