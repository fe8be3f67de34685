"""Op timing, and host-speed calibration for the gated times.

On a shared host the same op runs up to a third slower for tens of seconds at
a time, and a whole run can land in a slow or a fast stretch. So the
benchmark times a fixed BLAS kernel between ops (at most every
``Calibrator.INTERVAL_S``) and rescales each op by the kernel time measured
around it: ``normalized = raw * REFERENCE_KERNEL_S / kernel``. The result
reads as seconds on a host where the kernel takes ``REFERENCE_KERNEL_S``; the
raw seconds are reported beside it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass

from hdqda.errors import HdqdaError

# Median kernel time on the host the benchmark was defined on (2-core Xeon at
# 2.1 GHz, scipy-openblas 0.3.31, one BLAS thread).
REFERENCE_KERNEL_S = 0.0025


@dataclass
class Op:
    kind: str
    label: str
    start: float
    seconds: float
    error: str | None = None
    scale: float = 1.0

    def fail(self, reason: str) -> None:
        if self.error is None:
            self.error = reason

    @property
    def normalized(self) -> float:
        return self.seconds * self.scale


class Calibrator:
    """Times a fixed kernel like the program's: a Cholesky, a GEMM and a reduction."""

    INTERVAL_S = 0.25
    WINDOW_S = 2.0
    REPEATS = 3

    def __init__(self, np, p: int = 300):
        a = np.random.default_rng(12345).standard_normal((p, p))
        self._np = np
        self._matrix = a @ a.T / p + np.eye(p)
        self.when: list[float] = []
        self.kernel: list[float] = []

    def _kernel(self) -> None:
        np, s = self._np, self._matrix
        np.linalg.cholesky(s)
        product = s @ s
        float(np.sum(product * s))

    def sample(self) -> None:
        # One untimed round first, so the sample measures the host, not how
        # much of the kernel's data the preceding op evicted from cache. Then
        # the mean of a few rounds, not the best: an op pays the host's
        # average slowdown, not its luckiest moment.
        self._kernel()
        start = time.perf_counter()
        for _ in range(self.REPEATS):
            self._kernel()
        self.when.append(time.perf_counter())
        self.kernel.append((self.when[-1] - start) / self.REPEATS)

    def maybe_sample(self) -> None:
        if not self.when or time.perf_counter() - self.when[-1] >= self.INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_KERNEL_S over the median kernel time around ``[start, end]``.

        The samples taken within ``WINDOW_S`` of the op count, and always the
        last one before it and the first one after it.
        """
        lo = min(bisect.bisect_left(self.when, start - self.WINDOW_S), max(bisect.bisect_right(self.when, start) - 1, 0))
        hi = max(bisect.bisect_right(self.when, end + self.WINDOW_S), bisect.bisect_left(self.when, end) + 1)
        return REFERENCE_KERNEL_S / statistics.median(self.kernel[lo:hi])


class PassRecorder:
    """Times each op of one pass; under a tracer, also opens the op's root span."""

    def __init__(self, tracer=None, calibrator: Calibrator | None = None):
        self.ops: list[Op] = []
        self._tracer = tracer
        self._calibrator = calibrator

    def run(self, kind: str, label: str, fn):
        if self._calibrator is not None:
            self._calibrator.maybe_sample()
        start = time.perf_counter()
        try:
            if self._tracer is None:
                value = fn()
            else:
                with self._tracer.op(kind, label):
                    value = fn()
        except HdqdaError as exc:
            op = Op(kind, label, start, time.perf_counter() - start, "%s: %s" % (type(exc).__name__, exc))
            self.ops.append(op)
            return op, None
        op = Op(kind, label, start, time.perf_counter() - start)
        self.ops.append(op)
        return op, value

    def skip(self, kind: str, label: str, reason: str) -> None:
        self.ops.append(Op(kind, label, time.perf_counter(), 0.0, reason))

    def finish(self) -> None:
        """Take a closing kernel sample and rescale every op by the samples around it."""
        if self._calibrator is None:
            return
        self._calibrator.sample()
        for op in self.ops:
            op.scale = self._calibrator.scale(op.start, op.start + op.seconds)

    @property
    def raw_seconds(self) -> float:
        return sum(op.seconds for op in self.ops)

    @property
    def normalized_seconds(self) -> float:
        return sum(op.normalized for op in self.ops)
