"""Spans around the benchmark's calls into hdqda, and the per-layer metrics.

A traced run hands the workloads an :class:`Api` whose entry points record one
span per call; an untraced run hands them an :class:`Api` whose entry points
are the hdqda functions themselves, so it never enters this span code. Spans
are recorded only at the benchmark's own call sites: a span covers the whole
hdqda call, and the layer it is charged to is the module that call enters.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

LAYERS = ("model", "estimation", "gestim", "pipeline", "discriminant", "rmt", "cli")


def _entry_points() -> dict[str, tuple[str, object]]:
    """Attribute name -> (span name, callable) for every hdqda call the workloads make."""
    import hdqda
    import hdqda.cli

    return {
        "build_mixture": ("model.build_mixture", hdqda.build_mixture),
        "sample_scenario": ("model.sample_scenario", hdqda.sample_scenario),
        "make_spiked_covariance": ("model.make_spiked_covariance", hdqda.make_spiked_covariance),
        "ClassStatistics": ("model.ClassStatistics", hdqda.ClassStatistics),
        "MixtureModel": ("model.MixtureModel", hdqda.MixtureModel),
        "swapped": ("model.swapped", hdqda.MixtureModel.swapped),
        "TrainingSet": ("estimation.TrainingSet", hdqda.TrainingSet),
        "fit": ("estimation.fit", hdqda.fit),
        "g_estimator_error": ("gestim.g_estimator_error", hdqda.g_estimator_error),
        "fit_improved": ("pipeline.fit_improved", hdqda.fit_improved),
        "predict": ("pipeline.predict", hdqda.ImprovedModel.predict),
        "to_json": ("pipeline.to_json", hdqda.ImprovedModel.to_json),
        "from_json": ("pipeline.from_json", hdqda.ImprovedModel.from_json),
        "rqda_scores": ("discriminant.rqda_scores", hdqda.rqda_scores),
        "empirical_error": ("discriminant.empirical_error", hdqda.empirical_error),
        "solve_delta": ("rmt.solve_delta", hdqda.solve_delta),
        "eigen_delta_solver": ("rmt.eigen_delta_solver", hdqda.eigen_delta_solver),
        "gamma1_theoretical": ("rmt.gamma1_theoretical", hdqda.gamma1_theoretical),
        "theta_star_theoretical": ("rmt.theta_star_theoretical", hdqda.theta_star_theoretical),
        "asymptotic_error": ("rmt.asymptotic_error", hdqda.asymptotic_error),
        "cli_main": ("cli.main", hdqda.cli.main.main),
    }


class Api:
    """The hdqda entry points a workload may call, traced or not."""

    def __init__(self, tracer: "Tracer | None" = None):
        for attr, (span_name, fn) in _entry_points().items():
            setattr(self, attr, fn if tracer is None else tracer.wrap(span_name, fn))


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; :meth:`write` saves them once, at the end of a run.

    Every timed op opens a root span named ``bench.<kind>``; the hdqda calls
    made inside it become its children and carry its op id.
    """

    def __init__(self):
        self.spans: list[Span | None] = []
        self.ops: list[tuple[str, str]] = []
        self._stack: list[int] = []
        self._op: int | None = None

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self._span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def _span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self._op)

    @contextmanager
    def op(self, kind: str, label: str):
        self._op = len(self.ops)
        self.ops.append((kind, label))
        try:
            with self._span("bench." + kind):
                yield
        finally:
            self._op = None

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [span.seconds for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        return own

    def write(self, path) -> None:
        payload = {
            "ops": [{"id": i, "kind": kind, "label": label} for i, (kind, label) in enumerate(self.ops)],
            "spans": [asdict(span) for span in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")


# Per-layer metrics, in output order, with their units. Busy times are span
# self times summed over the set-up and one pass; counts come from the values
# the hdqda calls returned (see each workload's ``counts``).
PER_LAYER_UNITS = {
    "model.build_s": "s",
    "model.sample_s": "s",
    "model.calls": "count",
    "estimation.fit_s": "s",
    "estimation.calls": "count",
    "gestim.estimate_s": "s",
    "gestim.calls": "count",
    "pipeline.fit_tuned_s": "s",
    "pipeline.fit_fixed_s": "s",
    "pipeline.candidates": "count",
    "pipeline.candidate_ok_ratio": "ratio",
    "pipeline.predict_s": "s",
    "pipeline.rows_predicted": "count",
    "pipeline.roundtrip_s": "s",
    "pipeline.model_bytes": "bytes",
    "discriminant.scores_s": "s",
    "discriminant.rows_scored": "count",
    "rmt.self_s": "s",
    "rmt.solve_delta_s": "s",
    "rmt.solve_delta_calls": "count",
    "rmt.solve_delta_sweeps": "count",
    "rmt.theta_star_s": "s",
    "rmt.asymptotic_error_s": "s",
    "rmt.eigen_theory_s": "s",
    "cli.sweep_s": "s",
    "bench.self_s": "s",
    "trace_overhead": "ratio",
}


def layer_busy(tracer: Tracer) -> dict[str, float]:
    """Busy seconds and call counts per layer from the recorded spans."""
    own = tracer.self_times()
    busy = {name: 0.0 for name in PER_LAYER_UNITS if name.endswith("_s")}
    calls = {layer: 0 for layer in LAYERS}
    for span, seconds in zip(tracer.spans, own):
        layer, function = span.name.split(".", 1)
        kind = tracer.ops[span.op][0] if span.op is not None else None
        if layer in calls:
            calls[layer] += 1
        if layer == "bench":
            busy["bench.self_s"] += seconds
            if kind == "theory":
                busy["rmt.eigen_theory_s"] += span.seconds
        elif layer == "model":
            busy["model.sample_s" if function == "sample_scenario" else "model.build_s"] += seconds
        elif layer == "estimation":
            busy["estimation.fit_s"] += seconds
        elif layer == "gestim":
            busy["gestim.estimate_s"] += seconds
        elif layer == "pipeline":
            if function == "fit_improved":
                busy["pipeline.fit_tuned_s" if kind == "fit" else "pipeline.fit_fixed_s"] += seconds
            elif function == "predict":
                busy["pipeline.predict_s"] += seconds
            else:
                busy["pipeline.roundtrip_s"] += seconds
        elif layer == "discriminant":
            busy["discriminant.scores_s"] += seconds
        elif layer == "rmt":
            busy["rmt.self_s"] += seconds
            if function == "solve_delta":
                busy["rmt.solve_delta_s"] += seconds
            elif function == "theta_star_theoretical":
                busy["rmt.theta_star_s"] += seconds
            elif function == "asymptotic_error":
                busy["rmt.asymptotic_error_s"] += seconds
        elif layer == "cli":
            busy["cli.sweep_s"] += seconds
    out: dict[str, float] = dict(busy)
    for layer in ("model", "estimation", "gestim"):
        out[layer + ".calls"] = calls[layer]
    return out
