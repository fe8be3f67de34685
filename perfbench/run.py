"""hdqda benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload tune-ladder --seed 0 --seconds 35 --trace 0

Runs from the root of a source checkout and imports hdqda from ``src/``. BLAS
is pinned to one thread before numpy loads. An end-to-end run (``--trace 0``)
sets the inputs up five times, then repeats whole passes of the workload
while the next pass is expected to end within ``--seconds``. A traced run
(``--trace 1``) sets up once and makes one traced pass plus one untraced pass,
whose ratio gives the tracing overhead; its spans go to
``perfbench/out/trace-<workload>-<seed>.json``.

Human-readable lines come first, including extras that only one workload has;
the last line is one JSON object with ``correct``, ``attempted``, ``failed``
and the metrics that BENCHMARK.json names. ``--smoke`` shrinks every
workload to tiny sizes and one pass, to test this code quickly.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
DEFAULT_SEED = 0
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_norm_s": "s",
    "peak_rss_mb": "MB",
}
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import hdqda.cli; print(time.perf_counter() - start)"
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("tune-ladder", "paper-sweep", "dense-theory"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one pass")
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json")
    parser.add_argument(
        "--write-reference", action="store_true",
        help="store this run's checked outputs as the reference for its seed and size",
    )
    return parser.parse_args(argv)


def _pin_blas() -> None:
    if "numpy" in sys.modules:
        raise SystemExit("perfbench: numpy is already imported, so BLAS threads can no longer be pinned")
    for name in PINNED_THREADS:
        os.environ[name] = "1"


def _environment(np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = "%s %s" % (blas.get("name"), blas.get("version"))
    except (AttributeError, KeyError, TypeError):
        vendor = "unknown"
    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": vendor.replace(" ", "_"),
        "nproc": os.cpu_count(),
    }
    env.update({name: os.environ[name] for name in PINNED_THREADS})
    return env


def _quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _run_passes(workload, api, state, seconds: float, single: bool, on_pass, calibrator) -> None:
    """Whole untraced passes while the next one is expected to end within ``seconds``.

    Each pass's outputs go to ``on_pass`` and are dropped before the next pass
    starts, so peak memory does not depend on how many passes fit.
    """
    from timing import PassRecorder

    walls = []
    while True:
        rec = PassRecorder(calibrator=calibrator)
        start = time.perf_counter()
        outputs = workload.run_pass(api, state, rec)
        rec.finish()
        walls.append(time.perf_counter() - start)
        on_pass(rec, outputs)
        del outputs
        if single or sum(walls) + statistics.median(walls) > seconds:
            return


def _import_seconds(src: Path) -> float:
    """Time to import hdqda and its CLI in a fresh interpreter with the pinned environment."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def _load_reference(path: Path, section: str, workload: str, seed: int):
    if seed != DEFAULT_SEED or not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(section, {}).get(workload)


def _store_reference(path: Path, section: str, workload: str, record) -> None:
    data = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {"seed": DEFAULT_SEED}
    data.setdefault(section, {})[workload] = record
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    args = _parse(argv)
    _pin_blas()
    src = ROOT / "src"
    if not (src / "hdqda" / "__init__.py").is_file():
        print("perfbench: no hdqda sources under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy

    from timing import REFERENCE_KERNEL_S, Calibrator, PassRecorder
    from tracing import PER_LAYER_UNITS, Api, Tracer, layer_busy
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.smoke)
    section = "smoke" if args.smoke else "full"
    reference = _load_reference(args.reference, section, args.workload, args.seed)
    print("# perfbench workload=%s seed=%d seconds=%g trace=%d smoke=%d"
          % (args.workload, args.seed, args.seconds, args.trace, args.smoke))
    print("# env " + " ".join("%s=%s" % item for item in _environment(np, scipy).items()))

    calibrator = Calibrator(np)
    ops, passes, errors, extras = [], [], [], {}

    def checked(rec, outputs):
        result = workload.check(outputs, reference)
        ops.extend(rec.ops)
        passes.append((rec.raw_seconds, rec.normalized_seconds))
        errors.extend(result.pop("errors"))
        for key, value in result.items():
            extras.setdefault(key, []).append(value)

    if args.trace:
        tracer = Tracer()
        traced_api = Api(tracer)
        with tracer.op("setup", args.workload):
            state = workload.setup(traced_api, args.seed)
        rec = PassRecorder(tracer, calibrator)
        outputs = workload.run_pass(traced_api, state, rec)
        rec.finish()
        counts = workload.counts(outputs)
        checked(rec, outputs)
        del outputs
        _run_passes(workload, Api(), state, 0.0, True, checked, calibrator)
        metrics = {name: 0 for name in PER_LAYER_UNITS}
        metrics.update(layer_busy(tracer))
        metrics.update(counts)
        metrics["trace_overhead"] = passes[0][1] / passes[1][1] - 1.0
        units = PER_LAYER_UNITS
        trace_path = HERE / "out" / ("trace-%s-%d.json" % (args.workload, args.seed))
        tracer.write(trace_path)
        print("# spans=%d written to %s" % (len(tracer.spans), trace_path.relative_to(ROOT)))
    else:
        repeats = 1 if args.smoke else SETUP_REPEATS
        imports = [_import_seconds(src) for _ in range(repeats)]
        api = Api()
        builds = []
        for _ in range(repeats):
            state = None  # drop the last repeat's inputs before building the next
            start = time.perf_counter()
            state = workload.setup(api, args.seed)
            builds.append(time.perf_counter() - start)
        _run_passes(workload, api, state, args.seconds, args.smoke, checked, calibrator)
        # Kernel samples taken right after the import subprocess ran read up to
        # three times slow, so set-up is rescaled by the whole run's median.
        setup_scale = REFERENCE_KERNEL_S / statistics.median(calibrator.kernel)
        headline = [op for op in ops if op.kind == workload.headline and op.error is None]
        metrics = {
            "setup_s": (statistics.median(imports) + statistics.median(builds)) * setup_scale,
            "wall_norm_s": statistics.median(norm for _, norm in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        print("# setup raw import_s=%s build_s=%s scale=%.4g" % (_fmt(imports), _fmt(builds), setup_scale))
        print("# passes raw_s=%s normalized_s=%s" % (_fmt(raw for raw, _ in passes), _fmt(norm for _, norm in passes)))
        print("# extra wall_s %.6g s (raw, median pass)" % statistics.median(raw for raw, _ in passes))
        if headline:
            print("# extra op_p50_s %.6g s op_p50_norm_s %.6g s (%s ops, n=%d)" % (
                statistics.median(op.seconds for op in headline),
                statistics.median(op.normalized for op in headline), workload.headline, len(headline)))
        if errors:
            print("# extra error_rate %.6g ratio (mean over %d results)" % (statistics.fmean(errors), len(errors)))

    print("# calibration kernel_s median=%.6g n=%d reference=%g"
          % (statistics.median(calibrator.kernel), len(calibrator.kernel), REFERENCE_KERNEL_S))
    failed = [op for op in ops if op.error is not None]
    _report_ops(ops, workload)
    for key, values in extras.items():
        if key != "reference":
            print("# extra %s %s" % (key, values))
    for op in failed[:10]:
        print("# FAILED %s %s: %s" % (op.kind, op.label, op.error))
    print("# fail_ratio %.6g ratio (%d/%d ops)" % (len(failed) / max(len(ops), 1), len(failed), len(ops)))
    for name, value in metrics.items():
        print("metric %s %.6g %s" % (name, value, units[name]))

    if args.write_reference:
        if args.seed != DEFAULT_SEED:
            print("perfbench: references are stored for seed %d only" % DEFAULT_SEED, file=sys.stderr)
            return 2
        _store_reference(args.reference, section, args.workload, extras["reference"][0])

    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _fmt(values) -> str:
    return "[" + ", ".join("%.4g" % v for v in values) + "]"


def _report_ops(ops, workload) -> None:
    """Median raw and normalized time per op kind (per rung on the ladder), with p90 where n >= 100."""
    groups: dict[str, list] = {}
    for op in ops:
        if op.error is None:
            name = "%s_%s_s" % (op.kind, op.label) if workload.per_label else "%s_p50_s" % op.kind
            groups.setdefault(name, []).append(op)
    for name, group in groups.items():
        raw = [op.seconds for op in group]
        line = "# extra %s %.6g s (normalized %.6g s, n=%d)" % (
            name, statistics.median(raw), statistics.median(op.normalized for op in group), len(group))
        if len(group) >= 100:
            line += " p90 %.6g s" % _quantile(raw, 0.9)
        print(line)


if __name__ == "__main__":
    sys.exit(main())
