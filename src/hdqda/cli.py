"""Benchmark command line.

Every subcommand renders a single CSV: one metadata comment line (seed and a
hash of the effective configuration), a header row, then data rows. At a fixed
BLAS thread setting, output is byte-identical for a given configuration and
seed regardless of --threads, because each task draws from its own seeded
stream and assembly follows task order, never completion order. The BLAS
library's own thread count (for OpenBLAS, OPENBLAS_NUM_THREADS) is another
matter: it changes the summation order inside matrix products, so estimates
such as g_estimate can differ in their last digits between BLAS settings.

Exit codes: 0 success, 1 configuration or data-format problem, 2 numerical
failure inside an otherwise valid run.
"""

from __future__ import annotations

import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click
import numpy as np

from .discriminant import (
    ErrorReport,
    empirical_error,
    qda_scores_true,
    rlda_scores,
    rqda_scores,
)
from .errors import CsvFormatError, HdqdaError, InsufficientSamplesError
from .estimation import TrainingSet, fit, fit_pooled
from .gestim import g_estimator_error
from .ingestion import load_csv, make_imbalanced_split
from .model import _CONFIG_FIELDS, MixtureModel, ScenarioConfig, build_mixture, sample_scenario
from .pipeline import ImprovedModel, default_grid, fit_improved
from .rmt import asymptotic_error, eigen_delta_solver, gamma1_theoretical, theta_star_theoretical

_SCENARIO_DEFAULTS = {
    "p": 200,
    "n0": 200,
    "n1": 100,
    "test0": 2000,
    "test1": 1000,
    "base_scale": 4.0,
    "spike_strength": 3.0,
    "spike_rank": None,
    "mean_offset": 3.0,
    "prior0": None,
    "seed": 0,
}


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise click.ClickException("cannot read config %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise click.ClickException("config %s is not valid JSON: %s" % (path, exc))
    if not isinstance(data, dict):
        raise click.ClickException("config %s must hold a JSON object" % (path,))
    return data


def _check_known_keys(cfg: dict, allowed: set[str]) -> None:
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise click.ClickException("unknown config keys: %s" % ", ".join(unknown))


def _scenario_from(cfg: dict, seed: int | None, overrides: dict | None = None) -> ScenarioConfig:
    values = dict(_SCENARIO_DEFAULTS)
    for key in _CONFIG_FIELDS:
        if key in cfg:
            values[key] = cfg[key]
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    if seed is not None:
        values["seed"] = seed
    if values["prior0"] is None:
        values["prior0"] = values["n0"] / (values["n0"] + values["n1"])
    try:
        return ScenarioConfig(**values)
    except (TypeError, ValueError) as exc:
        raise click.ClickException("invalid scenario: %s" % (exc,))


def _config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return "%d" % (value,)
    return "%.17g" % (value,)


def _write_csv(out: str, meta: dict, header: list[str], rows: list[list]) -> None:
    import csv as _csv

    def emit(handle):
        handle.write("# " + " ".join("%s=%s" % (k, meta[k]) for k in sorted(meta)) + "\n")
        writer = _csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(cell) for cell in row])

    if out == "-":
        emit(sys.stdout)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            emit(handle)


def _run_tasks(tasks, threads: int) -> list:
    if threads <= 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(task) for task in tasks]
        return [future.result() for future in futures]


def _parse_float_list(text: str, what: str) -> list[float]:
    parts = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not parts:
        raise click.UsageError("%s list is empty" % (what,))
    try:
        return [float(piece) for piece in parts]
    except ValueError as exc:
        raise click.UsageError("bad %s list %r: %s" % (what, text, exc))


def _parse_int_list(text: str, what: str) -> list[int]:
    return [int(round(v)) for v in _parse_float_list(text, what)]


def _error_from_labels(pred0, pred1, priors) -> ErrorReport:
    eps0 = float(np.mean(np.asarray(pred0) != 0))
    eps1 = float(np.mean(np.asarray(pred1) != 1))
    return ErrorReport(
        eps0=eps0,
        eps1=eps1,
        total=priors[0] * eps0 + priors[1] * eps1,
        n_test0=len(pred0),
        n_test1=len(pred1),
    )


def _oriented_scores(model: ImprovedModel, X) -> np.ndarray:
    """Improved-rule scores with positive always favoring the caller's class 0."""
    values = model.decision_values(X)
    return -values if model.label_map == (1, 0) else values


def _theory_total(model: MixtureModel, n0: int, n1: int, gamma0: float) -> float:
    """Limiting total error at the fully theoretical design for this scenario."""
    if n1 >= n0:
        canonical, c0, c1 = model, n0, n1
    else:
        canonical, c0, c1 = model.swapped(), n1, n0
    delta0 = eigen_delta_solver(canonical.class0.spectrum[0], c0, gamma0)
    gamma1 = gamma1_theoretical(
        canonical.class0.covariance, c0, c1, gamma0, delta0=delta0
    )
    design = theta_star_theoretical(canonical, c0, c1, gamma0, gamma1)
    return asymptotic_error(canonical, c0, c1, gamma0, gamma1, design.theta_star).total


def _replicate_totals(
    config: ScenarioConfig, model: MixtureModel, gamma0: float, replicate: int
) -> tuple[float, float, float]:
    """(improved, standard, training-only estimate) totals for one replicate."""
    data = sample_scenario(config, model=model, replicate=replicate)
    train = TrainingSet(X0=data.train0, X1=data.train1)
    priors = (model.prior0, model.prior1)

    improved = fit_improved(train, gamma0, priors=priors)
    report = _error_from_labels(
        improved.predict(data.test0), improved.predict(data.test1), priors
    )

    shared = fit(train, gamma0, gamma0)
    standard = empirical_error(
        rqda_scores(data.test0, shared, priors),
        rqda_scores(data.test1, shared, priors),
        priors,
    )
    estimate = g_estimator_error(improved.fit, improved.theta, improved.priors)
    return report.total, standard.total, estimate.total_hat


def _aggregate(outcomes: list) -> tuple[float | None, float | None, float | None, str | None]:
    """Average per-replicate totals, folding failures into one reason string."""
    good = [values for status, values in outcomes if status == "ok"]
    bad = [values for status, values in outcomes if status == "fail"]
    failure = None
    if bad:
        failure = "%d/%d replicates failed; first: %s" % (
            len(bad),
            len(outcomes),
            bad[0],
        )
    if not good:
        return None, None, None, failure
    stacked = np.asarray(good)
    means = stacked.mean(axis=0)
    return float(means[0]), float(means[1]), float(means[2]), failure


class _ExitCodeGroup(click.Group):
    """Exit-code discipline: usage and configuration problems are 1, not 2.

    Click reserves 2 for usage errors, but this tool's contract gives 2 to
    numerical failures inside an otherwise valid run, so usage errors fold
    into the configuration code instead.
    """

    def main(self, *args, standalone_mode=True, **extra):
        if not standalone_mode:
            return super().main(*args, standalone_mode=False, **extra)
        try:
            # Non-standalone click returns ctx.exit codes instead of raising.
            result = super().main(*args, standalone_mode=False, **extra)
        except click.exceptions.Abort:
            click.echo("Aborted!", err=True)
            sys.exit(1)
        except click.UsageError as exc:
            exc.show()
            sys.exit(1)
        except click.ClickException as exc:
            exc.show()
            sys.exit(exc.exit_code)
        if isinstance(result, int) and result != 0:
            sys.exit(result)
        return result


@click.group(cls=_ExitCodeGroup)
def main() -> None:
    """Desk-scale benchmarks for the imbalance-aware quadratic classifier."""


_common = [
    click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None, help="JSON config file; flags override its values."),
    click.option("--seed", type=int, default=None, help="Master seed (overrides config)."),
    click.option("--out", type=str, default="-", show_default=True, help="Output CSV path, '-' for stdout."),
]
_replicated = [
    click.option("--replicates", type=int, default=None, help="Training replicates to average (default 20)."),
    click.option("--threads", type=int, default=None, help="Worker threads (default 1). Output bytes do not depend on this; they can differ in the last digits between BLAS thread settings."),
]


def _with(options):
    def decorate(command):
        for option in reversed(options):
            command = option(command)
        return command

    return decorate


def _resolve_int(flag: int | None, cfg: dict, key: str, fallback: int) -> int:
    if flag is not None:
        return flag
    value = cfg.get(key, fallback)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise click.ClickException("config key %r must be an integer" % (key,))


def _numerical_failure(exc: HdqdaError) -> "click.exceptions.Exit":
    click.echo("numerical failure: %s: %s" % (type(exc).__name__, exc), err=True)
    return click.exceptions.Exit(2)


@main.command()
@_with(_common)
@click.option("--gamma0", type=float, default=None, help="Shared shrinkage for the fitted rules (default 1.0).")
def histogram(config_path, seed, out, gamma0) -> None:
    """Score samples per rule and true class for one scenario draw."""
    cfg = _load_config_file(config_path)
    _check_known_keys(cfg, set(_CONFIG_FIELDS) | {"gamma0"})
    scenario = _scenario_from(cfg, seed)
    if gamma0 is None:
        gamma0 = float(cfg.get("gamma0", 1.0))
    if gamma0 <= 0.0:
        raise click.ClickException("gamma0 must be strictly positive")

    try:
        model = build_mixture(scenario)
        data = sample_scenario(scenario, model=model)
        train = TrainingSet(X0=data.train0, X1=data.train1)
        priors = (model.prior0, model.prior1)
        shared = fit(train, gamma0, gamma0)
        improved = fit_improved(train, gamma0, priors=priors)
        pooled = fit_pooled(train, gamma0)

        blocks = {
            "true-qda": (qda_scores_true(data.test0, model), qda_scores_true(data.test1, model)),
            "standard-rqda": (
                rqda_scores(data.test0, shared, priors),
                rqda_scores(data.test1, shared, priors),
            ),
            "improved-rqda": (
                _oriented_scores(improved, data.test0),
                _oriented_scores(improved, data.test1),
            ),
            "rlda": (
                rlda_scores(data.test0, pooled, priors),
                rlda_scores(data.test1, pooled, priors),
            ),
        }
    except (CsvFormatError, InsufficientSamplesError) as exc:
        raise click.ClickException(str(exc))
    except HdqdaError as exc:
        raise _numerical_failure(exc)

    rows = []
    for rule in ("true-qda", "standard-rqda", "improved-rqda", "rlda"):
        for true_class, scores in zip((0, 1), blocks[rule]):
            rows.extend([rule, true_class, value] for value in scores)
    meta = {
        "command": "histogram",
        "seed": scenario.seed,
        "config_hash": _config_hash({"scenario": scenario.to_json(), "gamma0": gamma0}),
    }
    _write_csv(out, meta, ["rule", "true_class", "score"], rows)


def _sweep_outcome(config, model, gamma0, replicate):
    try:
        return "ok", _replicate_totals(config, model, gamma0, replicate)
    except HdqdaError as exc:
        return "fail", "%s: %s" % (type(exc).__name__, exc)


@main.command(name="sweep-gamma")
@_with(_common + _replicated)
@click.option("--grid-min", type=float, default=None, help="Smallest shrinkage candidate (default 1e-2).")
@click.option("--grid-max", type=float, default=None, help="Largest shrinkage candidate (default 1e2).")
@click.option("--grid-points", type=int, default=None, help="Grid size (default 10).")
def sweep_gamma(config_path, seed, out, replicates, threads, grid_min, grid_max, grid_points) -> None:
    """Error versus minority shrinkage: empirical, limiting, and estimated."""
    cfg = _load_config_file(config_path)
    _check_known_keys(
        cfg,
        set(_CONFIG_FIELDS) | {"grid_min", "grid_max", "grid_points", "replicates", "threads"},
    )
    scenario = _scenario_from(cfg, seed)
    replicates = _resolve_int(replicates, cfg, "replicates", 20)
    threads = _resolve_int(threads, cfg, "threads", 1)
    lo = grid_min if grid_min is not None else float(cfg.get("grid_min", 1e-2))
    hi = grid_max if grid_max is not None else float(cfg.get("grid_max", 1e2))
    count = grid_points if grid_points is not None else int(cfg.get("grid_points", 10))
    if not 0.0 < lo < hi:
        raise click.ClickException("need 0 < grid-min < grid-max")
    if count < 1 or replicates < 1:
        raise click.ClickException("grid points and replicates must be >= 1")
    grid = np.logspace(np.log10(lo), np.log10(hi), count)

    model = build_mixture(scenario)
    tasks = [
        (lambda g=g, r=r: _sweep_outcome(scenario, model, g, r))
        for g in grid
        for r in range(replicates)
    ]
    try:
        outcomes = _run_tasks(tasks, threads)
    except HdqdaError as exc:
        raise _numerical_failure(exc)

    rows = []
    for index, gamma0 in enumerate(grid):
        chunk = outcomes[index * replicates : (index + 1) * replicates]
        improved, standard, estimate, failure = _aggregate(chunk)
        theory = None
        if improved is not None:
            try:
                theory = _theory_total(model, scenario.n0, scenario.n1, float(gamma0))
            except HdqdaError as exc:
                failure = (failure + "; " if failure else "") + "theory: %s" % (exc,)
        rows.append([float(gamma0), standard, improved, theory, estimate, failure])
    meta = {
        "command": "sweep-gamma",
        "seed": scenario.seed,
        "config_hash": _config_hash(
            {
                "scenario": scenario.to_json(),
                "grid": [lo, hi, count],
                "replicates": replicates,
            }
        ),
    }
    _write_csv(
        out,
        meta,
        ["gamma0", "empirical_std_rqda", "empirical_improved", "theorem1", "g_estimate", "failure"],
        rows,
    )


@main.command(name="sweep-p")
@_with(_common + _replicated)
@click.option("--gamma0", type=float, default=None, help="Minority shrinkage (default 1.0).")
@click.option("--p-list", "p_list_text", type=str, default=None, help="Comma-separated dimensions (default 100,200,400).")
def sweep_p(config_path, seed, out, replicates, threads, gamma0, p_list_text) -> None:
    """Error versus dimension at fixed sample ratios n0=p, n1=p/2."""
    cfg = _load_config_file(config_path)
    _check_known_keys(
        cfg, set(_CONFIG_FIELDS) | {"gamma0", "p_list", "replicates", "threads"}
    )
    replicates = _resolve_int(replicates, cfg, "replicates", 20)
    threads = _resolve_int(threads, cfg, "threads", 1)
    if gamma0 is None:
        gamma0 = float(cfg.get("gamma0", 1.0))
    if gamma0 <= 0.0:
        raise click.ClickException("gamma0 must be strictly positive")
    if p_list_text is not None:
        dims = _parse_int_list(p_list_text, "p")
    else:
        raw = cfg.get("p_list", [100, 200, 400])
        dims = [int(v) for v in raw] if isinstance(raw, list) else _parse_int_list(str(raw), "p")
    if replicates < 1:
        raise click.ClickException("replicates must be >= 1")
    dims = sorted(dims)
    if any(d < 4 for d in dims):
        raise click.ClickException("each dimension must be >= 4 so n1 = p/2 >= 2")

    rows = []
    for p in dims:
        scenario = _scenario_from(
            cfg, seed, overrides={"p": p, "n0": p, "n1": p // 2, "prior0": None}
        )
        model = build_mixture(scenario)
        tasks = [
            (lambda s=scenario, m=model, r=r: _sweep_outcome(s, m, gamma0, r))
            for r in range(replicates)
        ]
        outcomes = _run_tasks(tasks, threads)
        improved, standard, estimate, failure = _aggregate(outcomes)
        theory = None
        if improved is not None:
            try:
                theory = _theory_total(model, scenario.n0, scenario.n1, gamma0)
            except HdqdaError as exc:
                failure = (failure + "; " if failure else "") + "theory: %s" % (exc,)
        rows.append([p, standard, improved, theory, estimate, failure])

    base = _scenario_from(cfg, seed)
    meta = {
        "command": "sweep-p",
        "seed": base.seed,
        "config_hash": _config_hash(
            {
                "scenario": base.to_json(),
                "gamma0": gamma0,
                "p_list": dims,
                "replicates": replicates,
            }
        ),
    }
    _write_csv(
        out,
        meta,
        ["p", "empirical_std_rqda", "empirical_improved", "theorem1", "g_estimate", "failure"],
        rows,
    )


def _real_split_totals(ds, class_a, class_b, ratio, n1, grid, split_seed):
    split = make_imbalanced_split(ds, class_a, class_b, ratio, n1, seed=split_seed)
    if split.test0.shape[0] == 0 or split.test1.shape[0] == 0:
        raise InsufficientSamplesError(
            "ratio %r leaves no test rows for one class" % (ratio,)
        )
    train = split.train
    priors = (train.n0 / train.n, train.n1 / train.n)
    improved = fit_improved(train, None, priors=priors, grid=grid)
    report = _error_from_labels(
        improved.predict(split.test0), improved.predict(split.test1), priors
    )
    tuned_gamma = improved.fit.gamma0
    shared = fit(train, tuned_gamma, tuned_gamma)
    standard = empirical_error(
        rqda_scores(split.test0, shared, priors),
        rqda_scores(split.test1, shared, priors),
        priors,
    )
    pooled = fit_pooled(train, tuned_gamma)
    linear = empirical_error(
        rlda_scores(split.test0, pooled, priors),
        rlda_scores(split.test1, pooled, priors),
        priors,
    )
    return report.total, standard.total, linear.total


@main.command()
@_with(_common + _replicated)
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False))
@click.option("--label-column", type=str, default=None, help="Label column name, or 0-based index if integer-like.")
@click.option("--class-a", type=int, default=None, help="Label becoming class 0 (default 0).")
@click.option("--class-b", type=int, default=None, help="Label becoming class 1 (default 1).")
@click.option("--ratios", "ratios_text", type=str, default=None, help="Comma-separated n0/n1 ratios (default 0.25,0.5,1.0).")
@click.option("--n1", type=int, default=None, help="Class-1 training count per split (default 100).")
@click.option("--standardize", is_flag=True, default=False, help="Standardize features over the full file.")
def real(config_path, seed, out, replicates, threads, dataset, label_column, class_a, class_b, ratios_text, n1, standardize) -> None:
    """Imbalance protocol on a CSV dataset, averaged over split seeds."""
    cfg = _load_config_file(config_path)
    _check_known_keys(
        cfg,
        {
            "label_column",
            "class_a",
            "class_b",
            "ratios",
            "n1",
            "standardize",
            "grid_min",
            "grid_max",
            "grid_points",
            "replicates",
            "threads",
            "seed",
        },
    )
    if seed is None:
        seed = int(cfg.get("seed", 0))
    replicates = _resolve_int(replicates, cfg, "replicates", 5)
    threads = _resolve_int(threads, cfg, "threads", 1)
    if label_column is None:
        label_column = str(cfg.get("label_column", "0"))
    label: str | int = int(label_column) if label_column.lstrip("-").isdigit() else label_column
    class_a = class_a if class_a is not None else int(cfg.get("class_a", 0))
    class_b = class_b if class_b is not None else int(cfg.get("class_b", 1))
    n1 = n1 if n1 is not None else int(cfg.get("n1", 100))
    if ratios_text is not None:
        ratios = _parse_float_list(ratios_text, "ratio")
    else:
        raw = cfg.get("ratios", [0.25, 0.5, 1.0])
        if isinstance(raw, list):
            ratios = [float(v) for v in raw]
        else:
            ratios = _parse_float_list(str(raw), "ratio")
    if not ratios:
        raise click.UsageError("ratio list is empty")
    if replicates < 1:
        raise click.ClickException("replicates must be >= 1")
    grid = None
    if {"grid_min", "grid_max", "grid_points"} & set(cfg):
        lo = float(cfg.get("grid_min", 1e-2))
        hi = float(cfg.get("grid_max", 1e2))
        count = int(cfg.get("grid_points", 25))
        if not 0.0 < lo < hi or count < 1:
            raise click.ClickException("bad tuning grid in config")
        grid = np.logspace(np.log10(lo), np.log10(hi), count)

    try:
        ds = load_csv(dataset, label, standardize=standardize)
    except (CsvFormatError, InsufficientSamplesError) as exc:
        raise click.ClickException("%s: %s" % (dataset, exc))

    ratios = sorted(ratios)
    tasks = []
    for ratio_index, ratio in enumerate(ratios):
        for split in range(replicates):
            split_seed = int(
                np.random.SeedSequence(
                    entropy=[int(seed), ratio_index, split]
                ).generate_state(1, dtype=np.uint64)[0]
            )
            tasks.append(
                lambda r=ratio, s=split_seed: _real_split_totals(
                    ds, class_a, class_b, r, n1, grid, s
                )
            )
    try:
        totals = _run_tasks(tasks, threads)
    except (CsvFormatError, InsufficientSamplesError) as exc:
        raise click.ClickException(str(exc))
    except HdqdaError as exc:
        raise _numerical_failure(exc)

    rows = []
    for ratio_index, ratio in enumerate(ratios):
        chunk = totals[ratio_index * replicates : (ratio_index + 1) * replicates]
        stacked = np.asarray(chunk)
        for column, method in enumerate(("improved-rqda", "standard-rqda", "rlda")):
            rows.append([ratio, method, float(stacked[:, column].mean())])
    meta = {
        "command": "real",
        "seed": seed,
        "config_hash": _config_hash(
            {
                "dataset": str(dataset),
                "label": label,
                "classes": [class_a, class_b],
                "ratios": ratios,
                "n1": n1,
                "standardize": standardize,
                "replicates": replicates,
            }
        ),
    }
    _write_csv(out, meta, ["ratio", "method", "error"], rows)


@main.command()
@_with(_common)
def tune(config_path, seed, out) -> None:
    """Shrinkage tuning trace for one synthetic training draw."""
    cfg = _load_config_file(config_path)
    _check_known_keys(cfg, set(_CONFIG_FIELDS) | {"grid_min", "grid_max", "grid_points"})
    scenario = _scenario_from(cfg, seed)
    lo = float(cfg.get("grid_min", 1e-2))
    hi = float(cfg.get("grid_max", 1e2))
    count = int(cfg.get("grid_points", 25))
    if not 0.0 < lo < hi or count < 1:
        raise click.ClickException("bad tuning grid in config")
    grid = np.logspace(np.log10(lo), np.log10(hi), count)

    try:
        model = build_mixture(scenario)
        data = sample_scenario(scenario, model=model)
        train = TrainingSet(X0=data.train0, X1=data.train1)
        tuned = fit_improved(train, None, priors=(model.prior0, model.prior1), grid=grid)
    except HdqdaError as exc:
        raise _numerical_failure(exc)

    rows = [[entry.gamma0, entry.total_hat, entry.failure] for entry in tuned.trace]
    meta = {
        "command": "tune",
        "seed": scenario.seed,
        "chosen_gamma0": "%.17g" % tuned.fit.gamma0,
        "config_hash": _config_hash(
            {"scenario": scenario.to_json(), "grid": [lo, hi, count]}
        ),
    }
    _write_csv(out, meta, ["gamma0", "total_hat", "failure"], rows)


if __name__ == "__main__":
    main()
