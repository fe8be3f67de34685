"""Benchmark command line.

Every subcommand renders a single CSV: one metadata comment line (seed and a
hash of the effective configuration), a header row, then data rows. At a fixed
BLAS thread setting, output is byte-identical for a given configuration and
seed regardless of --threads, because each task draws from its own seeded
stream and assembly follows task order, never completion order. The BLAS
library's own thread count (for OpenBLAS, OPENBLAS_NUM_THREADS) is another
matter: it changes the summation order inside matrix products, so estimates
such as g_estimate can differ in their last digits between BLAS settings.

A sweep task is one (scenario, replicate) draw: it forms the draw's moments
and spectral kernel once and takes one tuning candidate per shrinkage value on
them. It then projects each test block once per class onto the kernel's
eigenbasis of that class and scores the whole grid, for both rules, from that
projection in bounded row blocks, forming no resolvent. Threads beyond
scenarios x replicates sit idle. A ``real`` task is one (ratio, split) draw on
the same route: it takes every candidate of its grid on the draw's kernel,
keeps the one with the least estimate, and scores it for both quadratic rules
from one projection per class; only the pooled linear rule is fitted apart.

Exit codes: 0 success, 1 configuration or data-format problem, 2 numerical
failure inside an otherwise valid run.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import click
import numpy as np

from .discriminant import (
    RULE_IMPROVED_RQDA,
    RULE_RLDA,
    RULE_STANDARD_RQDA,
    RULE_TRUE_QDA,
    _grid_scores,
    classify_values,
    empirical_error,
    qda_scores_true,
    rlda_scores,
    rqda_scores,
)
from .errors import CsvFormatError, HdqdaError, InsufficientSamplesError
from .estimation import TrainingSet, fit, fit_pooled
from .ingestion import load_csv, make_imbalanced_split
from .model import MixtureModel, ScenarioConfig, build_mixture, sample_scenario
from .pipeline import ImprovedModel, _canonical, _pick, _reason, _tune, fit_improved
from .rmt import asymptotic_error, eigen_delta_solver, gamma1_theoretical, theta_star_theoretical

# Scenario fields pass through unconverted: ScenarioConfig checks them. The CLI
# sets its own sizes and leaves the rest at ScenarioConfig's defaults; a prior0
# of None means the training ratio n0 / (n0 + n1).
_CLI_SCENARIO = {"p": 200, "n0": 200, "n1": 100, "test0": 2000, "test1": 1000, "prior0": None}
_SCENARIO_KEYS = {
    f.name: (None, _CLI_SCENARIO.get(f.name, f.default)) for f in fields(ScenarioConfig)
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


def _integer(minimum: float = -math.inf):
    """Converter to an int >= ``minimum`` from an integer, a whole float or its
    text; a boolean is not a number."""

    def convert(value) -> int:
        if isinstance(value, bool):
            raise ValueError("expected an integer, got %r" % (value,))
        if not isinstance(value, int):
            value = float(value)
            if not value.is_integer():
                raise ValueError("expected an integer, got %r" % (value,))
        if value < minimum:
            raise ValueError("must be >= %d, got %d" % (minimum, value))
        return int(value)

    return convert


def _positive(value) -> float:
    number = math.nan if isinstance(value, bool) else float(value)
    if not (math.isfinite(number) and number > 0.0):
        raise ValueError("expected a finite number > 0, got %r" % (value,))
    return number


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError("expected true or false, got %r" % (value,))
    return value


def _label(value) -> str | int:
    """A label column name, or a 0-based index when the text is integer-like."""
    text = str(value)
    return int(text) if text.lstrip("-").isdigit() else text


def _list_of(item):
    """A non-empty list from a JSON list or a comma-separated string."""

    def convert(value) -> list:
        if isinstance(value, str):
            value = [piece for piece in value.split(",") if piece.strip()]
        if not isinstance(value, list) or not value:
            raise ValueError("expected a non-empty list, got %r" % (value,))
        return [item(piece) for piece in value]

    return convert


_GRID_BOUNDS = {"grid_min": (_positive, 1e-2), "grid_max": (_positive, 1e2)}
_SWEEP_REPLICATES, _REAL_REPLICATES = 20, 5
_REPLICATE_KEYS = {"replicates": (_integer(1), _SWEEP_REPLICATES), "threads": (_integer(1), 1)}


def _settings(flags: dict, spec: dict) -> dict:
    """Every key of ``spec`` resolved as flag > config file > default.

    ``spec`` maps a key to ``(convert, default)``; a ``None`` converter keeps
    the value as given. A config key outside ``spec``, or a value that fails
    its conversion or range check, exits 1 with a message naming the key.
    """
    cfg = _load_config_file(flags["config_path"])
    unknown = sorted(set(cfg) - set(spec))
    if unknown:
        raise click.ClickException("unknown config keys: %s" % ", ".join(unknown))
    resolved = {}
    for key, (convert, default) in spec.items():
        value = flags.get(key)
        if value is None:
            value = cfg.get(key, default)
        try:
            resolved[key] = value if convert is None else convert(value)
        except (TypeError, ValueError) as exc:
            raise click.ClickException("invalid %s: %s" % (key, exc))
    return resolved


def _grid(settings: dict) -> tuple[np.ndarray, list]:
    """The log-spaced shrinkage grid and its ``[min, max, points]`` record."""
    lo, hi, count = settings["grid_min"], settings["grid_max"], settings["grid_points"]
    if not lo < hi:
        raise click.ClickException("need grid_min < grid_max, got %r and %r" % (lo, hi))
    return np.logspace(np.log10(lo), np.log10(hi), count), [lo, hi, count]


def _scenario_from(settings: dict, **overrides) -> ScenarioConfig:
    values = {key: settings[key] for key in _SCENARIO_KEYS}
    values.update(overrides)
    prior0 = values.pop("prior0")
    try:
        config = ScenarioConfig(**values)
        if prior0 is None:
            prior0 = config.n0 / (config.n0 + config.n1)
        return replace(config, prior0=prior0)
    except ValueError as exc:
        raise click.ClickException("invalid scenario: %s" % (exc,))


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return "%d" % (value,)
    return "%.17g" % (value,)


def _write_csv(seed: int, payload: dict, header: list, rows: list, chosen_gamma0=None) -> None:
    """Write the running subcommand's CSV to its ``--out``: the metadata line,
    its fields in key order (the subcommand's name, ``seed``, a hash of the
    configuration ``payload`` the subcommand ran and, for ``tune``, the
    chosen shrinkage), then the header row and the data rows."""
    import csv as _csv

    context = click.get_current_context()
    canonical = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    meta = {
        "command": context.command.name,
        "seed": seed,
        "config_hash": hashlib.sha256(canonical).hexdigest()[:12],
    }
    if chosen_gamma0 is not None:
        meta["chosen_gamma0"] = "%.17g" % chosen_gamma0

    def emit(handle):
        handle.write("# " + " ".join("%s=%s" % (k, meta[k]) for k in sorted(meta)) + "\n")
        writer = _csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(cell) for cell in row])

    out = context.params["out"]
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


def _draw_totals(data, canonical, spectra, priors, tuned) -> list[tuple[float, float]]:
    """(improved, standard) totals on one draw for each tuning candidate's
    ``(margins, bias)`` in ``tuned``, at its (gamma0, gamma1, theta), both test
    blocks scored for every candidate from one projection per class onto the
    draw's ``spectra`` (:func:`_grid_scores`)."""
    means = tuple(mu for mu, _ in canonical.moments)
    candidates = tuple(zip(*((*margins.gammas, bias.theta_hat) for margins, bias in tuned)))
    blocks = [
        _grid_scores(X, spectra, means, candidates, canonical.priors)
        for X in (data.test0, data.test1)
    ]
    label_map = np.asarray(canonical.label_map)
    # The standard rule's scores with positive favoring the scenario's class 0.
    sign = 1.0 if canonical.label_map == (0, 1) else -1.0
    totals = []
    for j in range(len(tuned)):
        labels0, labels1 = (label_map[classify_values(scores[:, j])] for scores, _ in blocks)
        improved = priors[0] * float(np.mean(labels0 != 0)) + priors[1] * float(np.mean(labels1 != 1))
        standard = empirical_error(*(sign * scores[:, j] for _, scores in blocks), priors)
        totals.append((improved, standard.total))
    return totals


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
    into the configuration code instead, set on the error before click's
    ``main`` reports it. A subcommand raises package errors as they come;
    :meth:`invoke` maps them for every subcommand alike.
    """

    def make_context(self, *args, **extra):
        try:
            return super().make_context(*args, **extra)
        except click.UsageError as exc:
            exc.exit_code = 1
            raise

    def invoke(self, ctx):
        """A usage, data-format or sample-count error exits 1; any other
        package error is a numerical failure, reported on stderr, and exits 2."""
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = 1
            raise
        except (CsvFormatError, InsufficientSamplesError) as exc:
            raise click.ClickException(str(exc)) from exc
        except HdqdaError as exc:
            click.echo("numerical failure: %s" % _reason(exc), err=True)
            raise click.exceptions.Exit(2) from exc


@click.group(cls=_ExitCodeGroup)
def main() -> None:
    """Desk-scale benchmarks for the imbalance-aware quadratic classifier."""


_common = [
    click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None, help="JSON config file; flags override its values."),
    click.option("--seed", type=int, default=None, help="Master seed (overrides config)."),
    click.option("--out", type=str, default="-", show_default=True, help="Output CSV path, '-' for stdout."),
]


def _replicated(replicates: int) -> list:
    """``--replicates``, documented with the subcommand's default, and ``--threads``."""
    return [
        click.option("--replicates", type=int, default=None, help="Training replicates to average (default %d)." % replicates),
        click.option("--threads", type=int, default=None, help="Worker threads (default 1). A task is one training draw that runs its whole shrinkage grid: a (scenario, replicate) pair in a sweep, a (ratio, split) pair in real; threads beyond their count sit idle. Output bytes do not depend on this; they can differ in the last digits between BLAS thread settings."),
    ]


def _with(options):
    def decorate(command):
        for option in reversed(options):
            command = option(command)
        return command

    return decorate


@main.command()
@_with(_common)
@click.option("--gamma0", type=float, default=None, help="Shared shrinkage for the fitted rules (default 1.0).")
def histogram(**flags) -> None:
    """Score samples per rule and true class for one scenario draw."""
    settings = _settings(flags, {**_SCENARIO_KEYS, "gamma0": (_positive, 1.0)})
    scenario = _scenario_from(settings)
    gamma0 = settings["gamma0"]

    model = build_mixture(scenario)
    data = sample_scenario(scenario, model=model)
    train = TrainingSet(X0=data.train0, X1=data.train1)
    priors = (model.prior0, model.prior1)
    shared = fit(train, gamma0, gamma0)
    improved = fit_improved(train, gamma0, priors=priors)
    pooled = fit_pooled(train, gamma0)

    blocks = {
        RULE_TRUE_QDA: (qda_scores_true(data.test0, model), qda_scores_true(data.test1, model)),
        RULE_STANDARD_RQDA: (
            rqda_scores(data.test0, shared, priors),
            rqda_scores(data.test1, shared, priors),
        ),
        RULE_IMPROVED_RQDA: (
            _oriented_scores(improved, data.test0),
            _oriented_scores(improved, data.test1),
        ),
        RULE_RLDA: (
            rlda_scores(data.test0, pooled, priors),
            rlda_scores(data.test1, pooled, priors),
        ),
    }

    rows = []
    for rule, pair in blocks.items():
        for true_class, scores in zip((0, 1), pair):
            rows.extend([rule, true_class, value] for value in scores)
    payload = {"scenario": scenario.to_json(), "gamma0": gamma0}
    _write_csv(scenario.seed, payload, ["rule", "true_class", "score"], rows)


def _replicate_outcomes(config, model, gammas: list, replicate: int) -> list:
    """One sweep task: draw ``replicate``, form its moments and kernel once and
    take each value in ``gammas`` as a tuning candidate on them
    (:func:`~hdqda.pipeline._tune`), then score every candidate that succeeds
    on the draw at once (:func:`_draw_totals`). Returns an ``("ok", totals)``
    or ``("fail", reason)`` outcome per value; a failure before them is each one's."""
    priors = (model.prior0, model.prior1)
    try:
        data = sample_scenario(config, model=model, replicate=replicate)
        canonical, spectra = _canonical(TrainingSet(X0=data.train0, X1=data.train1), priors)
    except HdqdaError as exc:
        return [("fail", _reason(exc))] * len(gammas)
    entries, kept = _tune(canonical, gammas)
    outcomes = [("fail", entry.failure) for entry in entries]
    if kept:
        totals = _draw_totals(data, canonical, spectra, priors, list(kept.values()))
        for slot, (improved, standard) in zip(kept, totals):
            outcomes[slot] = ("ok", (improved, standard, entries[slot].total_hat))
    return outcomes


_SWEEP_HEADER = ["empirical_std_rqda", "empirical_improved", "theorem1", "g_estimate", "failure"]


def _sweep_rows(points: list, replicates: int, threads: int) -> list[list]:
    """The shared core of the sweeps: one row per ``(label, scenario, gamma0)`` point.

    One task per (scenario, replicate) runs through :func:`_run_tasks`: it draws
    the replicate once and evaluates every gamma0 of that scenario on the draw
    (:func:`_replicate_outcomes`). Each point's replicates fold through
    :func:`_aggregate`, and a failed limiting-error evaluation is appended to
    the point's failure text.
    """
    grids: dict[ScenarioConfig, list] = {}
    slots = []  # each point's position in its scenario's grid
    for _, scenario, gamma0 in points:
        grid = grids.setdefault(scenario, [])
        slots.append(len(grid))
        grid.append(gamma0)
    models = {s: build_mixture(s) for s in grids}
    tasks = [
        (lambda s=scenario, r=r: _replicate_outcomes(s, models[s], grids[s], r))
        for scenario in grids
        for r in range(replicates)
    ]
    outcomes = iter(_run_tasks(tasks, threads))
    draws = {s: [next(outcomes) for _ in range(replicates)] for s in grids}
    rows = []
    for (label, scenario, gamma0), slot in zip(points, slots):
        improved, standard, estimate, failure = _aggregate([draw[slot] for draw in draws[scenario]])
        theory = None
        if improved is not None:
            try:
                theory = _theory_total(models[scenario], scenario.n0, scenario.n1, float(gamma0))
            except HdqdaError as exc:
                failure = (failure + "; " if failure else "") + "theory: %s" % (exc,)
        rows.append([label, standard, improved, theory, estimate, failure])
    return rows


@main.command(name="sweep-gamma")
@_with(_common + _replicated(_SWEEP_REPLICATES))
@click.option("--grid-min", type=float, default=None, help="Smallest shrinkage candidate (default 1e-2).")
@click.option("--grid-max", type=float, default=None, help="Largest shrinkage candidate (default 1e2).")
@click.option("--grid-points", type=int, default=None, help="Grid size (default 10).")
def sweep_gamma(**flags) -> None:
    """Error versus minority shrinkage: empirical, limiting, and estimated."""
    settings = _settings(
        flags, {**_SCENARIO_KEYS, **_REPLICATE_KEYS, **_GRID_BOUNDS, "grid_points": (_integer(1), 10)}
    )
    scenario = _scenario_from(settings)
    grid, bounds = _grid(settings)
    replicates = settings["replicates"]
    rows = _sweep_rows([(float(g), scenario, g) for g in grid], replicates, settings["threads"])
    payload = {"scenario": scenario.to_json(), "grid": bounds, "replicates": replicates}
    _write_csv(scenario.seed, payload, ["gamma0", *_SWEEP_HEADER], rows)


@main.command(name="sweep-p")
@_with(_common + _replicated(_SWEEP_REPLICATES))
@click.option("--gamma0", type=float, default=None, help="Minority shrinkage (default 1.0).")
@click.option("--p-list", type=str, default=None, help="Comma-separated dimensions (default 100,200,400).")
def sweep_p(**flags) -> None:
    """Error versus dimension at fixed sample ratios n0=p, n1=p/2."""
    settings = _settings(
        flags,
        {
            **_SCENARIO_KEYS,
            **_REPLICATE_KEYS,
            "gamma0": (_positive, 1.0),
            "p_list": (_list_of(_integer(4)), [100, 200, 400]),  # p >= 4 keeps n1 = p/2 >= 2
        },
    )
    base = _scenario_from(settings)
    dims = sorted(settings["p_list"])
    gamma0, replicates = settings["gamma0"], settings["replicates"]
    points = [(p, _scenario_from(settings, p=p, n0=p, n1=p // 2), gamma0) for p in dims]
    rows = _sweep_rows(points, replicates, settings["threads"])
    payload = {"scenario": base.to_json(), "gamma0": gamma0, "p_list": dims, "replicates": replicates}
    _write_csv(base.seed, payload, ["p", *_SWEEP_HEADER], rows)


def _real_split_totals(ds, class_a, class_b, ratio, n1, grid, split_seed):
    split = make_imbalanced_split(ds, class_a, class_b, ratio, n1, seed=split_seed)
    if split.test0.shape[0] == 0 or split.test1.shape[0] == 0:
        raise InsufficientSamplesError(
            "ratio %r leaves no test rows for one class" % (ratio,)
        )
    train = split.train
    priors = (train.n0 / train.n, train.n1 / train.n)
    canonical, spectra = _canonical(train, priors)
    margins, bias = _pick(*_tune(canonical, grid))
    [(improved, standard)] = _draw_totals(split, canonical, spectra, priors, [(margins, bias)])
    pooled = fit_pooled(train, margins.gammas[0])
    linear = empirical_error(
        rlda_scores(split.test0, pooled, priors),
        rlda_scores(split.test1, pooled, priors),
        priors,
    )
    return improved, standard, linear.total


@main.command()
@_with(_common + _replicated(_REAL_REPLICATES))
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False))
@click.option("--label-column", type=str, default=None, help="Label column name, or 0-based index if integer-like.")
@click.option("--class-a", type=int, default=None, help="Label becoming class 0 (default 0).")
@click.option("--class-b", type=int, default=None, help="Label becoming class 1 (default 1).")
@click.option("--ratios", type=str, default=None, help="Comma-separated n0/n1 ratios (default 0.25,0.5,1.0).")
@click.option("--n1", type=int, default=None, help="Class-1 training count per split (default 100).")
@click.option("--standardize", is_flag=True, default=None, help="Standardize features over the full file.")
def real(**flags) -> None:
    """Imbalance protocol on a CSV dataset, averaged over split seeds."""
    settings = _settings(
        flags,
        {
            "seed": (_integer(0), 0),
            **_REPLICATE_KEYS,
            "replicates": (_integer(1), _REAL_REPLICATES),
            "label_column": (_label, "0"),
            "class_a": (_integer(), 0),
            "class_b": (_integer(), 1),
            "ratios": (_list_of(_positive), [0.25, 0.5, 1.0]),
            "n1": (_integer(2), 100),
            "standardize": (_boolean, False),
            **_GRID_BOUNDS,
            "grid_points": (_integer(1), 25),
        },
    )
    seed, replicates = settings["seed"], settings["replicates"]
    label, class_a, class_b = settings["label_column"], settings["class_a"], settings["class_b"]
    n1, standardize = settings["n1"], settings["standardize"]
    ratios = sorted(settings["ratios"])
    grid, bounds = _grid(settings)
    dataset = flags["dataset"]
    if class_a == class_b:
        raise click.ClickException("class_a and class_b must differ, got %d twice" % (class_a,))

    try:
        ds = load_csv(dataset, label, standardize=standardize)
        for cls in (class_a, class_b):
            ds.class_indices(cls)
    except (CsvFormatError, InsufficientSamplesError, ValueError) as exc:
        raise click.ClickException("%s: %s" % (dataset, exc))

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
    totals = _run_tasks(tasks, settings["threads"])

    rows = []
    for ratio_index, ratio in enumerate(ratios):
        chunk = totals[ratio_index * replicates : (ratio_index + 1) * replicates]
        stacked = np.asarray(chunk)
        for column, method in enumerate((RULE_IMPROVED_RQDA, RULE_STANDARD_RQDA, RULE_RLDA)):
            rows.append([ratio, method, float(stacked[:, column].mean())])
    payload = {
        "dataset": str(dataset),
        "label": label,
        "classes": [class_a, class_b],
        "ratios": ratios,
        "n1": n1,
        "standardize": standardize,
        "replicates": replicates,
        "grid": bounds,
    }
    _write_csv(seed, payload, ["ratio", "method", "error"], rows)


@main.command()
@_with(_common)
def tune(**flags) -> None:
    """Shrinkage tuning trace for one synthetic training draw."""
    settings = _settings(flags, {**_SCENARIO_KEYS, **_GRID_BOUNDS, "grid_points": (_integer(1), 25)})
    scenario = _scenario_from(settings)
    grid, bounds = _grid(settings)

    model = build_mixture(scenario)
    data = sample_scenario(scenario, model=model)
    train = TrainingSet(X0=data.train0, X1=data.train1)
    tuned = fit_improved(train, None, priors=(model.prior0, model.prior1), grid=grid)

    rows = [[entry.gamma0, entry.total_hat, entry.failure] for entry in tuned.trace]
    payload = {"scenario": scenario.to_json(), "grid": bounds}
    _write_csv(
        scenario.seed, payload, ["gamma0", "total_hat", "failure"], rows, chosen_gamma0=tuned.fit.gamma0
    )


if __name__ == "__main__":
    main()
