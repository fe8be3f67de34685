"""The three hdqda benchmark workloads.

Each workload makes its inputs from the seed in ``setup``, runs one pass of
timed ops in ``run_pass`` and checks that pass's outputs in ``check``, outside
the timed ops. Every call into hdqda goes through ``api`` (see
``tracing.Api``). A check that fails, or an op that raises ``HdqdaError``,
marks the op failed; nothing aborts the run.

``smoke=True`` shrinks every workload to tiny sizes so that the benchmark's
own code can be tested in seconds.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import time
from typing import NamedTuple

import numpy as np
from hdqda import ImprovedModel, ScenarioConfig, default_grid, eigen_delta_solver, g_estimator_error
from timing import Op, PassRecorder

# Relative tolerance against stored references: loose enough that a Newton or
# spectral route with different last digits still passes.
REFERENCE_RTOL = 1e-6
# The benchmark's own rows and the CLI's rows come from the same calls on the same
# inputs; this only absorbs a change of summation order.
CLI_RTOL = 1e-9


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * max(abs(ref), 1e-300)


def _label_error(pred0, pred1, priors) -> float:
    return priors[0] * float(np.mean(pred0 != 0)) + priors[1] * float(np.mean(pred1 != 1))


class RungOutput(NamedTuple):
    p: int
    fit_op: Op
    predict_op: Op
    model: ImprovedModel
    nbytes: int
    labels: tuple | None
    test0: np.ndarray
    test1: np.ndarray
    priors: tuple[float, float]


def _roundtrip(api, model):
    payload = api.to_json(model)
    return len(payload), api.from_json(payload)


class TuneLadder:
    """Tuned fit, model file round trip and predict at p = 200 and 400."""

    name = "tune-ladder"
    headline = "fit"
    per_label = True

    def __init__(self, smoke: bool):
        self.dims = (16, 24) if smoke else (200, 400)

    def setup(self, api, seed: int):
        rungs = []
        for p in self.dims:
            config = ScenarioConfig(
                p=p, n0=p // 2, n1=p, test0=2 * p, test1=4 * p,
                base_scale=2.0, spike_strength=8.0, prior0=1.0 / 3.0, seed=seed,
            )
            mixture = api.build_mixture(config)
            data = api.sample_scenario(config, model=mixture)
            train = api.TrainingSet(X0=data.train0, X1=data.train1)
            rungs.append((p, train, data.test0, data.test1, (mixture.prior0, mixture.prior1)))
        return rungs

    def run_pass(self, api, rungs, rec: PassRecorder):
        outputs = []
        for p, train, test0, test1, priors in rungs:
            label = "p%d" % p
            fit_op, model = rec.run("fit", label, lambda: api.fit_improved(train, None))
            if model is None:
                rec.skip("roundtrip", label, "skipped: fit failed")
                rec.skip("predict", label, "skipped: fit failed")
                continue
            _, reloaded = rec.run("roundtrip", label, lambda: _roundtrip(api, model))
            if reloaded is None:
                rec.skip("predict", label, "skipped: round trip failed")
                continue
            nbytes, reloaded = reloaded
            predict_op, labels = rec.run(
                "predict", label, lambda: (api.predict(reloaded, test0), api.predict(reloaded, test1))
            )
            outputs.append(RungOutput(p, fit_op, predict_op, model, nbytes, labels, test0, test1, priors))
        return outputs

    def check(self, outputs, reference) -> dict:
        """Check each rung; return the reference records, held-out errors and extras."""
        records = []
        g_error_seconds = {}
        for rung in outputs:
            model = rung.model
            ok = [entry for entry in model.trace if entry.total_hat is not None]
            best = min(ok, key=lambda entry: entry.total_hat)
            if model.fit.gamma0 != best.gamma0:
                rung.fit_op.fail("check: chosen gamma0 %r is not the trace argmin %r" % (model.fit.gamma0, best.gamma0))
            start = time.perf_counter()
            estimate = g_estimator_error(model.fit, model.theta, model.priors)
            g_error_seconds[rung.p] = time.perf_counter() - start
            if not _close(estimate.total_hat, best.total_hat, CLI_RTOL):
                rung.fit_op.fail(
                    "check: g_estimator_error %r does not reproduce total_hat %r" % (estimate.total_hat, best.total_hat)
                )
            if rung.labels is None:
                continue
            in_memory = (model.predict(rung.test0), model.predict(rung.test1))
            if not all(np.array_equal(a, b) for a, b in zip(in_memory, rung.labels)):
                rung.predict_op.fail("check: reloaded model labels differ from the in-memory model's")
            record = {
                "p": rung.p,
                "gamma0": model.fit.gamma0,
                "gamma1": model.fit.gamma1,
                "theta": model.theta,
                "total_hat": best.total_hat,
                "test_error": _label_error(rung.labels[0], rung.labels[1], rung.priors),
            }
            records.append(record)
            if reference is not None:
                _check_rung(record, reference, rung)
        return {
            "reference": {"rungs": records},
            "errors": [record["test_error"] for record in records],
            "g_estimator_error_s": g_error_seconds,
        }

    def counts(self, outputs) -> dict:
        candidates = sum(len(rung.model.trace) for rung in outputs)
        ok = sum(1 for rung in outputs for entry in rung.model.trace if entry.failure is None)
        return {
            "pipeline.candidates": candidates,
            "pipeline.candidate_ok_ratio": ok / candidates if candidates else 0.0,
            "pipeline.rows_predicted": sum(len(rung.test0) + len(rung.test1) for rung in outputs),
            "pipeline.model_bytes": sum(rung.nbytes for rung in outputs),
        }


def _check_rung(record, reference, rung: RungOutput) -> None:
    ref = next((r for r in reference["rungs"] if r["p"] == record["p"]), None)
    if ref is None:
        rung.fit_op.fail("reference: no stored rung for p=%d" % record["p"])
        return
    if record["gamma0"] != ref["gamma0"]:
        rung.fit_op.fail("reference: gamma0 %r != %r" % (record["gamma0"], ref["gamma0"]))
    for key in ("gamma1", "theta", "total_hat"):
        if not _close(record[key], ref[key], REFERENCE_RTOL):
            rung.fit_op.fail("reference: %s %r != %r" % (key, record[key], ref[key]))
    # Held-out error is a count: allow one row whose score sits on the boundary.
    boundary_row = max(rung.priors[0] / len(rung.test0), rung.priors[1] / len(rung.test1))
    if abs(record["test_error"] - ref["test_error"]) > boundary_row + 1e-12:
        rung.predict_op.fail("reference: test_error %r != %r" % (record["test_error"], ref["test_error"]))


class PaperSweep:
    """The ``hdqda-bench sweep-gamma`` protocol, by its own calls and by the CLI."""

    name = "paper-sweep"
    headline = "task"
    per_label = False

    def __init__(self, smoke: bool):
        self.grid_points, self.replicates = (2, 2) if smoke else (10, 10)

    def setup(self, api, seed: int):
        # The CLI's scenario defaults, spelled out as the CLI computes them.
        config = ScenarioConfig(
            p=200, n0=200, n1=100, test0=2000, test1=1000, base_scale=4.0,
            spike_strength=3.0, spike_rank=None, mean_offset=3.0,
            prior0=200 / (200 + 100), seed=seed,
        )
        mixture = api.build_mixture(config)
        grid = np.logspace(np.log10(1e-2), np.log10(1e2), self.grid_points)
        return config, mixture, grid

    def run_pass(self, api, state, rec: PassRecorder):
        config, mixture, grid = state
        tasks = []
        for gamma0 in grid:
            for replicate in range(self.replicates):
                op, totals = rec.run(
                    "task", "g%.3g/r%d" % (gamma0, replicate),
                    lambda: _replicate_totals(api, config, mixture, float(gamma0), replicate),
                )
                tasks.append((op, totals))
        theory = [
            rec.run("theory", "g%.3g" % gamma0, lambda: _theory_total(api, config, mixture, float(gamma0)))
            for gamma0 in grid
        ]
        args = [
            "sweep-gamma", "--seed", str(config.seed), "--replicates", str(self.replicates),
            "--grid-points", str(self.grid_points), "--threads", "2", "--out", "-",
        ]
        cli = rec.run("cli", "sweep-gamma", lambda: _run_cli(api, args))
        return config, grid, tasks, theory, cli

    def check(self, outputs, reference) -> dict:
        _, grid, tasks, theory, (cli_op, cli_out) = outputs
        rows = []
        for index, gamma0 in enumerate(grid):
            chunk = tasks[index * self.replicates : (index + 1) * self.replicates]
            good = [totals for op, totals in chunk if totals is not None]
            for op, totals in chunk:
                if totals is not None and not all(0.0 <= t <= 1.0 for t in totals):
                    op.fail("check: an error total lies outside [0, 1]")
            if not good:
                rows.append(None)
                continue
            # Averaged exactly as the CLI averages them.
            means = np.asarray(good).mean(axis=0)
            rows.append([float(gamma0), float(means[1]), float(means[0]), theory[index][1], float(means[2])])
        if cli_out is not None:
            code, text = cli_out
            if code not in (None, 0):
                cli_op.fail("check: the CLI exited with %r" % (code,))
            else:
                _check_cli_rows(rows, cli_op, text)
        if reference is not None:
            for row, (op, _), ref in zip(rows, theory, reference["rows"]):
                if row is None or any(
                    value is None or not _close(value, r, REFERENCE_RTOL) for value, r in zip(row, ref)
                ):
                    op.fail("reference: row %r != %r" % (row, ref))
        errors = [totals[0] for _, totals in tasks if totals is not None]
        extras = {"cli_sweep_s": cli_op.seconds}
        return {"reference": {"rows": rows}, "errors": errors, **extras}

    def counts(self, outputs) -> dict:
        config, _, tasks, _, _ = outputs
        # Each task predicts and scores both of its test blocks once.
        rows = (config.test0 + config.test1) * sum(1 for _, totals in tasks if totals is not None)
        return {"pipeline.rows_predicted": rows, "discriminant.rows_scored": rows}


def _replicate_totals(api, config, mixture, gamma0: float, replicate: int):
    """(improved, standard, estimate) totals: the CLI's ``_replicate_totals``."""
    data = api.sample_scenario(config, model=mixture, replicate=replicate)
    train = api.TrainingSet(X0=data.train0, X1=data.train1)
    priors = (mixture.prior0, mixture.prior1)
    improved = api.fit_improved(train, gamma0, priors=priors)
    improved_total = _label_error(api.predict(improved, data.test0), api.predict(improved, data.test1), priors)
    shared = api.fit(train, gamma0, gamma0)
    standard = api.empirical_error(
        api.rqda_scores(data.test0, shared, priors), api.rqda_scores(data.test1, shared, priors), priors
    )
    estimate = api.g_estimator_error(improved.fit, improved.theta, improved.priors)
    return improved_total, standard.total, estimate.total_hat


def _theory_total(api, config, mixture, gamma0: float) -> float:
    """Eigen-route limiting total error: the CLI's ``_theory_total``."""
    if config.n1 >= config.n0:
        canonical, c0, c1 = mixture, config.n0, config.n1
    else:
        canonical, c0, c1 = api.swapped(mixture), config.n1, config.n0
    spectrum = np.linalg.eigvalsh(canonical.class0.covariance)
    delta0 = api.eigen_delta_solver(spectrum, c0, gamma0)
    gamma1 = api.gamma1_theoretical(canonical.class0.covariance, c0, c1, gamma0, delta0=delta0)
    design = api.theta_star_theoretical(canonical, c0, c1, gamma0, gamma1)
    return api.asymptotic_error(canonical, c0, c1, gamma0, gamma1, design.theta_star).total


def _run_cli(api, args):
    """Exit code and standard output of one in-process ``hdqda-bench`` call."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = api.cli_main(args=args, standalone_mode=False)
    return code, buffer.getvalue()


def _check_cli_rows(rows, cli_op, text: str) -> None:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    cli_rows = list(csv.reader(lines))[1:]
    if len(cli_rows) != len(rows):
        cli_op.fail("check: CLI printed %d rows, the benchmark made %d" % (len(cli_rows), len(rows)))
        return
    for row, cli_row in zip(rows, cli_rows):
        if row is None or None in row or cli_row[5]:
            cli_op.fail("check: failed row in the benchmark (%r) or the CLI (%r)" % (row, cli_row[5]))
            continue
        cli_values = [float(cell) for cell in cli_row[:5]]
        if not all(_close(a, b, CLI_RTOL) for a, b in zip(row, cli_values)):
            cli_op.fail("check: benchmark row %r != CLI row %r" % (row, cli_values))


class DenseTheory:
    """Fixed point, matched shrinkage, bias and limiting error on dense covariances."""

    name = "dense-theory"
    headline = "point"
    per_label = False

    def __init__(self, smoke: bool):
        self.p, self.n0, self.n1 = (24, 12, 24) if smoke else (300, 150, 300)
        self.grid = default_grid()[::8] if smoke else default_grid()
        self._spectrum = None

    def setup(self, api, seed: int):
        p = self.p
        rank = math.isqrt(p - 1) + 1
        # Bases drawn from different seeds share no eigenvectors, which sends
        # asymptotic_error down its dense route.
        sigma0 = api.make_spiked_covariance(2.0, 8.0, rank, p, 2 * seed)
        sigma1 = api.make_spiked_covariance(2.0, 8.0, rank, p, 2 * seed + 1)
        mixture = api.MixtureModel(
            api.ClassStatistics(np.zeros(p), sigma0),
            api.ClassStatistics(np.full(p, 3.0 / math.sqrt(p)), sigma1),
            1.0 / 3.0,
            2.0 / 3.0,
        )
        self._spectrum = None
        return mixture

    def run_pass(self, api, mixture, rec: PassRecorder):
        return [
            rec.run("point", "g%.3g" % gamma0, lambda: _design_point(api, mixture, self.n0, self.n1, float(gamma0)))
            for gamma0 in self.grid
        ]

    def check(self, outputs, reference) -> dict:
        mixture = None
        records = []
        for index, (op, point) in enumerate(outputs):
            if point is None:
                records.append(None)
                continue
            gamma0, eq, gamma1, design, prediction, mixture = point
            if self._spectrum is None:
                self._spectrum = np.linalg.eigvalsh(mixture.class0.covariance)
            eigen = eigen_delta_solver(self._spectrum, self.n0, gamma0)
            if abs(eq.delta - eigen) > 1e-8 * max(1.0, eigen):
                op.fail("check: solve_delta %r vs eigen route %r" % (eq.delta, eigen))
            if not all(0.0 <= e <= 1.0 for e in (prediction.eps0, prediction.eps1)):
                op.fail("check: eps outside [0, 1]: %r, %r" % (prediction.eps0, prediction.eps1))
            record = {
                "gamma0": gamma0,
                "delta": eq.delta,
                "gamma1": gamma1,
                "theta_star": design.theta_star,
                "total": prediction.total,
            }
            records.append(record)
            if reference is not None:
                ref = reference["points"][index]
                if any(not _close(record[k], ref[k], REFERENCE_RTOL) for k in record):
                    op.fail("reference: point %r != %r" % (record, ref))
        errors = [r["total"] for r in records if r is not None]
        return {"reference": {"points": records}, "errors": errors}

    def counts(self, outputs) -> dict:
        solved = [point[1] for _, point in outputs if point is not None]
        return {
            "rmt.solve_delta_calls": len(solved),
            "rmt.solve_delta_sweeps": sum(eq.iterations for eq in solved),
        }


def _design_point(api, mixture, n0: int, n1: int, gamma0: float):
    sigma0 = mixture.class0.covariance
    eq = api.solve_delta(sigma0, n0, gamma0)
    gamma1 = api.gamma1_theoretical(sigma0, n0, n1, gamma0, delta0=eq.delta)
    design = api.theta_star_theoretical(mixture, n0, n1, gamma0, gamma1)
    prediction = api.asymptotic_error(mixture, n0, n1, gamma0, gamma1, design.theta_star)
    return gamma0, eq, gamma1, design, prediction, mixture


WORKLOADS = {cls.name: cls for cls in (TuneLadder, PaperSweep, DenseTheory)}
