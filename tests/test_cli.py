import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import hdqda.cli as cli_module
import hdqda.estimation as estimation_module
import hdqda.pipeline as pipeline_module
from hdqda.cli import main
from hdqda.discriminant import empirical_error, rlda_scores, rqda_scores
from hdqda.errors import DegenerateEstimateError, HdqdaError, InsufficientSamplesError, StabilityError
from hdqda.estimation import TrainingSet, fit, fit_pooled
from hdqda.gestim import g_estimator_error
from hdqda.ingestion import load_csv, make_imbalanced_split
from hdqda.model import build_mixture, sample_scenario
from hdqda.pipeline import fit_improved
from hdqda.rmt import asymptotic_error, eigen_delta_solver, gamma1_theoretical, theta_star_theoretical

from conftest import small_config


TINY = {"p": 10, "n0": 16, "n1": 8, "test0": 12, "test1": 6}


@pytest.fixture
def runner():
    return CliRunner()


def _config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _parse_output(text):
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    return lines[0], rows[0], rows[1:]


def test_histogram_emits_all_four_rules(runner, tmp_path):
    result = runner.invoke(
        main, ["histogram", "--config", _config(tmp_path, TINY), "--seed", "3"]
    )
    assert result.exit_code == 0, result.output
    meta, header, rows = _parse_output(result.output)
    assert "seed=3" in meta and "command=histogram" in meta
    assert header == ["rule", "true_class", "score"]
    rules = {row[0] for row in rows}
    assert rules == {"true-qda", "standard-rqda", "improved-rqda", "rlda"}
    # One row per rule per test point.
    assert len(rows) == 4 * (TINY["test0"] + TINY["test1"])


def test_sweep_gamma_output_is_thread_invariant(runner, tmp_path):
    config = _config(tmp_path, TINY)
    args = [
        "sweep-gamma", "--config", config, "--seed", "5",
        "--grid-min", "0.1", "--grid-max", "10",
        "--grid-points", "3", "--replicates", "2",
    ]
    single = runner.invoke(main, args + ["--threads", "1"])
    pooled = runner.invoke(main, args + ["--threads", "4"])
    assert single.exit_code == 0, single.output
    assert pooled.exit_code == 0
    assert single.output == pooled.output  # byte-identical by contract
    _, header, rows = _parse_output(single.output)
    assert header[0] == "gamma0" and len(rows) == 3
    for row in rows:
        for cell in row[1:3]:
            if cell:
                assert float(cell) >= 0.0


def test_sweep_p_runs_the_dimension_ladder(runner, tmp_path):
    result = runner.invoke(
        main,
        [
            "sweep-p", "--config", _config(tmp_path, TINY), "--seed", "2",
            "--p-list", "8,12", "--replicates", "2", "--gamma0", "1.0",
        ],
    )
    assert result.exit_code == 0, result.output
    _, header, rows = _parse_output(result.output)
    assert header[0] == "p"
    assert [row[0] for row in rows] == ["8", "12"]


def test_tune_reports_the_chosen_candidate(runner, tmp_path):
    payload = dict(TINY, grid_points=5)
    result = runner.invoke(
        main, ["tune", "--config", _config(tmp_path, payload), "--seed", "7"]
    )
    assert result.exit_code == 0, result.output
    meta, header, rows = _parse_output(result.output)
    assert "chosen_gamma0=" in meta
    assert header == ["gamma0", "total_hat", "failure"]
    assert len(rows) == 5
    chosen = float(meta.split("chosen_gamma0=")[1].split()[0])
    winners = [float(row[0]) for row in rows if row[1]]
    assert any(abs(chosen - g) < 1e-12 for g in winners)


def test_real_protocol_on_a_generated_csv(runner, tmp_path):
    rng = np.random.default_rng(0)
    rows = []
    for label, shift in ((0, 0.0), (1, 1.5)):
        for _ in range(40):
            rows.append([*(shift + rng.standard_normal(5)), label])
    path = tmp_path / "blobs.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["a", "b", "c", "d", "e", "label"])
        writer.writerows(rows)
    result = runner.invoke(
        main,
        [
            "real", str(path), "--label-column", "label", "--seed", "1",
            "--ratios", "0.5,1.0", "--n1", "12", "--replicates", "2",
        ],
    )
    assert result.exit_code == 0, result.output
    _, header, out_rows = _parse_output(result.output)
    assert header == ["ratio", "method", "error"]
    methods = {row[1] for row in out_rows}
    assert methods == {"improved-rqda", "standard-rqda", "rlda"}
    assert len(out_rows) == 6  # two ratios, three methods
    for row in out_rows:
        assert 0.0 <= float(row[2]) <= 1.0


def test_real_output_is_thread_invariant(runner, tmp_path):
    """Split tasks run on one thread or two give the same stdout bytes."""
    args = [
        "real", _blobs(tmp_path), "--label-column", "label",
        "--ratios", "0.5,1.0", "--n1", "12", "--replicates", "2",
    ]
    one = runner.invoke(main, args + ["--threads", "1"])
    two = runner.invoke(main, args + ["--threads", "2"])
    assert one.exit_code == 0 and two.exit_code == 0, one.output + two.output
    assert one.stdout_bytes == two.stdout_bytes


def test_a_sweep_whose_estimates_overflow_records_failure_rows(runner, tmp_path):
    """A mean offset so large that every estimate overflows gives failure rows
    and exit 0, not a RuntimeWarning (an error under this suite's filter)."""
    config = _config(tmp_path, dict(TINY, n0=20, n1=10, test0=20, test1=10, mean_offset=1e140))
    result = runner.invoke(
        main, ["sweep-gamma", "--config", config, "--grid-points", "2", "--replicates", "1"]
    )
    assert result.exit_code == 0, result.output
    _, _, rows = _parse_output(result.output)
    assert len(rows) == 2
    for row in rows:
        assert row[1:5] == ["", "", "", ""]
        assert row[5].startswith("1/1 replicates failed; first: DegenerateEstimateError: ")


def test_a_sweep_whose_kernel_overflows_records_failure_rows(runner, tmp_path):
    """A mean offset of 1e160 takes the squared mean gap of each draw's kernel
    out of the float range: the draw is a failure on every row, with exit 0
    and no RuntimeWarning (an error under this suite's filter)."""
    config = _config(tmp_path, dict(TINY, n0=20, n1=10, test0=20, test1=10, mean_offset=1e160))
    result = runner.invoke(
        main, ["sweep-gamma", "--config", config, "--grid-points", "2", "--replicates", "1"]
    )
    assert result.exit_code == 0, result.output
    _, _, rows = _parse_output(result.output)
    assert len(rows) == 2
    for row in rows:
        assert row[1:5] == ["", "", "", ""]
        assert row[5].startswith("1/1 replicates failed; first: DegenerateEstimateError: ")
        assert "float range" in row[5]


@pytest.mark.parametrize(
    "case, message",
    [
        ("label", "line 2, column 6: label '1e300' is outside the int64 range"),
        ("ratio", "label 0 has 30 rows, fewer than ratio 1e+308 with n1=10 asks for"),
        ("n1", "label 1 has 30 rows, need 1" + "0" * 400),
        ("scales", "invalid scenario: scales base_scale=1e+308, spike_strength=1e+308"),
    ],
    ids=["label", "ratio", "n1", "scales"],
)
def test_input_past_the_float_range_exits_one_with_a_message(runner, tmp_path, case, message):
    """A CSV label, a ratio, an n1 or scenario scales past the float range exit 1
    with an error line, not a traceback, and warn nothing (an error under this
    suite's filter)."""
    blobs = _blobs(tmp_path)
    if case == "label":
        lines = Path(blobs).read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",1e300"
        Path(blobs).write_text("\n".join(lines) + "\n", encoding="utf-8")
    args = {
        "label": ["real", blobs, "--label-column", "label"],
        "ratio": ["real", blobs, "--label-column", "label", "--ratios", "1e308", "--n1", "10"],
        "n1": ["real", blobs, "--label-column", "label", "--n1", str(10**400)],
        "scales": ["tune", "--config", _config(
            tmp_path, dict(TINY, base_scale=1e308, spike_strength=1e308)
        )],
    }[case]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # click's own exit, no traceback
    assert result.stderr.startswith("Error: ") and message in result.stderr


def test_output_file_matches_stdout_bytes(runner, tmp_path):
    config = _config(tmp_path, TINY)
    to_stdout = runner.invoke(main, ["histogram", "--config", config, "--seed", "4"])
    out_path = tmp_path / "scores.csv"
    to_file = runner.invoke(
        main,
        ["histogram", "--config", config, "--seed", "4", "--out", str(out_path)],
    )
    assert to_stdout.exit_code == 0 and to_file.exit_code == 0
    assert out_path.read_text(encoding="utf-8") == to_stdout.output


def test_usage_and_configuration_problems_exit_one(runner, tmp_path):
    assert runner.invoke(main, ["not-a-command"]).exit_code == 1
    assert runner.invoke(main, ["--bogus"]).exit_code == 1
    assert runner.invoke(main, ["sweep-gamma", "--grid-points", "x"]).exit_code == 1
    assert (
        runner.invoke(main, ["sweep-gamma", "--grid-min", "5", "--grid-max", "1"]).exit_code
        == 1
    )
    bad_config = _config(tmp_path, dict(TINY, bogus=1), "bad.json")
    assert runner.invoke(main, ["histogram", "--config", bad_config]).exit_code == 1
    assert runner.invoke(main, ["real", "/nonexistent.csv"]).exit_code == 1
    assert runner.invoke(main, ["tune", "--threads", "2"]).exit_code == 1
    assert runner.invoke(main, ["histogram", "--replicates", "3"]).exit_code == 1
    nan_csv = tmp_path / "nan.csv"
    nan_csv.write_text("f,label\n" + "1,0\n2,1\n" * 4 + "nan,0\n", encoding="utf-8")
    result = runner.invoke(main, ["real", str(nan_csv), "--label-column", "label"])
    assert result.exit_code == 1 and "not finite" in result.output
    not_json = tmp_path / "broken.json"
    not_json.write_text("{", encoding="utf-8")
    assert (
        runner.invoke(main, ["histogram", "--config", str(not_json)]).exit_code == 1
    )


_SUBCOMMANDS = ["histogram", "sweep-gamma", "sweep-p", "tune", "real"]


def _failing_run(tmp_path, monkeypatch, command, error):
    """Arguments of a small ``command`` run whose mixture (or, for ``real``,
    whose first split's moments) raises ``error``."""

    def explode(*args, **kwargs):
        raise error

    if command == "real":
        monkeypatch.setattr(cli_module, "_canonical", explode)
        return [command, _blobs(tmp_path), "--config", _config(tmp_path, _FLAG_KEYS["real"][1])]
    monkeypatch.setattr(cli_module, "build_mixture", explode)
    return [command, "--config", _config(tmp_path, TINY)]


@pytest.mark.parametrize("command", _SUBCOMMANDS)
def test_numerical_failures_exit_two(runner, tmp_path, monkeypatch, capsys, command):
    args = _failing_run(tmp_path, monkeypatch, command, StabilityError("injected"))
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stderr.startswith("numerical failure: StabilityError: injected")
    assert result.stdout == ""
    assert main.main(args=args, standalone_mode=False) == 2
    assert capsys.readouterr().err.startswith("numerical failure: StabilityError: ")


@pytest.mark.parametrize("command", _SUBCOMMANDS)
def test_data_errors_exit_one_in_every_subcommand(runner, tmp_path, monkeypatch, command):
    args = _failing_run(tmp_path, monkeypatch, command, InsufficientSamplesError("injected"))
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.stderr == "Error: injected\n"


def test_an_interrupt_inside_a_subcommand_aborts_with_exit_one(runner, tmp_path, monkeypatch):
    args = _failing_run(tmp_path, monkeypatch, "histogram", KeyboardInterrupt())
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "Aborted!" in result.stderr


def test_help_exits_zero(runner):
    assert runner.invoke(main, ["--help"]).exit_code == 0
    assert runner.invoke(main, ["sweep-gamma", "--help"]).exit_code == 0


@pytest.mark.parametrize("command, default", [("sweep-gamma", 20), ("sweep-p", 20), ("real", 5)])
def test_replicates_help_states_the_subcommand_default(runner, command, default):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0
    assert "replicates to average (default %d)." % default in " ".join(result.output.split())


def _blobs(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "blobs3.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["a", "b", "c", "d", "e", "label"])
        for label, shift in ((0, 0.0), (1, 1.5), (2, -1.0)):
            for _ in range(30):
                writer.writerow([*(10.0 + shift + 3.0 * rng.standard_normal(5)), label])
    return str(path)


# subcommand -> (base arguments, base config, {config key: (flag arguments, config value)})
_FLAG_KEYS = {
    "histogram": (
        [], TINY,
        {"seed": (["--seed", "4"], 4), "gamma0": (["--gamma0", "2.5"], 2.5)},
    ),
    "sweep-gamma": (
        [], dict(TINY, grid_points=2, replicates=1),
        {
            "seed": (["--seed", "4"], 4),
            "replicates": (["--replicates", "2"], 2),
            "threads": (["--threads", "2"], 2),
            "grid_min": (["--grid-min", "0.5"], 0.5),
            "grid_max": (["--grid-max", "20"], 20),
            "grid_points": (["--grid-points", "3"], 3),
        },
    ),
    "sweep-p": (
        [], dict(TINY, p_list=[8], replicates=1),
        {
            "seed": (["--seed", "4"], 4),
            "replicates": (["--replicates", "2"], 2),
            "threads": (["--threads", "2"], 2),
            "gamma0": (["--gamma0", "2.5"], 2.5),
            "p_list": (["--p-list", "12,8"], [12, 8]),
        },
    ),
    "real": (
        [], {"label_column": "label", "ratios": [1.0], "n1": 12, "replicates": 1},
        {
            "seed": (["--seed", "4"], 4),
            "replicates": (["--replicates", "2"], 2),
            "threads": (["--threads", "2"], 2),
            "label_column": (["--label-column", "5"], 5),
            "class_a": (["--class-a", "2"], 2),
            "class_b": (["--class-b", "2"], 2),
            "ratios": (["--ratios", "0.5,1.0"], "0.5,1.0"),
            "n1": (["--n1", "10"], 10),
            "standardize": (["--standardize"], True),
        },
    ),
    "tune": ([], dict(TINY, grid_points=3), {"seed": (["--seed", "4"], 4)}),
}


@pytest.mark.parametrize(
    "command, key",
    [(command, key) for command, (_, _, keys) in _FLAG_KEYS.items() for key in keys],
)
def test_config_key_matches_its_flag(runner, tmp_path, command, key):
    """A config value and its flag resolve alike: same stdout bytes."""
    base_args, base_config, keys = _FLAG_KEYS[command]
    flag_args, value = keys[key]
    args = [command] + ([_blobs(tmp_path)] if command == "real" else []) + base_args
    base = _config(tmp_path, base_config, "base.json")
    with_key = _config(tmp_path, dict(base_config, **{key: value}), "key.json")
    by_flag = runner.invoke(main, args + ["--config", base] + flag_args)
    by_config = runner.invoke(main, args + ["--config", with_key])
    plain = runner.invoke(main, args + ["--config", base])
    assert by_flag.exit_code == 0, by_flag.output
    assert by_config.stdout == by_flag.stdout
    if key != "threads":  # thread count never changes the bytes
        assert plain.stdout != by_flag.stdout


@pytest.mark.parametrize(
    "command, payload, key",
    [
        ("sweep-gamma", dict(TINY, grid_points="ten"), "grid_points"),
        ("sweep-gamma", dict(TINY, grid_min=5, grid_max=1), "grid_min"),
        ("histogram", dict(TINY, gamma0="x"), "gamma0"),
        ("histogram", dict(TINY, gamma0=-1.0), "gamma0"),
        ("sweep-p", dict(TINY, p_list=[8, "x"]), "p_list"),
        ("sweep-p", dict(TINY, p_list=[8.7]), "p_list"),
        ("sweep-p", dict(TINY, p_list="8.7"), "p_list"),
        ("sweep-p", dict(TINY, p_list=[2]), "p_list"),
        ("sweep-p", dict(TINY, replicates=0), "replicates"),
        ("real", {"class_a": "z"}, "class_a"),
        ("real", {"class_a": 7}, "7"),
        ("real", {"class_a": 1}, "class_a"),
        ("real", {"standardize": "yes"}, "standardize"),
        ("real", {"ratios": []}, "ratios"),
        ("real", {"ratios": [0.5, -1]}, "ratios"),
        ("tune", dict(TINY, grid_points=0), "grid_points"),
        ("tune", dict(TINY, p="10"), "p"),
    ]
    + [
        (command, dict(TINY, **bad), key)
        for command in ("histogram", "sweep-gamma", "sweep-p", "tune")
        for bad, key in (
            ({"prior0": 1.5}, "prior0"),
            ({"p": 20, "spike_rank": 50}, "spike_rank"),
            ({"base_scale": -1}, "base_scale"),
        )
    ]
    + [  # booleans are not numbers, and a worker count is at least 1
        ("sweep-gamma", dict(TINY, replicates=True), "replicates"),
        ("sweep-gamma", dict(TINY, grid_points=True), "grid_points"),
        ("sweep-gamma", dict(TINY, grid_max=True), "grid_max"),
        ("sweep-gamma", dict(TINY, base_scale=True), "base_scale"),
        ("sweep-gamma", dict(TINY, seed=False), "seed"),
        ("histogram", dict(TINY, gamma0=True), "gamma0"),
        ("sweep-p", dict(TINY, gamma0=True), "gamma0"),
        ("real", {"seed": True}, "seed"),
        ("sweep-gamma", dict(TINY, threads=0), "threads"),
        ("sweep-p", dict(TINY, threads=-2), "threads"),
    ]
    + [  # a seed is a nonnegative integer
        ("histogram", dict(TINY, seed=-1), "seed"),
        ("sweep-gamma", dict(TINY, seed=-3), "seed"),
        ("real", {"seed": -1}, "seed"),
    ],
)
def test_malformed_config_values_exit_one_naming_the_key(runner, tmp_path, command, payload, key):
    args = [command] + ([_blobs(tmp_path)] if command == "real" else [])
    if command == "real":
        payload = dict(payload, label_column="label")
    result = runner.invoke(main, args + ["--config", _config(tmp_path, payload)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert key in result.stderr


def test_p_list_text_and_json_list_resolve_alike(runner, tmp_path):
    args = ["sweep-p", "--seed", "3", "--replicates", "1"]
    as_text = runner.invoke(main, args + ["--config", _config(tmp_path, dict(TINY, p_list="12, 8"))])
    as_list = runner.invoke(main, args + ["--config", _config(tmp_path, dict(TINY, p_list=[8, 12]))])
    assert as_text.exit_code == 0, as_text.output
    assert as_text.stdout == as_list.stdout


def test_sweep_p_output_is_thread_invariant(runner, tmp_path):
    args = [
        "sweep-p", "--config", _config(tmp_path, TINY), "--seed", "6",
        "--p-list", "8,12", "--replicates", "2",
    ]
    single = runner.invoke(main, args + ["--threads", "1"])
    pooled = runner.invoke(main, args + ["--threads", "2"])
    assert single.exit_code == 0, single.output
    assert single.stdout == pooled.stdout


def _reference_sweep_rows(scenario, gammas, replicates):
    """Sweep rows assembled point by point, one fresh draw and fit per
    (gamma0, replicate), from the public API alone."""
    model = build_mixture(scenario)
    priors = (model.prior0, model.prior1)
    # The limit takes the minority class first.
    if scenario.n1 >= scenario.n0:
        oriented, c0, c1 = model, scenario.n0, scenario.n1
    else:
        oriented, c0, c1 = model.swapped(), scenario.n1, scenario.n0
    rows = []
    for gamma0 in map(float, gammas):
        good, bad = [], []
        for replicate in range(replicates):
            try:
                data = sample_scenario(scenario, model=model, replicate=replicate)
                train = TrainingSet(X0=data.train0, X1=data.train1)
                improved = fit_improved(train, gamma0, priors=priors)
                eps0 = float(np.mean(improved.predict(data.test0) != 0))
                eps1 = float(np.mean(improved.predict(data.test1) != 1))
                shared = fit(train, gamma0, gamma0)
                standard = empirical_error(
                    rqda_scores(data.test0, shared, priors),
                    rqda_scores(data.test1, shared, priors),
                    priors,
                )
                estimate = g_estimator_error(improved.fit, improved.theta, improved.priors)
                good.append((priors[0] * eps0 + priors[1] * eps1, standard.total, estimate.total_hat))
            except HdqdaError as exc:
                bad.append("%s: %s" % (type(exc).__name__, exc))
        failure = "%d/%d replicates failed; first: %s" % (len(bad), replicates, bad[0]) if bad else None
        improved_total, standard_total, estimate_total = (float(m) for m in np.asarray(good).mean(axis=0))
        delta0 = eigen_delta_solver(oriented.class0.spectrum[0], c0, gamma0)
        gamma1 = gamma1_theoretical(oriented.class0.covariance, c0, c1, gamma0, delta0=delta0)
        design = theta_star_theoretical(oriented, c0, c1, gamma0, gamma1)
        theory = asymptotic_error(oriented, c0, c1, gamma0, gamma1, design.theta_star).total
        rows.append([gamma0, standard_total, improved_total, theory, estimate_total, failure])
    return rows


@pytest.mark.parametrize("counts", [(40, 20), (20, 40)])
def test_sweep_tasks_draw_once_and_match_the_per_point_reference(monkeypatch, counts):
    scenario = small_config(n0=counts[0], n1=counts[1], seed=4)
    gammas = np.logspace(-1.0, 1.0, 3)
    replicates = 3
    # The middle shrinkage value fails on replicate 1 in either route: each
    # route reaches it once per replicate, in replicate order.
    real_candidate, reached = pipeline_module._candidate, []

    def flaky(pair, gamma0, *rest):
        if gamma0 == gammas[1]:
            reached.append(gamma0)
            if len(reached) % replicates == 2:
                raise DegenerateEstimateError("injected on replicate 1")
        return real_candidate(pair, gamma0, *rest)

    monkeypatch.setattr(pipeline_module, "_candidate", flaky)
    expected = _reference_sweep_rows(scenario, gammas, replicates)

    calls = {"sample": 0, "full": 0, "range": 0}

    def counting(name, real):
        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return spy

    monkeypatch.setattr(cli_module, "sample_scenario", counting("sample", cli_module.sample_scenario))
    monkeypatch.setattr(estimation_module, "eigenpair", counting("full", estimation_module.eigenpair))
    monkeypatch.setattr(
        estimation_module, "_range_eigenpair", counting("range", estimation_module._range_eigenpair)
    )
    rows = cli_module._sweep_rows([(float(g), scenario, g) for g in gammas], replicates, 1)

    assert rows == expected  # every total bitwise, every failure text verbatim
    assert rows[1][5] == (
        "1/3 replicates failed; first: DegenerateEstimateError: injected on replicate 1"
    )
    assert [row[5] for row in rows[::2]] == [None, None]
    # One spectrum per class and replicate: the minority's 20 rows leave its
    # covariance rank-deficient at p = 24, so it takes the range route and the
    # majority the full one.
    assert calls == {"sample": replicates, "full": replicates, "range": replicates}


def _reference_real_rows(path, ratios, n1, replicates, grid, seed):
    """``real`` rows assembled split by split from the public API alone: a
    tuned fit and its labels, the standard rule fitted at the tuned gamma0 for
    both classes, and the pooled rule at it too."""
    ds = load_csv(path, "label")
    rows = []
    for ratio_index, ratio in enumerate(ratios):
        totals = []
        for split_index in range(replicates):
            entropy = [seed, ratio_index, split_index]
            split_seed = int(np.random.SeedSequence(entropy=entropy).generate_state(1, dtype=np.uint64)[0])
            split = make_imbalanced_split(ds, 0, 1, ratio, n1, seed=split_seed)
            train = split.train
            priors = (train.n0 / train.n, train.n1 / train.n)
            improved = fit_improved(train, None, priors=priors, grid=grid)
            eps0 = float(np.mean(improved.predict(split.test0) != 0))
            eps1 = float(np.mean(improved.predict(split.test1) != 1))
            gamma0 = improved.fit.gamma0
            shared, pooled = fit(train, gamma0, gamma0), fit_pooled(train, gamma0)
            standard, linear = (
                empirical_error(scores(split.test0, fitted, priors), scores(split.test1, fitted, priors), priors)
                for scores, fitted in ((rqda_scores, shared), (rlda_scores, pooled))
            )
            totals.append((priors[0] * eps0 + priors[1] * eps1, standard.total, linear.total))
        stacked = np.asarray(totals)
        for column, method in enumerate(("improved-rqda", "standard-rqda", "rlda")):
            rows.append([ratio, method, float(stacked[:, column].mean())])
    return rows


@pytest.mark.parametrize(
    "features, n1, ratios",
    [
        (20, 24, [0.25, 0.5, 1.5]),  # class 0's covariance is thin below ratio 1
        (5, 15, [0.5, 2.0]),  # both classes have full rank
    ],
)
def test_real_rows_match_the_per_split_reference(runner, tmp_path, features, n1, ratios):
    rng = np.random.default_rng(features)
    path = tmp_path / "real.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["f%d" % k for k in range(features)] + ["label"])
        for label, shift in ((0, 0.0), (1, 0.6)):
            for row in shift + rng.standard_normal((50, features)) * (1.0 + label):
                writer.writerow([*row, label])
    grid_points, replicates, seed = 5, 2, 3
    result = runner.invoke(
        main,
        [
            "real", str(path), "--label-column", "label", "--seed", str(seed),
            "--ratios", ",".join(map(str, ratios)), "--n1", str(n1), "--replicates", str(replicates),
            "--config", _config(tmp_path, {"grid_points": grid_points}),
        ],
    )
    assert result.exit_code == 0, result.output
    _, _, rows = _parse_output(result.output)
    grid = np.logspace(np.log10(1e-2), np.log10(1e2), grid_points)
    expected = _reference_real_rows(str(path), ratios, n1, replicates, grid, seed)
    assert [[float(ratio), method, float(error)] for ratio, method, error in rows] == expected


def _run_python(script: str) -> str:
    """Standard output of ``script`` in a fresh interpreter that imports this
    checkout's package."""
    src = str(Path(cli_module.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_cli_loads_no_scipy_module(tmp_path):
    """The package binds its LAPACK routines from numpy's own library, takes Phi
    from the math module and root-finds by its own Newton iteration, so importing
    it and its CLI, solving the fixed point, fitting, taking the limiting error
    and running a sweep load no scipy module at all."""
    script = f"""
import sys
import numpy as np
import hdqda.cli
from hdqda.estimation import TrainingSet, fit
from hdqda.discriminant import rqda_scores
from hdqda.model import ScenarioConfig, build_mixture
from hdqda.rmt import asymptotic_error, solve_delta
assert solve_delta(np.diag([1.0, 2.0, 3.0]), 4, 1.0).iterations > 1
asymptotic_error(build_mixture(ScenarioConfig(**{TINY!r})), 8, 16, 0.5, 0.9, 0.0)
rng = np.random.default_rng(0)
train = TrainingSet(rng.standard_normal((8, 5)), rng.standard_normal((12, 5)))
rqda_scores(train.X0, fit(train, 1.0, 1.0), (0.5, 0.5))
hdqda.cli.main(["sweep-gamma", "--config", {_config(tmp_path, TINY)!r}, "--grid-points", "2",
                "--replicates", "1", "--out", {str(tmp_path / "sweep.csv")!r}], standalone_mode=False)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    assert _run_python(script).strip() == "[]"


def test_every_entry_point_runs_with_scipy_blocked(tmp_path):
    """With ``import scipy`` made to fail, every public function that computes
    runs, and so does each subcommand, on small inputs."""
    blobs = _blobs(tmp_path)
    configs = {
        command: _config(tmp_path, _FLAG_KEYS[command][1], name=command + ".json")
        for command in _SUBCOMMANDS
    }
    runs = [
        [command] + ([blobs] if command == "real" else [])
        + ["--config", configs[command], "--out", str(tmp_path / (command + ".csv"))]
        for command in _SUBCOMMANDS
    ]
    script = f"""
import sys
sys.modules["scipy"] = None
import numpy as np
from hdqda import *
from hdqda.cli import main
from hdqda.gestim import _delta_from_range

config = ScenarioConfig(**{TINY!r})
mixture = build_mixture(config)
data = sample_scenario(config, model=mixture)
# the minority class first, as the estimators expect
train = TrainingSet(data.train1, data.train0)
priors = (mixture.prior1, mixture.prior0)
shared = fit(train, 1.0, 1.0)
two = fit(train, 1.0, 0.8)
pooled = fit_pooled(train, 1.0)
bias = theta_hat(two, priors)
g_estimator_error(two, bias.theta_hat, priors)
spent = two.p - float(np.trace(two.H0))
gamma1_hat(_delta_from_range(spent, train.n0 - 1 - spent, 1.0), train.n0, train.n1, 1.0)
empirical_error(rqda_scores(data.test0, shared, priors), rqda_scores(data.test1, shared, priors), priors)
classify_values(improved_scores(data.test0, two, bias.theta_hat))
rlda_scores(data.test0, pooled, priors)
qda_scores_true(data.test0, mixture)
conditional_score_moments(two, mixture, bias.theta_hat)
regularized_resolvent(sample_moments(data.train0)[1], 2.0)
for gamma0 in (None, 1.0):
    model = fit_improved(train, gamma0, grid=default_grid()[::6])
    ImprovedModel.from_json(model.to_json()).predict(data.test0)
sigma0 = mixture.class0.covariance
equivalents = solve_delta(sigma0, train.n0, 1.0)
eigen_delta_solver(np.linalg.eigvalsh(sigma0), train.n0, 1.0)
gamma1 = gamma1_theoretical(sigma0, train.n0, train.n1, 1.0, delta0=equivalents.delta)
design = theta_star_theoretical(mixture, train.n0, train.n1, 1.0, gamma1)
asymptotic_error(mixture, train.n0, train.n1, 1.0, gamma1, design.theta_star)
sample_class(mixture.class1, 4, stream(0, 1))
make_spiked_covariance(1.0, 2.0, 2, 6, 0)
make_imbalanced_split(load_csv({blobs!r}, "label"), 0, 1, 0.5, 12)
for args in {runs!r}:
    assert main(args, standalone_mode=False) in (None, 0), args
print("ran")
"""
    assert _run_python(script).strip() == "ran"
