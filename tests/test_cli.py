import csv
import io
import json

import numpy as np
import pytest
from click.testing import CliRunner

import hdqda.cli as cli_module
from hdqda.cli import main
from hdqda.errors import StabilityError


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


def test_numerical_failures_exit_two(runner, tmp_path, monkeypatch):
    def explode(config):
        raise StabilityError("synthetic numerical failure")

    monkeypatch.setattr(cli_module, "build_mixture", explode)
    result = runner.invoke(
        main, ["histogram", "--config", _config(tmp_path, TINY), "--seed", "1"]
    )
    assert result.exit_code == 2
    assert "numerical failure" in result.stderr


def test_help_exits_zero(runner):
    assert runner.invoke(main, ["--help"]).exit_code == 0
    assert runner.invoke(main, ["sweep-gamma", "--help"]).exit_code == 0
