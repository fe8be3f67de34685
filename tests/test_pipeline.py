import base64
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from hdqda.discriminant import qda_scores_true, rlda_scores, rqda_scores
from hdqda.errors import DegenerateEstimateError, NotSpdError, TuningError
from hdqda.estimation import FittedStats, TrainingSet, fit, fit_pooled
from hdqda.gestim import theta_hat
from hdqda.model import build_mixture, sample_scenario
from hdqda.pipeline import (
    FORMAT_VERSION,
    ImprovedModel,
    TuningEntry,
    default_grid,
    fit_improved,
)

from conftest import small_config


@pytest.fixture
def majority_first_train():
    config = small_config(p=20, n0=40, n1=20, seed=1)
    data = sample_scenario(config, model=build_mixture(config))
    return TrainingSet(X0=data.train0, X1=data.train1), data


def test_default_grid_shape():
    grid = default_grid()
    assert grid.shape == (25,)
    assert grid[0] == pytest.approx(1e-2) and grid[-1] == pytest.approx(1e2)


def test_fit_improved_reorients_the_majority_class(majority_first_train):
    train, _ = majority_first_train
    model = fit_improved(train, 1.0, priors=(2.0 / 3.0, 1.0 / 3.0))
    assert model.label_map == (1, 0)
    assert model.fit.n0 == train.n1 and model.fit.n1 == train.n0
    # Caller priors follow the caller's labels, so they swap with the data.
    assert model.priors == (1.0 / 3.0, 2.0 / 3.0)
    assert model.trace == ()
    predictions = np.unique(model.predict(train.X0))
    assert set(predictions).issubset({0, 1})


def test_fit_improved_keeps_canonical_input_as_is(majority_first_train):
    train, _ = majority_first_train
    model = fit_improved(train.swapped(), 1.0, priors=(1.0 / 3.0, 2.0 / 3.0))
    assert model.label_map == (0, 1)
    assert model.fit.n0 == train.n1


def test_fit_improved_predicts_in_caller_labels(majority_first_train):
    train, data = majority_first_train
    flipped = fit_improved(train, 0.8, priors=(2.0 / 3.0, 1.0 / 3.0))
    straight = fit_improved(train.swapped(), 0.8, priors=(1.0 / 3.0, 2.0 / 3.0))
    # Same data under both labelings: predictions must agree after relabeling.
    np.testing.assert_array_equal(
        flipped.predict(data.test0), 1 - straight.predict(data.test0)
    )


def test_fit_improved_uses_matched_shrinkage_and_estimated_bias(majority_first_train):
    train, _ = majority_first_train
    model = fit_improved(train, 1.2, priors=(2.0 / 3.0, 1.0 / 3.0))
    assert model.fit.gamma0 == 1.2
    assert 0.0 < model.fit.gamma1 <= 1.2
    bias = theta_hat(model.fit, model.priors)
    assert model.theta == bias.theta_hat


def test_fit_improved_rejects_nonpositive_shrinkage(majority_first_train):
    train, _ = majority_first_train
    with pytest.raises(ValueError):
        fit_improved(train, 0.0)
    with pytest.raises(ValueError):
        fit_improved(train, 1.0, priors=(0.0, 1.0))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            fit_improved(train, bad)
        with pytest.raises(ValueError, match="finite and strictly positive"):
            fit_improved(train, None, grid=[0.1, 1.0, bad])


def test_entry_points_reject_priors_that_are_not_a_pair(majority_first_train):
    train, _ = majority_first_train
    with pytest.raises(ValueError, match="priors must be a pair"):
        fit_improved(train, 1.0, priors=(0.3, 0.7, 42.0))
    with pytest.raises(ValueError, match="priors must be a pair"):
        theta_hat(fit_improved(train, 1.0).fit, (0.3,))


def test_tuning_picks_the_estimated_minimum(majority_first_train):
    train, _ = majority_first_train
    canonical = train.swapped()
    grid = np.logspace(-1, 1, 7)
    result = fit_improved(canonical, None, grid=grid)
    assert len(result.trace) == 7
    successes = [e for e in result.trace if e.failure is None]
    assert successes
    best = min(successes, key=lambda e: e.total_hat)
    assert result.fit.gamma0 == best.gamma0
    chosen = [e for e in result.trace if e.gamma0 == result.fit.gamma0][0]
    assert chosen.total_hat == best.total_hat


def test_tuning_grid_validation(majority_first_train):
    train, _ = majority_first_train
    canonical = train.swapped()
    with pytest.raises(ValueError):
        fit_improved(canonical, None, grid=np.array([]))
    with pytest.raises(ValueError):
        fit_improved(canonical, None, grid=np.array([0.5, -1.0]))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            fit_improved(canonical, None, grid=np.array([bad, 0.5]))


def test_tuning_failure_entries_record_the_reason(majority_first_train, monkeypatch):
    train, _ = majority_first_train
    canonical = train.swapped()
    calls = {"count": 0}
    import hdqda.pipeline as pipeline_module

    real = pipeline_module._candidate

    def flaky(*args):
        calls["count"] += 1
        if calls["count"] == 1:
            raise DegenerateEstimateError("synthetic failure for the first candidate")
        return real(*args)

    monkeypatch.setattr(pipeline_module, "_candidate", flaky)
    result = fit_improved(canonical, None, grid=np.array([0.5, 1.0, 2.0]))
    assert result.trace[0].failure is not None
    assert "synthetic failure" in result.trace[0].failure
    assert result.trace[0].total_hat is None
    assert all(e.failure is None for e in result.trace[1:])


def test_tuning_ties_go_to_the_smallest_candidate(majority_first_train, monkeypatch):
    train, _ = majority_first_train
    import hdqda.pipeline as pipeline_module

    real = pipeline_module._candidate

    def flat(*args):
        margins, bias, estimate = real(*args)
        return margins, bias, dataclasses.replace(estimate, total_hat=0.25)

    monkeypatch.setattr(pipeline_module, "_candidate", flat)
    result = fit_improved(train, None, grid=np.array([2.0, 0.5, 1.0]))
    assert result.fit.gamma0 == 0.5
    assert [entry.total_hat for entry in result.trace] == [0.25] * 3


def test_tuning_raises_when_every_candidate_fails(majority_first_train, monkeypatch):
    train, _ = majority_first_train
    canonical = train.swapped()
    import hdqda.pipeline as pipeline_module

    def broken(*args):
        raise DegenerateEstimateError("every candidate is bad")

    monkeypatch.setattr(pipeline_module, "_candidate", broken)
    with pytest.raises(TuningError):
        fit_improved(canonical, None, grid=np.array([0.5, 1.0]))


# At 2e153 the candidate's own weights overflow before its margins are formed.
@pytest.mark.parametrize("scale", [1e100, 1e150, 2e153])
def test_a_candidate_whose_estimate_overflows_is_a_recorded_failure(scale):
    """Data so large that the estimator's forms leave the float range: every
    candidate is a recorded DegenerateEstimateError, with no RuntimeWarning
    (an error under this suite's filter) and no bare OverflowError."""
    rng = np.random.default_rng(0)
    X0, X1 = rng.standard_normal((8, 5)), rng.standard_normal((12, 5)) + 1.0
    train = TrainingSet(X0=scale * X0, X1=scale * X1)
    with pytest.raises(TuningError) as caught:
        fit_improved(train, None)
    reasons = caught.value.failures
    assert sorted(reasons) == list(default_grid())
    assert all(reason.startswith("DegenerateEstimateError: ") for reason in reasons.values())
    assert any("float range" in reason for reason in reasons.values())
    with pytest.raises(DegenerateEstimateError, match="float range"):
        fit_improved(train, 100.0)


# From about 3e153 on this draw the sample covariance itself overflows.
@pytest.mark.parametrize("scale", [3e153, 1e160, 1e200])
def test_a_draw_whose_moments_overflow_raises_a_package_error(scale):
    """Data so large that the sample moments leave the float range: a fit,
    tuned or not, raises DegenerateEstimateError before any candidate, with no
    RuntimeWarning (an error under this suite's filter) and no numpy
    LinAlgError from the kernel's eigenproblems."""
    rng = np.random.default_rng(0)
    X0, X1 = rng.standard_normal((8, 5)), rng.standard_normal((12, 5)) + 1.0
    train = TrainingSet(X0=scale * X0, X1=scale * X1)
    for gamma0 in (None, 100.0):
        with pytest.raises(DegenerateEstimateError, match="float range"):
            fit_improved(train, gamma0)


def test_fit_improved_tunes_when_no_shrinkage_given(majority_first_train):
    train, _ = majority_first_train
    grid = np.logspace(-1, 1, 5)
    model = fit_improved(train, None, grid=grid)
    assert model.trace and len(model.trace) == 5
    assert model.fit.gamma0 in grid


def test_tuned_model_equals_a_fit_at_the_chosen_shrinkage(majority_first_train):
    train, _ = majority_first_train
    tuned = fit_improved(train, None, grid=np.logspace(-1, 1, 5))
    direct = fit_improved(train, tuned.fit.gamma0)
    for name in ("mu_hat0", "mu_hat1", "sigma_hat0", "sigma_hat1", "H0", "H1"):
        assert np.array_equal(getattr(tuned.fit, name), getattr(direct.fit, name)), name
    assert tuned.fit.gamma1 == direct.fit.gamma1
    assert tuned.theta == direct.theta


_ARRAYS = ("mu_hat0", "mu_hat1", "sigma_hat0", "sigma_hat1")


def _decoded(text):
    return np.frombuffer(base64.b64decode(text, validate=True), dtype="<f8")


def _encoded(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _lower(sigma):
    """A covariance's lower triangle, row by row, as format 3 stores it."""
    return sigma[np.tril_indices(sigma.shape[0])]


def _version1(model):
    """The format-1 file of ``model``: the moments as nested JSON lists."""
    payload = json.loads(model.to_json())
    payload["format_version"] = 1
    for name in _ARRAYS:
        payload[name] = getattr(model.fit, name).tolist()
    return payload


def _version2(model):
    """The format-2 file of ``model``: every moment whole, as base64 text."""
    payload = json.loads(model.to_json())
    payload["format_version"] = 2
    for name in _ARRAYS:
        payload[name] = _encoded(getattr(model.fit, name).ravel())
    return payload


def test_model_json_round_trip_preserves_predictions(majority_first_train):
    train, data = majority_first_train
    model = fit_improved(train, 1.0, priors=(2.0 / 3.0, 1.0 / 3.0))
    payload = model.to_json()
    clone = ImprovedModel.from_json(payload)
    stored = json.loads(payload)
    assert stored["format_version"] == 3
    for name in _ARRAYS:
        array = getattr(model.fit, name)
        written = _lower(array) if array.ndim == 2 else array
        assert np.array_equal(_decoded(stored[name]), written), name
        reloaded = getattr(clone.fit, name)
        assert np.array_equal(reloaded, getattr(model.fit, name)), name
        assert reloaded.dtype == np.float64 and reloaded.flags.writeable, name
    np.testing.assert_array_equal(
        model.predict(data.test0), clone.predict(data.test0)
    )
    np.testing.assert_allclose(
        model.decision_values(data.test1), clone.decision_values(data.test1), atol=1e-10
    )
    assert clone.label_map == model.label_map
    assert clone.fit.gamma1 == model.fit.gamma1


def test_predict_refuses_scores_that_overflow(majority_first_train):
    """Rows so far out that their quadratic forms overflow score NaN, and a
    NaN score is refused where it is made rather than read as class 1. The
    linear rule's score overflows only near the top of the float range."""
    train, _ = majority_first_train
    model = fit_improved(train, 1.0)
    shared = fit(train, 1.0, 1.0)
    pooled = fit_pooled(train, 1.0)
    mixture = build_mixture(small_config(p=20, n0=40, n1=20, seed=1))
    X = np.full((2, train.p), 1e200)
    X[1] *= -1.0
    for score, rows in (
        (model.predict, X),
        (model.decision_values, X),
        (lambda rows: rqda_scores(rows, shared, model.priors), X),
        (lambda rows: qda_scores_true(rows, mixture), X),
        (lambda rows: rlda_scores(rows, pooled, model.priors), 1.7e108 * X),
    ):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="2 of 2 scores are NaN or infinite"):
                score(rows)


def test_model_with_a_nonfinite_bias_neither_predicts_nor_saves(majority_first_train):
    train, data = majority_first_train
    broken = dataclasses.replace(fit_improved(train, 1.0), theta=float("nan"))
    with pytest.raises(ValueError, match="finite"):
        broken.predict(data.test0)
    with pytest.raises(ValueError, match="JSON compliant"):
        broken.to_json()


def _dumped(model):
    """The model file as one ``json.dumps`` of the whole record."""
    fit = model.fit
    record = {
        "format_version": FORMAT_VERSION,
        "theta": model.theta,
        "label_map": list(model.label_map),
        "priors": list(model.priors),
        "gamma0": fit.gamma0,
        "gamma1": fit.gamma1,
        "n0": fit.n0,
        "n1": fit.n1,
        "trace": [dataclasses.asdict(entry) for entry in model.trace],
    }
    for key in ("mu_hat0", "mu_hat1"):
        record[key] = _encoded(getattr(fit, key))
    for key in ("sigma_hat0", "sigma_hat1"):
        record[key] = _encoded(_lower(getattr(fit, key)))
    return json.dumps(record, sort_keys=True, allow_nan=False)


def test_model_json_is_one_dump_of_the_whole_record(majority_first_train):
    train, _ = majority_first_train
    tuned = fit_improved(train, None, grid=np.logspace(-1, 1, 5))
    odd = (
        TuningEntry(gamma0=0.5, total_hat=None, failure='say "no" \\ to \u00e9t\u00e9 \u2014 "mu_hat0": ""'),
        TuningEntry(gamma0=1.0, total_hat=0.25, failure=None),
    )
    for model in (tuned, fit_improved(train, 1.3), dataclasses.replace(tuned, trace=odd)):
        assert model.to_json() == _dumped(model)
        assert ImprovedModel.from_json(model.to_json()).trace == model.trace


def test_model_json_rejects_other_format_versions(majority_first_train):
    train, _ = majority_first_train
    model = fit_improved(train, 1.0)
    payload = json.loads(model.to_json())
    payload["format_version"] = 99
    with pytest.raises(ValueError, match="format"):
        ImprovedModel.from_json(json.dumps(payload))


def test_model_json_reads_format_one_lists_exactly(majority_first_train):
    train, data = majority_first_train
    model = fit_improved(train, None, grid=np.logspace(-1, 1, 5))
    clone = ImprovedModel.from_json(json.dumps(_version1(model)))
    for name in _ARRAYS:
        assert np.array_equal(getattr(clone.fit, name), getattr(model.fit, name)), name
    for X in (data.test0, data.test1):
        assert np.array_equal(clone.decision_values(X), model.decision_values(X))
        assert np.array_equal(clone.predict(X), model.predict(X))
    assert clone.trace == model.trace
    assert (clone.theta, clone.label_map, clone.priors) == (model.theta, model.label_map, model.priors)


def test_model_json_reads_format_two_exactly(majority_first_train):
    train, data = majority_first_train
    model = fit_improved(train, None, grid=np.logspace(-1, 1, 5))
    clone = ImprovedModel.from_json(json.dumps(_version2(model)))
    for name in _ARRAYS:
        assert np.array_equal(getattr(clone.fit, name), getattr(model.fit, name)), name
    for X in (data.test0, data.test1):
        assert np.array_equal(clone.decision_values(X), model.decision_values(X))
    assert clone.trace == model.trace


_DATA = Path(__file__).parent / "data"


def test_a_format_two_file_reloads_bitwise_and_predicts_its_labels():
    """``model_format2_p6.json`` was written by the format-2 writer, with the
    labels it predicted on the stored rows; a reload reads back the very bytes
    it stored and predicts exactly those labels."""
    payload = (_DATA / "model_format2_p6.json").read_text()
    expected = json.loads((_DATA / "model_format2_p6_labels.json").read_text())
    stored = json.loads(payload)
    assert stored["format_version"] == 2
    model = ImprovedModel.from_json(payload)
    for name in _ARRAYS:
        assert _encoded(getattr(model.fit, name).ravel()) == stored[name], name
    assert model.fit.p == 6 and model.label_map == tuple(stored["label_map"])
    assert [model.theta, model.fit.gamma0, model.fit.gamma1] == [
        stored[key] for key in ("theta", "gamma0", "gamma1")
    ]
    rows = np.array(expected["rows"])
    assert np.array_equal(model.predict(rows), expected["labels"])
    assert 0 < sum(expected["labels"]) < len(expected["labels"])


def test_a_format_three_covariance_that_cannot_be_inverted_fails_at_load(majority_first_train):
    train, _ = majority_first_train
    good = json.loads(fit_improved(train, 1.0).to_json())
    p = len(_decoded(good["mu_hat0"]))
    indefinite = dict(good, sigma_hat1=_encoded(_lower(-10.0 * np.eye(p))))
    with pytest.raises(NotSpdError):
        ImprovedModel.from_json(json.dumps(indefinite))


def test_model_json_refuses_a_covariance_that_is_not_exactly_symmetric(majority_first_train):
    train, _ = majority_first_train
    model = fit_improved(train, 1.0)
    fit = model.fit
    tilted = fit.sigma_hat1.copy()
    tilted[0, 1] += 1e-15 * abs(tilted[0, 1])
    assert not np.array_equal(tilted, tilted.T)
    hand_built = FittedStats(
        fit.mu_hat0, fit.mu_hat1, fit.sigma_hat0, tilted, fit.gamma0, fit.gamma1, fit.n0, fit.n1
    )
    with pytest.raises(ValueError, match="sigma_hat1 is not exactly symmetric"):
        dataclasses.replace(model, fit=hand_built).to_json()


# Each case breaks one field in its list form: a mean is a list of numbers, a
# covariance a list of rows.
_ASYMMETRIC = ("sigma_hat0", lambda v: [[x + 0.5 * (i < j) for j, x in enumerate(row)] for i, row in enumerate(v)])
_BROKEN = [
    ("mu_hat0", lambda v: v[:-1]),
    ("mu_hat1", lambda v: [v, v]),
    ("sigma_hat0", lambda v: [row[:-1] for row in v]),
    ("sigma_hat1", lambda v: v[:-1]),
    _ASYMMETRIC,
    ("theta", lambda v: float("nan")),
    ("gamma1", lambda v: float("inf")),
    ("mu_hat1", lambda v: [float("nan")] + v[1:]),
    ("sigma_hat1", lambda v: [[float("inf")] + v[0][1:]] + v[1:]),
    ("n1", lambda v: float("nan")),
    ("gamma0", lambda v: 0.0),
    ("gamma1", lambda v: -1.0),
    ("n0", lambda v: 1),
    ("n1", lambda v: 0),
]


def _stored(version, field, listed):
    """A moment in its list form as format ``version`` stores it: the lists in
    format 1, else base64 text, in format 3 of only the lower triangle of a
    square covariance."""
    if version == 1:
        return listed
    array = np.array(listed)
    if version == 3 and field.startswith("sigma") and array.shape == array.shape[::-1]:
        array = _lower(array)
    return _encoded(np.ravel(array))


def test_model_json_rejects_broken_fields(majority_first_train):
    train, _ = majority_first_train
    model = fit_improved(train, 1.0)
    for good in (json.loads(model.to_json()), _version2(model), _version1(model)):
        version = good["format_version"]
        for case in _BROKEN:
            if version == 3 and case is _ASYMMETRIC:
                continue  # one stored triangle is symmetric by construction
            field, breaks = case
            if field in _ARRAYS:
                broken = _stored(version, field, breaks(getattr(model.fit, field).tolist()))
            else:
                broken = breaks(good[field])
            with pytest.raises(ValueError):
                ImprovedModel.from_json(json.dumps(dict(good, **{field: broken})))
                pytest.fail("accepted a broken %s in format %d" % (field, version))
    # Format 1 stores each covariance as a list of rows, never flat.
    flat = dict(_version1(model), sigma_hat0=model.fit.sigma_hat0.ravel().tolist())
    with pytest.raises(ValueError, match="sigma_hat0"):
        ImprovedModel.from_json(json.dumps(flat))
    # Text that is not strict base64 of the p float64 values of a mean, or of a
    # covariance's p * p values in format 2 and p(p+1)/2 in format 3; each
    # format's covariance length is wrong for the other.
    current, version2 = json.loads(model.to_json()), _version2(model)
    for good, other in ((current, version2), (version2, current)):
        mean = _decoded(good["mu_hat0"])
        undecodable = [
            ("mu_hat0", "!" + good["mu_hat0"][1:]),
            ("mu_hat1", good["mu_hat1"][:8] + "\n" + good["mu_hat1"][8:]),
            ("sigma_hat0", "\u00e9" + good["sigma_hat0"][1:]),
            ("mu_hat0", good["mu_hat0"][:-1]),
            ("mu_hat1", base64.b64encode(mean.tobytes() + b"\0").decode("ascii")),
            ("sigma_hat1", _encoded(np.append(_decoded(good["sigma_hat1"]), 0.0))),
            ("sigma_hat0", _encoded(_decoded(good["sigma_hat0"])[:-1])),
            ("sigma_hat0", base64.b64encode(_decoded(good["sigma_hat0"]).tobytes() + b"\0").decode("ascii")),
            ("sigma_hat1", other["sigma_hat1"]),
            ("mu_hat0", ""),
            ("sigma_hat1", _decoded(good["sigma_hat1"]).tolist()),
            ("mu_hat1", None),
        ]
        for field, broken in undecodable:
            with pytest.raises(ValueError, match=field):
                ImprovedModel.from_json(json.dumps(dict(good, **{field: broken})))
                pytest.fail("accepted a broken %s in format %d" % (field, good["format_version"]))
    good = current
    # A payload that is no JSON object, a missing field, a number that is text,
    # null, boolean, fractional where a whole number belongs, or a malformed
    # trace entry: each is refused with the field named.
    for payload in ("[]", "3", '"model"', "null"):
        with pytest.raises(ValueError, match="JSON object"):
            ImprovedModel.from_json(payload)
    for field in ("theta", "gamma1", "n0", "label_map", "priors", "trace", "sigma_hat1"):
        missing = {key: value for key, value in good.items() if key != field}
        with pytest.raises(ValueError, match=field):
            ImprovedModel.from_json(json.dumps(missing))
    entry = {"gamma0": 1.0, "total_hat": 0.1, "failure": None}
    with pytest.raises(ValueError, match="format"):
        ImprovedModel.from_json(json.dumps(dict(good, format_version=True)))
    malformed = [
        ("n0", 30.7),
        ("n1", "20"),
        ("n0", True),
        ("theta", None),
        ("gamma0", "1.0"),
        ("label_map", [0.5, 1]),
        ("label_map", [0]),
        ("label_map", [1, 1]),
        ("label_map", "01"),
        ("priors", [0.5]),
        ("priors", {"0": 0.5}),
        ("priors", ["0.5", 0.5]),
        ("trace", {}),
        ("trace", [[1.0, 0.1, None]]),
        ("trace", [{"gamma0": 1.0, "total_hat": 0.1}]),
        ("trace", [dict(entry, extra=1)]),
        ("trace", [dict(entry, total_hat=None)]),
        ("trace", [dict(entry, failure="ValueError: boom")]),
        ("trace", [dict(entry, total_hat=None, failure=3)]),
        ("trace", [dict(entry, gamma0="1.0")]),
        ("trace", [entry, dict(entry, total_hat=float("nan"))]),
    ]
    for field, broken in malformed:
        with pytest.raises(ValueError, match=field):
            ImprovedModel.from_json(json.dumps(dict(good, **{field: broken})))
            pytest.fail("accepted %r as %s" % (broken, field))
    accepted = ImprovedModel.from_json(json.dumps(dict(good, n0=float(good["n0"]), trace=[entry])))
    assert accepted.fit.n0 == good["n0"] and accepted.trace[0].total_hat == 0.1
