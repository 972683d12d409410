import csv
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from secest import cli
from secest.cli import (
    default_experiment1_scenario,
    default_experiment2_scenario,
    load_scenario,
    main,
    parse_scenario,
    run_experiment1,
    run_experiment2,
    run_scenario,
)
from secest.errors import ScenarioError

SCALAR_SCENARIO = {
    "schema_version": 1,
    "model": {
        "explicit": {
            "A": [[1.0]],
            "C": [[1.0], [1.0], [1.0]],
            "sigma_w2": 1.0,
            "sigma_v2": 1.0,
        }
    },
    "attack": {"attacked": [], "strategy": {"type": "none"}},
    "detector": {"epsilon": 3.0, "eta": "auto", "N": 4000, "t1": 100},
    "k": 1,
    "search": "exhaustive",
    "repetitions": 1,
    "seed": 7,
}

# noiseless plant (n=2, p=4): every two sensors observe the state
NOISELESS_SCENARIO = {
    **SCALAR_SCENARIO,
    "model": {
        "explicit": {
            "A": [[0.9, 0.0], [0.0, 0.5]],
            "C": [[1.0, 0.0], [1.0, 1.0], [1.0, -1.0], [2.0, 1.0]],
            "sigma_w2": 0.0,
            "sigma_v2": 0.0,
        }
    },
    "noiseless": {
        "x0": [1.0, -2.0],
        "k": 1,
        "corrupt": {"sensors": [2], "state": [3.0, 4.0]},
    },
}


def write_scenario(tmp_path, doc, name="scenario.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_minimal_scalar_scenario_end_to_end(tmp_path):
    bundle = run_scenario(parse_scenario(SCALAR_SCENARIO))
    outcome = bundle["methods"]["exhaustive"]["outcome"]
    assert outcome["found"] is True
    assert len(outcome["subset"]) == 2
    assert bundle["methods"]["exhaustive"]["report"]["passed"] is True


def test_malformed_json_diagnostics(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"model": [,]}')
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    assert "line" in str(err.value)


def test_scenario_validation_errors():
    with pytest.raises(ScenarioError):
        parse_scenario({"schema_version": 99, "model": {"random": {"n": 2, "p": 2}}})
    with pytest.raises(ScenarioError):
        parse_scenario({"model": {}})
    with pytest.raises(ScenarioError):
        parse_scenario(
            {
                "model": {"random": {"n": 2, "p": 2}},
                "attack": {"strategy": {"type": "martian"}},
            }
        )
    with pytest.raises(ScenarioError):
        parse_scenario({"model": {"random": {"n": 2, "p": 2}}, "search": "bogus"})


def test_cli_exit_codes(tmp_path):
    scenario = write_scenario(tmp_path, SCALAR_SCENARIO)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["search", "--scenario", scenario, "--out", str(out), "--format", "json"]) == 0
    assert (out / "search.json").exists()

    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    assert main(["search", "--scenario", str(broken), "--out", str(out)]) == 2

    # analysis error: detector subset is unobservable (zero C row)
    bad = dict(SCALAR_SCENARIO)
    bad["model"] = {
        "explicit": {"A": [[1.0]], "C": [[0.0], [1.0], [1.0]], "sigma_w2": 1, "sigma_v2": 1}
    }
    bad["subset"] = [1]
    assert main(["detect", "--scenario", write_scenario(tmp_path, bad, "bad.json"), "--out", str(out)]) == 3

    # missing output directory is an I/O failure
    assert main(["search", "--scenario", scenario, "--out", str(tmp_path / "nope")]) == 4


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["detector"].update(N=10**16),
        lambda d: d.update(horizon=10**16),
        lambda d: d.update(burn_in=10**16),
        lambda d: d["detector"].update(N=10**19),
        lambda d: d.update(horizon=10**19),
        lambda d: d.update(burn_in=10**19),
    ],
    ids=["window", "horizon", "burn-in", "window-1e19", "horizon-1e19", "burn-in-1e19"],
)
def test_oversized_scenario_exits_3(tmp_path, capsys, edit):
    # 10**16 steps cannot be allocated even under overcommit, so numpy
    # refuses before touching memory; 10**19 exceeds numpy's largest array
    # size, which it reports as a ValueError.  main reports both in one line
    doc = json.loads(json.dumps(SCALAR_SCENARIO))
    edit(doc)
    scenario = write_scenario(tmp_path, doc)
    for command in ("simulate", "detect", "search", "exp1"):
        assert main([command, "--scenario", scenario, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("analysis error: out of memory: ") and err.count("\n") == 1


def test_overflowing_trajectory_exits_3(tmp_path, capsys):
    # x(t+1) = 3 x(t) passes 1.8e308 within a few hundred of its 3,000
    # steps; every command that simulates refuses the trajectory in one
    # line and writes no artifact
    doc = json.loads(json.dumps(SCALAR_SCENARIO))
    doc["model"]["explicit"]["A"] = [[3.0]]
    doc["detector"]["N"] = 3000
    scenario = write_scenario(tmp_path, doc)
    out = tmp_path / "out"
    out.mkdir()
    for command in ("simulate", "detect", "search", "exp1"):
        for fmt in ("csv", "json"):
            assert main([command, "--scenario", scenario, "--out", str(out), "--format", fmt]) == 3
            err = capsys.readouterr().err
            assert err.startswith("analysis error: ") and err.count("\n") == 1
    assert list(out.iterdir()) == []


def test_overflowing_window_products_exit_3(tmp_path, capsys):
    # a finite trajectory near 1e300 whose window products pass 1.8e308:
    # the residue test refuses it in one line and writes no artifact
    doc = json.loads(json.dumps(SCALAR_SCENARIO))
    doc["model"]["explicit"]["A"] = [[0.5]]
    doc.update(x0=[1e300], burn_in=0)
    doc["detector"].update(eta=1.0, N=300, t1=0)
    scenario = write_scenario(tmp_path, doc)
    out = tmp_path / "out"
    out.mkdir()
    for command in ("detect", "search", "exp1"):
        for fmt in ("csv", "json"):
            assert main([command, "--scenario", scenario, "--out", str(out), "--format", fmt]) == 3
            err = capsys.readouterr().err
            assert err.startswith("analysis error: ") and err.count("\n") == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("row", [0.0, 1e-170], ids=["zero", "underflowing-gram"])
def test_zero_observability_energy_exits_3(tmp_path, capsys, row):
    # sensor 2's lambda_max(O_2' O_2) is 0 in float64 (1e-170 squared
    # underflows), so its residue score, which detect and both searches
    # read, is undefined: it used to end in a ZeroDivisionError traceback.
    # exp1 reads no score and still runs
    doc = json.loads(json.dumps(SCALAR_SCENARIO))
    doc["model"]["explicit"].update(A=[[0.9]], C=[[1.0], [row], [1.0]])
    doc["attack"] = {"attacked": [1], "strategy": {"type": "constant", "bias": [50.0]}}
    doc["detector"].update(eta=0.5, N=400, t1=20)
    out = tmp_path / "out"
    out.mkdir()
    for command, method in (("detect", "smt"), ("search", "smt"), ("search", "exhaustive")):
        doc["search"] = method
        scenario = write_scenario(tmp_path, doc, f"{command}-{method}.json")
        assert main([command, "--scenario", scenario, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("analysis error: sensor 2 ") and err.count("\n") == 1
    assert list(out.iterdir()) == []
    assert main(["exp1", "--scenario", scenario, "--out", str(out)]) == 0


def test_overflowing_observability_rows_exit_3(tmp_path, capsys):
    # C_1 A passes 1.8e308, so no rank can be decided: obsv used to report
    # theta -1 and no sensor observable alone, though theta is 1
    doc = json.loads(json.dumps(SCALAR_SCENARIO))
    doc["model"]["explicit"].update(A=[[1e200, 0.0], [0.0, 0.5]], C=[[1e200, 1.0], [1.0, 1e-200]])
    scenario = write_scenario(tmp_path, doc)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["obsv", "--scenario", scenario, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("analysis error: ") and err.count("\n") == 1
    assert list(out.iterdir()) == []


def test_overflowing_symbol_norms_exit_3(tmp_path, capsys):
    # finite symbols 1e308, 1.5e308 and 1e308 whose norm, 2.06e308, passes
    # 1.8e308: the consistency bound used to become infinite, so a corrupted
    # sensor could go undetected and another be declared corrupted instead
    doc = json.loads(json.dumps(NOISELESS_SCENARIO))
    doc["model"]["explicit"].update(A=[[0.5]], C=[[1e308], [1e308], [1e308]])
    doc["noiseless"] = {"x0": [1.0], "k": 1, "corrupt": {"sensors": [2], "state": [1.5]}}
    scenario = write_scenario(tmp_path, doc)
    out = tmp_path / "out"
    out.mkdir()
    for fmt in ("csv", "json"):
        argv = ["decode-noiseless", "--scenario", scenario, "--out", str(out), "--format", fmt]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("analysis error: ") and err.count("\n") == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "model, noiseless, expected",
    [
        # symbols 1e200, 3e200 and 1e200, of norm 3.3e200: sensor 2 is
        # flagged and the state decoded from the other two
        (
            {"A": [[0.5]], "C": [[1e200], [1e200], [1e200]]},
            {"x0": [1.0], "k": 1, "corrupt": {"sensors": [2], "state": [3.0]}},
            {"corruption_detected": True, "declared_corrupted": [2], "unique": True},
        ),
        # sensors 1 and 3 see nothing, so the decoded state is sensor 2's
        # corrupted 1 and its error from x0 is 1e200
        (
            {"A": [[0.0]], "C": [[0.0], [1e80], [0.0]], "sigma_w2": 0.0, "sigma_v2": 0.0},
            {"x0": [1e200], "k": 1, "corrupt": {"sensors": [2], "state": [1.0]}},
            {"corruption_detected": False, "declared_corrupted": [3], "unique": False},
        ),
    ],
    ids=["symbol-norms", "state-error"],
)
def test_norms_of_entries_past_1e154_are_reported(tmp_path, model, noiseless, expected):
    # squaring these entries passes float64 though the norms do not, so
    # both used to be refused as overflowing
    doc = json.loads(json.dumps(SCALAR_SCENARIO))
    doc["model"]["explicit"].update(model)
    doc["noiseless"] = noiseless
    scenario = write_scenario(tmp_path, doc)
    argv = ["decode-noiseless", "--scenario", scenario, "--out", str(tmp_path), "--format", "json"]
    assert main(argv) == 0
    result = json.loads((tmp_path / "decode.json").read_text())
    assert {key: result[key] for key in expected} == expected
    true_error = abs(noiseless["x0"][0] - result["state"][0])
    assert result["state_error"] == pytest.approx(true_error, rel=1e-12, abs=1e-15)


# the five places where a finite scenario can pass float64 beyond the
# checks above: a Riccati solve, the window noise covariance, the Grams of
# the threshold and of the residue scores, and the decoded state's error.
# Each used to print numpy RuntimeWarnings before its one-line error, or
# exit 0 with Infinity in the artifact (obsv and decode-noiseless)
@pytest.mark.parametrize(
    "model, edits, commands",
    [
        (
            {"A": [[1e100]]},
            {"detector": {"eta": 1, "N": 1, "t1": 0}, "burn_in": 0},
            ("detect", "search", "exp1"),
        ),
        (
            {"A": [[0.5, 0.0], [0.0, 0.5]], "C": [[1e160, 0.0], [0.0, 1e160], [1.0, 1.0]],
             "sigma_w2": 0.0},
            {"detector": {"eta": 1, "N": 8, "t1": 2}},
            ("detect", "exp1"),
        ),
        (
            {"A": [[0.5, 0.0], [0.0, 0.25]],
             "C": [[1e160, 2e160], [3e160, -1e160], [1e160, 1e160]]},
            {},
            ("obsv",),
        ),
        (  # the decoded state is -1e308 against x0 = 1e308
            {"A": [[0.0]], "C": [[0.0], [0.5], [0.0]], "sigma_w2": 0.0, "sigma_v2": 0.0},
            {"noiseless": {"x0": [1e308], "k": 1, "corrupt": {"sensors": [2], "state": [-1e308]}}},
            ("decode-noiseless",),
        ),
        (
            {"A": [[0.5]], "C": [[1.0], [1.0], [1e160]], "sigma_w2": 0.0},
            {
                "attack": {"attacked": [3], "strategy": {"type": "constant", "bias": [50.0]}},
                "detector": {"eta": 1, "N": 8, "t1": 2},
            },
            ("detect", "search", "exp1"),
        ),
    ],
    ids=["riccati", "noise-covariance", "threshold-grams", "state-error", "sensor-grams"],
)
def test_overflow_past_float64_exits_3(tmp_path, capsys, model, edits, commands):
    doc = json.loads(json.dumps(SCALAR_SCENARIO))
    doc["model"]["explicit"].update(model)
    doc.update(edits)
    scenario = write_scenario(tmp_path, doc)
    out = tmp_path / "out"
    out.mkdir()
    for command in commands:
        for fmt in ("csv", "json"):
            assert main([command, "--scenario", scenario, "--out", str(out), "--format", fmt]) == 3
            err = capsys.readouterr().err
            assert err.startswith("analysis error: ") and err.count("\n") == 1
    assert list(out.iterdir()) == []


def test_detect_exits_3_where_the_bound_fails_a_subset_whose_solve_raises(tmp_path, capsys):
    # the trace bound fails subset (1, 2) of this stable plant without its
    # Riccati solve, which meets a singular matrix; detect returns the
    # filter run of every subset, so it still solves, and exits 3
    doc = json.loads(json.dumps(SCALAR_SCENARIO))
    doc["model"]["explicit"].update(A=[[0.5]], sigma_v2=1e-38)
    doc.update(
        attack={"attacked": [1], "strategy": {"type": "constant", "bias": [1e15]}},
        detector={"epsilon": 1.0, "eta": 1.0, "N": 40, "t1": 10},
        subset=[1, 2],
    )
    scenario = write_scenario(tmp_path, doc)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["detect", "--scenario", scenario, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "analysis error: Riccati solve for subset (1, 2) met a singular matrix\n"
    assert list(out.iterdir()) == []


def test_missing_scenario_and_explicit_exp2_model_exit_2(tmp_path, capsys):
    assert main(["detect", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "scenario error: --scenario is required for this subcommand\n"
    scenario = write_scenario(tmp_path, SCALAR_SCENARIO)
    assert main(["exp2", "--scenario", scenario, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "scenario error: experiment 2 needs a random model section\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "scenario.json"]


ALL_COMMANDS = ("simulate", "detect", "search", "exp1", "exp2", "decode-noiseless", "obsv")


@pytest.mark.parametrize(
    "edit, commands",
    [
        (lambda d: d["model"]["random"].update(n=10**10), ALL_COMMANDS),
        (lambda d: d["model"]["random"].update(n=10**19), ALL_COMMANDS),
        (lambda d: d["model"]["random"].update(p=10**19), ALL_COMMANDS),
        (lambda d: d.update(experiment2={"p_values": [10**19]}), ("exp2",)),
        (lambda d: d["model"]["random"].update(p=10**10), ALL_COMMANDS),
    ],
    ids=["n-1e10", "n-1e19", "p-1e19", "exp2-p-1e19", "p-1e10"],
)
def test_oversized_model_exits_3(tmp_path, capsys, edit, commands):
    # an n x n or p x n draw past numpy's largest array, which numpy
    # refuses before allocating with a ValueError, or past physical memory
    # (p = 10**10 at n = 2 asks for 149 GiB), which the host may try to
    # allocate; both are refused before anything is allocated
    import tracemalloc

    doc = {**json.loads(json.dumps(SCALAR_SCENARIO)), "model": {"random": {"n": 2, "p": 3}}}
    edit(doc)
    scenario = write_scenario(tmp_path, doc)
    for command in commands:
        tracemalloc.start()
        try:
            code = main([command, "--scenario", scenario, "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and peak < 1 << 20
        err = capsys.readouterr().err
        assert err.startswith("analysis error: out of memory: ") and err.count("\n") == 1


def _strategy(kind, **params):
    return {"type": kind, **params}


def _malformed(edit, base=SCALAR_SCENARIO):
    doc = json.loads(json.dumps(base))
    edit(doc)
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        _malformed(lambda d: d.update(model={"random": {"n": 2, "p": 3, "spectral_radius": "0.5"}})),
        _malformed(lambda d: d.update(seed=-1)),
        _malformed(lambda d: d.update(noiseless={"corrupt": {"sensors": [2]}})),
        _malformed(lambda d: d["model"]["explicit"].update(A=[[1.0, 0.0], [1.0]])),
        _malformed(lambda d: d.update(noiseless=[2])),
        _malformed(lambda d: d.update(repetitions=0)),
        _malformed(lambda d: d.update(k=-1)),
        _malformed(lambda d: d["attack"].update(attacked=[7])),
        _malformed(lambda d: d.update(subset=[9])),
        _malformed(lambda d: d.update(subset=[])),
        _malformed(lambda d: d.update(k=5)),
        _malformed(lambda d: d["attack"].update(attacked=[1, 1])),
        _malformed(lambda d: d["noiseless"].update(k=None), NOISELESS_SCENARIO),
        _malformed(lambda d: d["noiseless"]["corrupt"].update(sensors=[9]), NOISELESS_SCENARIO),
        _malformed(lambda d: d["noiseless"]["corrupt"].update(sensors=[2, 2]), NOISELESS_SCENARIO),
        _malformed(lambda d: d["noiseless"].update(k=4), NOISELESS_SCENARIO),
        _malformed(lambda d: d["noiseless"]["corrupt"].update(state=[3.0]), NOISELESS_SCENARIO),
        _malformed(lambda d: d["noiseless"].update(x0=[1.0]), NOISELESS_SCENARIO),
        _malformed(lambda d: d["noiseless"].update(x0=[float("nan"), 1.0]), NOISELESS_SCENARIO),
        _malformed(
            lambda d: d["noiseless"]["corrupt"].update(state=[float("inf"), 4.0]),
            NOISELESS_SCENARIO,
        ),
        _malformed(lambda d: d.update(x0=[float("nan")])),
        _malformed(lambda d: d.update(x0=[1.0, 2.0])),
        _malformed(lambda d: d.update(x0=[10**400])),
        _malformed(lambda d: d.update(horizon=0)),
        _malformed(lambda d: d.update(burn_in=-1)),
        _malformed(
            lambda d: d["attack"].update(attacked=[1], strategy=_strategy("noise_linear", gain=[1, 2]))
        ),
        _malformed(
            lambda d: d["attack"].update(attacked=[1, 2], strategy=_strategy("constant", bias=[1]))
        ),
    ],
    ids=[
        "string-spectral-radius",
        "negative-seed",
        "corrupt-without-state",
        "ragged-A",
        "noiseless-not-an-object",
        "zero-repetitions",
        "negative-k",
        "attacked-out-of-range",
        "subset-out-of-range",
        "empty-subset",
        "k-not-below-p",
        "duplicate-attacked",
        "null-noiseless-k",
        "corrupt-sensor-out-of-range",
        "duplicate-corrupt-sensor",
        "noiseless-k-not-below-p",
        "short-corrupt-state",
        "short-noiseless-x0",
        "nan-noiseless-x0",
        "infinite-corrupt-state",
        "nan-x0",
        "long-x0",
        "huge-integer-x0",
        "zero-horizon",
        "negative-burn-in",
        "two-gains-one-sensor",
        "one-bias-two-sensors",
    ],
)
def test_malformed_scenario_exits_2(tmp_path, doc):
    scenario = write_scenario(tmp_path, doc)
    for command in ("search", "detect", "decode-noiseless"):
        assert main([command, "--scenario", scenario, "--out", str(tmp_path)]) == 2


def _random_model(doc):
    doc["model"] = {"random": {"n": 2, "p": 3, "seed": 1}}


@pytest.mark.parametrize(
    "command, edit",
    [
        ("search", lambda d: d.update(horizon="50")),
        ("search", lambda d: d.update(horizon=5.5)),
        ("search", lambda d: d.update(burn_in="5")),
        ("search", lambda d: d.update(x0="abc")),
        ("exp2", lambda d: (_random_model(d), d.update(experiment2=[1]))),
        ("exp2", lambda d: (_random_model(d), d.update(experiment2={"p_values": ["x"]}))),
        ("exp2", lambda d: (_random_model(d), d.update(experiment2={"p_values": []}))),
        ("exp2", lambda d: (_random_model(d), d.update(experiment2={"p_values": [1]}))),
        ("decode-noiseless", lambda d: d.update(noiseless={"k": "x"})),
        ("decode-noiseless", lambda d: d.update(noiseless={"x0": "abc"})),
        (
            "decode-noiseless",
            lambda d: d.update(noiseless={"corrupt": {"sensors": ["x"], "state": [1.0]}}),
        ),
        ("search", lambda d: d.update(k=1.7)),
        ("decode-noiseless", lambda d: d.update(k=None)),
        ("search", lambda d: d.update(seed="7")),
        ("search", lambda d: d.update(repetitions=1.5)),
        ("search", lambda d: d["detector"].update(N=4000.9)),
        ("search", lambda d: d["detector"].update(t1="100")),
        ("search", lambda d: d["detector"].update(epsilon="3")),
        ("search", lambda d: d["detector"].update(eta=True)),
        ("search", lambda d: d["attack"].update(attacked=[1.5])),
        ("detect", lambda d: d.update(subset=["2"])),
        ("search", lambda d: d["detector"].update(eta=float("nan"))),
        ("search", lambda d: d["detector"].update(epsilon=float("nan"))),
        ("search", lambda d: d["detector"].update(epsilon=float("inf"))),
        ("search", lambda d: d["attack"].update(strategy=_strategy("noise_linear", gain="10"))),
        ("search", lambda d: d["attack"].update(strategy=_strategy("noise_linear", gain=True))),
        (
            "search",
            lambda d: d["attack"].update(strategy=_strategy("noise_linear", gain=float("nan"))),
        ),
        (
            "search",
            lambda d: d["attack"].update(
                attacked=[1], strategy=_strategy("seeded_random", amplitude=float("inf"))
            ),
        ),
        (
            "search",
            lambda d: d["attack"].update(
                attacked=[1], strategy=_strategy("constant", bias=[float("nan")])
            ),
        ),
        (
            "search",
            lambda d: d["attack"].update(attacked=[1], strategy=_strategy("constant", bias=["2"])),
        ),
        ("search", lambda d: d["model"]["explicit"].update(A=[["1.0"]])),
        ("search", lambda d: d["model"]["explicit"].update(A=[[True]])),
    ],
    ids=[
        "string-horizon",
        "fractional-horizon",
        "string-burn-in",
        "string-x0",
        "experiment2-not-an-object",
        "string-p-value",
        "empty-p-values",
        "single-sensor-p-value",
        "string-noiseless-k",
        "string-noiseless-x0",
        "string-corrupt-sensor",
        "fractional-k",
        "null-k",
        "string-seed",
        "fractional-repetitions",
        "fractional-N",
        "string-t1",
        "string-epsilon",
        "boolean-eta",
        "fractional-attacked",
        "string-subset",
        "nan-eta",
        "nan-epsilon",
        "infinite-epsilon",
        "string-gain",
        "boolean-gain",
        "nan-gain",
        "infinite-amplitude",
        "nan-bias",
        "string-bias",
        "string-matrix-entry",
        "boolean-matrix-entry",
    ],
)
def test_mistyped_field_exits_2(tmp_path, command, edit):
    scenario = write_scenario(tmp_path, _malformed(edit))
    assert main([command, "--scenario", scenario, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "edit, path",
    [
        (lambda doc: doc.update(detecor={"eta": 5}), "detecor"),
        (lambda doc: doc["detector"].update(ETA=9), "detector.ETA"),
        (lambda doc: doc["model"]["explicit"].update(sigma=1.0), "model.explicit.sigma"),
        (lambda doc: doc["attack"]["strategy"].update(bais=[1.0]), "attack.strategy.bais"),
        (lambda doc: doc.update(noiseless={"corrupt": {"sensor": [1]}}), "noiseless.corrupt.sensor"),
    ],
    ids=["root", "detector", "model-explicit", "attack-strategy", "noiseless-corrupt"],
)
def test_unknown_scenario_key_exits_2(tmp_path, capsys, edit, path):
    # a key that is neither a field nor a section on a field's path is a
    # scenario error naming its dotted path, at any depth
    doc = json.loads(json.dumps(SCALAR_SCENARIO))
    edit(doc)
    scenario = write_scenario(tmp_path, doc)
    for command in ("search", "detect", "exp2", "decode-noiseless", "obsv"):
        assert main([command, "--scenario", scenario, "--out", str(tmp_path)]) == 2
        assert f"scenario error: unknown scenario key {path}\n" in capsys.readouterr().err


@pytest.mark.parametrize("override", [["--seed", "-1"], ["--reps", "0"]])
def test_out_of_range_override_exits_2(tmp_path, override):
    scenario = write_scenario(tmp_path, SCALAR_SCENARIO)
    assert main(["search", "--scenario", scenario, "--out", str(tmp_path), *override]) == 2


_FUZZ_FIELDS = [
    ("k",), ("seed",), ("repetitions",), ("search",), ("horizon",), ("burn_in",),
    ("x0",), ("subset",), ("schema_version",), ("model",), ("attack",), ("detector",),
    ("model", "explicit", "A"), ("model", "explicit", "C"),
    ("model", "explicit", "sigma_w2"), ("model", "explicit", "sigma_v2"),
    ("model", "random", "n"), ("model", "random", "p"), ("model", "random", "seed"),
    ("model", "random", "spectral_radius"), ("model", "random", "sigma_w2"),
    ("model", "random", "sigma_v2"),
    ("attack", "attacked"), ("attack", "strategy"), ("attack", "strategy", "type"),
    ("attack", "strategy", "gain"), ("attack", "strategy", "bias"),
    ("attack", "strategy", "amplitude"), ("detector", "epsilon"), ("detector", "eta"),
    ("detector", "N"), ("detector", "t1"), ("detector", "mode"),
    ("noiseless",), ("noiseless", "x0"), ("noiseless", "k"), ("noiseless", "corrupt"),
    ("noiseless", "corrupt", "sensors"), ("noiseless", "corrupt", "state"),
    ("experiment2",), ("experiment2", "p_values"), ("experiment2", "weak_last_gain"),
]
_DELETE = object()
_FUZZ_VALUES = st.one_of(
    st.just(_DELETE),
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "auto", "random", "filtering", "both", "zero_output", "noise_linear"]),
    st.lists(st.integers(-1, 4), max_size=4),
    st.lists(st.floats(-3, 3), max_size=3),
    # matrix entries: 0.0 and 1e-170, whose square underflows, give a
    # sensor no observability energy in float64; +-1e160 and -1e200, whose
    # products pass it, overflow a Gram, a Riccati solve or a window product
    st.lists(
        st.lists(
            st.one_of(st.floats(-3, 3), st.sampled_from([0.0, 1e-170, 1e160, -1e160, -1e200])),
            max_size=2,
        ),
        max_size=3,
    ),
    st.dictionaries(st.sampled_from(["type", "gain", "explicit", "random"]), st.integers(0, 3)),
)
# search and detect run on the scalar plant, decode-noiseless and obsv on
# the noiseless one, exp2 on a tiny random plant (p=6 attacks two sensors,
# so the weak last gain applies)
_FUZZ_BASES = {
    "search": SCALAR_SCENARIO,
    "detect": SCALAR_SCENARIO,
    "decode-noiseless": NOISELESS_SCENARIO,
    "obsv": NOISELESS_SCENARIO,
    "exp2": {
        **SCALAR_SCENARIO,
        "model": {"random": {"n": 3, "p": 3, "seed": 3, "sigma_w2": 0.001, "sigma_v2": 1.0}},
        "attack": {"attacked": [], "strategy": {"type": "noise_linear", "gain": 10.0}},
        "detector": {"epsilon": 1.0, "eta": 8.0},
        "experiment2": {"p_values": [3, 6], "weak_last_gain": 0.5},
    },
}


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    command=st.sampled_from(sorted(_FUZZ_BASES)),
    random_model=st.booleans(),
    edits=st.lists(st.tuples(st.sampled_from(_FUZZ_FIELDS), _FUZZ_VALUES), min_size=1, max_size=2),
)
# sigma_v2 below roundoff of C P C' once ended in numpy's LinAlgError
@example(command="search", random_model=False, edits=[(("model", "explicit", "sigma_v2"), 1e-38)])
# a null noiseless.k once ended in a TypeError, an out-of-range corrupted
# sensor in an IndexError
@example(command="decode-noiseless", random_model=False, edits=[(("noiseless", "k"), None)])
@example(
    command="decode-noiseless",
    random_model=False,
    edits=[(("noiseless", "corrupt", "sensors"), [9])],
)
# a sensor with no observability energy in float64 once ended in a
# ZeroDivisionError when its residue score was read
@example(
    command="detect",
    random_model=False,
    edits=[(("model", "explicit", "C"), [[1.0], [0.0], [1.0]])],
)
@example(
    command="detect",
    random_model=False,
    edits=[(("model", "explicit", "C"), [[1.0], [1e-170], [1.0]])],
)
# observability Grams and a decoded state's error past float64 once exited
# 0 with Infinity in the artifact
@example(
    command="obsv",
    random_model=False,
    edits=[
        (("model", "explicit", "A"), [[0.5, 0.0], [0.0, 0.25]]),
        (("model", "explicit", "C"), [[1e160, 2e160], [3e160, -1e160], [1e160, 1e160]]),
    ],
)
@example(
    command="decode-noiseless",
    random_model=False,
    edits=[
        (("model", "explicit", "A"), [[0.0]]),
        (("model", "explicit", "C"), [[0.0], [0.5], [0.0]]),
        (("noiseless",), {"x0": [1e308], "k": 1, "corrupt": {"sensors": [2], "state": [-1e308]}}),
    ],
)
# a null experiment2.p_values or weak_last_gain once ended in a TypeError
@example(command="exp2", random_model=False, edits=[(("experiment2", "p_values"), None)])
@example(command="exp2", random_model=False, edits=[(("experiment2", "weak_last_gain"), None)])
def test_mutated_scenario_keeps_exit_code_contract(command, random_model, edits):
    # main lets every exception outside the contract escape as a traceback
    doc = json.loads(json.dumps(_FUZZ_BASES[command]))
    doc["detector"].update(N=40, t1=10)
    if random_model and "explicit" in doc["model"]:  # a random plant of the same size
        C = doc["model"]["explicit"]["C"]
        doc["model"] = {"random": {"n": len(C[0]), "p": len(C), "seed": 1}}
    for path, value in edits:
        parent = doc
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if not isinstance(parent, dict):
            continue
        if value is _DELETE:
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as out:
        scenario = Path(out) / "scenario.json"
        scenario.write_text(json.dumps(doc))
        assert main([command, "--scenario", str(scenario), "--out", out]) in (0, 2, 3, 4)


def _number_paths(node, path=()):
    """The path to every number in a scenario document, list and matrix
    entries included."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _number_paths(child, path + (key,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


@pytest.mark.parametrize("base", ["search", "decode-noiseless", "exp2"])
@pytest.mark.parametrize(
    "mutate",
    [lambda v: float("nan"), lambda v: float("inf"), str, lambda v: True],
    ids=["nan", "infinity", "numeric-string", "true"],
)
def test_every_mutated_number_exits_2(tmp_path, base, mutate):
    # the scalar, noiseless and exp2 fuzz bases: each number, replaced,
    # is a scenario error on every subcommand
    failures = []
    for path in _number_paths(_FUZZ_BASES[base]):
        doc = json.loads(json.dumps(_FUZZ_BASES[base]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = mutate(parent[path[-1]])
        scenario = write_scenario(tmp_path, doc)
        for command in _FUZZ_BASES:
            code = main([command, "--scenario", scenario, "--out", str(tmp_path)])
            if code != 2:
                failures.append((path, command, code))
    assert failures == []


def test_runners_simulate_with_the_scenario_horizon_x0_and_burn_in(monkeypatch):
    doc = {
        "model": {"random": {"n": 3, "p": 3, "seed": 3, "sigma_w2": 0.001, "sigma_v2": 1.0}},
        "attack": {"attacked": [1], "strategy": {"type": "noise_linear", "gain": 10.0}},
        "detector": {"epsilon": 1.0, "eta": 8.0, "N": 60, "t1": 30},
        "k": 1,
        "horizon": 200,
        "x0": [5, 5, 5],
        "burn_in": 0,
        "experiment2": {"p_values": [3]},
    }
    calls = []
    simulate = cli.simulate

    def recording_simulate(model, attack, horizon, x0=None, seed=0, burn_in=0):
        calls.append((horizon, None if x0 is None else list(x0), burn_in))
        return simulate(model, attack, horizon, x0=x0, seed=seed, burn_in=burn_in)

    monkeypatch.setattr(cli, "simulate", recording_simulate)
    for runner in (run_scenario, run_experiment1, run_experiment2):
        runner(parse_scenario(doc))
    assert calls == [(200, [5, 5, 5], 0)] * 3


def test_readme_lists_every_scenario_field():
    # the README's field table is the users' copy of cli._FIELDS
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Scenario files", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^\| `([^`]+)` \|", section, flags=re.M) == list(cli._FIELDS)


def test_detect_and_obsv_subcommands(tmp_path):
    scenario = write_scenario(tmp_path, SCALAR_SCENARIO)
    assert main(["detect", "--scenario", scenario, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "detect.csv").read_text()
    assert text.startswith("# secest detect schema_version=1\n")
    assert "flag" in text.splitlines()[1]

    assert main(["obsv", "--scenario", scenario, "--out", str(tmp_path), "--format", "json"]) == 0
    report = json.loads((tmp_path / "obsv.json").read_text())
    assert report["sparse_observability_index"] == 2


def test_decode_noiseless_subcommand(tmp_path):
    scenario = write_scenario(tmp_path, NOISELESS_SCENARIO, "noiseless.json")
    assert main(
        ["decode-noiseless", "--scenario", scenario, "--out", str(tmp_path), "--format", "json"]
    ) == 0
    result = json.loads((tmp_path / "decode.json").read_text())
    assert result["corruption_detected"] is True
    assert result["state_error"] <= 1e-9
    assert result["declared_corrupted"] == [2]


def test_simulate_determinism(tmp_path):
    doc = dict(SCALAR_SCENARIO)
    doc["horizon"] = 50
    scenario = write_scenario(tmp_path, doc)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for out in (a, b):
        assert main(["simulate", "--scenario", scenario, "--out", str(out), "--seed", "3"]) == 0
    assert (a / "simulate.csv").read_bytes() == (b / "simulate.csv").read_bytes()


def test_csv_cells_are_numbers_or_documented_tokens(tmp_path):
    # every cell of every subcommand's CSV artifact is a plain number, a
    # sensor list (1-based indices joined by "-", empty for none) or a
    # search method name, as README's CLI section says
    doc = {
        "schema_version": 1,
        "model": {"random": {"n": 3, "p": 4, "seed": 5, "sigma_w2": 0.01, "sigma_v2": 0.01}},
        "attack": {"attacked": [2], "strategy": {"type": "seeded_random", "amplitude": 2.0}},
        "detector": {"epsilon": 1.0, "eta": 0.7, "N": 600, "t1": 30},
        "k": 1,
        "search": "both",
        "repetitions": 1,
        "horizon": 700,
        "experiment2": {"p_values": [3]},
        "noiseless": {"k": 1},
    }
    scenario = write_scenario(tmp_path, doc)
    names = {"decode-noiseless": "decode"}
    for command in ALL_COMMANDS:
        assert main([command, "--scenario", scenario, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / f"{names.get(command, command)}.csv").read_text().splitlines()
        cells = [cell for row in csv.reader(lines[2:]) for cell in row]
        assert cells
        for cell in cells:
            if cell not in ("exhaustive", "smt") and not re.fullmatch(r"(\d+(-\d+)*)?", cell):
                float(cell)


def test_search_no_timing_determinism(tmp_path):
    scenario = write_scenario(tmp_path, SCALAR_SCENARIO)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for out in (a, b):
        assert (
            main(
                [
                    "search",
                    "--scenario",
                    scenario,
                    "--out",
                    str(out),
                    "--format",
                    "json",
                    "--no-timing",
                ]
            )
            == 0
        )
    assert (a / "search.json").read_bytes() == (b / "search.json").read_bytes()


def test_exp2_json_no_timing_determinism(tmp_path):
    # exp2 rows carry mean_time_*/sd_time_* wall clocks besides wall_time
    doc = {
        "schema_version": 1,
        "model": {"random": {"n": 4, "p": 3, "seed": 3, "sigma_w2": 0.001, "sigma_v2": 1.0}},
        "attack": {"attacked": [], "strategy": {"type": "noise_linear", "gain": 10.0}},
        "detector": {"epsilon": 1.0, "eta": 8.0, "N": 300, "t1": 60},
        "k": 1,
        "repetitions": 2,
        "experiment2": {"p_values": [3]},
    }
    scenario = write_scenario(tmp_path, doc)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for out in (a, b):
        argv = ["exp2", "--scenario", scenario, "--out", str(out), "--format", "json", "--no-timing"]
        assert main(argv) == 0
    assert (a / "exp2.json").read_bytes() == (b / "exp2.json").read_bytes()


def test_experiment2_searches_solve_only_their_own_filters(monkeypatch):
    # each search keeps one bank per sensor count and solves a filter only
    # when one of its tests reads it: no subset is solved more than once
    # per search, and all solves together stay below the C(9, 6) + 1
    # filters of every exhaustive hypothesis and the full set.  Each
    # repetition's outcomes, but for the clock, are those of the searches
    # run with their own default banks on the same trajectory
    from collections import Counter
    from dataclasses import replace
    from math import comb

    from secest import detect, exhaustive_search, smt_search

    scenario = default_experiment2_scenario()
    scenario.raw["experiment2"] = {"p_values": [9]}
    scenario.repetitions = 2
    solves, trajectories, records = Counter(), [], []
    solve, simulate = detect._doubling_solve, cli.simulate

    def counted_solve(model, s, mode):
        solves[s] += 1
        return solve(model, s, mode)

    def recording_simulate(model, *args, **kwargs):
        trajectories.append((model, simulate(model, *args, **kwargs)))
        return trajectories[-1][1]

    monkeypatch.setattr(detect, "_doubling_solve", counted_solve)
    monkeypatch.setattr(cli, "simulate", recording_simulate)
    run_experiment2(scenario, per_run=records.append)
    monkeypatch.undo()
    assert max(solves.values()) <= 2
    assert sum(solves.values()) < comb(9, 6) + 1
    cfg = replace(scenario.detector, k=3)
    assert len(records) == 2
    for record, (model, traj) in zip(records, trajectories, strict=True):
        for key, search in [("outcome_exhaustive", exhaustive_search), ("outcome_smt", smt_search)]:
            got, want = record[key].to_dict(), search(model, traj, cfg).to_dict()
            del got["wall_time"], want["wall_time"]
            assert got == want


def test_experiment1_tiny_run():
    scenario = default_experiment1_scenario()
    scenario.repetitions = 2
    rows = run_experiment1(scenario)
    assert len(rows) == 2 * 10
    for rep_seed in {r["rep_seed"] for r in rows}:
        rep_rows = [r for r in rows if r["rep_seed"] == rep_seed]
        assert sum(r["passed"] for r in rep_rows) == 1
        passing = [r for r in rep_rows if r["passed"]][0]
        assert passing["is_clean_complement"] == 1


def test_experiment1_zero_threshold_fails_everything():
    scenario = default_experiment1_scenario()
    scenario.repetitions = 1
    scenario.detector = type(scenario.detector)(
        epsilon=scenario.detector.epsilon,
        N=scenario.detector.N,
        t1=scenario.detector.t1,
        mode=scenario.detector.mode,
        eta=1e-12,  # effectively zero: sample deviation is a.s. positive
        k=scenario.k,
    )
    rows = run_experiment1(scenario)
    assert all(r["passed"] == 0 for r in rows)


def test_experiment1_no_attack_all_pass():
    scenario = default_experiment1_scenario()
    scenario.repetitions = 2
    from secest import NoAttack

    scenario.attack_attacked = ()
    scenario.attack_strategy = NoAttack()
    rows = run_experiment1(scenario)
    assert all(r["passed"] == 1 for r in rows)


def test_experiment2_tiny_sweep_contract():
    scenario = default_experiment2_scenario()
    scenario.repetitions = 2
    scenario.raw["experiment2"]["p_values"] = [3, 4]
    rows = run_experiment2(scenario)
    assert [r["p"] for r in rows] == [3, 4]
    for row in rows:
        assert row["mean_checks_smt"] <= row["mean_checks_exhaustive"]
        assert row["found_rate_exhaustive"] == 1.0
        assert row["found_rate_smt"] == 1.0


def test_exp1_cli_determinism(tmp_path):
    doc = {
        "schema_version": 1,
        "model": {
            "random": {
                "n": 4,
                "p": 4,
                "spectral_radius": 0.85,
                "seed": 5,
                "sigma_w2": 0.01,
                "sigma_v2": 0.01,
            }
        },
        "attack": {"attacked": "random", "strategy": {"type": "seeded_random", "amplitude": 2.0}},
        "detector": {"epsilon": 1.0, "eta": 0.7, "N": 2000, "t1": 60},
        "k": 1,
        "repetitions": 2,
        "seed": 11,
    }
    scenario = write_scenario(tmp_path, doc)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for out in (a, b):
        assert main(["exp1", "--scenario", scenario, "--out", str(out)]) == 0
    assert (a / "exp1.csv").read_bytes() == (b / "exp1.csv").read_bytes()
