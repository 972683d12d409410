"""The benchmark tracer (benchmarks/spans.py) wraps secest functions by
module and name, and the benchmark workloads read and set scenario
fields after parsing; a moved or renamed function, or a field the
runners stop reading, makes the benchmark crash or measure something
else."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from secest import (
    AttackSpec,
    DetectorConfig,
    SeededRandom,
    cli,
    detect,
    kalman,
    make_random_stable_system,
    noiseless,
    search,
    simulate,
)

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
SPANS = BENCHMARKS / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_resolve():
    spans = _load_spans()
    missing = [
        f"secest.{mod_name}.{fn}"
        for mod_name, fns in spans.TRACED.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"secest.{mod_name}"), fn, None))
    ]
    assert missing == []
    assert callable(importlib.import_module("secest.cli").simulate)


def test_solve_steady_state_takes_model_first():
    # the tracer's Riccati counter reads the model from args[0]
    assert next(iter(inspect.signature(kalman.solve_steady_state).parameters)) == "model"


def test_scenario_k_readable_after_parsing():
    assert cli.default_experiment1_scenario().k == 2


def test_experiment2_reads_fields_set_after_parsing(monkeypatch):
    # exp2_banked edits the parsed scenario's raw experiment2 section and
    # model size, then times one run_experiment2 call
    scenario = cli.default_experiment2_scenario()
    scenario.model_spec["random"]["n"] = 4
    scenario.raw["experiment2"] = {"p_values": [4]}
    scenario.repetitions = 1
    sizes = []
    simulate = cli.simulate

    def recording_simulate(model, *args, **kwargs):
        sizes.append((model.n, model.p))
        return simulate(model, *args, **kwargs)

    monkeypatch.setattr(cli, "simulate", recording_simulate)
    rows = cli.run_experiment2(scenario)
    assert [row["p"] for row in rows] == [4]
    assert sizes == [(4, 4)]


def test_workload_attributes_resolve():
    # workloads.py imports from secest and calls it through module
    # attributes (cli.run_scenario, plant.simulate, ...); every name it
    # imports or reads must still exist
    tree = ast.parse((BENCHMARKS / "workloads.py").read_text())
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "secest"
    ]
    modules = {
        alias.asname or alias.name: f"secest.{alias.name}"
        for node in imports if node.module == "secest"
        for alias in node.names
    }
    read = {(node.module, alias.name) for node in imports for alias in node.names} | {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert {mod for mod, _ in read} >= {
        f"secest.{name}" for name in ("cli", "detect", "noiseless", "observability", "model")
    }
    missing = [
        f"{mod}.{attr}" for mod, attr in sorted(read)
        if not hasattr(importlib.import_module(mod), attr)
    ]
    assert missing == []
    assert "complete" in inspect.signature(noiseless.decode).parameters
    assert "per_run" in inspect.signature(cli.run_experiment2).parameters


def test_benchmark_reads_flags_passes_and_outcome_keys():
    # exp1_sweep keeps a subset when attack_detect(...)[0] is 0, the
    # tracer counts the passes of residue_report(...).passed, and the
    # search gates read keys of SearchOutcome.to_dict(), of its trace
    # entries and of its certificates
    m = make_random_stable_system(3, 4, 0.85, seed=60, sigma_w2=0.5, sigma_v2=0.7)
    cfg = DetectorConfig(epsilon=1.0, N=3000, t1=80, eta=1.0, k=1)
    attack = AttackSpec((1,), SeededRandom(amplitude=4.0))
    traj = simulate(m, attack, cfg.t1 + cfg.window_length(m.n) + m.n, seed=1, burn_in=30)
    clean, full = (2, 3, 4), (1, 2, 3, 4)
    flags = [detect.attack_detect(m, traj, s, cfg)[0] for s in (clean, full)]
    assert flags == [0, 1] and all(type(flag) is int for flag in flags)
    bank = detect.SubsetBank(m, cfg)
    assert detect.residue_report(bank, traj, clean, bank.window_moment(traj)).passed is True

    outcome = search.smt_search(m, traj, cfg).to_dict()
    assert outcome["certificates"] and outcome["trace"]
    tree = ast.parse((BENCHMARKS / "workloads.py").read_text())
    gate = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "check_searches"
    )
    read = {
        node.slice.value for node in ast.walk(gate)
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
    }
    keys = set(outcome) | set(outcome["trace"][0]) | set(outcome["certificates"][0])
    assert {"found", "subset", "flag", "sense", "vars"} <= read <= keys
    assert {"detector_calls", "wall_time"} <= keys  # read by the runners


def test_tracer_counts_every_residue_test(monkeypatch):
    # the tracer counts residue tests and passes at residue_report; every
    # test, one the trace bound settles too, is one residue_report call,
    # so on a plant where the bound fails subsets the counts equal the
    # searches' detector calls and passing trace entries
    m = make_random_stable_system(4, 5, 0.85, seed=51, sigma_w2=0.5, sigma_v2=0.7)
    cfg = DetectorConfig(epsilon=1.0, N=600, t1=80, eta=1.0, k=1)
    attack = AttackSpec((2,), SeededRandom(amplitude=10.0))
    traj = simulate(m, attack, cfg.t1 + cfg.window_length(m.n) + m.n, seed=8, burn_in=30)
    settled = []
    residue_report = detect.residue_report

    def recording_report(*args):
        report = residue_report(*args)
        settled.append(report.settled)
        return report

    monkeypatch.setattr(detect, "residue_report", recording_report)
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        outcomes = [search.exhaustive_search(m, traj, cfg), search.smt_search(m, traj, cfg)]
    finally:
        tracer.uninstall()
    calls = sum(outcome.detector_calls for outcome in outcomes)
    passes = sum(entry["flag"] == 0 for outcome in outcomes for entry in outcome.trace)
    assert tracer.count["residue_tests"] == calls == len(settled)
    assert tracer.count["residue_passes"] == passes >= 1
    assert "bound" in settled
