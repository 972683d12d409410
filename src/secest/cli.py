"""Scenario files, experiment runners, and the command-line interface.

Scenario files are JSON documents describing the plant (random or
explicit matrices), the adversary, the detector window/threshold, and
the search method.  Sensor indices are 1-based and matrices row-major,
and every emitted artifact carries a schema_version.

Subcommands: simulate, detect, search, exp1, exp2, decode-noiseless,
obsv.  Exit codes: 0 success, 2 scenario/parse error, 3 analysis error,
4 I/O error.  SECEST_THREADS caps repetition parallelism (default 1);
wall-clock columns and fields are machine-dependent, so ``--no-timing``
zeroes them, in CSV and JSON alike, for byte-reproducible artifacts.

The scenario's ``k`` is stored once, as the detector configuration's
attack bound, and every residue test runs through a
`secest.detect.SubsetBank`: one per experiment-1 repetition, one
prewarmed bank per experiment-2 sensor count, and one per search call in
`run_scenario`.  `parse_scenario` checks the JSON types of the fields
the runners use, so a malformed file is a scenario error (exit 2).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from itertools import combinations
from typing import Any, Callable

import numpy as np

from .detect import DetectorConfig, SubsetBank, attack_detect
from .errors import AnalysisError, ConfigError, ScenarioError
from .kalman import PREDICTION
from .model import (
    AttackSpec,
    ConstantBias,
    NoAttack,
    NoiseLinear,
    SeededRandom,
    SystemModel,
    ZeroOutput,
    make_random_stable_system,
    simulate,
)
from .noiseless import decode, detect_corruption, encode
from .observability import (
    full_subset,
    is_observable,
    min_gram_eigenvalue,
    sparse_observability_index,
)
from .search import exhaustive_search, smt_search

SCHEMA_VERSION = 1

__all__ = [
    "Scenario",
    "load_scenario",
    "parse_scenario",
    "default_experiment1_scenario",
    "default_experiment2_scenario",
    "run_scenario",
    "run_experiment1",
    "run_experiment2",
    "main",
]


# ---------------------------------------------------------------------------
# Scenario files


@dataclass
class Scenario:
    raw: dict
    model_spec: dict
    attack_attacked: tuple[int, ...] | None  # None: draw k sensors per rep
    attack_strategy: Any
    detector: DetectorConfig
    search_method: str
    repetitions: int
    seed: int
    horizon: int | None = None
    burn_in: int | None = None
    x0: list | None = None
    subset: tuple[int, ...] | None = None
    noiseless: dict | None = None

    @property
    def k(self) -> int:
        """The attack bound, read from the detector configuration."""
        return self.detector.k

    def build_model(self, rep: int = 0, p: int | None = None) -> SystemModel:
        """The plant; a random one draws with seed + rep, and ``p``
        overrides its sensor count."""
        spec = self.model_spec
        if "random" in spec:
            r = spec["random"]
            return make_random_stable_system(
                n=r["n"],
                p=r["p"] if p is None else p,
                spectral_radius=r.get("spectral_radius", 0.9),
                seed=r.get("seed", 0) + rep,
                sigma_w2=r.get("sigma_w2", 1.0),
                sigma_v2=r.get("sigma_v2", 1.0),
            )
        e = spec["explicit"]
        return SystemModel(
            A=np.array(e["A"], dtype=float),
            C=np.array(e["C"], dtype=float),
            sigma_w2=e.get("sigma_w2", 1.0),
            sigma_v2=e.get("sigma_v2", 1.0),
        )

    def build_attack(self, model: SystemModel, rep_seed: int) -> AttackSpec:
        attacked = self.attack_attacked
        if attacked is None:
            rng = np.random.Generator(np.random.PCG64(rep_seed ^ 0x5EED))
            attacked = tuple(
                sorted(rng.choice(model.p, size=self.k, replace=False) + 1)
            )
        return AttackSpec(attacked=attacked, strategy=self.attack_strategy)

    def default_horizon(self, model: SystemModel) -> int:
        if self.horizon is not None:
            return self.horizon
        return self.detector.t1 + self.detector.window_length(model.n) + model.n

    def default_burn_in(self, model: SystemModel) -> int:
        return self.burn_in if self.burn_in is not None else 10 * model.n


def _parse_gain(raw) -> float | tuple[float, ...]:
    if isinstance(raw, (list, tuple)):
        return tuple(float(g) for g in raw)
    return float(raw)


_STRATEGIES: dict[str, Callable[[dict], Any]] = {
    "none": lambda d: NoAttack(),
    "zero_output": lambda d: ZeroOutput(),
    "noise_linear": lambda d: NoiseLinear(gain=_parse_gain(d.get("gain", 1.0))),
    "constant": lambda d: ConstantBias(bias=tuple(float(b) for b in d.get("bias", []))),
    "seeded_random": lambda d: SeededRandom(amplitude=float(d.get("amplitude", 1.0))),
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    # an integer beyond the float range counts as infinite
    return _is_number(value) and abs(value) <= sys.float_info.max


def _is_ints(value) -> bool:
    return isinstance(value, list) and all(map(_is_int, value))


def _is_numbers(value) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


def _check(value, name: str, ok: Callable[[Any], bool], what: str) -> None:
    """ScenarioError unless the optional field ``value`` is None or ``ok``."""
    if value is not None and not ok(value):
        raise ScenarioError(f"{name} must be {what}, got {value!r}")


def parse_scenario(doc: dict) -> Scenario:
    try:
        if not isinstance(doc, dict):
            raise ScenarioError("scenario root must be a JSON object")
        version = doc.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ScenarioError(f"unsupported schema_version {version}")
        model_spec = doc["model"]
        if "random" not in model_spec and "explicit" not in model_spec:
            raise ScenarioError("model needs a 'random' or 'explicit' section")
        attack_doc = doc.get("attack", {})
        attacked_field = attack_doc.get("attacked", [])
        if attacked_field == "random":
            attacked = None
        else:
            _check(attacked_field, "attack.attacked", _is_ints, 'a list of integers or "random"')
            attacked = tuple(attacked_field)
        strategy_doc = attack_doc.get("strategy", {"type": "none"})
        stype = strategy_doc.get("type", "none")
        if stype not in _STRATEGIES:
            raise ScenarioError(f"unknown attack strategy {stype!r}")
        strategy = _STRATEGIES[stype](strategy_doc)

        k, seed, repetitions = doc.get("k", 0), doc.get("seed", 0), doc.get("repetitions", 1)
        for key, value in (("k", k), ("seed", seed), ("repetitions", repetitions)):
            if not _is_int(value):  # required: an explicit null is no integer either
                raise ScenarioError(f"{key} must be an integer, got {value!r}")
        for key in ("horizon", "burn_in"):
            _check(doc.get(key), key, _is_int, "an integer")
        det = doc.get("detector", {})
        for key in ("N", "t1"):
            _check(det.get(key), f"detector.{key}", _is_int, "an integer")
        _check(det.get("epsilon"), "detector.epsilon", _is_number, "a number")
        eta = det.get("eta", "auto")
        if eta != "auto":
            _check(eta, "detector.eta", _is_number, 'a number or "auto"')
        detector = DetectorConfig(
            epsilon=float(det.get("epsilon", 1.0)),
            N=det.get("N", 20000),
            t1=det.get("t1", 200),
            mode=det.get("mode", PREDICTION),
            eta=None if eta == "auto" else float(eta),
            k=k,
        )
        method = doc.get("search", "exhaustive")
        if method not in ("exhaustive", "smt", "both"):
            raise ScenarioError(f"unknown search method {method!r}")
        if seed < 0:
            raise ScenarioError(f"seed must be nonnegative, got {seed}")
        if repetitions < 1:
            raise ScenarioError(f"repetitions must be positive, got {repetitions}")
        _check(doc.get("x0"), "x0", _is_numbers, "a list of numbers")
        exp2 = doc.get("experiment2", {})
        if not isinstance(exp2, dict):
            raise ScenarioError(f"experiment2 must be an object, got {exp2!r}")
        for key, ok, what in (
            (
                "p_values",
                lambda v: _is_ints(v) and v and min(v) >= 2,  # k = max(1, p // 3) < p
                "a nonempty list of integers >= 2",
            ),
            ("weak_last_gain", _is_finite, "a finite number"),
        ):
            if key in exp2 and not ok(exp2[key]):  # an explicit null has no default
                raise ScenarioError(f"experiment2.{key} must be {what}, got {exp2[key]!r}")
        noiseless = doc.get("noiseless") or {}
        if "k" in noiseless and not _is_int(noiseless["k"]):
            raise ScenarioError(f"noiseless.k must be an integer, got {noiseless['k']!r}")
        _check(noiseless.get("x0"), "noiseless.x0", _is_numbers, "a list of numbers")
        corrupt = noiseless.get("corrupt") or {}
        if corrupt and not (
            {"sensors", "state"} <= set(corrupt)
            and _is_ints(corrupt["sensors"])
            and _is_numbers(corrupt["state"])
        ):
            raise ScenarioError(
                "noiseless.corrupt needs 'sensors', a list of integers, and 'state', "
                f"a list of numbers, got {corrupt!r}"
            )
        subset = doc.get("subset")
        _check(subset, "subset", _is_ints, "a list of integers")
        scenario = Scenario(
            raw=doc,
            model_spec=model_spec,
            attack_attacked=attacked,
            attack_strategy=strategy,
            detector=detector,
            search_method=method,
            repetitions=repetitions,
            seed=seed,
            horizon=doc.get("horizon"),
            burn_in=doc.get("burn_in"),
            x0=doc.get("x0"),
            subset=tuple(subset) if subset else None,
            noiseless=doc.get("noiseless"),
        )
        model = scenario.build_model(0)  # a malformed model is a scenario error
        n, p = model.n, model.p
        for name, bound in (("k", k), ("noiseless.k", noiseless.get("k", 0))):
            if not 0 <= bound < p:
                raise ScenarioError(f"{name} must be in [0, p={p}), got {bound}")
        for name, sensors in (
            ("attack.attacked", attacked or ()),
            ("subset", subset or ()),
            ("noiseless.corrupt.sensors", corrupt.get("sensors", ())),
        ):
            if len(set(sensors)) < len(sensors) or not set(sensors) <= set(range(1, p + 1)):
                raise ScenarioError(f"{name} must list distinct sensors in 1..{p}, got {sensors}")
        for name, state in (
            ("x0", doc.get("x0")),
            ("noiseless.x0", noiseless.get("x0")),
            ("noiseless.corrupt.state", corrupt.get("state")),
        ):
            if state is None:
                continue
            if len(state) != n:
                raise ScenarioError(f"{name} must have n={n} entries, got {len(state)}")
            if not all(map(_is_finite, state)):
                raise ScenarioError(f"{name} must be finite, got {state}")
        return scenario
    except ScenarioError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, ConfigError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    return parse_scenario(doc)


def default_experiment1_scenario() -> Scenario:
    """Desk-scale residue-test sweep: n=20, p=5, k=2, random attack on two
    sensors, threshold 0.7.  Noise intensities are sized so the clean
    subsets sit well below the threshold at N=20000."""
    return parse_scenario(
        {
            "schema_version": SCHEMA_VERSION,
            "model": {
                "random": {
                    "n": 20,
                    "p": 5,
                    "spectral_radius": 0.9,
                    "seed": 100,
                    "sigma_w2": 0.01,
                    "sigma_v2": 0.01,
                }
            },
            "attack": {
                "attacked": "random",
                "strategy": {"type": "seeded_random", "amplitude": 2.0},
            },
            "detector": {
                "epsilon": 1.0,
                "eta": 0.7,
                "N": 20000,
                "t1": 200,
                "mode": PREDICTION,
            },
            "k": 2,
            "search": "exhaustive",
            "repetitions": 50,
            "seed": 0,
        }
    )


def default_experiment2_scenario() -> Scenario:
    """Search-time sweep: n=50, p from 3 to 12, one third of the sensors
    under a noise-amplifying attack.  The first k sensors are attacked so
    the clean complement is the last subset the plain enumeration visits.
    """
    doc = {
        "schema_version": SCHEMA_VERSION,
        "model": {
            "random": {
                "n": 50,
                "p": 3,  # swept; see experiment2 section
                "spectral_radius": 0.9,
                "seed": 300,
                "sigma_w2": 0.001,
                "sigma_v2": 1.0,
            }
        },
        "attack": {"attacked": [], "strategy": {"type": "noise_linear", "gain": 10.0}},
        "detector": {
            "epsilon": 1.0,
            "eta": 15.0,
            "N": 300,
            "t1": 150,
            "mode": PREDICTION,
        },
        "k": 1,
        "search": "both",
        "repetitions": 50,
        "seed": 0,
        "experiment2": {"p_values": list(range(3, 13))},
    }
    return parse_scenario(doc)


# ---------------------------------------------------------------------------
# Parallel helpers


def _thread_count() -> int:
    raw = os.environ.get("SECEST_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _map_reps(fn: Callable[[int], Any], reps: int) -> list:
    """Apply fn to rep indices 0..reps-1, optionally in a thread pool;
    results come back ordered by rep index regardless of schedule."""
    threads = _thread_count()
    if threads <= 1 or reps <= 1:
        return [fn(i) for i in range(reps)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(reps)))


# ---------------------------------------------------------------------------
# Experiment 1: residue test across all subsets


def run_experiment1(scenario: Scenario) -> list[dict]:
    """One row per (repetition, subset): the subset's max residue
    deviation against the threshold and whether it passed."""
    rows: list[dict] = []

    def one_rep(rep: int) -> list[dict]:
        rep_seed = scenario.seed + rep
        model = scenario.build_model(rep)
        attack = scenario.build_attack(model, rep_seed)
        cfg = scenario.detector
        traj = simulate(
            model,
            attack,
            scenario.default_horizon(model),
            seed=rep_seed,
            burn_in=scenario.default_burn_in(model),
        )
        clean = tuple(
            i for i in range(1, model.p + 1) if i not in attack.attacked
        )
        bank = SubsetBank(model, cfg)
        out = []
        for s in combinations(range(1, model.p + 1), model.p - scenario.k):
            flag, _, report = bank.detect(traj, s)
            out.append(
                {
                    "rep_seed": rep_seed,
                    "attacked": "-".join(str(i) for i in attack.attacked),
                    "subset": "-".join(str(i) for i in s),
                    "max_deviation": report.max_deviation,
                    "eta": report.eta,
                    "passed": int(flag == 0),
                    "is_clean_complement": int(s == clean),
                }
            )
        return out

    for rep_rows in _map_reps(one_rep, scenario.repetitions):
        rows.extend(rep_rows)
    return rows


# ---------------------------------------------------------------------------
# Experiment 2: subset search timing, exhaustive vs guided


def run_experiment2(
    scenario: Scenario,
    per_run: Callable[[dict], None] | None = None,
) -> list[dict]:
    """Per sensor count p: mean/sd of wall time and detector-invocation
    counts for both search methods over the configured repetitions.

    ``per_run``, when given, receives one record per repetition with the
    raw timings and both SearchOutcome objects (for audits)."""
    exp2 = scenario.raw.get("experiment2", {})
    p_values = exp2.get("p_values", list(range(3, 13)))
    if "random" not in scenario.model_spec:
        raise ScenarioError("experiment 2 needs a random model section")

    rows: list[dict] = []
    for p in p_values:
        k = max(1, p // 3)
        model = scenario.build_model(rep=p, p=p)
        cfg = replace(scenario.detector, k=k)
        # The adversary corrupts the first k sensors (so the clean
        # complement is lexicographically last), and when it controls
        # more than one sensor it attacks the last of them too gently to
        # be effective; subsets whose only corrupted sensor is that one
        # rightly pass the test.
        strategy = scenario.attack_strategy
        if isinstance(strategy, NoiseLinear) and k >= 2 and not isinstance(strategy.gain, tuple):
            weak = float(exp2.get("weak_last_gain", 0.5))
            strategy = NoiseLinear(gain=(float(strategy.gain),) * (k - 1) + (weak,))
        attack = AttackSpec(attacked=tuple(range(1, k + 1)), strategy=strategy)
        n = model.n
        N = cfg.window_length(n)
        horizon = cfg.t1 + N + n
        # Filters and expected matrices of every (p-k)-subset and the full
        # set are built before the timed searches, which then isolate
        # residue testing and search logic.
        bank = SubsetBank(model, cfg)
        bank.prewarm(combinations(range(1, p + 1), p - k))
        bank.prewarm([full_subset(p)])

        def one_rep(rep: int) -> dict:
            rep_seed = scenario.seed + rep
            traj = simulate(model, attack, horizon, seed=rep_seed, burn_in=10 * model.n)
            detector = partial(bank.detect, traj)
            out_ex = exhaustive_search(model, traj, cfg, detector=detector)
            out_smt = smt_search(model, traj, cfg, detector=detector)
            return {
                "p": p,
                "k": k,
                "seed": rep_seed,
                "time_exhaustive": out_ex.wall_time,
                "time_smt": out_smt.wall_time,
                "outcome_exhaustive": out_ex,
                "outcome_smt": out_smt,
            }

        reps = _map_reps(one_rep, scenario.repetitions)
        if per_run is not None:
            for record in reps:
                per_run(record)
        times_ex = [r["time_exhaustive"] for r in reps]
        times_smt = [r["time_smt"] for r in reps]
        outs_ex = [r["outcome_exhaustive"] for r in reps]
        outs_smt = [r["outcome_smt"] for r in reps]
        checks_smt = [o.theory_checks for o in outs_smt]
        rows.append(
            {
                "p": p,
                "k": k,
                "mean_time_exhaustive": statistics.fmean(times_ex),
                "sd_time_exhaustive": statistics.pstdev(times_ex),
                "mean_time_smt": statistics.fmean(times_smt),
                "sd_time_smt": statistics.pstdev(times_smt),
                "mean_checks_exhaustive": statistics.fmean(o.theory_checks for o in outs_ex),
                "mean_checks_smt": statistics.fmean(checks_smt),
                "max_checks_smt": max(checks_smt),
                "mean_detector_calls_smt": statistics.fmean(o.detector_calls for o in outs_smt),
                "found_rate_exhaustive": statistics.fmean(float(o.found) for o in outs_ex),
                "found_rate_smt": statistics.fmean(float(o.found) for o in outs_smt),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# One-shot scenario pipeline


def _simulate_scenario(scenario: Scenario):
    """The scenario's model, attack and trajectory at its seed."""
    model = scenario.build_model()
    attack = scenario.build_attack(model, scenario.seed)
    traj = simulate(
        model,
        attack,
        scenario.default_horizon(model),
        x0=np.array(scenario.x0, dtype=float) if scenario.x0 else None,
        seed=scenario.seed,
        burn_in=scenario.default_burn_in(model),
    )
    return model, attack, traj


def run_scenario(scenario: Scenario) -> dict:
    """simulate -> search (per configured method) -> JSON-ready bundle."""
    model, attack, traj = _simulate_scenario(scenario)
    methods = (
        ["exhaustive", "smt"]
        if scenario.search_method == "both"
        else [scenario.search_method]
    )
    bundle: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "seed": scenario.seed,
        "attacked": list(attack.attacked),
        "k": scenario.k,
        "methods": {},
    }
    for method in methods:
        fn = exhaustive_search if method == "exhaustive" else smt_search
        outcome = fn(model, traj, scenario.detector)
        entry: dict[str, Any] = {"outcome": outcome.to_dict()}
        if outcome.report is not None:
            entry["report"] = outcome.report.to_dict()
        bundle["methods"][method] = entry
    return bundle


# ---------------------------------------------------------------------------
# Output helpers


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str, rows: list[dict], meta: str) -> None:
    if not rows:
        raise AnalysisError("no rows to write")
    header = list(rows[0].keys())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# secest {meta} schema_version={SCHEMA_VERSION}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[h]) for h in header])


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _strip_timing(obj):
    """Zero every wall-clock field: each key containing "time", at any depth."""
    if isinstance(obj, dict):
        return {k: (0.0 if "time" in k else _strip_timing(v)) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# Subcommands


def _emit(args, name: str, rows: list[dict] | None = None, obj=None) -> str:
    """Write the artifact in the requested format and return its path."""
    if args.no_timing:
        rows, obj = _strip_timing(rows), _strip_timing(obj)
    if args.format == "csv":
        if rows is None:
            raise ScenarioError(f"{name} has no CSV rendering; use --format json")
        path = os.path.join(args.out, f"{name}.csv")
        write_csv(path, rows, name)
    else:
        path = os.path.join(args.out, f"{name}.json")
        payload = obj if obj is not None else {"schema_version": SCHEMA_VERSION, "rows": rows}
        write_json(path, payload)
    return path


def _load(args, default: Callable[[], Scenario] | None = None) -> Scenario:
    if args.scenario:
        scenario = load_scenario(args.scenario)
    elif default is not None:
        scenario = default()
    else:
        raise ScenarioError("--scenario is required for this subcommand")
    if args.seed is not None:
        if args.seed < 0:
            raise ScenarioError(f"--seed must be nonnegative, got {args.seed}")
        scenario.seed = args.seed
    if args.reps is not None:
        if args.reps < 1:
            raise ScenarioError(f"--reps must be positive, got {args.reps}")
        scenario.repetitions = args.reps
    return scenario


def _cmd_simulate(args) -> int:
    scenario = _load(args)
    _, attack, traj = _simulate_scenario(scenario)
    rows = [
        {
            "t": t,
            **{f"x{j + 1}": traj.states[t, j] for j in range(traj.n)},
            **{f"y{i + 1}": traj.outputs[t, i] for i in range(traj.p)},
            **{f"a{i + 1}": traj.attack[t, i] for i in range(traj.p)},
        }
        for t in range(traj.horizon)
    ]
    obj = {
        "schema_version": SCHEMA_VERSION,
        "seed": scenario.seed,
        "attacked": list(attack.attacked),
        "states": traj.states.tolist(),
        "outputs": traj.outputs.tolist(),
        "clean_outputs": traj.clean_outputs.tolist(),
        "attack": traj.attack.tolist(),
    }
    path = _emit(args, "simulate", rows=rows, obj=obj)
    print(f"simulated horizon={traj.horizon} -> {path}")
    return 0


def _cmd_detect(args) -> int:
    scenario = _load(args)
    model, _, traj = _simulate_scenario(scenario)
    subset = scenario.subset or full_subset(model.p)
    flag, _, report = attack_detect(model, traj, subset, scenario.detector)
    rows = [
        {
            "subset": "-".join(str(i) for i in subset),
            "flag": flag,
            "max_deviation": report.max_deviation,
            "eta": report.eta,
            "passed": int(report.passed),
        }
    ]
    obj = {"schema_version": SCHEMA_VERSION, "flag": flag, "report": report.to_dict()}
    path = _emit(args, "detect", rows=rows, obj=obj)
    print(f"flag={flag} max_deviation={report.max_deviation:.6g} eta={report.eta:.6g} -> {path}")
    return 0


def _cmd_search(args) -> int:
    scenario = _load(args)
    bundle = run_scenario(scenario)
    rows = []
    for method, entry in bundle["methods"].items():
        o = entry["outcome"]
        rows.append(
            {
                "method": method,
                "found": int(o["found"]),
                "subset": "-".join(str(i) for i in o["subset"]) if o["subset"] else "",
                "theory_checks": o["theory_checks"],
                "wall_time": o["wall_time"],
            }
        )
    path = _emit(args, "search", rows=rows, obj=bundle)
    for row in rows:
        print(
            f"{row['method']}: found={bool(row['found'])} subset={row['subset'] or '-'} "
            f"checks={row['theory_checks']}"
        )
    print(f"-> {path}")
    return 0


def _cmd_exp1(args) -> int:
    scenario = _load(args, default_experiment1_scenario)
    rows = run_experiment1(scenario)
    path = _emit(args, "exp1", rows=rows, obj={"schema_version": SCHEMA_VERSION, "rows": rows})
    per_rep: dict[int, list[dict]] = {}
    for row in rows:
        per_rep.setdefault(row["rep_seed"], []).append(row)
    unique_ok = sum(
        1
        for rep_rows in per_rep.values()
        if sum(r["passed"] for r in rep_rows) == 1
        and all(r["passed"] <= r["is_clean_complement"] for r in rep_rows)
    )
    print(
        f"exp1: {len(per_rep)} repetitions, unique clean pass in {unique_ok} -> {path}"
    )
    return 0


def _cmd_exp2(args) -> int:
    scenario = _load(args, default_experiment2_scenario)
    rows = run_experiment2(scenario)
    path = _emit(args, "exp2", rows=rows, obj={"schema_version": SCHEMA_VERSION, "rows": rows})
    for row in rows:
        print(
            f"p={row['p']} k={row['k']} checks: exhaustive={row['mean_checks_exhaustive']:.1f} "
            f"smt={row['mean_checks_smt']:.1f}"
        )
    print(f"-> {path}")
    return 0


def _cmd_decode_noiseless(args) -> int:
    scenario = _load(args)
    model = scenario.build_model()
    spec = scenario.noiseless or {}
    k = spec.get("k", scenario.k)
    if spec.get("x0") is not None:
        x0 = np.array(spec["x0"], dtype=float)
    else:
        rng = np.random.Generator(np.random.PCG64(scenario.seed))
        x0 = rng.standard_normal(model.n)
    obs = encode(model, x0)
    corrupt = spec.get("corrupt")
    corrupted_true: list[int] = []
    if corrupt:
        x_alt = np.array(corrupt["state"], dtype=float)
        alt = encode(model, x_alt)
        replacements = {int(d): alt.symbols[int(d) - 1] for d in corrupt["sensors"]}
        obs = obs.with_symbols(replacements)
        corrupted_true = [int(d) for d in corrupt["sensors"]]
    detected = detect_corruption(model, obs)
    result = decode(model, obs, k)
    obj = {
        "schema_version": SCHEMA_VERSION,
        "corruption_detected": detected,
        "declared_corrupted": list(result.corrupted),
        "actually_corrupted": corrupted_true,
        "unique": result.unique,
        "state": result.state.tolist(),
        "true_state": x0.tolist(),
        "state_error": float(np.linalg.norm(result.state - x0)),
    }
    rows = [
        {
            "corruption_detected": int(detected),
            "unique": int(result.unique),
            "declared_corrupted": "-".join(str(i) for i in result.corrupted),
            "state_error": obj["state_error"],
        }
    ]
    path = _emit(args, "decode", rows=rows, obj=obj)
    print(
        f"decode: detected={detected} unique={result.unique} "
        f"state_error={obj['state_error']:.3g} -> {path}"
    )
    return 0


def _cmd_obsv(args) -> int:
    scenario = _load(args)
    model = scenario.build_model()
    theta = sparse_observability_index(model)
    rows = [
        {"sensor": i, "observable_alone": int(is_observable(model, (i,)))}
        for i in range(1, model.p + 1)
    ]
    obj: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "n": model.n,
        "p": model.p,
        "sparse_observability_index": theta,
        "sensors": rows,
    }
    if scenario.k and model.p > scenario.k:
        obj["min_gram_eigenvalue_full_k"] = min_gram_eigenvalue(
            model, full_subset(model.p), scenario.k
        )
    path = _emit(args, "obsv", rows=rows, obj=obj)
    print(f"theta={theta} -> {path}")
    return 0


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secest",
        description="Secure state estimation under sparse sensor attacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "simulate": _cmd_simulate,
        "detect": _cmd_detect,
        "search": _cmd_search,
        "exp1": _cmd_exp1,
        "exp2": _cmd_exp2,
        "decode-noiseless": _cmd_decode_noiseless,
        "obsv": _cmd_obsv,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--scenario", help="path to a scenario JSON file")
        p.add_argument("--seed", type=int, default=None, help="override scenario seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--reps", type=int, default=None, help="override repetitions")
        p.add_argument(
            "--no-timing",
            action="store_true",
            help="zero wall-clock fields for byte-reproducible artifacts",
        )
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except (AnalysisError, ConfigError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
