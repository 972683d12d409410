"""Scenario files, experiment runners, and the command-line interface.

A scenario file is one JSON object describing the plant (random or
explicit matrices), the adversary, the detector window/threshold, the
attack bound k and the search method.  `_FIELDS` declares every field
once, with its JSON kind and its default, and `_read` is the one reader
of a field: `parse_scenario` checks the whole document with it, and the
runners read their values through it.  Numeric ranges are checked by the
library types the fields build (`DetectorConfig`, `SystemModel`,
`make_random_stable_system`, `AttackSpec` and its strategies); only the
checks that need the plant's n or p come after the build.  So a
malformed file is a scenario error (exit 2) before anything runs.
Sensor indices are 1-based and matrices row-major, and every emitted
artifact carries a schema_version.

Subcommands: simulate, detect, search, exp1, exp2, decode-noiseless,
obsv.  Exit codes: 0 success, 2 scenario/parse error, 3 analysis error
(a problem too large to allocate included), 4 I/O error.  Wall-clock
columns and fields are machine-dependent, so ``--no-timing`` zeroes
them, in CSV and JSON alike, for byte-reproducible artifacts.

The scenario's ``k`` is stored once, as the detector configuration's
attack bound, and every residue test runs through a
`secest.detect.SubsetBank`: one per experiment-1 repetition, one per
search call in `run_scenario`, and one per search and sensor count in
experiment 2, kept across its repetitions.  Trajectories are tested
through `SubsetBank.detector(traj)`, and a bank solves only the filters
its tests read.  Every runner simulates through `_simulate_scenario`,
with the scenario's horizon, x0 and burn-in.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import sys
from dataclasses import dataclass, fields, replace
from itertools import combinations
from typing import Any, Callable

import numpy as np

from .detect import DetectorConfig, SubsetBank, attack_detect
from .errors import AnalysisError, ConfigError, ScenarioError, _finite
from .kalman import FILTERING, PREDICTION
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
from .noiseless import _norm, decode, detect_corruption, encode
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    # an integer beyond the float range counts as infinite
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


# A JSON kind: a test of the value and what the error message calls it.
_Kind = tuple[Callable[[Any], bool], str]


def _enum(*choices) -> _Kind:
    # type-strict: true is not 1, and 1.0 is not 1
    return (
        lambda v: any(type(v) is type(c) and v == c for c in choices),
        "one of " + ", ".join(map(json.dumps, choices)),
    )


def _either(a: _Kind, b: _Kind) -> _Kind:
    return lambda v: a[0](v) or b[0](v), f"{a[1]} or {b[1]}"


_INT: _Kind = (_is_int, "an integer")
_NONNEG_INT: _Kind = (lambda v: _is_int(v) and v >= 0, "a non-negative integer")
_POS_INT: _Kind = (lambda v: _is_int(v) and v >= 1, "a positive integer")
_NUMBER: _Kind = (_is_finite, "a finite number")
_INTS: _Kind = (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers")
_NUMBERS: _Kind = (
    lambda v: isinstance(v, list) and all(map(_is_finite, v)),
    "a list of finite numbers",
)
_MATRIX: _Kind = (
    lambda v: isinstance(v, list)
    and len(v) > 0
    and all(_NUMBERS[0](row) and 0 < len(row) == len(v[0]) for row in v),
    "a nonempty list of equally long, nonempty lists of finite numbers",
)

_REQUIRED = object()  # the field's section must give it
_ABSENT = object()  # the library type's own default applies

_STRATEGIES = {
    "none": NoAttack,
    "zero_output": ZeroOutput,
    "noise_linear": NoiseLinear,
    "constant": ConstantBias,
    "seeded_random": SeededRandom,
}

# Every scenario field, by dotted path: its JSON kind and its default.  A
# default of None is worked out at run time, and such a field may be null.
# A callable default reads it from the document.  README.md lists the same
# fields, with the subcommands that read them.
_FIELDS: dict[str, tuple[_Kind, Any]] = {
    "schema_version": (_enum(SCHEMA_VERSION), SCHEMA_VERSION),
    "model.random.n": (_INT, _REQUIRED),
    "model.random.p": (_INT, _REQUIRED),
    "model.random.spectral_radius": (_NUMBER, 0.9),
    "model.random.seed": (_NONNEG_INT, 0),
    "model.random.sigma_w2": (_NUMBER, _ABSENT),
    "model.random.sigma_v2": (_NUMBER, _ABSENT),
    "model.explicit.A": (_MATRIX, _REQUIRED),
    "model.explicit.C": (_MATRIX, _REQUIRED),
    "model.explicit.sigma_w2": (_NUMBER, 1.0),
    "model.explicit.sigma_v2": (_NUMBER, 1.0),
    "attack.attacked": (_either(_INTS, _enum("random")), ()),
    "attack.strategy.type": (_enum(*_STRATEGIES), "none"),
    "attack.strategy.gain": (_either(_NUMBER, _NUMBERS), _ABSENT),
    "attack.strategy.bias": (_NUMBERS, _ABSENT),
    "attack.strategy.amplitude": (_NUMBER, _ABSENT),
    "detector.epsilon": (_NUMBER, 1.0),
    "detector.eta": (_either(_NUMBER, _enum("auto")), "auto"),
    "detector.N": (_INT, _ABSENT),
    "detector.t1": (_INT, _ABSENT),
    "detector.mode": (_enum(PREDICTION, FILTERING), _ABSENT),
    "k": (_INT, 0),
    "search": (_enum("exhaustive", "smt", "both"), "exhaustive"),
    "repetitions": (_POS_INT, 1),
    "seed": (_NONNEG_INT, 0),
    "horizon": (_POS_INT, None),
    "burn_in": (_NONNEG_INT, None),
    "x0": (_NUMBERS, None),
    "subset": (_INTS, None),
    "noiseless.k": (_INT, lambda doc: _read(doc, "k")),
    "noiseless.x0": (_NUMBERS, None),
    "noiseless.corrupt.sensors": (_INTS, _REQUIRED),
    "noiseless.corrupt.state": (_NUMBERS, _REQUIRED),
    "experiment2.p_values": (
        # each sensor count p needs k = max(1, p // 3) < p
        (lambda v: _INTS[0](v) and len(v) > 0 and min(v) >= 2, "a nonempty list of integers >= 2"),
        tuple(range(3, 13)),
    ),
    "experiment2.weak_last_gain": (_NUMBER, 0.5),
}


# Every dotted path a scenario document may hold: its fields and the
# sections on their paths.
_PATHS = {path.rsplit(".", depth)[0] for path in _FIELDS for depth in range(path.count(".") + 1)}


def _check_keys(section: dict, prefix: str = "") -> None:
    """ScenarioError naming, by its dotted path, a key of ``section`` that is
    neither a field nor a section on a field's path, at any depth."""
    for key, value in section.items():
        path = prefix + key
        if path not in _PATHS:
            raise ScenarioError(f"unknown scenario key {path}")
        if isinstance(value, dict) and path not in _FIELDS:
            _check_keys(value, path + ".")


def _read(doc: dict, path: str):
    """Field ``path`` of the scenario ``doc``, checked against its kind, or
    its default when absent.  An absent or null section leaves every field
    in it at its default, and a list comes back as a tuple."""
    (test, what), default = _FIELDS[path]
    *sections, key = path.split(".")
    section = doc
    for depth, name in enumerate(sections, 1):
        section = section.get(name)
        if section is None:
            section = {}
            default = None if default is _REQUIRED else default
            break
        if not isinstance(section, dict):
            raise ScenarioError(f"{'.'.join(sections[:depth])} must be an object, got {section!r}")
    if key not in section:
        if default is _REQUIRED:
            raise ScenarioError(f"{path} is required")
        return default(doc) if callable(default) else default
    value = section[key]
    if value is None and default is None:
        return None
    if not test(value):
        raise ScenarioError(f"{path} must be {what}, got {value!r}")
    return tuple(value) if isinstance(value, list) else value


def _section(doc: dict, section: str) -> dict:
    """The fields of ``section`` by key, without those left to the library
    type's own default: the keyword arguments of the type it builds."""
    values = {
        path.rpartition(".")[2]: _read(doc, path)
        for path in _FIELDS
        if path.rpartition(".")[0] == section
    }
    return {key: value for key, value in values.items() if value is not _ABSENT}


@dataclass
class Scenario:
    """A checked scenario document, ``raw``, with the attack and detector it
    builds.  Other fields are read from ``raw`` (and the model from
    ``model_spec``) when they are used."""

    raw: dict
    model_spec: dict
    attack_attacked: tuple[int, ...] | None  # None: draw k sensors per rep
    attack_strategy: Any
    detector: DetectorConfig
    repetitions: int
    seed: int

    @property
    def k(self) -> int:
        """The attack bound, read from the detector configuration."""
        return self.detector.k

    def build_model(self, rep: int = 0, p: int | None = None) -> SystemModel:
        """The plant; a random one draws with seed + rep, and ``p``
        overrides its sensor count."""
        doc = {"model": self.model_spec}
        if "random" not in self.model_spec:
            return SystemModel(**_section(doc, "model.explicit"))
        args = _section(doc, "model.random")
        args["seed"] += rep
        if p is not None:
            args["p"] = p
        return make_random_stable_system(**args)

    def build_attack(self, model: SystemModel, rep_seed: int) -> AttackSpec:
        attacked = self.attack_attacked
        if attacked is None:
            rng = np.random.Generator(np.random.PCG64(rep_seed ^ 0x5EED))
            attacked = tuple(
                sorted(rng.choice(model.p, size=self.k, replace=False) + 1)
            )
        return AttackSpec(attacked=attacked, strategy=self.attack_strategy)

    def default_horizon(self, model: SystemModel) -> int:
        horizon = _read(self.raw, "horizon")
        if horizon is not None:
            return horizon
        return self.detector.t1 + self.detector.window_length(model.n) + model.n

    def default_burn_in(self, model: SystemModel) -> int:
        burn_in = _read(self.raw, "burn_in")
        return 10 * model.n if burn_in is None else burn_in


def parse_scenario(doc: dict) -> Scenario:
    """Check every field of ``doc`` and build its model, attack and detector
    once, so that a malformed scenario is a ScenarioError before any run."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario root must be a JSON object")
    _check_keys(doc)
    values = {path: _read(doc, path) for path in _FIELDS}
    model_spec = doc.get("model") or {}  # an object if present: _read checked it
    if model_spec.get("random", model_spec.get("explicit")) is None:
        raise ScenarioError("model needs a 'random' or 'explicit' section")
    try:
        strategy = _section(doc, "attack.strategy")
        strategy_type = _STRATEGIES[strategy.pop("type")]
        params = {f.name for f in fields(strategy_type)}
        detector = _section(doc, "detector")
        if detector["eta"] == "auto":
            detector["eta"] = None
        attacked = values["attack.attacked"]
        scenario = Scenario(
            raw=doc,
            model_spec=model_spec,
            attack_attacked=None if attacked == "random" else attacked,
            attack_strategy=strategy_type(**{k: v for k, v in strategy.items() if k in params}),
            detector=DetectorConfig(k=values["k"], **detector),
            repetitions=values["repetitions"],
            seed=values["seed"],
        )
        model = scenario.build_model()
        n, p = model.n, model.p
        for name in ("k", "noiseless.k"):
            if not 0 <= values[name] < p:
                raise ScenarioError(f"{name} must be in [0, p={p}), got {values[name]}")
        for name in ("attack.attacked", "subset", "noiseless.corrupt.sensors"):
            sensors = values[name]
            if name == "subset" and sensors == ():
                raise ScenarioError("subset must list at least one sensor, got []")
            if isinstance(sensors, tuple) and (
                len(set(sensors)) < len(sensors) or not set(sensors) <= set(range(1, p + 1))
            ):
                raise ScenarioError(f"{name} must list distinct sensors in 1..{p}, got {sensors}")
        for name in ("x0", "noiseless.x0", "noiseless.corrupt.state"):
            if values[name] is not None and len(values[name]) != n:
                raise ScenarioError(f"{name} must have n={n} entries, got {len(values[name])}")
        scenario.build_attack(model, scenario.seed)
        return scenario
    except ConfigError as exc:
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
            },
            "k": 2,
            "repetitions": 50,
        }
    )


def default_experiment2_scenario() -> Scenario:
    """Search-time sweep: n=50, p from 3 to 12, one third of the sensors
    under a noise-amplifying attack.  The first k sensors are attacked so
    the clean complement is the last subset the plain enumeration visits.
    """
    doc = {
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
        },
        "k": 1,
        "search": "both",
        "repetitions": 50,
        "experiment2": {"p_values": list(range(3, 13))},
    }
    return parse_scenario(doc)


# ---------------------------------------------------------------------------
# Experiment 1: residue test across all subsets


def run_experiment1(scenario: Scenario) -> list[dict]:
    """One row per (repetition, subset): the subset's max residue
    deviation against the threshold and whether it passed."""
    rows: list[dict] = []
    for rep in range(scenario.repetitions):
        rep_seed = scenario.seed + rep
        model = scenario.build_model(rep)
        attack = scenario.build_attack(model, rep_seed)
        traj = _simulate_scenario(scenario, model, attack, rep_seed)
        clean = tuple(
            i for i in range(1, model.p + 1) if i not in attack.attacked
        )
        detector = SubsetBank(model, scenario.detector).detector(traj)
        for s in combinations(range(1, model.p + 1), model.p - scenario.k):
            flag, report = detector(s)
            rows.append(
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
        del traj, detector  # not held while the next repetition simulates
    return rows


# ---------------------------------------------------------------------------
# Experiment 2: subset search timing, exhaustive vs guided


def run_experiment2(
    scenario: Scenario,
    per_run: Callable[[dict], None] | None = None,
) -> list[dict]:
    """Per sensor count p: mean/sd of wall time and detector-invocation
    counts for both search methods over the configured repetitions.

    ``per_run``, when given, receives each repetition's record, with the
    raw timings and both SearchOutcome objects (for audits), as soon as
    the repetition finishes."""
    if "random" not in scenario.model_spec:
        raise ScenarioError("experiment 2 needs a random model section")

    rows: list[dict] = []
    for p in _read(scenario.raw, "experiment2.p_values"):
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
            weak = _read(scenario.raw, "experiment2.weak_last_gain")
            strategy = NoiseLinear(gain=(strategy.gain,) * (k - 1) + (weak,))
        attack = AttackSpec(attacked=tuple(range(1, k + 1)), strategy=strategy)
        # Each search keeps its own bank across the repetitions, so its
        # timed searches solve exactly the filters its own tests read:
        # criterion 9 compares the two searches' times.
        bank_ex, bank_smt = SubsetBank(model, cfg), SubsetBank(model, cfg)

        reps = []
        for rep in range(scenario.repetitions):
            rep_seed = scenario.seed + rep
            traj = _simulate_scenario(scenario, model, attack, rep_seed)
            out_ex = exhaustive_search(model, traj, cfg, detector=bank_ex.detector(traj))
            out_smt = smt_search(model, traj, cfg, detector=bank_smt.detector(traj))
            record = {
                "p": p,
                "k": k,
                "seed": rep_seed,
                "time_exhaustive": out_ex.wall_time,
                "time_smt": out_smt.wall_time,
                "outcome_exhaustive": out_ex,
                "outcome_smt": out_smt,
            }
            reps.append(record)
            if per_run is not None:
                per_run(record)
            del traj  # not held while the next repetition simulates
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


def _simulate_scenario(scenario: Scenario, model: SystemModel, attack: AttackSpec, seed: int):
    """The trajectory of ``model`` under ``attack`` at ``seed``, over the
    scenario's horizon, from its x0 and after its burn-in.  ``simulate`` is
    looked up at each call."""
    return simulate(
        model,
        attack,
        scenario.default_horizon(model),
        x0=_read(scenario.raw, "x0"),
        seed=seed,
        burn_in=scenario.default_burn_in(model),
    )


def _simulate_at_seed(scenario: Scenario):
    """The scenario's model, attack and trajectory at its seed."""
    model = scenario.build_model()
    attack = scenario.build_attack(model, scenario.seed)
    return model, attack, _simulate_scenario(scenario, model, attack, scenario.seed)


def run_scenario(scenario: Scenario) -> dict:
    """simulate -> search (per configured method) -> JSON-ready bundle."""
    model, attack, traj = _simulate_at_seed(scenario)
    method = _read(scenario.raw, "search")
    methods = ["exhaustive", "smt"] if method == "both" else [method]
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
        del outcome  # its report holds the search's bank and filters
    return bundle


# ---------------------------------------------------------------------------
# Output helpers


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # a numpy float's repr names its type
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


def _emit(args, name: str, rows: list[dict], obj=None) -> str:
    """Write the artifact in the requested format and return its path."""
    if args.no_timing:
        rows, obj = _strip_timing(rows), _strip_timing(obj)
    if args.format == "csv":
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
        scenario.seed = _read({"seed": args.seed}, "seed")
    if args.reps is not None:
        scenario.repetitions = _read({"repetitions": args.reps}, "repetitions")
    return scenario


def _cmd_simulate(args) -> int:
    scenario = _load(args)
    _, attack, traj = _simulate_at_seed(scenario)
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
    model, _, traj = _simulate_at_seed(scenario)
    subset = _read(scenario.raw, "subset") or full_subset(model.p)
    flag, report = attack_detect(model, traj, subset, scenario.detector)
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
    path = _emit(args, "exp1", rows=rows)
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
    path = _emit(args, "exp2", rows=rows)
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
    x0 = _read(scenario.raw, "noiseless.x0")
    if x0 is None:
        x0 = np.random.Generator(np.random.PCG64(scenario.seed)).standard_normal(model.n)
    x0 = np.array(x0, dtype=float)
    obs = encode(model, x0)
    corrupted = _read(scenario.raw, "noiseless.corrupt.sensors") or ()
    if corrupted:
        alt = encode(model, np.array(_read(scenario.raw, "noiseless.corrupt.state"), dtype=float))
        obs = obs.with_symbols({d: alt.symbols[d - 1] for d in corrupted})
    detected = detect_corruption(model, obs)
    result = decode(model, obs, _read(scenario.raw, "noiseless.k"))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused in _finite
        state_error = _finite(float(_norm(result.state - x0)), "state error norms")
    obj = {
        "schema_version": SCHEMA_VERSION,
        "corruption_detected": detected,
        "declared_corrupted": list(result.corrupted),
        "actually_corrupted": list(corrupted),
        "unique": result.unique,
        "state": result.state.tolist(),
        "true_state": x0.tolist(),
        "state_error": state_error,
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
    except MemoryError as exc:  # a horizon, burn-in, window or model too large to hold
        print(f"analysis error: out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
