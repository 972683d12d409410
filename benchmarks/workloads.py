"""The four benchmark workloads and their per-op correctness gates.

Each workload turns the benchmark seed into a stream of op inputs, runs
ops back to back in one process (a closed loop with one client: the next
op starts only after the previous one returned) until the time budget is
spent, and checks every op's output.  ``exp2_banked`` instead runs a
repetition count fixed from the budget; see ``Exp2Banked.repetitions``.
Why each workload exists, and which layer each one stresses, is recorded
in README.md next to this file.

Every op is timed in wall seconds and in CPU seconds of this process.  The
op is single-threaded (one BLAS thread, no repetition parallelism), so its
CPU time is the wall time it takes on a core of its own; unlike wall time
it does not grow while other processes hold the core.  A shared host still
changes how fast the core runs, by a third from one minute to the next, so
the reference kernels of ``reference.py`` are sampled after every op, and
each op's CPU seconds are also given in nominal seconds, rescaled by the
samples on either side of it.

All calls into secest go through module attributes (``detect.attack_detect``
rather than a name bound at import), so the tracer's wrappers see them.
"""

from __future__ import annotations

import copy
import statistics
import time
import traceback
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from secest import cli, detect, noiseless, observability
from secest import model as plant
from secest.pbsat import AT_LEAST

from reference import SHARE, Reference

# Problem sizes.  "default" is the benchmark; "toy" only exercises the
# harness (the smoke test) and is not comparable to it.
SIZES = {
    "default": {
        "exp1_sweep": {"N": 20000},
        "search_scenario": {"n": 50, "p": 9},
        # nominal_*: see Exp2Banked.repetitions
        "exp2_banked": {"n": 50, "p": 12, "nominal_first_s": 11.0, "nominal_rep_s": 3.1},
        "noiseless_decode": {"n": 6, "p": 12},
    },
    "toy": {
        "exp1_sweep": {"N": 2000},
        "search_scenario": {"n": 12, "p": 6},
        "exp2_banked": {"n": 12, "p": 6, "nominal_first_s": 0.1, "nominal_rep_s": 0.03},
        "noiseless_decode": {"n": 3, "p": 6},
    },
}


@dataclass
class Op:
    """One completed (or failed) op."""

    seconds: float
    cpu_s: float
    norm_s: float  # cpu_s in nominal seconds
    subset_tests: int
    problems: list[str]
    exhaustive_s: float | None = None
    guided_s: float | None = None


@dataclass
class Measurement:
    ops: list[Op]
    wall_s: float  # timed wall, the denominator of the per-second rates
    cpu_s: float  # CPU seconds of the same interval, reference samples left out
    norm_s: float  # cpu_s in nominal seconds
    scale: float  # median factor from CPU to nominal seconds


def _op_seeds(seed: int):
    """Endless, seed-determined stream of op seeds."""
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(1 << 30))


def _closed_loop(seconds: float, seeds, run_op, ref: Reference, tracer=None) -> Measurement:
    """Run ops until the next one would end past the budget (at least one),
    sampling ``ref`` before the first op and after each.

    ``run_op(seed)`` returns (subset_tests, problems, exhaustive_s, guided_s);
    an exception counts as a failed op and the loop goes on.
    """
    ops: list[Op] = []
    ref.sample()
    start = time.perf_counter()
    for index, op_seed in enumerate(seeds):
        if tracer is not None:
            tracer.op = index
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            tests, problems, ex_s, guided_s = run_op(op_seed)
        except Exception:
            tests, problems, ex_s, guided_s = 0, [traceback.format_exc()], None, None
        t1, c1 = time.perf_counter(), time.process_time()
        ref.sample(SHARE * (c1 - c0))
        norm = ref.nominal(c1 - c0, index)
        ops.append(Op(t1 - t0, c1 - c0, norm, tests, problems, ex_s, guided_s))
        if time.perf_counter() - start + (t1 - t0) > seconds:
            break
    wall = time.perf_counter() - start
    return Measurement(
        ops,
        wall,
        sum(op.cpu_s for op in ops),
        sum(op.norm_s for op in ops),
        ref.scale(),
    )


def check_searches(ex: dict, guided: dict, full_gain: set[int]) -> list[str]:
    """Gate for one exhaustive/guided pair of ``SearchOutcome.to_dict()``s.

    Both find a subset, neither found subset holds a full-gain attacked
    sensor, the guided search checks no more hypotheses than the plain
    enumeration, and every guided certificate is an at-least-one
    constraint over a subset the trace records as failing (criterion 10).
    """
    problems = []
    for label, out in (("exhaustive", ex), ("guided", guided)):
        if not out["found"]:
            problems.append(f"{label} search found no subset")
        elif full_gain & set(out["subset"]):
            problems.append(f"{label} subset {out['subset']} holds an attacked sensor")
    if guided["theory_checks"] > ex["theory_checks"]:
        problems.append(
            f"guided checks {guided['theory_checks']} > exhaustive {ex['theory_checks']}"
        )
    failing = {tuple(e["subset"]) for e in guided["trace"] if e["flag"] == 1}
    for cert in guided["certificates"]:
        if cert["sense"] != AT_LEAST or tuple(cert["vars"]) not in failing:
            problems.append(f"certificate {cert} matches no failing trace entry")
    if guided["found"]:
        final = {"subset": list(guided["subset"]), "flag": 0, "phase": "search"}
        if final not in guided["trace"]:
            problems.append("guided result is not a passing search entry of its trace")
    return problems


# ---------------------------------------------------------------------------


class Exp1Sweep:
    """Experiment 1: fresh n=20, p=5 plant per op, residue test on all
    C(5, 3) = 10 subsets of one N=20000 trajectory (prediction mode)."""

    name = "exp1_sweep"
    dense_share = 0.25  # run_filter's small-matrix loop leads; residue tests are dense

    def prepare(self, seed: int, size: str):
        doc = copy.deepcopy(cli.default_experiment1_scenario().raw)
        doc["detector"]["N"] = SIZES[size][self.name]["N"]
        return cli.parse_scenario(doc), seed

    def measure(self, prepared, seconds: float, tracer=None) -> Measurement:
        scenario, seed = prepared
        cfg, k = scenario.detector, scenario.k

        def run_op(op_seed):
            model = scenario.build_model(op_seed)
            attack = scenario.build_attack(model, op_seed)
            traj = plant.simulate(
                model,
                attack,
                scenario.default_horizon(model),
                seed=op_seed,
                burn_in=scenario.default_burn_in(model),
            )
            subsets = list(combinations(range(1, model.p + 1), model.p - k))
            passing = [
                s for s in subsets if detect.attack_detect(model, traj, s, cfg)[0] == 0
            ]
            clean = tuple(i for i in range(1, model.p + 1) if i not in attack.attacked)
            problems = []
            if passing != [clean]:
                problems.append(f"passing subsets {passing}, expected only {clean}")
            return len(subsets), problems, None, None

        return _closed_loop(
            seconds, _op_seeds(seed), run_op, Reference(self.dense_share), tracer
        )


class SearchScenario:
    """``secest search`` path: ``cli.run_scenario`` with both searches in
    filtering mode, fresh model seed per op, nothing cached across calls."""

    name = "search_scenario"
    dense_share = 1.0  # noise_structure, observability and Riccati products
    gains = (10.0, 10.0, 0.5)  # sensors 1-3; the last is too weak to be effective

    def prepare(self, seed: int, size: str):
        dims = SIZES[size][self.name]
        doc = {
            "schema_version": 1,
            "model": {
                "random": {
                    "n": dims["n"],
                    "p": dims["p"],
                    "spectral_radius": 0.9,
                    "seed": 0,
                    "sigma_w2": 0.001,
                    "sigma_v2": 1.0,
                }
            },
            "attack": {
                "attacked": [1, 2, 3],
                "strategy": {"type": "noise_linear", "gain": list(self.gains)},
            },
            "detector": {"epsilon": 1.0, "eta": 15.0, "N": 300, "t1": 150, "mode": "filtering"},
            "k": 3,
            "search": "both",
            "seed": 0,
        }
        return doc, seed

    def measure(self, prepared, seconds: float, tracer=None) -> Measurement:
        base, seed = prepared
        full_gain = {i + 1 for i, g in enumerate(self.gains) if g > 1.0}

        def run_op(op_seed):
            doc = copy.deepcopy(base)
            doc["model"]["random"]["seed"] = op_seed
            doc["seed"] = op_seed
            bundle = cli.run_scenario(cli.parse_scenario(doc))
            ex = bundle["methods"]["exhaustive"]
            guided = bundle["methods"]["smt"]
            problems = check_searches(ex["outcome"], guided["outcome"], full_gain)
            for label, entry in (("exhaustive", ex), ("guided", guided)):
                if "report" in entry and not entry["report"]["passed"]:
                    problems.append(f"{label} report of the found subset does not pass")
            tests = ex["outcome"]["detector_calls"] + guided["outcome"]["detector_calls"]
            return tests, problems, ex["outcome"]["wall_time"], guided["outcome"]["wall_time"]

        return _closed_loop(
            seconds, _op_seeds(seed), run_op, Reference(self.dense_share), tracer
        )


class Exp2Banked:
    """Experiment 2 at one p: ``cli.run_experiment2`` with its shared model
    and subset bank; one op is one repetition (both searches on one
    trajectory).  The call's prewarm is inside the timed wall.  The call
    reports its repetitions only when all are done, so ``cli.simulate``,
    which starts each repetition, is wrapped for the call: the wrapper
    marks the CPU clock and samples the reference kernels there, and the
    samples' CPU is left out of every op."""

    name = "exp2_banked"
    dense_share = 0.5  # dense residue tests and Riccati beside run_filter's loop

    def prepare(self, seed: int, size: str):
        dims = SIZES[size][self.name]
        scenario = cli.default_experiment2_scenario()
        scenario.model_spec["random"]["n"] = dims["n"]
        scenario.raw["experiment2"] = {"p_values": [dims["p"]]}
        scenario.seed = seed * 100_000
        return scenario, dims

    @staticmethod
    def repetitions(dims: dict, seconds: float) -> int:
        """run_experiment2 returns only after all repetitions and its
        prewarm is timed, so a deadline would make the throughput depend
        on how many repetitions happened to fit.  The count is fixed from
        the budget instead, with costs measured on a 2-core Xeon, and
        every run with the same --seconds does the same work."""
        return max(2, int((seconds - dims["nominal_first_s"]) / dims["nominal_rep_s"]) + 1)

    def measure(self, prepared, seconds: float, tracer=None) -> Measurement:
        scenario, dims = prepared
        p = scenario.raw["experiment2"]["p_values"][0]
        k = max(1, p // 3)
        # run_experiment2 weakens the last attacked sensor when k >= 2.
        full_gain = set(range(1, k if k >= 2 else 2))
        reps = self.repetitions(dims, seconds)
        scenario.repetitions = reps
        records: list[dict] = []
        spans: list[float] = []  # CPU of the prewarm, then of each repetition
        ref = Reference(self.dense_share)
        ref.sample()
        simulate = cli.simulate
        resumed = 0.0  # CPU clock when the current span began

        def simulate_marked(*args, **kwargs):
            nonlocal resumed
            spans.append(time.process_time() - resumed)
            ref.sample(SHARE * spans[-1])
            resumed = time.process_time()
            return simulate(*args, **kwargs)

        if tracer is not None:
            tracer.op = 0
        cli.simulate = simulate_marked
        start = time.perf_counter()
        resumed = time.process_time()
        try:
            cli.run_experiment2(scenario, per_run=records.append)
        except Exception:
            failure = traceback.format_exc()
            cpu = sum(spans) + time.process_time() - resumed
            scale = ref.scale()
            return Measurement(
                [Op(0.0, 0.0, 0.0, 0, [failure])] * reps,
                time.perf_counter() - start,
                cpu,
                cpu * scale,
                scale,
            )
        finally:
            cli.simulate = simulate
        spans.append(time.process_time() - resumed)
        wall = time.perf_counter() - start
        ref.sample(SHARE * spans[-1])
        norm = [ref.nominal(cpu_s, i) for i, cpu_s in enumerate(spans)]
        ops = []
        for r, cpu_s, norm_s in zip(records, spans[1:], norm[1:]):
            ex = r["outcome_exhaustive"].to_dict()
            guided = r["outcome_smt"].to_dict()
            ops.append(
                Op(
                    r["time_exhaustive"] + r["time_smt"],
                    cpu_s,
                    norm_s,
                    ex["detector_calls"] + guided["detector_calls"],
                    check_searches(ex, guided, full_gain),
                    r["time_exhaustive"],
                    r["time_smt"],
                )
            )
        return Measurement(ops, wall, sum(spans), sum(norm), ref.scale())


class NoiselessDecode:
    """Noiseless plant per op: sparse observability index theta, encode,
    corrupt k = floor(theta / 2) symbols, complete decode and detection."""

    name = "noiseless_decode"
    dense_share = 0.0  # thousands of rank tests on 6-column matrices

    def prepare(self, seed: int, size: str):
        return SIZES[size][self.name], seed

    def measure(self, prepared, seconds: float, tracer=None) -> Measurement:
        dims, seed = prepared
        n, p = dims["n"], dims["p"]

        def run_op(op_seed):
            rng = np.random.default_rng(op_seed)
            model = plant.make_random_stable_system(
                n, p, 0.85, seed=op_seed, sigma_w2=0.0, sigma_v2=0.0
            )
            theta = observability.sparse_observability_index(model)
            k = theta // 2
            if k < 1:
                return 0, [f"theta={theta} leaves nothing to correct"], None, None
            x0 = rng.standard_normal(n)
            clean = noiseless.encode(model, x0)
            alt = noiseless.encode(model, rng.standard_normal(n) + 1.0)
            pattern = tuple(sorted(int(d) + 1 for d in rng.choice(p, size=k, replace=False)))
            obs = clean.with_symbols({d: alt.symbols[d - 1] for d in pattern})
            problems = []
            result = noiseless.decode(model, obs, k, complete=True)
            if np.linalg.norm(result.state - x0) > 1e-9:
                problems.append(f"decoded state off by {np.linalg.norm(result.state - x0):.3e}")
            if not set(result.corrupted) >= set(pattern):
                problems.append(f"corrupted {result.corrupted} misses pattern {pattern}")
            if not result.unique:
                problems.append("decode reported an ambiguous state")
            if not noiseless.detect_corruption(model, obs):
                problems.append("corruption not detected")
            # subset tests: one consistency fit per (p - k)-subset, plus detection
            return comb(p, p - k) + 1, problems, None, None

        return _closed_loop(
            seconds, _op_seeds(seed), run_op, Reference(self.dense_share), tracer
        )


WORKLOADS = {w.name: w for w in (Exp1Sweep(), SearchScenario(), Exp2Banked(), NoiselessDecode())}


def summarize(m: Measurement) -> dict[str, float | int | None]:
    """End-to-end numbers of one measurement (see README.md for units)."""
    good = [op for op in m.ops if not op.problems]
    times = [op.seconds for op in m.ops]
    tests = sum(op.subset_tests for op in good)
    ex = [op.exhaustive_s for op in good if op.exhaustive_s is not None]
    guided = [op.guided_s for op in good if op.guided_s is not None]
    return {
        "ops": len(m.ops),
        "failed": len(m.ops) - len(good),
        "op_s_p50": statistics.median(times),
        "ops_per_s": len(m.ops) / m.wall_s,
        "subset_tests_per_s": tests / m.wall_s,
        "op_cpu_s_p50": statistics.median(op.cpu_s for op in m.ops),
        "subset_tests_per_cpu_s": tests / m.cpu_s,
        "op_norm_s_p50": statistics.median(op.norm_s for op in m.ops),
        "subset_tests_per_norm_s": tests / m.norm_s,
        "ref_scale": m.scale,
        "exhaustive_s_p50": statistics.median(ex) if ex else None,
        "guided_s_p50": statistics.median(guided) if guided else None,
        "error_rate": (len(m.ops) - len(good)) / len(m.ops),
    }
