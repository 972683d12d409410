"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to watch them live).

The experiment-style criteria are statistical; all seeds are fixed so
every run of this suite is a deterministic regression."""

import json
import time
from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are

from secest import (
    AttackSpec,
    DetectorConfig,
    FILTERING,
    PREDICTION,
    SubsetBank,
    ZeroOutput,
    attack_detect,
    cross_covariance_correction,
    decode,
    detect_corruption,
    effective_attack_oracle,
    encode,
    exhaustive_search,
    make_random_stable_system,
    min_symbol_distance,
    observability_matrix,
    run_filter,
    simulate,
    solve_steady_state,
    sparse_observability_index,
    worst_subset,
)
from secest.cli import (
    default_experiment1_scenario,
    default_experiment2_scenario,
    main as cli_main,
    run_experiment1,
    run_experiment2,
)
from secest.detect import residue_report
from secest.pbsat import AT_LEAST, AT_MOST, PBConstraint, PBFormula, solve as pb_solve

from conftest import window_noise_map

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_01_riccati_correctness(triple_sensor_scalar):
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_residual = 0.0
    worst_gap = 0.0
    for trial in range(50):
        n = int(rng.integers(1, 21))
        p = int(rng.integers(1, 6))
        m = make_random_stable_system(
            n,
            p,
            float(rng.uniform(0.5, 0.95)),
            seed=trial,
            sigma_w2=float(rng.uniform(0.2, 2.0)),
            sigma_v2=float(rng.uniform(0.2, 2.0)),
        )
        size = int(rng.integers(1, p + 1))
        subset = tuple(sorted(rng.choice(p, size=size, replace=False) + 1))
        from secest import is_observable

        if not is_observable(m, subset):
            subset = tuple(range(1, p + 1))
        flt = solve_steady_state(m, subset, PREDICTION)
        worst_residual = max(worst_residual, flt.riccati_residual)
        Cs = m.C[[i - 1 for i in subset]]
        ref = solve_discrete_are(
            m.A.T, Cs.T, m.sigma_w2 * np.eye(n), m.sigma_v2 * np.eye(len(subset))
        )
        gap = np.linalg.norm(flt.error_cov - ref, "fro") / max(
            1.0, np.linalg.norm(ref, "fro")
        )
        worst_gap = max(worst_gap, gap)
    scalar = solve_steady_state(triple_sensor_scalar, (1,), PREDICTION)
    scalar_err = abs(scalar.error_cov[0, 0] - GOLDEN)
    elapsed = time.perf_counter() - start
    ok = worst_residual <= 1e-9 and scalar_err <= 1e-10 and elapsed < 10 and worst_gap <= 1e-6
    report(
        1,
        ok,
        f"50 pairs: max residual {worst_residual:.2e}, solver gap {worst_gap:.2e}, "
        f"scalar err {scalar_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_attack_free_calibration():
    start = time.perf_counter()
    N = 10**5
    t1 = 100
    checked = 0
    worst_rel = 0.0
    for model_seed in range(5):
        rng = np.random.default_rng(model_seed)
        n = int(rng.integers(3, 7))
        m = make_random_stable_system(
            n, 4, 0.85, seed=200 + model_seed, sigma_w2=1.0, sigma_v2=1.0
        )
        traj = simulate(m, AttackSpec(), t1 + N, seed=model_seed, burn_in=10 * n)
        for subset in [(1,), (1, 2), (2, 3, 4), (1, 2, 3, 4)]:
            for mode in (PREDICTION, FILTERING):
                flt = solve_steady_state(m, subset, mode)
                run = run_filter(flt, traj, t1)
                err = traj.states[t1:] - run.estimates
                sample = float(np.mean(np.sum(err * err, axis=1)))
                ref = float(
                    np.trace(flt.error_cov if mode == PREDICTION else flt.filtered_cov)
                )
                rel = abs(sample - ref) / ref
                worst_rel = max(worst_rel, rel)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 0.05 and checked == 20 and elapsed < 120
    report(
        2,
        ok,
        f"{checked} subsets x both modes at N=1e5: worst trace error "
        f"{100 * worst_rel:.2f}% (limit 5%), {elapsed:.1f}s",
    )


def test_criterion_03_residue_expectation_identity():
    start = time.perf_counter()
    t1 = 60
    sizes = (10**3, 10**4, 10**5)
    m = make_random_stable_system(3, 3, 0.85, seed=50, sigma_w2=0.5, sigma_v2=0.7)
    n = m.n
    biggest = DetectorConfig(epsilon=1, eta=1, N=sizes[-1], t1=t1).window_length(n)
    horizon = t1 + biggest + n
    means = {mode: [] for mode in (PREDICTION, FILTERING)}
    for mode in (PREDICTION, FILTERING):
        flt = solve_steady_state(m, (1, 2, 3), mode)
        banks = {
            N: SubsetBank(m, DetectorConfig(epsilon=1.0, eta=1.0, N=N, t1=t1, mode=mode))
            for N in sizes
        }
        per_N = {N: [] for N in sizes}
        for seed in range(20):
            traj = simulate(m, AttackSpec(), horizon, seed=seed, burn_in=30)
            run = run_filter(flt, traj, t1, t1 + biggest - 1)
            for N in sizes:
                rep = residue_report(banks[N], traj, (1, 2, 3), run, banks[N].window_moment(traj))
                per_N[N].append(
                    float(np.abs(rep.sample_matrix - rep.expected_matrix).max())
                )
        means[mode] = [float(np.mean(per_N[N])) for N in sizes]
    elapsed = time.perf_counter() - start
    ok = all(means[mode][0] > means[mode][1] > means[mode][2] for mode in means)
    detail = ", ".join(
        f"{mode}: " + " > ".join(f"{v:.3f}" for v in means[mode]) for mode in means
    )
    report(3, ok, f"mean max deviation decreasing over N (20 seeds): {detail}, {elapsed:.1f}s")


def test_criterion_04_cross_correction_oracle():
    start = time.perf_counter()
    worst_z = 0.0
    for idx in range(10):
        rng = np.random.default_rng(7000 + idx)
        n = int(rng.integers(2, 5))
        p = 2
        m = make_random_stable_system(
            n,
            p,
            0.85,
            seed=14000 + idx,
            sigma_w2=float(rng.uniform(0.2, 1.5)),
            sigma_v2=float(rng.uniform(0.3, 1.5)),
        )
        s = (1, 2)
        flt = solve_steady_state(m, s, FILTERING)
        D = cross_covariance_correction(m, flt)
        J = window_noise_map(m, s)
        Os = observability_matrix(m, s)
        T = 10**6
        d = n * p
        mean = np.zeros((d, d))
        meansq = np.zeros((d, d))
        for _ in range(10):
            W = np.sqrt(m.sigma_w2) * rng.standard_normal((100_000, n * n))
            Vb = np.sqrt(m.sigma_v2) * rng.standard_normal((100_000, d))
            Z = W @ J.T + Vb
            U = Vb[:, [c * n for c in range(p)]] @ (Os @ flt.gain).T
            mean += Z.T @ U
            meansq += (Z**2).T @ (U**2)
        mean /= T
        meansq /= T
        se = np.sqrt(np.maximum(meansq - mean**2, 0) / T)
        worst_z = max(worst_z, float((np.abs(mean - D) / np.maximum(se, 1e-300)).max()))
    elapsed = time.perf_counter() - start
    ok = worst_z <= 3.0
    report(
        4,
        ok,
        f"10 models, 1e6 samples: worst entry {worst_z:.2f} standard errors (limit 3), "
        f"{elapsed:.1f}s",
    )


def test_criterion_05_experiment1_reproduction():
    start = time.perf_counter()
    scenario = default_experiment1_scenario()
    scenario.repetitions = 50
    rows = run_experiment1(scenario)
    per_rep: dict[int, list[dict]] = {}
    for row in rows:
        per_rep.setdefault(row["rep_seed"], []).append(row)
    good = 0
    for rep_rows in per_rep.values():
        passing = [r for r in rep_rows if r["passed"]]
        if len(passing) == 1 and passing[0]["is_clean_complement"] == 1:
            good += 1
    elapsed = time.perf_counter() - start
    ok = good >= 45 and len(per_rep) == 50 and elapsed < 300
    report(
        5,
        ok,
        f"unique clean-complement pass in {good}/50 seeds (need >= 45), {elapsed:.1f}s",
    )


def _fixed_desk_model():
    return make_random_stable_system(20, 5, 0.9, seed=100, sigma_w2=1.0, sigma_v2=1.0)


def test_criterion_06_detector_oracle_agreement():
    start = time.perf_counter()
    m = _fixed_desk_model()
    cfg = DetectorConfig(epsilon=4.0, eta=6.0, N=20000, t1=200, mode=PREDICTION)
    N = cfg.window_length(m.n)
    full = (1, 2, 3, 4, 5)
    flt = solve_steady_state(m, full, PREDICTION)
    agree = 0
    for seed in range(50):
        rng = np.random.Generator(np.random.PCG64(seed))
        attacked = tuple(sorted(rng.choice(5, size=2, replace=False) + 1))
        atk = AttackSpec(attacked, ZeroOutput()) if seed % 2 else AttackSpec()
        traj = simulate(m, atk, cfg.t1 + N + m.n, seed=seed, burn_in=200)
        flag, residues = attack_detect(m, traj, full, cfg)
        effective = effective_attack_oracle(
            traj, residues.run, flt.error_cov, cfg.epsilon, cfg.t1, N
        )
        agree += int((flag == 1) == effective)
    elapsed = time.perf_counter() - start
    ok = agree >= 45
    report(6, ok, f"flag/oracle agreement {agree}/50 (need >= 45), {elapsed:.1f}s")


def test_criterion_07_secure_estimation_bound():
    start = time.perf_counter()
    m = _fixed_desk_model()
    cfg = DetectorConfig(epsilon=4.0, eta=5.0, N=20000, t1=200, mode=PREDICTION, k=2)
    N = cfg.window_length(m.n)
    _, worst_trace = worst_subset(m, 2)
    held = 0
    found = 0
    for seed in range(50):
        rng = np.random.Generator(np.random.PCG64(seed))
        attacked = tuple(sorted(rng.choice(5, size=2, replace=False) + 1))
        traj = simulate(
            m, AttackSpec(attacked, ZeroOutput()), cfg.t1 + N + m.n, seed=seed, burn_in=200
        )
        outcome = exhaustive_search(m, traj, cfg)
        if not outcome.found:
            continue
        found += 1
        err = traj.states[cfg.t1 : cfg.t1 + N] - outcome.estimates.window(cfg.t1, N)
        realized = float(np.mean(np.sum(err * err, axis=1)))
        held += int(realized <= worst_trace + cfg.epsilon)
    elapsed = time.perf_counter() - start
    ok = found >= 45 and held >= 45
    report(
        7,
        ok,
        f"bound tr <= tr(P*_worst)+eps held in {held}/{found} found searches "
        f"of 50 seeds (need >= 45), {elapsed:.1f}s",
    )


def test_criterion_08_sat_brute_force_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    agree = 0
    for _ in range(200):
        p = int(rng.integers(1, 13))
        cons = []
        for _ in range(int(rng.integers(1, 6))):
            size = int(rng.integers(1, p + 1))
            vs = tuple(sorted(rng.choice(p, size=size, replace=False) + 1))
            sense = AT_MOST if rng.random() < 0.5 else AT_LEAST
            cons.append(PBConstraint(vs, sense, int(rng.integers(0, size + 1))))
        formula = PBFormula(p, tuple(cons))
        got = pb_solve(formula)

        # vectorized exhaustive oracle over all 2^p assignments
        bits = np.array(list(product([0, 1], repeat=p)), dtype=int)
        sat = np.ones(len(bits), dtype=bool)
        for c in cons:
            total = bits[:, [v - 1 for v in c.vars]].sum(axis=1)
            sat &= (total <= c.bound) if c.sense == AT_MOST else (total >= c.bound)
        if not sat.any():
            want = None
        else:
            # fewest trues, then lexicographically smallest true-index set
            best = min(
                (int(r.sum()), tuple(np.flatnonzero(r) + 1)) for r in bits[sat]
            )
            want = tuple(bool(i + 1 in best[1]) for i in range(p))
        agree += int(got == want)
    elapsed = time.perf_counter() - start
    ok = agree == 200 and elapsed < 10
    report(8, ok, f"brute-force agreement {agree}/200 (need 200), {elapsed:.1f}s")


@pytest.fixture(scope="module")
def experiment2_results():
    scenario = default_experiment2_scenario()
    scenario.repetitions = 50
    runs: list[dict] = []

    def keep(record: dict) -> None:
        # criteria 9 and 10 read counts, traces, certificates and found
        # subsets only, so each outcome drops its report (a formed
        # deviation and filter run) as its repetition ends; the record is
        # the one run_experiment2 keeps for its row, which reads no report
        for key in ("outcome_exhaustive", "outcome_smt"):
            record[key] = replace(record[key], report=None)
        runs.append(record)

    start = time.perf_counter()
    rows = run_experiment2(scenario, per_run=keep)
    elapsed = time.perf_counter() - start
    return rows, runs, elapsed


def test_criterion_09_smt_vs_exhaustive_trend(experiment2_results):
    rows, runs, elapsed = experiment2_results
    per_run_ok = all(
        r["outcome_smt"].theory_checks <= r["outcome_exhaustive"].theory_checks
        for r in runs
    )
    time_ok = all(
        row["mean_time_smt"] <= row["mean_time_exhaustive"]
        for row in rows
        if row["p"] >= 9
    )
    gaps = {
        row["p"]: row["mean_time_exhaustive"] / max(row["mean_time_smt"], 1e-12)
        for row in rows
        if row["p"] >= 9
    }
    ok = per_run_ok and time_ok and elapsed < 1800 and len(runs) == 50 * len(rows)
    report(
        9,
        ok,
        f"checks(SMT)<=checks(exh) on {len(runs)} runs: {per_run_ok}; "
        f"time speedups p>=9: "
        + ", ".join(f"p={p}: {g:.1f}x" for p, g in sorted(gaps.items()))
        + f"; {elapsed:.0f}s (limit 1800)",
    )


def test_criterion_10_certificate_soundness(experiment2_results):
    _, runs, _ = experiment2_results
    audited = 0
    sound = True
    for record in runs:
        outcome = record["outcome_smt"]
        failed = {
            tuple(entry["subset"]) for entry in outcome.trace if entry["flag"] == 1
        }
        for cert in outcome.certificates:
            audited += 1
            if cert.sense != AT_LEAST or cert.vars not in failed:
                sound = False
        if outcome.found:
            final = {"subset": list(outcome.subset), "flag": 0, "phase": "search"}
            if final not in outcome.trace:
                sound = False
        else:
            sound = False  # every exp2 run must locate the clean subset
    report(
        10,
        sound,
        f"{audited} certificates across {len(runs)} runs all verified failing; "
        "final subsets all pass",
    )


def test_criterion_11_noiseless_coding():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    systems = 0
    decode_exact = True
    detect_all = True
    distance_ok = True
    while systems < 20:
        n = int(rng.integers(2, 5))
        p = int(rng.integers(5, 9))
        k = int(rng.integers(1, 3))
        m = make_random_stable_system(n, p, 0.85, seed=900 + systems, sigma_w2=0, sigma_v2=0)
        theta = sparse_observability_index(m)
        if theta < 2 * k:
            continue
        systems += 1
        x0 = rng.standard_normal(n)
        clean = encode(m, x0)
        x_alt = rng.standard_normal(n) + 1.0
        alt = encode(m, x_alt)
        # correction: every k-subset corruption pattern decodes exactly
        for pattern in combinations(range(1, p + 1), k):
            obs = clean.with_symbols({d: alt.symbols[d - 1] for d in pattern})
            result = decode(m, obs, k)
            if np.linalg.norm(result.state - x0) > 1e-9:
                decode_exact = False
            if not set(result.corrupted) >= set(pattern):
                decode_exact = False
        # detection: up to theta off-codeword corruptions are visible
        for kd in range(1, theta + 1):
            for pattern in combinations(range(1, p + 1), kd):
                obs = clean.with_symbols({d: alt.symbols[d - 1] for d in pattern})
                if not detect_corruption(m, obs):
                    detect_all = False
            if kd >= 3:  # all patterns for small kd, spot checks beyond
                break
        # distance: formula value, never undercut by sampling
        dist = min_symbol_distance(m)
        if dist != theta + 1:
            distance_ok = False
        observed = p
        for _ in range(500):
            xa, xb = rng.standard_normal(n), rng.standard_normal(n)
            if np.linalg.norm(xa - xb) < 1e-9:
                continue
            ya, yb = encode(m, xa), encode(m, xb)
            differing = sum(
                np.linalg.norm(ya.symbols[d] - yb.symbols[d]) > 1e-9 for d in range(p)
            )
            observed = min(observed, differing)
        if observed < dist:
            distance_ok = False

    # the split-observation ambiguity: k beyond half the distance admits
    # two explanations and must be reported as non-unique
    A = np.diag([0.9, 0.5])
    C = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, -1.0], [2.0, 1.0], [1.0, 2.0]])
    from secest import SystemModel

    amb = SystemModel(A=A, C=C, sigma_w2=0, sigma_v2=0)
    x1 = np.array([1.0, 2.0])
    y1 = encode(amb, x1)
    y2 = encode(amb, x1 + np.array([0.0, 3.0]))
    mixed = y1.with_symbols({4: y2.symbols[3], 5: y2.symbols[4]})
    ambiguous = not decode(amb, mixed, k=2).unique
    elapsed = time.perf_counter() - start
    ok = decode_exact and detect_all and distance_ok and ambiguous
    report(
        11,
        ok,
        f"20 systems: decode exact {decode_exact}, detection {detect_all}, "
        f"distance {distance_ok}, ambiguity reported {ambiguous}, {elapsed:.1f}s",
    )


def test_criterion_12_cli_determinism(tmp_path):
    start = time.perf_counter()
    scalar_doc = {
        "schema_version": 1,
        "model": {
            "explicit": {
                "A": [[1.0]],
                "C": [[1.0], [1.0], [1.0]],
                "sigma_w2": 1.0,
                "sigma_v2": 1.0,
            }
        },
        "attack": {"attacked": [3], "strategy": {"type": "seeded_random", "amplitude": 3.0}},
        "detector": {"epsilon": 3.0, "eta": "auto", "N": 3000, "t1": 100},
        "k": 1,
        "search": "both",
        "repetitions": 1,
        "seed": 5,
        "horizon": 3200,
        "noiseless": {"x0": [2.0], "k": 1, "corrupt": {"sensors": [2], "state": [5.0]}},
    }
    exp1_doc = {
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
    exp2_doc = {
        "schema_version": 1,
        "model": {
            "random": {
                "n": 10,
                "p": 3,
                "spectral_radius": 0.85,
                "seed": 3,
                "sigma_w2": 0.001,
                "sigma_v2": 1.0,
            }
        },
        "attack": {"attacked": [], "strategy": {"type": "noise_linear", "gain": 10.0}},
        "detector": {"epsilon": 1.0, "eta": 8.0, "N": 300, "t1": 60},
        "k": 1,
        "search": "both",
        "repetitions": 2,
        "seed": 0,
        "experiment2": {"p_values": [3]},
    }
    scalar = tmp_path / "scalar.json"
    scalar.write_text(json.dumps(scalar_doc))
    exp1 = tmp_path / "exp1.json"
    exp1.write_text(json.dumps(exp1_doc))
    exp2 = tmp_path / "exp2.json"
    exp2.write_text(json.dumps(exp2_doc))

    invocations = {
        "simulate": (["simulate", "--scenario", str(scalar)], "simulate.csv"),
        "detect": (["detect", "--scenario", str(scalar)], "detect.csv"),
        "search": (
            ["search", "--scenario", str(scalar), "--format", "json", "--no-timing"],
            "search.json",
        ),
        "exp1": (["exp1", "--scenario", str(exp1)], "exp1.csv"),
        "exp2": (["exp2", "--scenario", str(exp2), "--no-timing"], "exp2.csv"),
        "decode-noiseless": (
            ["decode-noiseless", "--scenario", str(scalar), "--format", "json"],
            "decode.json",
        ),
        "obsv": (["obsv", "--scenario", str(scalar), "--format", "json"], "obsv.json"),
    }
    identical = {}
    for name, (argv, artifact) in invocations.items():
        payloads = []
        for attempt in ("x", "y"):
            out = tmp_path / f"{name}-{attempt}"
            out.mkdir()
            assert cli_main(argv + ["--out", str(out), "--seed", "9"]) == 0
            payloads.append((out / artifact).read_bytes())
        identical[name] = payloads[0] == payloads[1]
    elapsed = time.perf_counter() - start
    ok = all(identical.values())
    report(
        12,
        ok,
        "byte-identical artifacts: "
        + ", ".join(f"{k}={v}" for k, v in identical.items())
        + f", {elapsed:.1f}s",
    )
