import math
from dataclasses import replace
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from secest import (
    AnalysisError,
    AttackSpec,
    ConfigError,
    DetectorConfig,
    FILTERING,
    PREDICTION,
    SeededRandom,
    SubsetBank,
    SystemModel,
    ZeroOutput,
    attack_detect,
    auto_threshold,
    effective_attack_oracle,
    is_observable,
    make_random_stable_system,
    min_gram_eigenvalue,
    run_filter,
    simulate,
    solve_steady_state,
)
from secest.detect import residue_report

from conftest import block_output_matrix


def test_auto_threshold_hand_value(triple_sensor_scalar):
    # three unit sensors: worst 2-subset gram eigenvalue is 2, n=1
    eta = auto_threshold(triple_sensor_scalar, (1, 2, 3), k=1, epsilon=3.0)
    assert eta == pytest.approx(2.0 * 3.0 / (3.0 * 1.0 * 2.0))
    assert eta == pytest.approx(1.0)


def test_auto_threshold_linear_in_epsilon(triple_sensor_scalar):
    e1 = auto_threshold(triple_sensor_scalar, (1, 2, 3), 1, 1.0)
    e2 = auto_threshold(triple_sensor_scalar, (1, 2, 3), 1, 0.001)
    assert e2 == pytest.approx(0.001 * e1)


def test_auto_threshold_unobservable_guard():
    m = SystemModel(
        A=np.eye(2), C=[[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], sigma_w2=1, sigma_v2=1
    )
    with pytest.raises(AnalysisError):
        auto_threshold(m, (1, 2, 3), 1, 1.0)
    with pytest.raises(ConfigError):
        auto_threshold(m, (1, 2), 2, 1.0)


def test_auto_threshold_follows_rank_rule():
    # sensors 1 and 2 see only an A-invariant plane, so the reduced subset
    # (1, 2) is unobservable, yet eigvalsh of its rank-2 Gram rounds to
    # 8.6e-17 > 0 and used to give a positive threshold of 3.6e-18
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    A = Q @ np.diag([0.9, 0.7, 0.5, 0.3]) @ Q.T
    C = np.vstack([rng.standard_normal((2, 2)) @ Q[:, :2].T, rng.standard_normal((1, 4)) @ Q.T])
    m = SystemModel(A=A, C=C, sigma_w2=1.0, sigma_v2=1.0)
    assert not is_observable(m, (1, 2))
    assert min_gram_eigenvalue(m, (1, 2, 3), 1) == 0.0
    with pytest.raises(AnalysisError):
        auto_threshold(m, (1, 2, 3), 1, 1.0)


def _small_cfg(N=3000, eta=None, k=1, mode=PREDICTION, t1=80):
    return DetectorConfig(epsilon=1.0, N=N, t1=t1, mode=mode, eta=eta, k=k)


def test_attack_free_passes_small_system():
    flags = []
    for seed in range(6):
        m = make_random_stable_system(3, 3, 0.85, seed=50, sigma_w2=0.5, sigma_v2=0.7)
        cfg = _small_cfg(eta=1.0)
        traj = simulate(m, AttackSpec(), cfg.t1 + cfg.window_length(3) + 3, seed=seed, burn_in=30)
        flag, report = attack_detect(m, traj, (1, 2, 3), cfg)
        flags.append(flag)
    assert sum(flags) == 0


def test_variance_inflating_attack_flagged():
    m = make_random_stable_system(3, 3, 0.85, seed=50, sigma_w2=0.5, sigma_v2=0.7)
    cfg = _small_cfg(eta=1.0)
    atk = AttackSpec((2,), SeededRandom(amplitude=4.0))
    traj = simulate(m, atk, cfg.t1 + cfg.window_length(3) + 3, seed=1, burn_in=30)
    flag, report = attack_detect(m, traj, (1, 2, 3), cfg)
    assert flag == 1
    assert report.max_deviation > report.eta


def test_clean_subset_unaffected_by_attack_elsewhere():
    m = make_random_stable_system(3, 3, 0.85, seed=50, sigma_w2=0.5, sigma_v2=0.7)
    cfg = _small_cfg(eta=1.0)
    atk = AttackSpec((3,), SeededRandom(amplitude=4.0))
    traj = simulate(m, atk, cfg.t1 + cfg.window_length(3) + 3, seed=1, burn_in=30)
    flag, _ = attack_detect(m, traj, (1, 2), cfg)
    assert flag == 0


def test_filtering_mode_detects_and_calibrates():
    m = make_random_stable_system(3, 3, 0.85, seed=50, sigma_w2=0.5, sigma_v2=0.7)
    cfg = _small_cfg(N=20000, eta=0.6, mode=FILTERING)
    traj = simulate(m, AttackSpec(), cfg.t1 + cfg.window_length(3) + 3, seed=2, burn_in=30)
    flag, report = attack_detect(m, traj, (1, 2, 3), cfg)
    assert flag == 0
    atk = AttackSpec((1,), SeededRandom(amplitude=4.0))
    atraj = simulate(m, atk, cfg.t1 + cfg.window_length(3) + 3, seed=2, burn_in=30)
    flag, _ = attack_detect(m, atraj, (1, 2, 3), cfg)
    assert flag == 1


def test_pass_rule_is_one_sided():
    # deflating the sample matrix can never flip a pass into a failure
    m = make_random_stable_system(3, 3, 0.85, seed=50, sigma_w2=0.5, sigma_v2=0.7)
    cfg = _small_cfg(eta=1.0)
    traj = simulate(m, AttackSpec(), cfg.t1 + cfg.window_length(3) + 3, seed=3, burn_in=30)
    _, report = attack_detect(m, traj, (1, 2, 3), cfg)
    assert report.passed
    shrunk = report.sample_matrix - np.full_like(report.sample_matrix, 5.0)
    dev = shrunk - report.expected_matrix
    assert float(dev.max()) <= report.eta  # still passing after any decrease
    # and a zero-deviation sample passes for any positive threshold
    assert float((report.expected_matrix - report.expected_matrix).max()) <= report.eta


def test_window_partition_consistency():
    # the sample average over the whole window equals the average of the
    # n stratified sub-window averages exactly when N is a multiple of n
    m = make_random_stable_system(3, 2, 0.85, seed=9, sigma_w2=0.4, sigma_v2=0.6)
    cfg = _small_cfg(N=900, eta=1.0)
    n = m.n
    N = cfg.window_length(n)
    traj = simulate(m, AttackSpec(), cfg.t1 + N + n, seed=4, burn_in=30)
    from secest import observability_matrix

    flt = solve_steady_state(m, (1, 2), PREDICTION)
    run = run_filter(flt, traj, cfg.t1, cfg.t1 + N - 1)
    Os = observability_matrix(m, (1, 2))
    residues = block_output_matrix(traj, (1, 2), cfg.t1, N) - run.estimates @ Os.T
    whole = residues.T @ residues / N
    strata = np.zeros_like(whole)
    for l in range(n):
        rs = residues[l::n]
        strata += rs.T @ rs / rs.shape[0]
    strata /= n
    assert np.max(np.abs(whole - strata)) <= 1e-12


def test_window_rounding_and_horizon_guard():
    m = make_random_stable_system(3, 2, 0.85, seed=9)
    cfg = DetectorConfig(epsilon=1.0, eta=1.0, N=1000, t1=10)
    assert cfg.window_length(3) == 1002
    # integer rounding: a float quotient would give back 2**53 here
    assert DetectorConfig(epsilon=1, eta=1, N=2**53 + 1).window_length(1) == 2**53 + 1
    traj = simulate(m, AttackSpec(), 500, seed=0)
    with pytest.raises(ConfigError):
        attack_detect(m, traj, (1, 2), cfg)


def test_overflowing_window_products_raise():
    # outputs near 1e300 are finite but their window products are not: the
    # window moment is refused, and so is K against a finite moment
    m = SystemModel(A=[[0.5]], C=[[1.0], [1.0], [1.0]], sigma_w2=1.0, sigma_v2=1.0)
    bank = SubsetBank(m, DetectorConfig(epsilon=1.0, eta=1.0, N=300, t1=0))
    traj = simulate(m, AttackSpec(), 300, x0=np.array([1e300]), burn_in=0)
    with pytest.raises(AnalysisError, match="window moment"):
        bank.detector(traj)
    run = run_filter(bank.filter((1, 2)), traj, 0, 299)
    with pytest.raises(AnalysisError, match="window products"):
        residue_report(bank, traj, (1, 2), run, np.zeros((3, 3)))


# 16 n^2 rows is the size rule's edge at n=4; n=20, N=20000 and n=50,
# N=300 are the experiment-1 and experiment-2 windows
@pytest.mark.parametrize(
    "n, s, N, axis", [(4, 2, 256, 1), (4, 2, 255, 0), (20, 3, 20000, 1), (50, 8, 300, 0)]
)
def test_lag_products_match_per_lag_loop(monkeypatch, n, s, N, axis):
    # each layout is within the dot-product rounding bound 2 N eps |y|'|x|
    # of a per-lag product; axis 1 slides the contiguous copy, 0 the outputs
    from secest import detect

    axes = []

    def spy(x, window_shape, axis):
        axes.append(axis)
        return np.lib.stride_tricks.sliding_window_view(x, window_shape, axis=axis)

    monkeypatch.setattr(detect, "sliding_window_view", spy)
    rng = np.random.default_rng(n + N)
    outputs = rng.standard_normal((N + n - 1, s + 2))[:, 1 : s + 1]
    est = rng.standard_normal((N, n))
    products = detect._lag_products(outputs, est)
    assert axes == [axis]
    assert products.shape == (s, n, n)
    for j in range(n):
        window = outputs[j : j + N]
        bound = 2 * N * np.finfo(float).eps * (np.abs(window).T @ np.abs(est))
        assert np.all(np.abs(products[:, j] - window.T @ est) <= bound)


def test_report_serializes():
    m = make_random_stable_system(2, 2, 0.8, seed=1, sigma_w2=0.5, sigma_v2=0.5)
    cfg = _small_cfg(N=500, eta=2.0)
    traj = simulate(m, AttackSpec(), cfg.t1 + cfg.window_length(2) + 2, seed=5, burn_in=20)
    _, report = attack_detect(m, traj, (1, 2), cfg)
    d = report.to_dict()
    assert d["subset"] == [1, 2]
    assert d["eta"] == 2.0
    assert len(d["sample_matrix"]) == 4
    assert set(d["per_sensor_mu"]) == {"1", "2"}


def test_oracle_perfect_estimator_inert():
    m = make_random_stable_system(2, 2, 0.8, seed=1)
    traj = simulate(m, AttackSpec(), 200, seed=6)
    flt = solve_steady_state(m, (1, 2), PREDICTION)
    run = run_filter(flt, traj, 0)
    perfect = type(run)(
        estimates=traj.states.copy(),
        t_start=0,
        t_end=traj.horizon - 1,
    )
    assert not effective_attack_oracle(traj, perfect, flt.error_cov, 0.5, 50, 100)


def test_oracle_attack_free_inert():
    m = make_random_stable_system(3, 2, 0.85, seed=13, sigma_w2=0.6, sigma_v2=0.6)
    hits = 0
    for seed in range(8):
        traj = simulate(m, AttackSpec(), 4100, seed=seed, burn_in=30)
        flt = solve_steady_state(m, (1, 2), PREDICTION)
        run = run_filter(flt, traj, 100, 4099)
        hits += effective_attack_oracle(
            traj, run, flt.error_cov, epsilon=0.5 * np.trace(flt.error_cov), t1=100, N=4000
        )
    assert hits == 0


def test_oracle_detects_zero_output_on_random_walk():
    # spectral radius one is fine for the ground-truth oracle
    m = SystemModel(A=[[1.0]], C=[[1.0]], sigma_w2=1.0, sigma_v2=1.0)
    atk = AttackSpec((1,), ZeroOutput())
    traj = simulate(m, atk, 3000, seed=2)
    flt = solve_steady_state(m, (1,), PREDICTION)
    run = run_filter(flt, traj, 100, 2999)
    assert effective_attack_oracle(traj, run, flt.error_cov, 1.0, 100, 2900)


def test_false_alarm_rate_nonincreasing_in_window():
    m = make_random_stable_system(3, 3, 0.85, seed=50, sigma_w2=0.5, sigma_v2=0.7)
    t1 = 80
    sizes = (999, 9999, 40002)
    biggest = DetectorConfig(epsilon=1, eta=1, N=sizes[-1], t1=t1).window_length(3)
    flags = {N: 0 for N in sizes}
    banks = {N: SubsetBank(m, DetectorConfig(epsilon=1.0, eta=0.55, N=N, t1=t1)) for N in sizes}
    for seed in range(12):
        traj = simulate(m, AttackSpec(), t1 + biggest + 3, seed=seed, burn_in=30)
        flt = solve_steady_state(m, (1, 2, 3), PREDICTION)
        run = run_filter(flt, traj, t1, t1 + biggest - 1)
        for N in sizes:
            rep = residue_report(banks[N], traj, (1, 2, 3), run, banks[N].window_moment(traj))
            flags[N] += 0 if rep.passed else 1
    rates = [flags[N] for N in sizes]
    assert rates[0] >= rates[1] >= rates[2]


def test_config_validation():
    with pytest.raises(ConfigError):
        DetectorConfig(epsilon=0.0, eta=1.0)
    with pytest.raises(ConfigError):
        DetectorConfig(epsilon=1.0)  # neither eta nor k
    with pytest.raises(ConfigError):
        DetectorConfig(epsilon=1.0, eta=-2.0)
    with pytest.raises(ConfigError):
        DetectorConfig(epsilon=1.0, eta=1.0, mode="smoothing")
    with pytest.raises(ConfigError):
        DetectorConfig(epsilon=1.0, eta=1.0, k=-1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError):
            DetectorConfig(epsilon=bad, eta=1.0)
        with pytest.raises(ConfigError):
            DetectorConfig(epsilon=1.0, eta=bad)
        # a non-finite N reached window_length's int() as nan
        with pytest.raises(ConfigError, match="N must be finite"):
            DetectorConfig(epsilon=1.0, eta=1.0, N=bad)
    # a non-integral t1 reached the test's slicing
    for bad in (2.5, 2.0, "3"):
        with pytest.raises(ConfigError, match="t1 must be an integer"):
            DetectorConfig(epsilon=1.0, eta=1.0, t1=bad)
    assert DetectorConfig(epsilon=1.0, eta=1.0, N=299.5).window_length(3) == 300
    assert DetectorConfig(epsilon=1.0, eta=1.0, t1=np.int64(7)).t1 == 7


def _reference_obs_and_noise(m, s):
    """O_s and the window noise covariance M_s of subset s from
    np.linalg.matrix_power, independent of the model's observability stack."""
    n = m.n
    rows = {(i, j): m.C[i - 1] @ np.linalg.matrix_power(m.A, j) for i in s for j in range(n)}
    Os = np.vstack([rows[i, j] for i in s for j in range(n)])
    J = np.zeros((n * len(s), n * n))
    for idx, i in enumerate(s):
        for j in range(1, n):
            for l in range(j):
                J[idx * n + j, l * n : (l + 1) * n] = rows[i, j - 1 - l]
    return Os, m.sigma_w2 * J @ J.T + m.sigma_v2 * np.eye(n * len(s))


@pytest.mark.parametrize("mode", [PREDICTION, FILTERING])
def test_bank_matches_from_scratch_reference(mode):
    # every subset of a p=4 plant: carved O_s and M_s reproduce the
    # quantities built directly for the subset
    from secest import cross_covariance_correction

    m = make_random_stable_system(3, 4, 0.85, seed=61, sigma_w2=0.5, sigma_v2=0.7)
    cfg = _small_cfg(N=600, eta=1.0, mode=mode)
    N = cfg.window_length(m.n)
    atk = AttackSpec((2,), SeededRandom(amplitude=3.0))
    traj = simulate(m, atk, cfg.t1 + N + m.n, seed=8, burn_in=30)
    detector = SubsetBank(m, cfg).detector(traj)
    checked = 0
    for size in range(1, 5):
        for s in combinations(range(1, 5), size):
            flt = solve_steady_state(m, s, mode)
            Os, M = _reference_obs_and_noise(m, s)
            F = flt.error_cov if mode == PREDICTION else flt.filtered_cov
            expected = Os @ F @ Os.T + M
            if mode == FILTERING:
                D = cross_covariance_correction(m, flt)
                expected = expected - D - D.T
            run = run_filter(flt, traj, cfg.t1, cfg.t1 + N - 1)
            residues = block_output_matrix(traj, s, cfg.t1, N) - run.estimates @ Os.T
            deviation = residues.T @ residues / N - expected
            scale = np.abs(expected).max()

            _, report = detector(s)
            assert np.abs(report.expected_matrix - expected).max() <= 1e-12 * scale
            assert abs(report.max_deviation - deviation.max()) <= 1e-12 * scale
            for idx, i in enumerate(s):
                Oi = Os[idx * m.n : (idx + 1) * m.n]
                block = slice(idx * m.n, (idx + 1) * m.n)
                mu = abs(np.trace(deviation[block, block]) - cfg.eta * m.n) / np.linalg.eigvalsh(
                    Oi.T @ Oi
                )[-1]
                assert report.per_sensor_mu[i] == pytest.approx(mu, rel=1e-12, abs=1e-12 * scale)
            checked += 1
    assert checked == 15


def test_bank_holds_filters_and_thresholds_only():
    # after filters read ahead and a search the bank keeps the filters read
    # and those of the subsets its full test ran on, per-subset thresholds,
    # the subsets that passed the solve's preconditions, with a filter or
    # without, and per sensor its Gram, noise trace and open-loop trace
    # tr(X O_c' O_c); no expected or residue matrix outlives its test
    from secest import exhaustive_search

    m = make_random_stable_system(3, 4, 0.85, seed=60, sigma_w2=0.5, sigma_v2=0.7)
    cfg = DetectorConfig(epsilon=50.0, N=3000, t1=80, k=1)  # auto thresholds
    atk = AttackSpec((1,), SeededRandom(amplitude=4.0))
    traj = simulate(m, atk, cfg.t1 + cfg.window_length(3) + 3, seed=3, burn_in=30)

    bank = SubsetBank(m, cfg)
    kept = {(1, 2, 3, 4), (2, 3, 4)}
    for s in kept:
        bank.filter(s)
    assert set(bank._filters) == kept
    inner, reports = bank.detector(traj), []

    def detector(s):
        flag, report = inner(s)
        reports.append(report)
        return flag, report

    outcome = exhaustive_search(m, traj, cfg, detector=detector)
    assert outcome.found and outcome.theory_checks > 1
    tested = {tuple(entry["subset"]) for entry in outcome.trace}
    full = {r.subset for r in reports if r.settled != "bound"}
    assert full != tested  # the bound settled some tests without a filter
    assert set(bank._filters) == full | kept
    assert bank._observable == tested | kept
    assert set(bank._etas) == tested
    assert set(vars(bank)) == {
        "model", "cfg", "N", "_cov", "gram_maxima", "_grams", "_cov_traces", "_open_loop",
        "_filters", "_observable", "_etas",
    }
    assert bank._cov.shape == (m.n * m.p, m.n * m.p)
    assert bank._grams.shape == (m.p, m.n, m.n) and bank._cov_traces.shape == (m.p,)
    assert bank._open_loop.traces.shape == (m.p,)


@pytest.mark.parametrize("mode", [PREDICTION, FILTERING])
def test_detectors_of_two_trajectories_share_a_bank(mode):
    # detectors of two trajectories from one bank, called interleaved,
    # give what fresh banks give
    m = make_random_stable_system(3, 4, 0.85, seed=60, sigma_w2=0.5, sigma_v2=0.7)
    cfg = _small_cfg(N=900, k=1, mode=mode)
    horizon = cfg.t1 + cfg.window_length(3) + 3
    trajs = [
        simulate(m, AttackSpec((1,), SeededRandom(amplitude=4.0)), horizon, seed=3, burn_in=30),
        simulate(m, AttackSpec(), horizon, seed=4, burn_in=30),
    ]
    bank = SubsetBank(m, cfg)
    detectors = [bank.detector(traj) for traj in trajs]
    subsets = [s for size in (2, 3, 4) for s in combinations(range(1, 5), size)]
    flags = set()
    for s in subsets:
        for traj, detector in zip(trajs, detectors):
            flag, report = detector(s)
            fresh_flag, fresh = attack_detect(m, traj, s, cfg)
            assert flag == fresh_flag
            assert report.max_deviation == fresh.max_deviation
            flags.add(flag)
    assert flags == {0, 1}


def test_experiment2_reports_repetitions_in_seed_order(monkeypatch):
    # one bank serves every repetition of a sensor count; per_run gets each
    # repetition's record in seed order before the next one simulates, and
    # a second run gives the same rows and outcomes, times apart
    from secest import cli
    from secest.cli import parse_scenario, run_experiment2

    scenario = parse_scenario(
        {
            "model": {"random": {"n": 3, "p": 3, "seed": 3, "sigma_w2": 0.001, "sigma_v2": 1.0}},
            "attack": {"strategy": {"type": "noise_linear", "gain": 10.0}},
            "detector": {"epsilon": 1.0, "eta": 8.0, "N": 300, "t1": 30},
            "experiment2": {"p_values": [3, 6], "weak_last_gain": 0.5},
            "repetitions": 4,
            "seed": 10,
        }
    )

    simulated = []
    simulate = cli.simulate

    def counting_simulate(*args, **kwargs):
        simulated.append(1)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate", counting_simulate)

    def run():
        simulated.clear()
        records, simulated_before = [], []

        def per_run(record):
            records.append(record)
            simulated_before.append(len(simulated))

        rows = run_experiment2(scenario, per_run=per_run)
        assert [(r["p"], r["seed"]) for r in records] == [
            (p, seed) for p in (3, 6) for seed in range(10, 14)
        ]
        assert simulated_before == list(range(1, 9))
        untimed = [{k: v for k, v in row.items() if "time" not in k} for row in rows]
        outcomes = [
            {
                key: {k: v for k, v in record[key].to_dict().items() if k != "wall_time"}
                for key in ("outcome_exhaustive", "outcome_smt")
            }
            for record in records
        ]
        return untimed, outcomes

    first = run()
    assert run() == first
    assert [row["p"] for row in first[0]] == [3, 6]


def test_large_bias_matches_direct_residue_formula():
    # a 1e3 bias on sensor 2 makes Ybar'Ybar/N about 1e6 against a residue
    # covariance of order one; the deviation taken from the window moment
    # matches r'r/N - expected within 256 eps max|Ybar'Ybar/N|, and every
    # flag and found subset is the direct formula's
    from secest import (
        ConstantBias,
        block_output_gram,
        cross_covariance_correction,
        exhaustive_search,
        noise_structure,
        observability_matrix,
        smt_search,
    )

    m = make_random_stable_system(3, 4, 0.85, seed=61, sigma_w2=0.5, sigma_v2=0.7)
    for mode in (PREDICTION, FILTERING):
        cfg = _small_cfg(N=3000, eta=1.0, k=1, mode=mode)
        N = cfg.window_length(m.n)
        atk = AttackSpec((2,), ConstantBias(bias=(1e3,)))
        traj = simulate(m, atk, cfg.t1 + N + m.n, seed=8, burn_in=30)
        bank = SubsetBank(m, cfg)
        bound = 256 * np.finfo(float).eps * np.abs(block_output_gram(traj, cfg.t1, N)).max() / N
        assert bound > 1e-9  # the moment is large

        def direct(s):
            s, n = tuple(s), m.n
            flt = bank.filter(s)
            run = run_filter(flt, traj, cfg.t1, cfg.t1 + N - 1)
            Os = observability_matrix(m, s)
            residues = block_output_matrix(traj, s, cfg.t1, N) - run.estimates @ Os.T
            F = flt.error_cov if mode == PREDICTION else flt.filtered_cov
            expected = Os @ F @ Os.T + noise_structure(m, s)
            if mode == FILTERING:
                D = cross_covariance_correction(m, flt)
                expected = expected - D - D.T
            deviation = residues.T @ residues / N - expected
            traces = [np.trace(deviation[c * n : (c + 1) * n, c * n : (c + 1) * n]) for c in range(len(s))]
            mu = {i: abs(tr - cfg.eta * n) / bank.gram_maxima[i] for i, tr in zip(s, traces)}
            passed = float(deviation.max()) <= cfg.eta
            report = SimpleNamespace(subset=s, deviation=deviation, per_sensor_mu=mu, run=run)
            return int(not passed), report

        detector = bank.detector(traj)
        flags = []
        for size in range(1, 5):
            for s in combinations(range(1, 5), size):
                flag, report = detector(s)
                direct_flag, reference = direct(s)
                assert flag == direct_flag
                assert np.abs(report.deviation - reference.deviation).max() <= bound
                flags.append(flag)
        assert 0 < sum(flags) < len(flags)
        for search in (exhaustive_search, smt_search):
            found = search(m, traj, cfg, detector=detector)
            assert found.subset == search(m, traj, cfg, detector=direct).subset == (1, 3, 4)


# --- the diagonal screen ----------------------------------------------------


def _screen_case(case, mode):
    """Model, detector configuration and trajectory of the screen tests:
    an n=6 plant under a random attack on sensor 2, or the 1e3-bias plant
    of the test above, whose window moment is about 1e6."""
    from secest import ConstantBias

    if case == "bias":
        m = make_random_stable_system(3, 4, 0.85, seed=61, sigma_w2=0.5, sigma_v2=0.7)
        cfg, strategy = _small_cfg(N=3000, eta=1.0, mode=mode), ConstantBias(bias=(1e3,))
    else:
        m = make_random_stable_system(6, 4, 0.85, seed=62, sigma_w2=0.5, sigma_v2=0.7)
        cfg, strategy = _small_cfg(N=600, eta=1.0, mode=mode), SeededRandom(amplitude=3.0)
    N = cfg.window_length(m.n)
    traj = simulate(m, AttackSpec((2,), strategy), cfg.t1 + N + m.n, seed=8, burn_in=30)
    return m, cfg, traj


def _report(m, cfg, traj, s, moment, eta):
    """The residue test of subset s with threshold eta."""
    bank = SubsetBank(m, replace(cfg, eta=eta))
    run = run_filter(bank.filter(s), traj, cfg.t1, cfg.t1 + bank.N - 1)
    return residue_report(bank, traj, s, run, moment)


@pytest.mark.parametrize("mode", [PREDICTION, FILTERING])
@pytest.mark.parametrize("case", ["random", "bias"])
def test_screen_flags_match_full_path(case, mode):
    # the full path's deviation comes from a threshold no diagonal can
    # exceed; every flag, at eta = 1 and at eta on and next to each
    # subset's largest diagonal and largest entry, is the full path's, and
    # a screened failure builds the full path's deviation, and serializes
    # as it, bit for bit on first read.  Every formed deviation carries the
    # screen's row-dot diagonal bit for bit
    m, cfg, traj = _screen_case(case, mode)
    bank = SubsetBank(m, cfg)
    moment = bank.window_moment(traj)
    screened = boundary_passes = boundary_fails = off_diagonal = 0
    for size in range(1, m.p + 1):
        for s in combinations(range(1, m.p + 1), size):
            full = _report(m, cfg, traj, s, moment, 1e300)
            report = _report(m, cfg, traj, s, moment, cfg.eta)
            diagonal = _row_dot_diagonal(bank, traj, s).tobytes()
            assert np.diagonal(full.deviation).tobytes() == diagonal
            assert report.passed == (full.max_deviation <= cfg.eta)
            if "deviation" not in vars(report):
                screened += 1
                assert not report.passed
                assert report.deviation.tobytes() == full.deviation.tobytes()
                assert report.max_deviation == full.max_deviation
                d, ref = report.to_dict(), full.to_dict()
                for key in ("sample_matrix", "expected_matrix", "max_deviation"):
                    assert d[key] == ref[key]
            assert np.diagonal(report.deviation).tobytes() == diagonal
            top, peak = float(np.diagonal(full.deviation).max()), full.max_deviation
            off_diagonal += peak > top
            for eta in (np.nextafter(top, -np.inf), top, np.nextafter(top, np.inf),
                        np.nextafter(peak, -np.inf), peak):
                if eta > 0:
                    passed = _report(m, cfg, traj, s, moment, float(eta)).passed
                    assert passed == (full.max_deviation <= eta)
                    boundary_passes += passed
                    boundary_fails += not passed
    assert screened > 0 and boundary_passes > 0 and boundary_fails > 0
    assert off_diagonal > 0  # a pass on the diagonal alone would flip these


def _reachable_arrays(root):
    """Every numpy array reachable from ``root`` through object references,
    not through functions, modules or classes."""
    import gc
    import types

    seen, arrays, stack = set(), [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (types.FunctionType, types.ModuleType, type)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            if obj.base is not None:
                stack.append(obj.base)
        stack.extend(gc.get_referents(obj))
    return arrays


def test_passing_reports_hold_no_window_moment():
    # twenty kept passing reports of twenty trajectories reach no
    # all-sensor window moment; the one (n p)^2 array they reach is the
    # bank's noise covariance, shared by all
    m = make_random_stable_system(3, 5, 0.85, seed=50, sigma_w2=0.5, sigma_v2=0.7)
    cfg = _small_cfg(N=600, eta=3.0)
    bank = SubsetBank(m, cfg)
    horizon = cfg.t1 + bank.N + m.n
    reports = []
    for seed in range(20):
        traj = simulate(m, AttackSpec(), horizon, seed=seed, burn_in=30)
        flag, report = bank.detector(traj)((1, 2, 3, 4))
        assert flag == 0
        reports.append(report)
    squares = [a for a in _reachable_arrays(reports) if a.shape == (m.n * m.p,) * 2]
    assert [id(a) for a in squares] == [id(bank._cov)]


def test_screened_failures_hold_no_window_moment_once_read():
    # a failure settled by the diagonal screen holds its trajectory's window
    # moment until its deviation is read, and then lets it go: twenty read
    # reports of twenty trajectories reach no (n p)^2 array but the bank's
    # noise covariance
    m = make_random_stable_system(3, 5, 0.85, seed=50, sigma_w2=0.5, sigma_v2=0.7)
    cfg = _small_cfg(N=600, eta=3.0)
    bank = SubsetBank(m, cfg)
    horizon = cfg.t1 + bank.N + m.n
    attack = AttackSpec((2,), SeededRandom(amplitude=5.0))

    def squares(root):
        return [a for a in _reachable_arrays(root) if a.shape == (m.n * m.p,) * 2]

    reports = []
    for seed in range(20):
        traj = simulate(m, attack, horizon, seed=seed, burn_in=30)
        flag, report = bank.detector(traj)((1, 2, 3, 4))
        assert flag == 1 and "deviation" not in vars(report)  # screened
        assert len(squares(report)) == 2  # the moment and the noise covariance
        report.deviation
        reports.append(report)
    assert [id(a) for a in squares(reports)] == [id(bank._cov)]


def _row_dot_diagonal(bank, traj, s):
    """The deviation's diagonal diag(moment)[s] - 2 rowsum(O_s * K'), from
    n-long row dot products, recomputed from the module docstring."""
    from secest import observability_matrix
    from secest.detect import _lag_products

    m, cfg, N = bank.model, bank.cfg, bank.N
    n, cols, flt = m.n, [i - 1 for i in s], bank.filter(s)
    Os = observability_matrix(m, s)
    est = run_filter(flt, traj, cfg.t1, cfg.t1 + N - 1).window(cfg.t1, N)
    F = flt.error_cov if flt.mode == PREDICTION else flt.filtered_cov
    Kt = _lag_products(traj.outputs[cfg.t1 : cfg.t1 + N + n - 1, cols], est)
    Kt = Kt.reshape(n * len(s), n)
    Kt -= Os @ (0.5 * (est.T @ est) - 0.5 * N * F)
    Kt /= N
    if flt.mode == FILTERING:
        Kt[::n] -= m.sigma_v2 * flt.gain.T
    dots = (Os * Kt).sum(axis=1)
    rows = np.diagonal(bank.window_moment(traj)).reshape(m.p, n)[cols].ravel()
    return rows - dots - dots


def _eager_scores(bank, traj, s):
    """Per-sensor scores by the formula every residue test applied before
    the scores became lazy: the trace of each sensor's block of the row-dot
    diagonal, offset by eta n and divided by lambda_max(O_i' O_i)."""
    n = bank.model.n
    traces = _row_dot_diagonal(bank, traj, s).reshape(len(s), n).sum(axis=1)
    eta = bank.eta(s)
    return {i: abs(float(tr) - eta * n) / bank.gram_maxima[i] for i, tr in zip(s, traces)}


@pytest.mark.parametrize("mode", [PREDICTION, FILTERING])
def test_search_forms_scores_only_where_certificates_read_them(monkeypatch, mode):
    # p=7, k=2: every failed hypothesis has 5 > p - 2k + 1 sensors, so its
    # certificate reads the report's scores; no other report forms them, and
    # the ones formed equal the eager formula's bit for bit
    from secest import search, smt_search

    m = make_random_stable_system(3, 7, 0.85, seed=60, sigma_w2=0.5, sigma_v2=0.7)
    cfg = _small_cfg(N=600, eta=1.0, k=2, mode=mode)
    bank = SubsetBank(m, cfg)
    traj = simulate(m, AttackSpec((1, 4), SeededRandom(amplitude=4.0)),
                    cfg.t1 + bank.N + m.n, seed=2, burn_in=30)
    inner, reports, certified = bank.detector(traj), [], []

    def detector(s):
        flag, report = inner(s)
        reports.append(report)
        return flag, report

    def certificate(model, report, *args):
        certified.append(report)
        return generate_certificate(model, report, *args)

    generate_certificate = search.generate_certificate
    monkeypatch.setattr(search, "generate_certificate", certificate)
    outcome = smt_search(m, traj, cfg, detector=detector)
    assert outcome.subset == (2, 3, 5, 6, 7) and len(certified) == outcome.theory_checks - 1
    assert len(reports) > outcome.theory_checks
    scored = [r for r in reports if "per_sensor_mu" in vars(r)]
    assert [id(r) for r in scored] == [id(r) for r in certified]
    for report in scored:
        assert report.per_sensor_mu == _eager_scores(bank, traj, report.subset)


# --- the trace bound --------------------------------------------------------


def _bound_case(mode):
    """An n=4, p=5 plant under a random attack on sensor 2 strong enough
    for the trace bound to fail subsets that hold it."""
    m = make_random_stable_system(4, 5, 0.85, seed=51, sigma_w2=0.5, sigma_v2=0.7)
    cfg = _small_cfg(N=600, eta=1.0, mode=mode)
    N = cfg.window_length(m.n)
    attack = AttackSpec((2,), SeededRandom(amplitude=10.0))
    return m, cfg, simulate(m, attack, cfg.t1 + N + m.n, seed=8, burn_in=30)


def _filter_trace(m, s, flt):
    """tr(E_s) - tr(M_s) of a computed filter: tr(F W_s), less
    2 sigma_v2 tr(C_s L) in filtering mode."""
    from secest import observability_matrix

    Os = observability_matrix(m, s)
    W = Os.T @ Os
    if flt.mode == PREDICTION:
        return np.trace(flt.error_cov @ W)
    Cs = m.C[np.subtract(s, 1)]
    return np.trace(flt.filtered_cov @ W) - 2 * m.sigma_v2 * np.trace(Cs @ flt.gain)


@pytest.mark.parametrize("mode", [PREDICTION, FILTERING])
def test_trace_bound_is_below_any_formed_diagonal_sum(mode):
    # on every subset of three random plants (the third with a 1e3 bias),
    # LB from the open-loop covariance X is at most the formed diagonal's
    # sum plus the margin, for the filter's estimates, random ones, and the
    # least-squares fits O_s^+ ybar_s(t), whose sum is LB with tr(E_s) read
    # from the filter: it exceeds LB from X by tr(X W_s) - (tr(E_s) -
    # tr(M_s)) >= 0, and otherwise differs by rounding alone.  The margin
    # stays below 1e-3 of the threshold sum n |s| eta
    from secest import ConstantBias, FilterRun, observability_matrix
    from secest.detect import _TraceBound

    rng = np.random.default_rng(5)
    plants = [
        (51, 4, 5, SeededRandom(amplitude=10.0)),
        (63, 6, 4, SeededRandom(amplitude=3.0)),
        (61, 3, 4, ConstantBias(bias=(1e3,))),
    ]
    for seed, n, p, strategy in plants:
        m = make_random_stable_system(n, p, 0.85, seed=seed, sigma_w2=0.5, sigma_v2=0.7)
        cfg = _small_cfg(N=600, eta=1.0, mode=mode)
        bank = SubsetBank(m, cfg)
        N, window = bank.N, (cfg.t1, cfg.t1 + bank.N - 1)
        traj = simulate(m, AttackSpec((2,), strategy), cfg.t1 + N + n, seed=8, burn_in=30)
        moment = bank.window_moment(traj)
        bound = _TraceBound(bank, traj, moment)
        for size in range(1, p + 1):
            for s in combinations(range(1, p + 1), size):
                flt = bank.filter(s)
                lb, margin = bound.terms(s)
                assert 0 < margin <= 1e-3 * n * size * cfg.eta
                ybar = block_output_matrix(traj, s, cfg.t1, N)
                fits = np.linalg.lstsq(observability_matrix(m, s), ybar.T, rcond=None)[0].T
                estimates = [run_filter(flt, traj, *window).estimates, rng.standard_normal((N, n))]
                for est in estimates + [fits]:
                    run = FilterRun(estimates=est, t_start=window[0], t_end=window[1])
                    report = residue_report(bank, traj, s, run, moment)
                    total = math.fsum(np.diagonal(report.deviation))
                    assert lb <= total + margin
                gap = bank._open_loop.traces[np.subtract(s, 1)].sum() - _filter_trace(m, s, flt)
                assert abs(total - gap - lb) <= margin  # the fits


@pytest.mark.parametrize("mode", [PREDICTION, FILTERING])
def test_bound_failures_report_the_full_test_bitwise(mode):
    # every flag is the full test's; a failure settled by the trace bound
    # has no run, forms its scores, deviation, matrices and to_dict() on
    # first read bit for bit as the full test does, and once read reaches
    # no (n p)^2 array but its own and the bank's noise covariance
    m, cfg, traj = _bound_case(mode)
    bank = SubsetBank(m, cfg)
    moment = bank.window_moment(traj)
    detector = bank.detector(traj)
    settled = []
    for size in range(1, m.p + 1):
        for s in combinations(range(1, m.p + 1), size):
            flag, report = detector(s)
            full = _report(m, cfg, traj, s, moment, cfg.eta)
            assert flag == int(not full.passed)
            settled.append(report.settled)
            if report.settled != "bound":
                assert report.settled == full.settled
                continue
            assert flag == 1 and full.settled == "screen"
            assert "run" not in vars(report) and "deviation" not in vars(report)
            assert report.per_sensor_mu == full.per_sensor_mu
            assert report.deviation.tobytes() == full.deviation.tobytes()
            assert report.max_deviation == full.max_deviation
            assert report.expected_matrix.tobytes() == full.expected_matrix.tobytes()
            assert report.sample_matrix.tobytes() == full.sample_matrix.tobytes()
            assert report.to_dict() == full.to_dict()
            assert report.run.estimates.tobytes() == full.run.estimates.tobytes()
            own = {id(report.deviation), id(report.expected_matrix), id(report.sample_matrix)}
            squares = [a for a in _reachable_arrays(report) if a.shape == (m.n * m.p,) * 2]
            assert [id(a) for a in squares if id(a) not in own] == [id(bank._cov)]
    assert set(settled) == {"bound", "screen", "full"}


def test_near_threshold_subset_falls_through_to_the_full_test():
    # thresholds within the margin below LB / (n |s|) leave the test to the
    # full path, which decides it; one clear of the margin lets the bound
    # settle it.  LB reads X, in a bank that keeps the subset's filter too
    from secest.detect import _TraceBound

    m, cfg, traj = _bound_case(PREDICTION)
    s, size = (1, 2, 3), m.n * 3
    bank = SubsetBank(m, cfg)
    moment = bank.window_moment(traj)
    bound = _TraceBound(bank, traj, moment)
    lb, margin = bound.terms(s)
    assert lb - margin > size * cfg.eta
    for kept in (False, True):
        for eta, bounded in [(lb / size, False), ((lb - margin / 2) / size, False),
                             ((lb - 2 * margin) / size, True)]:
            fresh = SubsetBank(m, replace(cfg, eta=eta))
            if kept:
                fresh.filter(s)
            flag, report = fresh.detector(traj)(s)
            assert (report.settled == "bound") == bounded == ("run" not in vars(report))
            assert flag == int(not _report(m, cfg, traj, s, moment, eta).passed)


@pytest.mark.parametrize("mode", [PREDICTION, FILTERING])
def test_open_loop_covariance_bounds_every_filters_expectation(mode):
    # on every subset of random stable plants, the computed filter's
    # tr(F W_s) - 2 sigma_v2 tr(C_s L) is at most tr(X W_s), the sum of the
    # bank's per-sensor traces
    from secest import observability_matrix

    for seed, n, p, rho in [(70, 3, 4, 0.85), (71, 6, 5, 0.95), (72, 10, 4, 0.5), (73, 5, 3, 0.99)]:
        m = make_random_stable_system(n, p, rho, seed=seed, sigma_w2=0.5, sigma_v2=0.7)
        bank = SubsetBank(m, _small_cfg(eta=1.0, mode=mode))
        X = m.open_loop_cov
        for size in range(1, p + 1):
            for s in combinations(range(1, p + 1), size):
                if not is_observable(m, s):
                    continue
                expected = _filter_trace(m, s, solve_steady_state(m, s, mode))
                Os = observability_matrix(m, s)
                assert expected <= np.trace(X @ Os.T @ Os)
                assert expected <= bank._open_loop.traces[np.subtract(s, 1)].sum()


def test_bound_failure_solves_no_filter_until_read():
    # a failure the bound settles from X leaves the bank's filters as they
    # were; reading its expected matrix solves the subset's filter, and the
    # read report equals the full test's bit for bit
    m, cfg, traj = _bound_case(FILTERING)
    bank = SubsetBank(m, cfg)
    moment = bank.window_moment(traj)
    detector = bank.detector(traj)
    bank.filter((2, 3))
    flag, report = detector((1, 2, 3))
    assert (flag, report.settled) == (1, "bound") and "run" not in vars(report)
    assert set(bank._filters) == {(2, 3)} and bank._observable == {(2, 3), (1, 2, 3)}
    full = _report(m, cfg, traj, (1, 2, 3), moment, cfg.eta)
    assert report.expected_matrix.tobytes() == full.expected_matrix.tobytes()
    assert set(bank._filters) == {(2, 3), (1, 2, 3)}
    assert report.to_dict() == full.to_dict()
    assert report.deviation.tobytes() == full.deviation.tobytes()


def test_unobservable_subset_raises_before_its_threshold(monkeypatch):
    # on a stable plant whose sensor 2 sees nothing, the detector call on
    # a subset of sensor 2 alone raises the solve's AnalysisError before
    # the threshold is asked for, and the bank keeps nothing of it
    m = SystemModel(A=[[0.5, 0.0], [0.0, 0.4]], C=[[1.0, 1.0], [0.0, 0.0], [1.0, -1.0]],
                    sigma_w2=0.5, sigma_v2=0.7)
    cfg = _small_cfg(N=600, eta=1.0)
    bank = SubsetBank(m, cfg)
    traj = simulate(m, AttackSpec(), cfg.t1 + bank.N + m.n, seed=1, burn_in=30)
    detector = bank.detector(traj)

    def no_threshold(self, s):
        raise AssertionError("threshold asked for before the observability check")

    monkeypatch.setattr(SubsetBank, "eta", no_threshold)
    with pytest.raises(AnalysisError, match=r"subset \(2,\) is not observable"):
        detector((2,))
    assert bank._observable == set() and bank._filters == {}


def test_plant_without_open_loop_covariance_runs_every_full_test(monkeypatch):
    # on the random walk there is no X, so the detector builds no trace
    # bound: each test, a failure under a large bias included, is the full
    # test, with its filter run, and flags as the full test does
    from secest import ConstantBias, detect

    m = SystemModel(A=[[1.0]], C=[[1.0], [1.0], [1.0]], sigma_w2=1.0, sigma_v2=1.0)
    cfg = _small_cfg(N=400, eta=1.0, t1=20)
    bank = SubsetBank(m, cfg)
    assert m.open_loop_cov is None and bank._open_loop is None
    traj = simulate(m, AttackSpec((1,), ConstantBias(bias=(50.0,))), 440, seed=2, burn_in=10)

    def no_bound(*args):
        raise AssertionError("trace bound built on a plant without X")

    monkeypatch.setattr(detect, "_TraceBound", no_bound)
    detector, moment = bank.detector(traj), bank.window_moment(traj)
    flags = []
    for s in [(1, 2), (2, 3), (1,), (1, 2, 3)]:
        flag, report = detector(s)
        assert "run" in vars(report) and report.settled != "bound"
        assert flag == int(not _report(m, cfg, traj, s, moment, cfg.eta).passed)
        flags.append(flag)
    assert flags == [1, 0, 0, 1]
    assert set(bank._filters) == {(1, 2), (2, 3), (1,), (1, 2, 3)}


@pytest.mark.parametrize("mode", [PREDICTION, FILTERING])
def test_trace_bound_ignores_the_kept_filters(mode):
    # on a stable plant the bound reads X alone: a fresh bank's detector
    # and that of a bank which already keeps every subset's filter give
    # each subset the same flag, the same settling test and the same
    # missing or present run
    m, cfg, traj = _bound_case(mode)
    subsets = [s for size in range(1, m.p + 1) for s in combinations(range(1, m.p + 1), size)]
    kept = SubsetBank(m, cfg)
    for s in subsets:
        kept.filter(s)
    fresh_detector, kept_detector = SubsetBank(m, cfg).detector(traj), kept.detector(traj)
    settled = set()
    for s in subsets:
        outcomes = [detector(s) for detector in (fresh_detector, kept_detector)]
        fresh, held = [(flag, report.settled, "run" in vars(report)) for flag, report in outcomes]
        assert fresh == held
        settled.add(fresh[1])
    assert settled == {"bound", "screen", "full"}


def test_bank_checks_a_subsets_solvability_once(monkeypatch):
    # on a stable plant, a subset whose trace bound misses goes on to its
    # full test, which solves its filter; the bank's check of the solve's
    # preconditions before the bound serves the solve too, so (A, C_s) is
    # checked for observability once
    from secest import kalman

    m = make_random_stable_system(3, 4, 0.85, seed=60, sigma_w2=0.5, sigma_v2=0.7)
    cfg = _small_cfg(N=900, eta=1.0)
    bank = SubsetBank(m, cfg)
    assert bank._open_loop is not None
    traj = simulate(m, AttackSpec(), cfg.t1 + bank.N + m.n, seed=1, burn_in=30)
    detector = bank.detector(traj)
    checked, observable = [], kalman.is_observable

    def counted(model, s):
        checked.append(s)
        return observable(model, s)

    monkeypatch.setattr(kalman, "is_observable", counted)
    flag, report = detector((1, 2, 3))
    assert report.settled != "bound" and "run" in vars(report)
    assert set(bank._filters) == {(1, 2, 3)}
    assert checked == [(1, 2, 3)]


def test_bound_failure_of_a_subset_whose_solve_raises():
    # a stable plant of three identical sensors at sigma_v2 = 1e-38: the
    # Riccati solve of a two-sensor subset meets a singular matrix, but its
    # open-loop trace bound fails the subset under a 1e15 bias, so the
    # detector flags it with no exception, and reading the report raises
    # the solve's AnalysisError
    from secest import ConstantBias

    m = SystemModel(A=[[0.5]], C=[[1.0], [1.0], [1.0]], sigma_w2=1.0, sigma_v2=1e-38)
    for mode in (PREDICTION, FILTERING):
        with pytest.raises(AnalysisError, match="singular"):
            solve_steady_state(m, (1, 2), mode)
        cfg = _small_cfg(N=40, eta=1.0, t1=10, mode=mode)
        traj = simulate(m, AttackSpec((1,), ConstantBias(bias=(1e15,))), 60, seed=1, burn_in=10)
        bank = SubsetBank(m, cfg)
        flag, report = bank.detector(traj)((1, 2))
        assert (flag, report.settled, report.passed) == (1, "bound", False)
        for read in ("run", "expected_matrix", "deviation", "per_sensor_mu"):
            with pytest.raises(AnalysisError, match="singular"):
                getattr(report, read)
        flag, report = attack_detect(m, traj, (1, 2), cfg)  # flags with no solve, as above
        assert (flag, report.settled) == (1, "bound")
        with pytest.raises(AnalysisError, match="singular"):
            report.to_dict()


def test_attack_detect_leaves_the_run_of_a_bound_failure_to_its_report(monkeypatch):
    # the one-shot test of a subset the trace bound fails runs no filter;
    # reading its report's run, deviation, scores and to_dict() runs the
    # filter once, and that run is the subset's steady-state filter run
    from secest import detect

    m, cfg, traj = _bound_case(PREDICTION)
    s, runs = (1, 2, 3), []

    def counted(*args):
        runs.append(args)
        return run_filter(*args)

    monkeypatch.setattr(detect, "run_filter", counted)
    flag, report = attack_detect(m, traj, s, cfg)
    assert (flag, report.settled, runs) == (1, "bound", [])
    run = report.run
    report.deviation, report.per_sensor_mu, report.to_dict()
    assert len(runs) == 1
    end = cfg.t1 + cfg.window_length(m.n) - 1
    expected = run_filter(solve_steady_state(m, s, cfg.mode), traj, cfg.t1, end)
    assert (run.t_start, run.t_end) == (cfg.t1, end)
    assert run.estimates.tobytes() == expected.estimates.tobytes()


def test_bound_failure_refuses_overflowing_products_on_every_read(monkeypatch):
    # the full test of a bound failure runs when its deviation or scores
    # are read, and refuses window products past float64 on each read
    from secest import FilterRun, detect

    m, cfg, traj = _bound_case(PREDICTION)
    _, report = SubsetBank(m, cfg).detector(traj)((1, 2, 3))
    assert report.settled == "bound"

    def huge_run(flt, traj, t_start, t_end):
        run = run_filter(flt, traj, t_start, t_end)
        return FilterRun(estimates=run.estimates * 1e300, t_start=t_start, t_end=t_end)

    monkeypatch.setattr(detect, "run_filter", huge_run)
    for _ in range(2):
        with pytest.raises(AnalysisError, match="window products"):
            report.deviation
        with pytest.raises(AnalysisError, match="window products"):
            report.per_sensor_mu
