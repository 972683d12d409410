from dataclasses import replace
from itertools import combinations

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
        flag, _, report = attack_detect(m, traj, (1, 2, 3), cfg)
        flags.append(flag)
    assert sum(flags) == 0


def test_variance_inflating_attack_flagged():
    m = make_random_stable_system(3, 3, 0.85, seed=50, sigma_w2=0.5, sigma_v2=0.7)
    cfg = _small_cfg(eta=1.0)
    atk = AttackSpec((2,), SeededRandom(amplitude=4.0))
    traj = simulate(m, atk, cfg.t1 + cfg.window_length(3) + 3, seed=1, burn_in=30)
    flag, _, report = attack_detect(m, traj, (1, 2, 3), cfg)
    assert flag == 1
    assert report.max_deviation > report.eta


def test_clean_subset_unaffected_by_attack_elsewhere():
    m = make_random_stable_system(3, 3, 0.85, seed=50, sigma_w2=0.5, sigma_v2=0.7)
    cfg = _small_cfg(eta=1.0)
    atk = AttackSpec((3,), SeededRandom(amplitude=4.0))
    traj = simulate(m, atk, cfg.t1 + cfg.window_length(3) + 3, seed=1, burn_in=30)
    flag, _, _ = attack_detect(m, traj, (1, 2), cfg)
    assert flag == 0


def test_filtering_mode_detects_and_calibrates():
    m = make_random_stable_system(3, 3, 0.85, seed=50, sigma_w2=0.5, sigma_v2=0.7)
    cfg = _small_cfg(N=20000, eta=0.6, mode=FILTERING)
    traj = simulate(m, AttackSpec(), cfg.t1 + cfg.window_length(3) + 3, seed=2, burn_in=30)
    flag, _, report = attack_detect(m, traj, (1, 2, 3), cfg)
    assert flag == 0
    atk = AttackSpec((1,), SeededRandom(amplitude=4.0))
    atraj = simulate(m, atk, cfg.t1 + cfg.window_length(3) + 3, seed=2, burn_in=30)
    flag, _, _ = attack_detect(m, atraj, (1, 2, 3), cfg)
    assert flag == 1


def test_pass_rule_is_one_sided():
    # deflating the sample matrix can never flip a pass into a failure
    m = make_random_stable_system(3, 3, 0.85, seed=50, sigma_w2=0.5, sigma_v2=0.7)
    cfg = _small_cfg(eta=1.0)
    traj = simulate(m, AttackSpec(), cfg.t1 + cfg.window_length(3) + 3, seed=3, burn_in=30)
    _, _, report = attack_detect(m, traj, (1, 2, 3), cfg)
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
    traj = simulate(m, AttackSpec(), 500, seed=0)
    with pytest.raises(ConfigError):
        attack_detect(m, traj, (1, 2), cfg)


def test_report_serializes():
    m = make_random_stable_system(2, 2, 0.8, seed=1, sigma_w2=0.5, sigma_v2=0.5)
    cfg = _small_cfg(N=500, eta=2.0)
    traj = simulate(m, AttackSpec(), cfg.t1 + cfg.window_length(2) + 2, seed=5, burn_in=20)
    _, _, report = attack_detect(m, traj, (1, 2), cfg)
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
            rep = residue_report(banks[N], traj, (1, 2, 3), run)
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
                D = cross_covariance_correction(m, s, flt)
                expected = expected - D - D.T
            run = run_filter(flt, traj, cfg.t1, cfg.t1 + N - 1)
            residues = block_output_matrix(traj, s, cfg.t1, N) - run.estimates @ Os.T
            deviation = residues.T @ residues / N - expected
            scale = np.abs(expected).max()

            _, _, report = detector(s)
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
    # after a prewarm and a search the bank keeps per-subset filters and
    # thresholds; no expected or residue matrix outlives its test
    from secest import exhaustive_search

    m = make_random_stable_system(3, 4, 0.85, seed=60, sigma_w2=0.5, sigma_v2=0.7)
    cfg = DetectorConfig(epsilon=50.0, N=3000, t1=80, k=1)  # auto thresholds
    atk = AttackSpec((1,), SeededRandom(amplitude=4.0))
    traj = simulate(m, atk, cfg.t1 + cfg.window_length(3) + 3, seed=3, burn_in=30)

    bank = SubsetBank(m, cfg)
    bank.prewarm([(2, 3, 4), (1, 2, 3, 4)])
    assert set(bank._filters) == {(2, 3, 4), (1, 2, 3, 4)}
    outcome = exhaustive_search(m, traj, cfg, detector=bank.detector(traj))
    assert outcome.found and outcome.theory_checks > 1
    tested = {tuple(entry["subset"]) for entry in outcome.trace}
    assert set(bank._filters) == tested | {(1, 2, 3, 4)}
    assert set(bank._etas) == tested
    assert set(vars(bank)) == {"model", "cfg", "N", "_cov", "gram_maxima", "_filters", "_etas"}
    assert bank._cov.shape == (m.n * m.p, m.n * m.p)


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
            flag, _, report = detector(s)
            fresh_flag, _, fresh = attack_detect(m, traj, s, cfg)
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
    from secest.detect import ResidueReport

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
            expected = Os @ F @ Os.T + noise_structure(m, s).cov
            if mode == FILTERING:
                D = cross_covariance_correction(m, s, flt)
                expected = expected - D - D.T
            deviation = residues.T @ residues / N - expected
            traces = [np.trace(deviation[c * n : (c + 1) * n, c * n : (c + 1) * n]) for c in range(len(s))]
            mu = {i: abs(tr - cfg.eta * n) / bank.gram_maxima[i] for i, tr in zip(s, traces)}
            max_dev = float(deviation.max())
            report = ResidueReport(
                s, mode, deviation, max_dev, cfg.eta, max_dev <= cfg.eta, mu, N, cfg.t1, None
            )
            return int(not report.passed), run, report

        detector = bank.detector(traj)
        flags = []
        for size in range(1, 5):
            for s in combinations(range(1, 5), size):
                flag, _, report = detector(s)
                direct_flag, _, reference = direct(s)
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
    # as it, bit for bit on first read
    m, cfg, traj = _screen_case(case, mode)
    moment = SubsetBank(m, cfg).window_moment(traj)
    screened = boundary_passes = boundary_fails = off_diagonal = 0
    for size in range(1, m.p + 1):
        for s in combinations(range(1, m.p + 1), size):
            full = _report(m, cfg, traj, s, moment, 1e300)
            report = _report(m, cfg, traj, s, moment, cfg.eta)
            assert report.passed == (full.max_deviation <= cfg.eta)
            if "deviation" not in vars(report):
                screened += 1
                assert not report.passed
                assert report.deviation.tobytes() == full.deviation.tobytes()
                assert report.max_deviation == full.max_deviation
                d, ref = report.to_dict(), full.to_dict()
                for key in ("sample_matrix", "expected_matrix", "max_deviation"):
                    assert d[key] == ref[key]
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
        flag, _, report = bank.detector(traj)((1, 2, 3, 4))
        assert flag == 0
        reports.append(report)
    squares = [a for a in _reachable_arrays(reports) if a.shape == (m.n * m.p,) * 2]
    assert [id(a) for a in squares] == [id(bank._cov)]
