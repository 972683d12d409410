import numpy as np
import pytest
from scipy.linalg import solve_discrete_are

from secest import (
    AnalysisError,
    AttackSpec,
    ConfigError,
    FILTERING,
    PREDICTION,
    SystemModel,
    ZeroOutput,
    cross_covariance_correction,
    make_random_stable_system,
    observability_matrix,
    run_filter,
    simulate,
    solve_steady_state,
    worst_subset,
)

from conftest import window_noise_map

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def dare_oracle(model, subset):
    """Independent steady-covariance solve via the structured solver."""
    Cs = model.C[[i - 1 for i in subset]]
    return solve_discrete_are(
        model.A.T,
        Cs.T,
        model.sigma_w2 * np.eye(model.n),
        model.sigma_v2 * np.eye(len(subset)),
    )


def test_scalar_closed_forms(triple_sensor_scalar):
    flt = solve_steady_state(triple_sensor_scalar, (1,), PREDICTION)
    assert abs(flt.error_cov[0, 0] - GOLDEN) <= 1e-10
    fltf = solve_steady_state(triple_sensor_scalar, (1,), FILTERING)
    assert abs(fltf.filtered_cov[0, 0] - (GOLDEN / (GOLDEN + 1.0))) <= 1e-10
    assert abs(fltf.filtered_cov[0, 0] - 0.6180339887) <= 1e-9


def test_zero_process_noise_decays_to_zero():
    m = make_random_stable_system(4, 2, 0.7, seed=3, sigma_w2=0.0, sigma_v2=1.0)
    flt = solve_steady_state(m, (1, 2), PREDICTION)
    assert np.allclose(flt.error_cov, 0.0, atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_riccati_matches_structured_solver(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    p = int(rng.integers(2, 5))
    m = make_random_stable_system(
        n, p, 0.85, seed=seed, sigma_w2=float(rng.uniform(0.2, 2)), sigma_v2=float(rng.uniform(0.2, 2))
    )
    subset = tuple(range(1, p + 1))
    flt = solve_steady_state(m, subset, PREDICTION)
    assert flt.riccati_residual <= 1e-9
    ref = dare_oracle(m, subset)
    assert np.linalg.norm(flt.error_cov - ref, "fro") <= 1e-7 * max(
        1.0, np.linalg.norm(ref, "fro")
    )


def test_riccati_large_covariance_converges():
    # with ||P||_F near 5e6, roundoff keeps each step's change near 1e-9,
    # so an absolute 1e-12 stopping rule alone never stops
    m = make_random_stable_system(3, 1, 0.95, seed=1, sigma_w2=1e6)
    flt = solve_steady_state(m, (1,), PREDICTION)
    ref = dare_oracle(m, (1,))
    assert np.linalg.norm(flt.error_cov - ref, "fro") <= 1e-9 * np.linalg.norm(ref, "fro")


def _dare_filtered(model, subset, P):
    Cs = model.C[[i - 1 for i in subset]]
    S = Cs @ P @ Cs.T + model.sigma_v2 * np.eye(len(subset))
    return P - P @ Cs.T @ np.linalg.solve(S, Cs @ P)


def _relative_gap(got, ref):
    return np.linalg.norm(got - ref, "fro") / np.linalg.norm(ref, "fro")


@pytest.mark.parametrize("mode", [PREDICTION, FILTERING])
def test_riccati_unstable_plant_matches_structured_solver(mode):
    rng = np.random.default_rng(14)
    A = rng.standard_normal((6, 6))
    A *= 1.4 / np.max(np.abs(np.linalg.eigvals(A)))
    m = SystemModel(A=A, C=rng.standard_normal((3, 6)), sigma_w2=0.6, sigma_v2=1.3)
    flt = solve_steady_state(m, (1, 2, 3), mode)
    ref = dare_oracle(m, (1, 2, 3))
    assert _relative_gap(flt.error_cov, ref) <= 1e-12
    if mode == FILTERING:
        assert _relative_gap(flt.filtered_cov, _dare_filtered(m, (1, 2, 3), ref)) <= 1e-12


def test_riccati_search_scale_filtering_subset():
    # the plant of a search over n=50 states and p=9 sensors, first three attacked
    m = make_random_stable_system(50, 9, 0.9, seed=0, sigma_w2=0.001, sigma_v2=1.0)
    s = (4, 5, 6, 7, 8, 9)
    flt = solve_steady_state(m, s, FILTERING)
    ref = dare_oracle(m, s)
    assert _relative_gap(flt.error_cov, ref) <= 1e-12
    assert _relative_gap(flt.filtered_cov, _dare_filtered(m, s, ref)) <= 1e-12


def test_riccati_doubling_count_on_random_systems():
    # the 50 plant/subset pairs of acceptance criterion 1, drawn the same way
    from secest import is_observable

    rng = np.random.default_rng(0)
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
        if not is_observable(m, subset):
            subset = tuple(range(1, p + 1))
        assert 1 <= solve_steady_state(m, subset, PREDICTION).iterations <= 10


def test_riccati_overflow_raises():
    # ||P||_F overflows, which once made the stopping tolerance inf and
    # returned an unconverged P without an error
    m = make_random_stable_system(3, 1, 0.95, seed=1, sigma_w2=1e200)
    with pytest.raises(AnalysisError):
        solve_steady_state(m, (1,), PREDICTION)


def test_unobservable_subset_rejected():
    m = SystemModel(A=np.eye(2), C=[[1.0, 0.0], [0.0, 1.0]], sigma_w2=1, sigma_v2=1)
    with pytest.raises(AnalysisError):
        solve_steady_state(m, (1,), PREDICTION)


def test_run_filter_zero_noise_fixed_point():
    m = make_random_stable_system(3, 2, 0.8, seed=5, sigma_w2=1.0, sigma_v2=1.0)
    noiseless = SystemModel(A=m.A, C=m.C, sigma_w2=0.0, sigma_v2=0.0)
    traj = simulate(noiseless, AttackSpec(), horizon=50, seed=0)
    flt = solve_steady_state(m, (1, 2), PREDICTION)
    run = run_filter(flt, traj)
    assert np.allclose(run.estimates, 0.0)


def test_attack_free_calibration_scalar(triple_sensor_scalar):
    flt = solve_steady_state(triple_sensor_scalar, (1,), PREDICTION)
    traj = simulate(triple_sensor_scalar, AttackSpec(), horizon=10**5 + 200, seed=12)
    run = run_filter(flt, traj, 200)
    err = traj.states[200:] - run.estimates
    sample = float(np.mean(err**2))
    assert abs(sample - GOLDEN) <= 0.05 * GOLDEN


def test_zero_output_attack_breaks_scalar_filter():
    m = SystemModel(A=[[1.0]], C=[[1.0]], sigma_w2=1.0, sigma_v2=1.0)
    flt = solve_steady_state(m, (1,), PREDICTION)
    traj = simulate(m, AttackSpec((1,), ZeroOutput()), horizon=5000, seed=3)
    run = run_filter(flt, traj, 100)
    err = traj.states[100:] - run.estimates
    sample = float(np.mean(err**2))
    # estimates collapse toward zero while the state random-walks
    assert sample > 20.0 * flt.error_cov[0, 0]


def test_filtering_not_worse_than_prediction():
    for seed in range(4):
        m = make_random_stable_system(4, 3, 0.85, seed=seed)
        for s in [(1,), (1, 2), (1, 2, 3)]:
            flt = solve_steady_state(m, s, FILTERING)
            assert np.trace(flt.filtered_cov) <= np.trace(flt.error_cov) + 1e-12


def test_trace_monotone_in_sensors():
    m = make_random_stable_system(4, 5, 0.85, seed=7)
    prev = np.inf
    subset = []
    for i in range(1, 6):
        subset.append(i)
        flt = solve_steady_state(m, subset, PREDICTION)
        tr = float(np.trace(flt.error_cov))
        assert tr <= prev + 1e-9
        prev = tr


def test_cross_correction_scalar_window(triple_sensor_scalar):
    # window length one makes the selector the identity
    s = (1, 2)
    flt = solve_steady_state(triple_sensor_scalar, s, FILTERING)
    D = cross_covariance_correction(triple_sensor_scalar, flt)
    Os = observability_matrix(triple_sensor_scalar, s)
    assert np.allclose(D, triple_sensor_scalar.sigma_v2 * flt.gain.T @ Os.T)


def test_cross_correction_matches_selector_product():
    # D's rows are written directly; the selector product E1 L' O_s' is the
    # reference, equal up to the order of the final product's sums
    m = make_random_stable_system(5, 4, 0.9, seed=3, sigma_w2=0.2, sigma_v2=0.7)
    s = (1, 3, 4)
    flt = solve_steady_state(m, s, FILTERING)
    E1 = np.zeros((m.n * len(s), len(s)))
    for c in range(len(s)):
        E1[c * m.n, c] = 1.0
    expected = m.sigma_v2 * E1 @ flt.gain.T @ observability_matrix(m, s).T
    D = cross_covariance_correction(m, flt)
    assert np.max(np.abs(D - expected)) <= 16 * np.finfo(float).eps * np.max(np.abs(expected))


def test_cross_correction_zero_sensor_noise_limit():
    # as sigma_v2 -> 0 the correction scales to zero with it
    m = make_random_stable_system(3, 2, 0.8, seed=2, sigma_w2=1.0, sigma_v2=1e-9)
    flt = solve_steady_state(m, (1, 2), FILTERING)
    D = cross_covariance_correction(m, flt)
    assert np.max(np.abs(D)) <= 1e-6


def test_cross_correction_monte_carlo():
    rng = np.random.default_rng(1)
    m = make_random_stable_system(3, 2, 0.8, seed=7, sigma_w2=0.4, sigma_v2=0.9)
    s = (1, 2)
    flt = solve_steady_state(m, s, FILTERING)
    D = cross_covariance_correction(m, flt)
    J = window_noise_map(m, s)
    Os = observability_matrix(m, s)
    n, ms = m.n, len(s)
    T = 200_000
    W = np.sqrt(m.sigma_w2) * rng.standard_normal((T, n * n))
    Vbar = np.sqrt(m.sigma_v2) * rng.standard_normal((T, n * ms))
    Z = W @ J.T + Vbar
    vt = Vbar[:, [c * n for c in range(ms)]]
    U = vt @ (Os @ flt.gain).T
    est = Z.T @ U / T
    se = np.sqrt((np.abs(Z.T**2 @ U**2) / T - est**2) / T)
    assert np.all(np.abs(est - D) <= 3.5 * se + 1e-12)


def test_cross_correction_mode_error(triple_sensor_scalar):
    flt = solve_steady_state(triple_sensor_scalar, (1, 2), PREDICTION)
    with pytest.raises(ConfigError):
        cross_covariance_correction(triple_sensor_scalar, flt)


def test_worst_subset_symmetric_tie(triple_sensor_scalar):
    subset, trace = worst_subset(triple_sensor_scalar, 1)
    assert subset == (1, 2)
    ref = solve_steady_state(triple_sensor_scalar, (1, 2), PREDICTION)
    assert trace == pytest.approx(float(np.trace(ref.error_cov)))


def test_worst_subset_excludes_strong_sensor():
    # sensor 3 reads the state through a 10x larger row: most informative
    m = SystemModel(A=[[0.9]], C=[[1.0], [1.0], [10.0]], sigma_w2=1.0, sigma_v2=1.0)
    traces = {}
    from itertools import combinations

    for s in combinations((1, 2, 3), 2):
        traces[s] = float(np.trace(solve_steady_state(m, s, PREDICTION).error_cov))
    subset, trace = worst_subset(m, 1)
    assert subset == max(sorted(traces), key=lambda s: traces[s])
    assert 3 not in subset
    assert trace == pytest.approx(max(traces.values()))


def test_worst_subset_k0_full_set(triple_sensor_scalar):
    subset, trace = worst_subset(triple_sensor_scalar, 0)
    assert subset == (1, 2, 3)


def _two_loop_run_filter(model, flt, traj, t_start, t_end, dtype=float):
    """Reference: the prediction and filtering recursions as separate
    loops, one step at a time, in ``dtype`` arithmetic."""
    A = model.A.astype(dtype)
    Cs = model.C[[i - 1 for i in flt.subset]].astype(dtype)
    gain, n = flt.gain.astype(dtype), model.n
    gain_y = traj.outputs[: t_end + 1, [i - 1 for i in flt.subset]].astype(dtype) @ gain.T
    est = np.empty((t_end + 1, n), dtype=dtype)
    x = np.zeros(n, dtype=dtype)
    if flt.mode == PREDICTION:
        Acl = A - gain @ Cs
        for t in range(t_end + 1):
            est[t] = x
            x = Acl @ x + gain_y[t]
    else:
        Acl = (np.eye(n, dtype=dtype) - gain @ Cs) @ A
        for t in range(t_end + 1):
            x = Acl @ x + gain_y[t]
            est[t] = x
    return est[t_start:]


# run_filter scans T = t_end + 1 + lag rows (lag 1 in filtering mode) in
# B chunks of L = min(isqrt(T - 1) + 1, T // n) rows; at n=5 the square
# root binds: 361 = 19 * 19 rows fill a square grid, 399 rows leave one pad
# row in a 20 * 20 grid, and 421 rows put a single row in the last of 21
# chunks of 21.
_FILTER_WINDOWS = [(0, 0), (0, 1), (0, 2), (3, 7), (37, 350), (0, 399)]
_FILTER_ROWS = [361, 399, 421]
# max|error| / max|x| allowed against the long-double recursion; on
# these windows the scan and the float64 loop both stay below 2 eps
_FILTER_TOL = 16 * np.finfo(float).eps


def _assert_filter_accuracy(model, flt, traj, t_start, t_end):
    ref = _two_loop_run_filter(model, flt, traj, t_start, t_end, np.longdouble)
    bound = _FILTER_TOL * float(np.max(np.abs(ref)))
    run = run_filter(flt, traj, t_start, t_end)
    assert run.estimates.shape == ref.shape
    assert not run.estimates.flags.writeable
    assert float(np.max(np.abs(run.estimates - ref))) <= bound
    loop = _two_loop_run_filter(model, flt, traj, t_start, t_end)
    assert float(np.max(np.abs(loop - ref))) <= bound


@pytest.mark.parametrize("mode", [PREDICTION, FILTERING])
def test_run_filter_matches_two_loop_reference(mode):
    m = make_random_stable_system(5, 4, 0.9, seed=8, sigma_w2=0.3, sigma_v2=0.8)
    traj = simulate(m, AttackSpec(), horizon=440, seed=2, burn_in=20)
    flt = solve_steady_state(m, (1, 3, 4), mode)
    lag = int(mode == FILTERING)
    windows = _FILTER_WINDOWS + [(5, rows - 1 - lag) for rows in _FILTER_ROWS]
    for t_start, t_end in windows:
        _assert_filter_accuracy(m, flt, traj, t_start, t_end)


@pytest.mark.parametrize("mode", [PREDICTION, FILTERING])
def test_run_filter_matches_two_loop_reference_at_experiment1_size(mode):
    # the experiment-1 plant and window: n=20, p=5, |s|=3, t1=200, N=20000
    m = make_random_stable_system(20, 5, 0.9, seed=100, sigma_w2=0.01, sigma_v2=0.01)
    traj = simulate(m, AttackSpec(), horizon=20220, seed=0, burn_in=200)
    flt = solve_steady_state(m, (2, 4, 5), mode)
    _assert_filter_accuracy(m, flt, traj, 200, 20199)


@pytest.mark.parametrize("mode", [PREDICTION, FILTERING])
def test_run_filter_matches_two_loop_reference_at_experiment2_size(mode):
    # n=50 over T=451 rows: T // n = 9 binds L instead of isqrt(450) + 1 =
    # 22, so the 51 chunks of 9 rows outnumber the n powers
    m = make_random_stable_system(50, 9, 0.9, seed=300, sigma_w2=0.001, sigma_v2=1.0)
    traj = simulate(m, AttackSpec(), horizon=451, seed=1, burn_in=500)
    flt = solve_steady_state(m, (4, 5, 6, 7, 8, 9), mode)
    _assert_filter_accuracy(m, flt, traj, 150, 450 - int(mode == FILTERING))


def test_run_filter_window_bounds():
    m = make_random_stable_system(3, 2, 0.8, seed=5)
    traj = simulate(m, AttackSpec(), horizon=100, seed=0)
    flt = solve_steady_state(m, (1, 2), PREDICTION)
    run = run_filter(flt, traj, 10, 50)
    assert run.estimates.shape == (41, 3)
    assert np.array_equal(run.window(10, 3), run.estimates[:3])
    with pytest.raises(ConfigError):
        run.window(5, 3)
    with pytest.raises(ConfigError):
        run_filter(flt, traj, 0, 100)


def test_residue_expectation_shrinks_with_window():
    # attack-free sample average of the window-residue outer product
    # approaches its closed form as the window grows
    from secest.detect import DetectorConfig, attack_detect

    m = make_random_stable_system(3, 3, 0.85, seed=4, sigma_w2=0.5, sigma_v2=0.7)
    t1 = 60
    biggest = DetectorConfig(epsilon=1.0, eta=1.0, N=10**5, t1=t1).window_length(m.n)
    horizon = t1 + biggest + m.n
    traj = simulate(m, AttackSpec(), horizon, seed=21, burn_in=30)
    devs = []
    for N in (10**3, 10**4, 10**5):
        cfg = DetectorConfig(epsilon=1.0, eta=1.0, N=N, t1=t1, mode=PREDICTION)
        _, rep = attack_detect(m, traj, (1, 2, 3), cfg)
        devs.append(float(np.abs(rep.sample_matrix - rep.expected_matrix).max()))
    assert devs[2] < devs[0]
