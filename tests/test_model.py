import numpy as np
import pytest

from secest import (
    AnalysisError,
    AttackSpec,
    ConfigError,
    ConstantBias,
    NoiseLinear,
    SeededRandom,
    SystemModel,
    ZeroOutput,
    make_random_stable_system,
    simulate,
)


def test_noiseless_identity_dynamics():
    m = SystemModel(A=[[1.0]], C=[[1.0], [1.0], [1.0]], sigma_w2=0.0, sigma_v2=0.0)
    traj = simulate(m, AttackSpec(), horizon=3, x0=[2.0], seed=0)
    assert np.allclose(traj.outputs, 2.0)
    assert np.allclose(traj.states, 2.0)


def test_zero_output_attack_definition():
    m = SystemModel(A=[[1.0]], C=[[1.0], [1.0], [1.0]], sigma_w2=0.0, sigma_v2=0.0)
    traj = simulate(m, AttackSpec((3,), ZeroOutput()), horizon=3, x0=[2.0], seed=0)
    assert np.allclose(traj.outputs[:, 2], 0.0)
    assert np.allclose(traj.outputs[:, :2], 2.0)


def test_sensor_noise_variance_monte_carlo():
    m = make_random_stable_system(20, 5, 0.9, seed=3, sigma_w2=1.0, sigma_v2=1.0)
    traj = simulate(m, AttackSpec(), horizon=10**5, seed=42)
    v = traj.outputs - traj.clean_outputs - traj.attack
    var = v.var(axis=0)
    assert np.all(np.abs(var - 1.0) <= 0.02)


def test_process_noise_statistics():
    m = make_random_stable_system(4, 2, 0.8, seed=1, sigma_w2=2.0, sigma_v2=1.0)
    T = 10**5
    traj = simulate(m, AttackSpec(), horizon=T, seed=7)
    w = traj.states[1:] - traj.states[:-1] @ m.A.T
    sigma_w = np.sqrt(m.sigma_w2)
    assert np.all(np.abs(w.mean(axis=0)) <= 4 * sigma_w / np.sqrt(T - 1))
    assert np.all(np.abs(w.var(axis=0) - m.sigma_w2) <= 0.05 * m.sigma_w2)


def test_spectral_radius_rescaling():
    m = make_random_stable_system(20, 5, 0.9, seed=7)
    assert abs(np.abs(np.linalg.eigvals(m.A)).max() - 0.9) <= 1e-9


def test_scalar_rescale_forces_magnitude():
    m = make_random_stable_system(1, 1, 0.5, seed=0)
    assert abs(abs(m.A[0, 0]) - 0.5) <= 1e-12


def test_random_systems_observable():
    from secest import full_subset, is_observable

    for seed in range(5):
        m = make_random_stable_system(50, 15, 0.9, seed=seed)
        assert is_observable(m, full_subset(15))


def test_determinism_bitwise():
    m = make_random_stable_system(4, 3, 0.8, seed=5)
    atk = AttackSpec((2,), SeededRandom(amplitude=1.5))
    a = simulate(m, atk, horizon=500, seed=9, burn_in=40)
    b = simulate(m, atk, horizon=500, seed=9, burn_in=40)
    for x, y in [(a.states, b.states), (a.outputs, b.outputs), (a.attack, b.attack)]:
        assert np.array_equal(x, y)


def _long_double_states(model, horizon, x0, seed, burn_in):
    """Reference: the state recursion one step at a time in long double,
    from a fresh draw of the process-noise stream (the first of the three
    PCG64 children of ``seed``).  Returns the recorded states and the w(t)
    that enter them."""
    n, total = model.n, burn_in + horizon
    w_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(3)[0]))
    W = float(np.sqrt(model.sigma_w2)) * w_rng.standard_normal((total, n))
    A = model.A.astype(np.longdouble)
    X = np.empty((total, n), dtype=np.longdouble)
    X[0] = np.zeros(n) if x0 is None else x0
    for t in range(total - 1):
        X[t + 1] = A @ X[t] + W[t]
    return X[burn_in:], W[burn_in : total - 1]


# simulate scans burn_in + horizon rows in B chunks of L = isqrt(rows - 1) + 1
# rows: 361 = 19 * 19 rows fill a square grid, 399 leave one pad row in a
# 20 * 20 grid, and 421 put a single row in the last of 21 chunks of 21
@pytest.mark.parametrize(
    "n, p, sigma_w2, horizon, burn_in, x0",
    [
        (5, 4, 0.3, 341, 20, None),
        (5, 4, 0.3, 379, 20, [3.0, -1.0, 0.5, 2.0, -4.0]),
        (5, 4, 0.3, 421, 0, [3.0, -1.0, 0.5, 2.0, -4.0]),
        (5, 4, 0.0, 399, 0, [3.0, -1.0, 0.5, 2.0, -4.0]),
        (20, 5, 0.01, 20220, 200, None),  # the experiment-1 plant and horizon
    ],
)
def test_simulate_matches_long_double_recursion(n, p, sigma_w2, horizon, burn_in, x0):
    m = make_random_stable_system(n, p, 0.9, seed=100, sigma_w2=sigma_w2, sigma_v2=0.5)
    traj = simulate(m, AttackSpec(), horizon=horizon, x0=x0, seed=4, burn_in=burn_in)
    ref, W = _long_double_states(m, horizon, x0, 4, burn_in)
    bound = 16 * np.finfo(float).eps * float(np.max(np.abs(ref)))
    assert traj.states.shape == ref.shape
    assert float(np.max(np.abs(traj.states - ref))) <= bound
    # the noise draws are unchanged: w recovered from the states is the draw
    recovered = traj.states[1:] - traj.states[:-1] @ m.A.T
    assert float(np.max(np.abs(recovered - W))) <= bound


def test_attack_support_confined():
    m = make_random_stable_system(3, 4, 0.8, seed=2)
    for strat in (ZeroOutput(), NoiseLinear(2.0), SeededRandom(0.5)):
        traj = simulate(m, AttackSpec((1, 3), strat), horizon=200, seed=4)
        assert np.all(traj.attack[:, [1, 3]] == 0.0)


def test_output_decomposition_reconstructable():
    m = make_random_stable_system(3, 4, 0.8, seed=2)
    traj = simulate(m, AttackSpec((2,), NoiseLinear(3.0)), horizon=300, seed=8)
    v = traj.outputs - traj.clean_outputs - traj.attack
    # linear-in-noise corruption equals gain * same-time sensor noise
    assert np.allclose(traj.attack[:, 1], 3.0 * v[:, 1])
    assert np.allclose(traj.clean_outputs, traj.states @ m.C.T)


def test_noise_streams_shared_across_strategies():
    # same seed -> same underlying noise, so clean sensors agree
    m = make_random_stable_system(3, 3, 0.8, seed=11)
    clean = simulate(m, AttackSpec(), horizon=100, seed=5)
    attacked = simulate(m, AttackSpec((3,), ZeroOutput()), horizon=100, seed=5)
    assert np.array_equal(clean.outputs[:, :2], attacked.outputs[:, :2])
    assert np.allclose(attacked.outputs[:, 2], 0.0)


def test_burn_in_discards_prefix():
    m = make_random_stable_system(2, 2, 0.5, seed=3)
    traj = simulate(m, AttackSpec(), horizon=50, seed=1, burn_in=20)
    assert traj.horizon == 50
    # with burn-in, t=0 is no longer the supplied initial state
    traj0 = simulate(m, AttackSpec(), horizon=50, x0=[5.0, -3.0], seed=1, burn_in=0)
    assert np.allclose(traj0.states[0], [5.0, -3.0])


def test_attacked_sensors_must_be_integers():
    # AttackSpec refuses a fractional index rather than truncate 2.9 to 2
    for bad in [(2.9,), (1, 2.0)]:
        with pytest.raises(ConfigError, match="must be integers"):
            AttackSpec(attacked=bad)
    attacked = AttackSpec(attacked=(np.int64(3), 1)).attacked
    assert attacked == (1, 3) and all(type(i) is int for i in attacked)


def test_validation_errors():
    with pytest.raises(ConfigError):
        SystemModel(A=[[1.0, 0.0]], C=[[1.0]], sigma_w2=1.0, sigma_v2=1.0)
    with pytest.raises(ConfigError):
        SystemModel(A=[[1.0]], C=[[1.0, 2.0]], sigma_w2=1.0, sigma_v2=1.0)
    with pytest.raises(ConfigError):
        SystemModel(A=[[1.0]], C=[[1.0]], sigma_w2=-1.0, sigma_v2=1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError):
            SystemModel(A=[[bad]], C=[[1.0]], sigma_w2=1.0, sigma_v2=1.0)
        with pytest.raises(ConfigError):
            SystemModel(A=[[1.0]], C=[[bad]], sigma_w2=1.0, sigma_v2=1.0)
        with pytest.raises(ConfigError):
            SystemModel(A=[[1.0]], C=[[1.0]], sigma_w2=bad, sigma_v2=1.0)
        with pytest.raises(ConfigError):
            SystemModel(A=[[1.0]], C=[[1.0]], sigma_w2=1.0, sigma_v2=bad)
        with pytest.raises(ConfigError):
            NoiseLinear(gain=bad)
        with pytest.raises(ConfigError):
            NoiseLinear(gain=(1.0, bad))
        with pytest.raises(ConfigError):
            ConstantBias(bias=(bad,))
        with pytest.raises(ConfigError):
            SeededRandom(amplitude=bad)
    m = SystemModel(A=[[1.0]], C=[[1.0]], sigma_w2=1.0, sigma_v2=1.0)
    with pytest.raises(ConfigError):
        simulate(m, AttackSpec((2,), ZeroOutput()), horizon=5, seed=0)
    with pytest.raises(ConfigError):
        simulate(m, AttackSpec(), horizon=0, seed=0)
    with pytest.raises(ConfigError):
        simulate(m, AttackSpec(), horizon=5, x0=[1.0, 2.0], seed=0)
    with pytest.raises(ConfigError):
        AttackSpec((1, 2), ConstantBias((0.5,)))
    with pytest.raises(ConfigError):
        make_random_stable_system(3, 2, 1.5, seed=0)


def test_overflowing_trajectory_is_an_analysis_error():
    # 3**t passes the float64 range near t = 646; a stable plant from the
    # same huge state stays finite
    unstable = SystemModel(A=[[3.0]], C=[[1.0], [1.0]], sigma_w2=1.0, sigma_v2=1.0)
    with pytest.raises(AnalysisError, match="overflow"):
        simulate(unstable, AttackSpec(), horizon=700, seed=0)
    # 640 rows scan as 25 chunks of 26: the 10 pad rows past the horizon
    # overflow, the recorded ones do not
    traj = simulate(unstable, AttackSpec(), horizon=640, seed=0)
    assert np.isfinite(traj.outputs).all() and np.abs(traj.states).max() > 1e304
    stable = SystemModel(A=[[0.5]], C=[[1.0], [1.0]], sigma_w2=1.0, sigma_v2=1.0)
    assert np.isfinite(simulate(stable, AttackSpec(), horizon=50, x0=[1e300], seed=0).outputs).all()
    # the product of a finite state and C, and an attack gain, overflow too
    wide = SystemModel(A=[[0.5]], C=[[1e10]], sigma_w2=1.0, sigma_v2=1.0)
    with pytest.raises(AnalysisError):
        simulate(wide, AttackSpec(), horizon=5, x0=[1e300], seed=0)
    with pytest.raises(AnalysisError):
        simulate(stable, AttackSpec((1,), NoiseLinear(gain=1e308)), horizon=50, seed=0)


def test_constant_bias_values():
    m = make_random_stable_system(2, 3, 0.5, seed=1)
    traj = simulate(m, AttackSpec((1, 3), ConstantBias((0.7, -1.2))), horizon=50, seed=0)
    assert np.allclose(traj.attack[:, 0], 0.7)
    assert np.allclose(traj.attack[:, 2], -1.2)
    assert np.all(traj.attack[:, 1] == 0.0)


@pytest.mark.parametrize("rho", [0.9, 0.99])
@pytest.mark.parametrize("n", [1, 5, 20, 50])
def test_open_loop_cov_matches_lyapunov_solver(rho, n):
    # Smith doubling solves X = A X A' + sigma_w2 I as scipy's solver does,
    # and the cached array is read-only
    from scipy.linalg import solve_discrete_lyapunov

    m = make_random_stable_system(n, 2, rho, seed=n, sigma_w2=0.3)
    X = m.open_loop_cov
    reference = solve_discrete_lyapunov(m.A, 0.3 * np.eye(n))
    assert np.linalg.norm(X - reference) <= 1e-10 * np.linalg.norm(reference)
    assert np.array_equal(X, X.T) and m.open_loop_cov is X
    with pytest.raises(ValueError):
        X[0, 0] = 0.0


def test_open_loop_cov_is_none_without_a_stationary_state():
    # a random walk never converges and A = 1e100 overflows; sigma_w2 = 0
    # gives X = 0 exactly
    assert SystemModel(A=[[1.0]], C=[[1.0]], sigma_w2=1.0, sigma_v2=1.0).open_loop_cov is None
    assert SystemModel(A=[[1e100]], C=[[1.0]], sigma_w2=1.0, sigma_v2=1.0).open_loop_cov is None
    rotation = [[0.0, -1.0], [1.0, 0.0]]
    assert SystemModel(A=rotation, C=[[1.0, 0.0]], sigma_w2=1.0, sigma_v2=1.0).open_loop_cov is None
    quiet = SystemModel(A=[[0.5]], C=[[1.0]], sigma_w2=0.0, sigma_v2=1.0)
    assert quiet.open_loop_cov.tolist() == [[0.0]]
