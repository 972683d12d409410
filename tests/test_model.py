import numpy as np
import pytest

from secest import (
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


def test_constant_bias_values():
    m = make_random_stable_system(2, 3, 0.5, seed=1)
    traj = simulate(m, AttackSpec((1, 3), ConstantBias((0.7, -1.2))), horizon=50, seed=0)
    assert np.allclose(traj.attack[:, 0], 0.7)
    assert np.allclose(traj.attack[:, 2], -1.2)
    assert np.all(traj.attack[:, 1] == 0.0)
