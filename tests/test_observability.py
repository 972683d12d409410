import numpy as np
import pytest

from secest import (
    AttackSpec,
    ConfigError,
    SystemModel,
    block_output_gram,
    full_subset,
    is_observable,
    make_random_stable_system,
    min_gram_eigenvalue,
    noise_structure,
    normalize_subset,
    observability_matrix,
    simulate,
    sparse_observability_index,
)

from conftest import block_output_matrix, window_noise_map


def test_scalar_blocks_and_stack(triple_sensor_scalar):
    Os = observability_matrix(triple_sensor_scalar, (1, 2, 3))
    for i in (1, 2, 3):
        assert np.array_equal(observability_matrix(triple_sensor_scalar, (i,)), [[1.0]])
    assert Os.shape == (3, 1)
    assert np.array_equal(Os, [[1.0], [1.0], [1.0]])


def test_observability_stack_built_once_and_read_only():
    m = make_random_stable_system(4, 3, 0.8, seed=2)
    stack = m.observability_stack
    observability_matrix(m, (1, 3))
    noise_structure(m, (2,))
    is_observable(m, (3,))
    assert m.observability_stack is stack
    assert not (stack.flags.writeable or m.A.flags.writeable or m.C.flags.writeable)
    with pytest.raises(ValueError):
        stack[0, 0] = 1.0
    reference = np.vstack(
        [m.C[i] @ np.linalg.matrix_power(m.A, j) for i in range(3) for j in range(4)]
    )
    np.testing.assert_allclose(stack, reference, rtol=1e-12, atol=1e-12 * np.abs(reference).max())
    assert np.array_equal(observability_matrix(m, (3, 1)), np.vstack([stack[:4], stack[8:]]))


def test_nilpotent_shift_block():
    m = SystemModel(A=[[0.0, 1.0], [0.0, 0.0]], C=[[1.0, 0.0]], sigma_w2=1, sigma_v2=1)
    assert np.array_equal(observability_matrix(m, (1,)), np.eye(2))


def test_identity_dynamics_rank_deficient():
    m = SystemModel(A=np.eye(2), C=[[1.0, 0.0]], sigma_w2=1, sigma_v2=1)
    assert np.array_equal(observability_matrix(m, (1,)), [[1.0, 0.0], [1.0, 0.0]])
    assert not is_observable(m, (1,))


def test_is_observable_cases(triple_sensor_scalar, desk_model):
    assert is_observable(triple_sensor_scalar, (2,))
    # generic single-sensor observability; n=20 Krylov stacks are badly
    # conditioned, so this holds for the seeds the suite actually uses
    for i in range(1, 6):
        assert is_observable(desk_model, (i,))


def test_sparse_observability_scalar(triple_sensor_scalar):
    assert sparse_observability_index(triple_sensor_scalar) == 2


def test_sparse_observability_paired_sensors():
    C = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    m = SystemModel(A=np.eye(2), C=C, sigma_w2=1, sigma_v2=1)
    # brute-force oracle over removal counts
    from itertools import combinations

    def observable_after_removing(r):
        return all(
            is_observable(m, s) for s in combinations(range(1, 5), 4 - r)
        )

    expected = -1 if not observable_after_removing(0) else max(
        r for r in range(4) if all(observable_after_removing(q) for q in range(r + 1))
    )
    assert expected == 1  # removing sensors {2,4} blinds the second coordinate
    assert sparse_observability_index(m) == expected


def test_sparse_observability_degenerate():
    m = SystemModel(A=np.eye(2), C=np.zeros((3, 2)), sigma_w2=1, sigma_v2=1)
    assert sparse_observability_index(m) == -1


def test_sparse_observability_cap(monkeypatch):
    from secest import observability

    m = make_random_stable_system(2, 21, 0.5, seed=0)
    with pytest.raises(ConfigError):
        sparse_observability_index(m)
    degenerate = SystemModel(A=np.eye(2), C=np.zeros((21, 2)), sigma_w2=1, sigma_v2=1)
    monkeypatch.setattr(observability, "DEFAULT_SENSOR_CAP", 21)
    assert sparse_observability_index(degenerate) == -1


def test_min_gram_eigenvalue_hand(triple_sensor_scalar):
    # each 2-subset stacks two unit rows: gram = [2]
    assert min_gram_eigenvalue(triple_sensor_scalar, (1, 2, 3), 1) == pytest.approx(2.0)
    Os = observability_matrix(triple_sensor_scalar, (1, 2, 3))
    gram = Os.T @ Os
    assert min_gram_eigenvalue(triple_sensor_scalar, (1, 2, 3), 0) == pytest.approx(
        float(np.linalg.eigvalsh(gram)[0])
    )


def test_min_gram_eigenvalue_unobservable_subset():
    m = SystemModel(
        A=np.eye(2), C=[[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], sigma_w2=1, sigma_v2=1
    )
    # dropping sensor 3 leaves two copies of an unobservable sensor
    assert min_gram_eigenvalue(m, (1, 2, 3), 1) == 0.0
    with pytest.raises(ConfigError):
        min_gram_eigenvalue(m, (1, 2), 2)


def test_noise_structure_scalar(triple_sensor_scalar):
    assert np.array_equal(window_noise_map(triple_sensor_scalar, (1, 2, 3)), np.zeros((3, 1)))
    cov = noise_structure(triple_sensor_scalar, (1, 2, 3))
    assert np.allclose(cov, np.eye(3) * triple_sensor_scalar.sigma_v2)


def test_noise_structure_block_pattern():
    m = SystemModel(A=np.eye(2), C=[[1.0, 0.0]], sigma_w2=0.5, sigma_v2=0.25)
    expected_J = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    assert np.array_equal(window_noise_map(m, (1,)), expected_J)
    expected_cov = 0.5 * np.array([[0.0, 0.0], [0.0, 1.0]]) + 0.25 * np.eye(2)
    assert np.allclose(noise_structure(m, (1,)), expected_cov)


def test_noise_structure_psd_floor():
    m = make_random_stable_system(5, 3, 0.8, seed=4, sigma_w2=0.3, sigma_v2=0.9)
    eigs = np.linalg.eigvalsh(noise_structure(m, (1, 2, 3)))
    assert np.all(eigs >= 0.9 - 1e-10)


def test_noise_covariance_matches_window_map():
    # the diagonal recursion from O_s O_s' against sigma_w2 J J' + sigma_v2 I
    # with J built row by row; every fifth plant has no process noise
    rng = np.random.default_rng(14)
    eps = np.finfo(float).eps
    for idx in range(40):
        n, p = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        sigma_w2 = 0.0 if idx % 5 == 0 else float(rng.uniform(0.1, 2.0))
        m = make_random_stable_system(
            n, p, 0.9, seed=300 + idx, sigma_w2=sigma_w2, sigma_v2=float(rng.uniform(0.1, 2.0))
        )
        size = int(rng.integers(1, p + 1))
        s = tuple(sorted(rng.choice(np.arange(1, p + 1), size, replace=False).tolist()))
        J = window_noise_map(m, s)
        expected = m.sigma_w2 * (J @ J.T) + m.sigma_v2 * np.eye(n * len(s))
        cov = noise_structure(m, s)
        assert isinstance(cov, np.ndarray) and cov.shape == expected.shape
        assert np.abs(cov - expected).max() <= 16 * eps * np.abs(cov).max()


def test_block_outputs_scalar_window():
    m = SystemModel(A=[[1.0]], C=[[1.0], [1.0]], sigma_w2=0, sigma_v2=0)
    traj = simulate(m, AttackSpec(), horizon=4, x0=[3.0], seed=0)
    assert np.array_equal(block_output_matrix(traj, (1, 2), 0, 1), [[3.0, 3.0]])


def test_block_outputs_direct_slice():
    m = SystemModel(A=[[1.0, 1.0], [0.0, 1.0]], C=[[1.0, 0.0]], sigma_w2=0, sigma_v2=0)
    traj = simulate(m, AttackSpec(), horizon=5, x0=[5.0, 2.0], seed=0)
    # position grows by 2 per step: outputs 5, 7, 9, ...
    assert np.array_equal(block_output_matrix(traj, (1,), 0, 2), [[5.0, 7.0], [7.0, 9.0]])


def test_block_outputs_noiseless_identity():
    m = make_random_stable_system(4, 3, 0.8, seed=9, sigma_w2=0.0, sigma_v2=0.0)
    traj = simulate(m, AttackSpec(), horizon=30, x0=[1.0, -2.0, 0.5, 3.0], seed=0)
    for s in [(1,), (2, 3), (1, 2, 3)]:
        Os = observability_matrix(m, s)
        for t in (0, 5, 20):
            ybar = block_output_matrix(traj, s, t, 1)[0]
            assert np.max(np.abs(ybar - Os @ traj.states[t])) <= 1e-10


def test_stack_union_consistency():
    m = make_random_stable_system(4, 5, 0.8, seed=6)
    whole = observability_matrix(m, (1, 3, 4))
    part_a = observability_matrix(m, (1, 4))
    part_b = observability_matrix(m, (3,))
    n = m.n
    assert np.array_equal(whole[:n], part_a[:n])
    assert np.array_equal(whole[n : 2 * n], part_b)
    assert np.array_equal(whole[2 * n :], part_a[n:])


def test_gram_monotonicity():
    m = make_random_stable_system(4, 6, 0.8, seed=8)
    prev = 0.0
    subset = []
    for i in range(1, 7):
        subset.append(i)
        gram = observability_matrix(m, subset)
        lam = float(np.linalg.eigvalsh(gram.T @ gram)[0])
        assert lam >= prev - 1e-12
        prev = lam


def test_sparse_observability_matches_2k_condition():
    from itertools import combinations

    for seed in range(4):
        m = make_random_stable_system(3, 5, 0.8, seed=seed)
        theta = sparse_observability_index(m)
        for k in range(3):
            all_obs = all(
                is_observable(m, s) for s in combinations(range(1, 6), 5 - 2 * k)
            ) if 5 - 2 * k >= 1 else False
            assert (theta >= 2 * k) == all_obs


def test_trace_eigenvalue_sandwich():
    # sanity suite for the symmetric eigensolver on 100 random PSD pairs
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = rng.integers(2, 6)
        A = rng.standard_normal((n, n))
        A = 0.5 * (A + A.T)
        B = rng.standard_normal((n, n))
        B = B @ B.T
        lams = np.linalg.eigvalsh(A)
        trAB = float(np.trace(A @ B))
        trB = float(np.trace(B))
        assert lams[0] * trB - 1e-9 <= trAB <= lams[-1] * trB + 1e-9


def test_subset_validation():
    with pytest.raises(ConfigError):
        normalize_subset((), 3)
    with pytest.raises(ConfigError):
        normalize_subset((0, 1), 3)
    with pytest.raises(ConfigError):
        normalize_subset((4,), 3)
    assert normalize_subset((3, 1, 1), 3) == (1, 3)
    assert full_subset(4) == (1, 2, 3, 4)


def test_subset_entries_must_be_integers():
    # a fractional or float entry is refused, not truncated to its integer
    # part; numpy integers are integers
    for bad in [(1.7, 2), (2.0,), (1, "2")]:
        with pytest.raises(ConfigError, match="must be integers"):
            normalize_subset(bad, 3)
    subset = normalize_subset((np.int64(3), np.int32(1), 3), 3)
    assert subset == (1, 3) and all(type(i) is int for i in subset)


@pytest.mark.parametrize(
    "n, p, t_start, count, slack",
    [
        (3, 4, 0, 1, 2),
        (4, 3, 2, 2, 0),
        (3, 2, 1, 7, 0),
        (5, 3, 6, 23, 4),
        (1, 3, 4, 9, 0),
        (4, 1, 0, 10, 0),
        (1, 1, 0, 1, 0),
    ],
    ids=[
        "start-0-count-1",
        "count-below-n",
        "count-not-multiple-of-n",
        "interior-window",
        "n-1",
        "p-1",
        "n-1-p-1-count-1",
    ],
)
def test_block_output_gram_matches_direct_product(n, p, t_start, count, slack):
    # slack 0 is the last admissible window: t_start + count + n - 1 == horizon.
    # Both sides sum count + 2n - 2 products per entry, each bounded by the
    # largest diagonal entry (Cauchy-Schwarz), so they differ by at most
    # 2 (count + 2n) eps max(diag).
    m = make_random_stable_system(n, p, 0.8, seed=3, sigma_w2=0.5, sigma_v2=0.7)
    horizon = t_start + count + n - 1 + slack
    traj = simulate(m, AttackSpec(), horizon, seed=5, burn_in=10)
    ybar = block_output_matrix(traj, full_subset(p), t_start, count)
    direct = ybar.T @ ybar
    gram = block_output_gram(traj, t_start, count)
    bound = 2 * (count + 2 * n) * np.finfo(float).eps * np.diag(direct).max()
    assert gram.shape == (n * p, n * p)
    assert np.abs(gram - direct).max() <= bound
    assert np.array_equal(gram, gram.T)


def test_block_output_gram_range_errors():
    m = make_random_stable_system(3, 2, 0.8, seed=1)
    traj = simulate(m, AttackSpec(), horizon=10, seed=0)
    for t_start, count in [(-1, 2), (0, 0)]:
        with pytest.raises(ConfigError, match=r"^window start/count out of range$"):
            block_output_gram(traj, t_start, count)
    # each window's last row, 8, needs n - 1 = 2 more outputs
    for t_start, count in [(8, 1), (0, 9), (5, 4)]:
        message = f"output window [{t_start}, 8] + 2 lookahead exceeds horizon 10"
        with pytest.raises(ConfigError) as err:
            block_output_gram(traj, t_start, count)
        assert str(err.value) == message
    assert block_output_gram(traj, 0, 8).shape == (6, 6)  # the last admissible window
