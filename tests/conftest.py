import numpy as np
import pytest

from secest import SystemModel, make_random_stable_system, normalize_subset, observability_matrix


@pytest.fixture(scope="session")
def triple_sensor_scalar() -> SystemModel:
    """Scalar random-walk plant observed by three identical unit sensors."""
    return SystemModel(A=[[1.0]], C=[[1.0], [1.0], [1.0]], sigma_w2=1.0, sigma_v2=1.0)


@pytest.fixture(scope="session")
def desk_model() -> SystemModel:
    """n=20, p=5 random stable system at unit noise, fixed seed."""
    return make_random_stable_system(20, 5, 0.9, seed=100, sigma_w2=1.0, sigma_v2=1.0)


def block_output_matrix(traj, s, t_start: int, count: int) -> np.ndarray:
    """Reference block-output matrix, one window at a time: row t holds,
    per sensor of s in ascending order, [y_i(t), ..., y_i(t + n - 1)] for
    t = t_start .. t_start + count - 1; shape (count, n |s|)."""
    cols = [i - 1 for i in sorted(s)]
    windows = [traj.outputs[t : t + traj.n, cols] for t in range(t_start, t_start + count)]
    assert t_start >= 0 and all(w.shape[0] == traj.n for w in windows)
    return np.array([w.T.reshape(-1) for w in windows])


def window_noise_map(model, s) -> np.ndarray:
    """Reference map J_s of the stacked process-noise window (length n n)
    into the stacked window outputs of s, shape (n |s|, n n): the window
    noise covariance is sigma_w2 J_s J_s' + sigma_v2 I."""
    subset = normalize_subset(s, model.p)
    n = model.n
    Os = observability_matrix(model, subset)
    J = np.zeros((n * len(subset), n * n))
    # Window row j of a sensor sees w(t + m), m < j, through C_i A^(j-1-m):
    # row j-1-m of the sensor's observability block.
    for idx in range(len(subset)):
        Oi = Os[idx * n : (idx + 1) * n]
        for j in range(1, n):
            J[idx * n + j, : j * n] = Oi[j - 1 :: -1].reshape(-1)
    return J
