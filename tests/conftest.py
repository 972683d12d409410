import math

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


def fuzz_plant(seed: int, max_p: int = 9) -> SystemModel:
    """A noiseless plant with n = 1..6 and p = 1..max_p from one of six
    families, each putting some subsets near the rank floor or the Gram
    certificate's."""
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(1, 7)), int(rng.integers(1, max_p + 1))
    A = rng.standard_normal((n, n)) / math.sqrt(n)
    C = rng.standard_normal((p, n))
    family = seed % 6
    if family == 0:  # zeroed entries
        A[rng.random((n, n)) < 0.3] = 0.0
        C[rng.random((p, n)) < 0.4] = 0.0
    elif family == 1:  # rows scaled over 12 decades
        C *= 10.0 ** rng.uniform(-12.0, 0.0, (p, 1))
    elif family == 2:  # an A-invariant plane that some sensors do not see
        if n >= 3:
            A[2:, :2] = 0.0
            C[rng.random(p) < 0.5, :2] = 0.0
            # in generic coordinates, so the blind subsets' O_s are
            # rank deficient only up to rounding
            Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            A, C = Q @ A @ Q.T, C @ Q.T
    elif family == 3:  # slow, nearly repeated modes: sigma_min near the floors
        A = np.eye(n) + 10.0 ** rng.uniform(-6.0, -2.0) * A
    elif family == 4:  # A = a I and sensors along one direction: every O_s
        # has rank one up to rounding, and for n = 2 the Gram's rounding can
        # lift its smallest eigenvalue past the floor's square
        A = rng.uniform(0.5, 1.5) * np.eye(n)
        C = np.outer(rng.uniform(0.5, 2.0, p) * rng.choice([-1.0, 1.0], p), C[0])
    else:  # rows near 1e154, whose Grams overflow
        C[rng.random(p) < 0.5] *= 1e154
    return SystemModel(A=A, C=C, sigma_w2=0.0, sigma_v2=0.0)
