"""`is_observable`'s Gram certificate against the SVD test.

`is_observable` first tries to certify a subset by one Cholesky of its
summed sensor Grams, shifted by a floor derived in its docstring, and
takes the SVD of `_observable` only when the certificate declines.  So
every decision must be the SVD's: the fuzz below checks that on every
subset of plants near the floors, and the counts pin when the SVD runs.
"""

import numpy as np
import pytest

from secest import (
    AnalysisError,
    DetectorConfig,
    SubsetBank,
    SystemModel,
    is_observable,
    make_random_stable_system,
)
from secest import observability
from secest.observability import RANK_RTOL, _observable, _subset_slices, full_subset
from conftest import fuzz_plant

FUZZ_PLANTS = 3000


@pytest.fixture
def svd_calls(monkeypatch):
    calls = []
    singular_values = observability._singular_values

    def counting(model, subsets):
        calls.append(subsets.shape)
        return singular_values(model, subsets)

    monkeypatch.setattr(observability, "_singular_values", counting)
    return calls


def test_certificate_decides_as_the_svd_on_fuzzed_plants(svd_calls):
    certified = near_floor = overflowed = 0
    for seed in range(FUZZ_PLANTS):
        m = fuzz_plant(seed)
        finite = np.isfinite(m.sensor_grams).all()
        overflowed += not finite
        for size in range(1, m.p + 1):
            for chunk in _subset_slices(full_subset(m.p), size):
                expected = _observable(m, chunk)
                for cols, want in zip(chunk, expected):
                    svds = len(svd_calls)
                    assert is_observable(m, cols + 1) == want, (seed, tuple(cols + 1))
                    if len(svd_calls) == svds:
                        certified += 1
                    elif want and finite:
                        near_floor += 1  # observable, but below the certificate's floor
    # the fuzz reaches both sides of the certificate's floor and the overflow path
    assert certified > 10_000 and near_floor > 1_000 and overflowed > 100


def test_generic_plant_decides_its_subsets_without_an_svd(svd_calls):
    m = make_random_stable_system(50, 9, 0.85, seed=3, sigma_w2=1.0, sigma_v2=1.0)
    subsets = [tuple(cols + 1) for chunk in _subset_slices(full_subset(9), 6) for cols in chunk]
    assert len(subsets) == 84
    assert all(is_observable(m, s) for s in subsets)
    assert svd_calls == []


def test_weak_sensor_takes_one_svd(svd_calls):
    # sensor 1 alone passes its own floor, RANK_RTOL, by a factor of 10,
    # far below the certificate's floor: the SVD decides it
    rng = np.random.default_rng(4)
    A = np.array([[0.8, 0.3], [-0.2, 0.7]])
    C = 100.0 * rng.standard_normal((5, 2))
    sv = np.linalg.svd(np.vstack([C[:1], C[:1] @ A]), compute_uv=False)
    C[0] *= 10 * RANK_RTOL / sv[-1]
    m = SystemModel(A=A, C=C, sigma_w2=0.0, sigma_v2=0.0)
    assert is_observable(m, (1,))
    assert svd_calls == [(1, 1)]
    assert is_observable(m, (1, 2)) and len(svd_calls) == 1  # certified


def test_rank_deficient_subset_takes_one_svd(svd_calls):
    # sensors 1 and 2 see only the first coordinate of a diagonal plant
    m = SystemModel(
        A=np.diag([0.9, 0.5, 0.3]),
        C=[[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
        sigma_w2=0.0,
        sigma_v2=0.0,
    )
    assert not is_observable(m, (1, 2))
    assert svd_calls == [(1, 2)]


def test_overflowing_grams_fall_back_to_the_svd(svd_calls):
    # rows near 1e154: the stack is finite, its Grams are not, so the
    # certificate declines and the SVD decides as it always has
    m = make_random_stable_system(4, 3, 0.8, seed=2)
    m = SystemModel(A=m.A, C=m.C * 1e154, sigma_w2=0.0, sigma_v2=0.0)
    assert np.isfinite(m.observability_stack).all()
    assert not np.isfinite(m.sensor_grams).all()
    for s in [(1,), (1, 2), (1, 2, 3)]:
        assert is_observable(m, s) == _observable(m, np.subtract([s], 1))[0]
    assert len(svd_calls) == 6  # one per subset, and the three references
    with pytest.raises(AnalysisError):  # the bank still refuses the Grams
        SubsetBank(m, DetectorConfig(epsilon=1.0, eta=1.0))


def test_sensor_grams_built_once_read_only_and_shared_with_the_bank():
    m = make_random_stable_system(4, 3, 0.8, seed=2, sigma_w2=0.5, sigma_v2=0.5)
    grams = m.sensor_grams
    blocks = m.observability_stack.reshape(3, 4, 4)
    assert np.array_equal(grams, np.stack([Oi.T @ Oi for Oi in blocks]))
    assert not grams.flags.writeable
    is_observable(m, (1, 2))
    bank = SubsetBank(m, DetectorConfig(epsilon=1.0, eta=1.0))
    assert m.sensor_grams is grams and bank._grams is grams
