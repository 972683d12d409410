"""Batched subset decisions against per-subset reference loops.

`sparse_observability_index` and `min_gram_eigenvalue` decide
SUBSET_SLICE subsets at a time, each slice by one batched Gram
certificate (a Cholesky) and one batched SVD only where it declines.
`decode` decides a slice from one R-only QR per subset when the Gram
certificate passes and no residual lies within its rounding band of the
consistency bound, and from one batched SVD of the whole slice
otherwise.  The references below keep the
one-call-per-subset loops (one `svd`, `eigvalsh` or `lstsq` per subset,
O_s cut straight from the model's stack) and the results must match
them exactly: theta, the Gram eigenvalue bitwise, and the decoder's
corrupted set, `unique` flag and state bitwise.  The certificate and SVD
counts pin which slices take the SVD.
"""

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from secest import (
    AnalysisError,
    ConfigError,
    SystemModel,
    decode,
    encode,
    full_subset,
    make_random_stable_system,
    min_gram_eigenvalue,
    sparse_observability_index,
)
from secest import noiseless, observability
from secest.noiseless import CONSISTENCY_RTOL, STATE_MATCH_RTOL, _norm
from secest.observability import RANK_RTOL, SUBSET_SLICE, _gram_certified, _subset_slices
from conftest import fuzz_plant

FUZZ_PLANTS = 1000


def blocks(m, s):
    return np.vstack([m.observability_stack[(i - 1) * m.n : i * m.n] for i in s])


def reference_observable(m, s):
    sv = np.linalg.svd(blocks(m, s), compute_uv=False)
    return int(np.sum(sv > RANK_RTOL * max(1.0, float(sv[0])))) == m.n


def reference_index(m):
    p = m.p
    if not reference_observable(m, full_subset(p)):
        return -1
    theta = 0
    for removed in range(1, p):
        if not all(reference_observable(m, s) for s in combinations(range(1, p + 1), p - removed)):
            break
        theta = removed
    return theta


def reference_min_gram(m, s, k):
    best = np.inf
    for s1 in combinations(s, len(s) - k):
        if not reference_observable(m, s1):
            return 0.0
        Os = blocks(m, s1)
        best = min(best, float(np.linalg.eigvalsh(Os.T @ Os)[0]))
    return max(best, 0.0)


def reference_decode(m, obs, k, complete=True):
    """(first consistent subset, unique, its lstsq state), or None.  Norms
    are `_norm`'s, the plain ones wherever those are finite."""
    first = None
    unique = True
    for s in combinations(range(1, m.p + 1), m.p - k):
        Os = blocks(m, s)
        Y = obs.symbols[[d - 1 for d in s]].reshape(-1)
        x, *_ = np.linalg.lstsq(Os, Y, rcond=None)
        residual, norm_Y = _norm(Os @ x - Y), _norm(Y)
        assert np.isfinite([residual, norm_Y]).all()
        if residual > CONSISTENCY_RTOL * (1.0 + norm_Y):
            continue
        if first is None:
            first = (s, x)
            if not complete:
                break
        elif _norm(x - first[1]) > STATE_MATCH_RTOL * (1.0 + _norm(first[1])):
            unique = False
    return None if first is None else (first[0], unique, first[1])


def assert_decode_matches(m, obs, k, complete=True):
    expected = reference_decode(m, obs, k, complete)
    if expected is None:
        with pytest.raises(AnalysisError):
            decode(m, obs, k, complete=complete)
        return None
    subset, unique, state = expected
    result = decode(m, obs, k, complete=complete)
    assert result.corrupted == tuple(i for i in range(1, m.p + 1) if i not in subset)
    assert result.unique == unique
    assert result.state.tobytes() == state.tobytes()
    return result


def plane_plant(p, seen_by):
    """Noiseless n=4 plant whose first two state coordinates span an
    A-invariant plane that only the sensors in ``seen_by`` observe, so
    every subset without them is unobservable."""
    rng = np.random.default_rng(p)

    def rotation(radius, angle):
        c, s = math.cos(angle), math.sin(angle)
        return radius * np.array([[c, -s], [s, c]])

    A = np.zeros((4, 4))
    A[:2, :2] = rotation(0.9, 0.7)
    A[2:, 2:] = rotation(0.8, 1.9)
    C = rng.standard_normal((p, 4))
    C[[i - 1 for i in range(1, p + 1) if i not in seen_by], :2] = 0.0
    return SystemModel(A=A, C=C, sigma_w2=0.0, sigma_v2=0.0)


@pytest.fixture
def svd_calls(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


@pytest.fixture
def certificates(monkeypatch):
    """(subset count, subset size, passed) of every slice that
    `sparse_observability_index` and `min_gram_eigenvalue` hand the Gram
    certificate, in order."""
    calls = []
    gram_certified = observability._gram_certified

    def counting(model, subsets):
        passed = gram_certified(model, subsets)
        calls.append((len(subsets), subsets.shape[1], passed))
        return passed

    monkeypatch.setattr(observability, "_gram_certified", counting)
    return calls


def declined_svds(certificates, n):
    """The SVD shapes of the slices in ``certificates`` that declined:
    one SVD each, of the whole slice."""
    return [(count, size * n, n) for count, size, passed in certificates if not passed]


@pytest.mark.parametrize("seed", range(3))
def test_random_plants_match_reference(seed):
    m = make_random_stable_system(6, 12, 0.85, seed=seed, sigma_w2=0.0, sigma_v2=0.0)
    theta = sparse_observability_index(m)
    assert theta == reference_index(m)
    for s, k in ((full_subset(12), 0), (full_subset(12), 3), ((1, 3, 4, 6, 8, 9, 12), 4)):
        assert min_gram_eigenvalue(m, s, k) == reference_min_gram(m, s, k)

    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(6)
    clean = encode(m, x0)
    alt = encode(m, rng.standard_normal(6) + 1.0)
    k = theta // 2
    pattern = sorted(int(d) + 1 for d in rng.choice(12, size=k, replace=False))
    obs = clean.with_symbols({d: alt.symbols[d - 1] for d in pattern})
    for complete in (True, False):
        result = assert_decode_matches(m, obs, k, complete)
        assert set(result.corrupted) >= set(pattern) and result.unique
    assert_decode_matches(m, clean, 0)  # k = 0: only the full set
    assert_decode_matches(m, obs, 0)  # no explanation: AnalysisError on both


@pytest.mark.parametrize(
    "p, seen_by, theta, slices, downward",
    [
        # full set, certified; level 1, declined (a plane-blind singleton
        # fails its SVD); level 12, certified; level 2, declined ((3, 4)
        # fails in the first slice); level 11, 78 subsets, whose first
        # unobservable one, (3, ..., 13), is the last, in the declined
        # second slice
        (
            13, (1, 2), 1,
            [(1, 13, True), (13, 1, False), (13, 12, True), (64, 2, False),
             (64, 11, True), (14, 11, False)],
            1 + 1 + 2,
        ),
        # full set; level 1; level 12; level 2 ((1, 2) fails); level 11,
        # whose first subset, (1, ..., 11), fails: its second slice is
        # never decided
        (
            13, (12, 13), 1,
            [(1, 13, True), (13, 1, False), (13, 12, True), (64, 2, False),
             (64, 11, False)],
            1 + 1 + 1,
        ),
        # full set; level 1; level 12; level 2; level 11 (78 subsets, all
        # certified); level 3, 286 subsets, whose first failing one,
        # (2, 3, 4), follows the 66 that hold sensor 1; level 10, 286
        # subsets, where (2, ..., 6, 8, ..., 12), number 235, fails in the
        # fourth slice and the fifth is never decided
        (
            13, (1, 7, 13), 2,
            [(1, 13, True), (13, 1, False), (13, 12, True), (64, 2, False),
             (64, 11, True), (14, 11, True), (64, 3, True), (64, 3, False)]
            + [(64, 10, True)] * 3 + [(64, 10, False)],
            1 + 1 + 2 + 4,
        ),
    ],
    ids=["last-subset-in-second-slice", "first-subset-fails", "three-sensor-plane"],
)
def test_failing_levels_match_reference(
    svd_calls, certificates, p, seen_by, theta, slices, downward
):
    # each slice takes one certificate, and one SVD only when it declines;
    # ``downward`` counts the slices of a scan from p - 1 sensors down, and
    # the two-ended scan adds low levels, each no larger than a high level
    # it mirrors, and here stays within twice that count
    m = plane_plant(p, seen_by)
    assert sparse_observability_index(m) == theta
    assert certificates == slices and len(slices) <= 2 * downward
    assert svd_calls == declined_svds(slices, m.n)
    assert theta == reference_index(m)
    for k in (theta, theta + 1):
        lam = min_gram_eigenvalue(m, full_subset(p), k)
        assert lam == reference_min_gram(m, full_subset(p), k)
        assert (lam > 0.0) == (k <= theta)


def test_min_gram_eigenvalue_takes_an_svd_only_where_declined(svd_calls, certificates):
    # a generic n=6, p=12 plant: the C(12, 9) = 220 reduced subsets of
    # k = 3 fill four slices, each certified, so no SVD runs
    m = make_random_stable_system(6, 12, 0.85, seed=5, sigma_w2=0.0, sigma_v2=0.0)
    lam = min_gram_eigenvalue(m, full_subset(12), 3)
    assert certificates == [(64, 9, True)] * 3 + [(28, 9, True)] and svd_calls == []
    assert lam == reference_min_gram(m, full_subset(12), 3) > 0.0
    # sensors 1 and 2 alone see the plane: of the 13 singletons' slice the
    # certificate declines, and its SVD finds the blind ones
    m = plane_plant(13, (1, 2))
    certificates.clear()
    svd_calls.clear()
    assert min_gram_eigenvalue(m, full_subset(13), 12) == 0.0
    assert certificates == [(13, 1, False)] and svd_calls == [(13, 4, 4)]


def test_level_sizes_are_not_slice_multiples():
    assert SUBSET_SLICE == 64
    assert math.comb(13, 2) % SUBSET_SLICE and math.comb(13, 3) % SUBSET_SLICE


def test_ambiguous_observation_matches_reference():
    # every subset is consistent with a clean observation, and the ones
    # without sensors 1 and 2 fit a minimum-norm state off the plane
    m = plane_plant(13, (1, 2))
    obs = encode(m, [1.0, -1.0, 0.5, 2.0])
    for complete in (True, False):
        result = assert_decode_matches(m, obs, 2, complete)
        assert result.corrupted == (12, 13)
    assert not decode(m, obs, 2).unique
    assert decode(m, obs, 1).unique


def test_incomplete_decode_stops_after_the_first_consistent_slice(svd_calls):
    # C(13, 11) = 78 subsets in two slices; with sensor 13 corrupted the
    # first consistent subset, (1, ..., 11), opens the first slice
    m = plane_plant(13, (1, 2))
    clean = encode(m, [1.0, -1.0, 0.5, 2.0])
    obs = clean.with_symbols({13: clean.symbols[12] + 1.0})

    def fits():
        return sum(shape[1:] == (11 * 4, 4) for shape in svd_calls)

    assert assert_decode_matches(m, obs, 2, complete=False).corrupted == (12, 13)
    assert fits() == 1
    assert assert_decode_matches(m, obs, 2, complete=True).unique
    assert fits() == 1 + 2


def test_noiseless_ambiguity_plant_matches_reference():
    A = np.diag([0.9, 0.5])
    C = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, -1.0], [2.0, 1.0], [1.0, 2.0]])
    m = SystemModel(A=A, C=C, sigma_w2=0.0, sigma_v2=0.0)
    assert sparse_observability_index(m) == reference_index(m) == 3
    alt = encode(m, [-3.0, 0.5])
    obs = encode(m, [1.0, 2.0]).with_symbols({d: alt.symbols[d - 1] for d in (2, 3)})
    for k in (1, 2, 3, 4):
        for complete in (True, False):
            assert_decode_matches(m, obs, k, complete)


def test_index_is_sliced_not_per_subset(svd_calls, certificates):
    # n=4, p=16: only sensors 1..8 see the plane, so (9, ..., 16) is the
    # one unobservable subset of level 8 and the last of its 12,870: the
    # scan decides every level from one end or the other, level 8 slice
    # by slice, with a few slices' worth of memory
    m = plane_plant(16, range(1, 9))
    m.observability_stack  # built outside the measured span
    m.sensor_grams
    tracemalloc.start()
    try:
        theta = sparse_observability_index(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert theta == 7
    level8 = [passed for _, size, passed in certificates if size == 8]
    assert len(level8) == math.ceil(math.comb(16, 8) / SUBSET_SLICE)
    assert level8.count(False) == 1 and not level8[-1]  # only the last slice's SVD
    # levels 1..8 each hold a plane-blind subset and decline once, and
    # every slice of levels 9..15 is certified
    assert svd_calls == declined_svds(certificates, m.n)
    assert [shape[1] // m.n for shape in svd_calls] == list(range(1, 9))
    slices = 1 + sum(math.ceil(math.comb(16, size) / SUBSET_SLICE) for size in range(1, 16))
    assert len(certificates) <= slices < 2**16 // 32
    # one level unsliced (12,870 stacked 32 x 4 blocks) peaks above 13 MB
    assert peak < 1_000_000
    assert reference_index(m) == theta


def test_generic_plant_is_certified_from_single_sensors(svd_calls, certificates):
    # every single sensor of a generic n=6, p=12 plant is certified: two
    # certificates, of the full set and of level 1, decide theta, and no
    # SVD runs
    m = make_random_stable_system(6, 12, 0.85, seed=5, sigma_w2=0.0, sigma_v2=0.0)
    assert sparse_observability_index(m) == 11
    assert certificates == [(1, 12, True), (12, 1, True)]
    assert svd_calls == []
    assert reference_index(m) == 11


@pytest.mark.parametrize(
    "A, C, theta, slices",
    [
        # p=1: the full set alone
        (np.diag([0.9, 0.5]), [[1.0, 1.0]], 0, [(1, 1, True)]),
        # p=2, each sensor observable alone: level 1 certifies
        (np.diag([0.9, 0.5]), [[1.0, 1.0], [1.0, -2.0]], 1, [(1, 2, True), (2, 1, True)]),
        # p=2, each sensor sees one mode: level 1 fails and the ends meet
        (np.diag([0.9, 0.5]), [[1.0, 0.0], [0.0, 1.0]], 0, [(1, 2, True), (2, 1, False)]),
        # the full set is unobservable: one SVD
        (np.diag([0.9, 0.5]), [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], -1, [(1, 3, False)]),
        # degenerate: no sensor sees anything
        (np.eye(2), np.zeros((3, 2)), -1, [(1, 3, False)]),
        # pairs of identical sensors: (2, 4) and (1, 3) are blind; level 1
        # fails, level 3 passes from the top, and level 2 fails
        (
            np.diag([0.9, 0.5]),
            [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
            1,
            [(1, 4, True), (4, 1, False), (4, 3, True), (6, 2, False)],
        ),
    ],
    ids=["p1", "p2-certified", "p2-ends-meet", "unobservable", "degenerate", "paired"],
)
def test_small_plants_match_reference(svd_calls, certificates, A, C, theta, slices):
    m = SystemModel(A=A, C=np.asarray(C), sigma_w2=0.0, sigma_v2=0.0)
    assert sparse_observability_index(m) == theta
    assert certificates == slices
    assert svd_calls == declined_svds(slices, m.n)
    assert reference_index(m) == theta


def weak_sensor_plant(weak_sv):
    """Noiseless n=2, p=5 plant whose sensors 2..5 are strong and whose
    sensor 1 alone has smallest singular value ``weak_sv`` and largest
    below 1, so its own floor is RANK_RTOL."""
    rng = np.random.default_rng(4)
    A = np.array([[0.8, 0.3], [-0.2, 0.7]])
    C = 100.0 * rng.standard_normal((5, 2))
    O1 = np.vstack([C[:1], C[:1] @ A])
    sv = np.linalg.svd(O1, compute_uv=False)
    C[0] *= weak_sv / sv[-1]
    assert sv[0] * weak_sv / sv[-1] < 1.0
    return SystemModel(A=A, C=C, sigma_w2=0.0, sigma_v2=0.0)


@pytest.mark.parametrize(
    "weak_sv, theta",
    [
        # sensor 1 passes its own floor but misses the certificate's,
        # above RANK_RTOL * 100: level 1 is not certified, the high end
        # decides level 4, and level 2 certifies (each pair holds a
        # strong sensor)
        (10 * RANK_RTOL, 4),
        # sensor 1 fails its own floor: level 1 fails, level 4 passes
        # from the top, and level 2 certifies
        (0.1 * RANK_RTOL, 3),
    ],
    ids=["passes-own-floor-only", "fails-own-floor"],
)
def test_weak_sensor_falls_back_to_the_high_end(svd_calls, certificates, weak_sv, theta):
    m = weak_sensor_plant(weak_sv)
    sv_full = np.linalg.svd(m.observability_stack, compute_uv=False)
    assert sv_full[0] > 100.0  # the certificate's floor is above 10 RANK_RTOL
    svd_calls.clear()
    assert sparse_observability_index(m) == theta
    assert certificates == [(1, 5, True), (5, 1, False), (5, 4, True), (10, 2, True)]
    assert svd_calls == [(5, 1 * 2, 2)]  # level 1 alone
    assert reference_index(m) == theta


def test_index_matches_reference_on_fuzzed_plants():
    # fuzz_plant's six families put subsets near the rank floor and the
    # certificate's, and overflow some Grams; whenever a level is
    # certified, every larger level passes the reference SVD test
    certified_levels = 0
    for seed in range(FUZZ_PLANTS):
        m = fuzz_plant(seed)
        assert sparse_observability_index(m) == reference_index(m), seed
        for size in range(1, m.p):
            chunks = _subset_slices(full_subset(m.p), size)
            if not all(_gram_certified(m, chunk) for chunk in chunks):
                continue
            certified_levels += 1
            for larger in range(size + 1, m.p):
                for s in combinations(range(1, m.p + 1), larger):
                    assert reference_observable(m, s), (seed, size, s)
            break  # the larger levels were just checked
    assert certified_levels > FUZZ_PLANTS // 2, certified_levels


@pytest.fixture
def declined(monkeypatch):
    """Counts of the slices `decode` decides, [all, sent to the SVD]."""
    counts = [0, 0]
    certified_hits = noiseless._certified_hits

    def counting(*args):
        hits = certified_hits(*args)
        counts[0] += 1
        counts[1] += hits is None
        return hits

    monkeypatch.setattr(noiseless, "_certified_hits", counting)
    return counts


def test_decode_matches_reference_on_fuzzed_plants(declined):
    # fuzz_plant's families with up to 12 sensors: zeroed entries, rows
    # scaled over 12 decades, planes some sensors do not see, nearly
    # repeated modes, collinear sensors and rows whose Grams overflow;
    # each observation corrupts up to k random symbols
    for seed in range(600):
        m = fuzz_plant(seed, max_p=12)
        rng = np.random.default_rng(seed)
        k = int(rng.integers(0, m.p))
        clean = encode(m, rng.standard_normal(m.n))
        alt = encode(m, rng.standard_normal(m.n) + 1.0)
        bad = rng.choice(m.p, size=int(rng.integers(0, k + 1)), replace=False)
        obs = clean.with_symbols({int(d) + 1: alt.symbols[d] for d in bad})
        for complete in (True, False):
            assert_decode_matches(m, obs, k, complete)
    # both paths are taken: most slices from the QR, many from the SVD
    assert declined[0] > 1500 and 500 < declined[1] < declined[0] / 2


def test_generic_decode_fits_only_the_consistent_rows(svd_calls, declined):
    # a generic n=6, p=12 plant has theta = 11; with 5 symbols corrupted
    # one of the 792 subsets of 7 is consistent, and its row is the only
    # one fitted by an SVD
    m = make_random_stable_system(6, 12, 0.85, seed=5, sigma_w2=0.0, sigma_v2=0.0)
    rng = np.random.default_rng(5)
    clean = encode(m, rng.standard_normal(6))
    alt = encode(m, rng.standard_normal(6) + 1.0)
    obs = clean.with_symbols({d: alt.symbols[d - 1] for d in (2, 5, 6, 9, 11)})
    result = assert_decode_matches(m, obs, 5)
    assert result.corrupted == (2, 5, 6, 9, 11) and result.unique
    assert svd_calls == [(1, 7 * 6, 6)]
    assert declined == [math.ceil(792 / SUBSET_SLICE), 0]


def test_declined_slice_takes_one_svd(svd_calls, declined):
    # C(13, 11) = 78 subsets in two slices; every subset of the first holds
    # sensor 1 or 2, so the certificate passes it, but the second holds
    # (3, ..., 13), which does not see the plane.  With sensor 1 corrupted
    # the first slice has no consistent subset and needs no SVD; the
    # second is decided by one SVD of the whole slice
    m = plane_plant(13, (1, 2))
    clean = encode(m, [1.0, -1.0, 0.5, 2.0])
    obs = clean.with_symbols({1: clean.symbols[0] + 1.0})
    first, second = _subset_slices(full_subset(13), 11)
    assert _gram_certified(m, first) and not _gram_certified(m, second)
    result = assert_decode_matches(m, obs, 2)
    assert not result.unique  # (3, ..., 13) fits a state off the plane
    assert svd_calls == [(78 - SUBSET_SLICE, 11 * 4, 4)]
    assert declined == [2, 1]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("offset", [-1e-5, 1e-5], ids=["below", "above"])
def test_residual_at_the_bound_takes_the_svd(svd_calls, declined, seed, offset):
    # sensors 7 and 8 are corrupted, and the symbols of (1, ..., 6) are
    # moved off the range of its O_s until its residual is the bound
    # CONSISTENCY_RTOL (1 + |Y|) times 1 + offset: within the QR's
    # rounding band, so the certified slice is decided by the SVD
    m = make_random_stable_system(4, 8, 0.85, seed=seed, sigma_w2=0.0, sigma_v2=0.0)
    rng = np.random.default_rng(seed)
    clean = encode(m, rng.standard_normal(4))
    Os, Y0 = blocks(m, range(1, 7)), clean.symbols[:6].reshape(-1)
    v = rng.standard_normal(len(Os))
    away = v - Os @ np.linalg.lstsq(Os, v, rcond=None)[0]
    t = 0.0
    for _ in range(5):  # t = CONSISTENCY_RTOL (1 + offset) (1 + |Y0 + t away|)
        t = CONSISTENCY_RTOL * (1.0 + offset) * (1.0 + math.hypot(np.linalg.norm(Y0), t))
    Y = Y0 + t * away / np.linalg.norm(away)
    obs = clean.with_symbols({d: Y[(d - 1) * 4 : d * 4] for d in range(1, 7)})
    obs = obs.with_symbols({7: obs.symbols[6] + 1.0, 8: obs.symbols[7] - 1.0})
    assert _gram_certified(m, np.array([list(range(6))]))
    result = assert_decode_matches(m, obs, 2)
    assert (result is None) == (offset > 0)
    assert svd_calls == [(28, 6 * 4, 4)]
    assert declined == [1, 1]


def test_non_finite_band_takes_the_svd(svd_calls, declined):
    # two entries of sensor 1's symbol near the float64 maximum are finite,
    # but the QR's fits of the subsets that read them overflow, leaving
    # some of their bands NaN: the first slice goes to the SVD, which
    # refuses its residuals, though the subsets without sensor 1 are
    # consistent
    m = make_random_stable_system(6, 12, 0.85, seed=5, sigma_w2=0.0, sigma_v2=0.0)
    clean = encode(m, np.ones(6))
    symbol = clean.symbols[0].copy()
    symbol[3:5] = 1.7e308, -1.7e308
    with pytest.raises(AnalysisError, match="fit residuals"):
        decode(m, clean.with_symbols({1: symbol}), 5)
    assert svd_calls == [(SUBSET_SLICE, 7 * 6, 6)]
    assert declined == [1, 1]
    # a NaN symbol is refused before any slice is decided
    symbol[3:5] = np.nan, 0.0
    with pytest.raises(ConfigError, match="finite"):
        decode(m, clean.with_symbols({1: symbol}), 5)
    assert len(svd_calls) == 1 and declined == [1, 1]
