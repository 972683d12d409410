from itertools import combinations

import numpy as np
import pytest

from secest import (
    AnalysisError,
    ConfigError,
    SymbolObservation,
    SystemModel,
    decode,
    detect_corruption,
    encode,
    make_random_stable_system,
    min_symbol_distance,
    sparse_observability_index,
)


def ambiguity_system():
    """theta=3, p=5: sensor 1 is blind to the second coordinate, so two
    states differing only there share its symbol and split the others."""
    A = np.diag([0.9, 0.5])
    C = np.array(
        [[1.0, 0.0], [1.0, 1.0], [1.0, -1.0], [2.0, 1.0], [1.0, 2.0]]
    )
    return SystemModel(A=A, C=C, sigma_w2=0.0, sigma_v2=0.0)


def test_encode_zero_state():
    m = make_random_stable_system(3, 4, 0.8, seed=1)
    obs = encode(m, np.zeros(3))
    assert np.allclose(obs.symbols, 0.0)


def test_encode_scalar_identity(triple_sensor_scalar):
    obs = encode(triple_sensor_scalar, [2.0])
    assert np.array_equal(obs.symbols, [[2.0], [2.0], [2.0]])


def test_round_trip_clean():
    rng = np.random.default_rng(0)
    for seed in range(10):
        m = make_random_stable_system(3, 5, 0.8, seed=seed)
        x0 = rng.standard_normal(3)
        result = decode(m, encode(m, x0), k=0)
        assert np.linalg.norm(result.state - x0) <= 1e-10
        assert result.corrupted == ()
        assert result.unique


def test_detect_clean_observation_consistent():
    m = make_random_stable_system(2, 4, 0.8, seed=3)
    assert not detect_corruption(m, encode(m, [1.0, -2.0]))


def test_detect_theta_corruptions():
    m = ambiguity_system()
    theta = sparse_observability_index(m)
    assert theta == 3
    x0 = np.array([1.0, 2.0])
    x_alt = np.array([-3.0, 0.5])
    alt = encode(m, x_alt)
    obs = encode(m, x0)
    # corrupting any theta symbols toward a different state is detectable
    for pattern in combinations(range(1, 6), theta):
        corrupted = obs.with_symbols({d: alt.symbols[d - 1] for d in pattern})
        assert detect_corruption(m, corrupted)


def test_full_codeword_swap_undetectable():
    # replacing every symbol consistently with another state's codeword
    # cannot be told apart from that state
    m = ambiguity_system()
    x_alt = np.array([0.3, -0.7])
    alt = encode(m, x_alt)
    obs = encode(m, [1.0, 2.0]).with_symbols(
        {d: alt.symbols[d - 1] for d in range(1, 6)}
    )
    assert not detect_corruption(m, obs)


def test_decode_corrects_within_half_distance():
    m = ambiguity_system()
    theta = sparse_observability_index(m)
    k = 1  # 2k <= theta
    x0 = np.array([0.4, -1.1])
    x_alt = np.array([2.0, 3.0])
    alt = encode(m, x_alt)
    for pattern in combinations(range(1, 6), k):
        obs = encode(m, x0).with_symbols({d: alt.symbols[d - 1] for d in pattern})
        result = decode(m, obs, k)
        assert np.linalg.norm(result.state - x0) <= 1e-9
        assert set(result.corrupted) >= set(pattern)
        assert result.unique


def test_decode_ambiguous_when_k_exceeds_half_distance():
    # theta=3, k=2 violates 2k <= theta: a split observation admits two
    # explanations and the decoder must report non-uniqueness
    m = ambiguity_system()
    x1 = np.array([1.0, 2.0])
    x2 = x1 + np.array([0.0, 3.0])  # differs only where sensor 1 is blind
    y1, y2 = encode(m, x1), encode(m, x2)
    assert np.allclose(y1.symbols[0], y2.symbols[0])  # shared first symbol
    mixed = y1.with_symbols({4: y2.symbols[3], 5: y2.symbols[4]})
    result = decode(m, mixed, k=2)
    assert not result.unique
    # the first consistent explanation is state x1 with sensors 4, 5 blamed
    assert np.linalg.norm(result.state - x1) <= 1e-9
    assert result.corrupted == (4, 5)


def test_decode_no_explanation_error():
    m = ambiguity_system()
    rng = np.random.default_rng(5)
    obs = encode(m, [1.0, 1.0]).with_symbols(
        {d: rng.standard_normal(2) for d in range(1, 6)}
    )
    with pytest.raises(AnalysisError):
        decode(m, obs, k=0)


def test_min_symbol_distance_values(triple_sensor_scalar):
    assert min_symbol_distance(triple_sensor_scalar) == 3
    single = SystemModel(A=[[0.5]], C=[[1.0]], sigma_w2=0, sigma_v2=0)
    assert min_symbol_distance(single) == 1
    assert min_symbol_distance(ambiguity_system()) == 4


def test_min_symbol_distance_unobservable():
    m = SystemModel(A=np.eye(2), C=np.zeros((3, 2)), sigma_w2=0, sigma_v2=0)
    with pytest.raises(AnalysisError):
        min_symbol_distance(m)


def test_min_symbol_distance_sampled_lower_bound():
    rng = np.random.default_rng(7)
    for seed in range(3):
        m = make_random_stable_system(2, 4, 0.8, seed=seed)
        dist = min_symbol_distance(m)
        observed = 4
        for _ in range(500):
            xa = rng.standard_normal(2)
            xb = rng.standard_normal(2)
            ya, yb = encode(m, xa), encode(m, xb)
            differing = sum(
                np.linalg.norm(ya.symbols[d] - yb.symbols[d]) > 1e-9 for d in range(4)
            )
            observed = min(observed, differing)
        assert observed >= dist


def test_norm_rescales_only_where_the_plain_norm_overflows():
    # finite plain norms are kept bit for bit; entries past 1.3e154, whose
    # squares overflow, get their norm from scaled entries; a norm past
    # float64, or of an infinite entry, stays infinite
    from secest.noiseless import _norm

    rows = np.array([[3.0, 4e-3], [1e200, 3e200], [1.5e308, 1.5e308], [np.inf, 0.0]])
    norms = _norm(rows, axis=1)
    assert norms[0] == np.linalg.norm(rows[0])
    assert norms[1] == pytest.approx(np.sqrt(10.0) * 1e200, rel=1e-15)
    assert np.isinf(norms[2]) and np.isinf(norms[3])
    assert float(_norm(rows[1])) == norms[1]
    assert float(_norm(np.array([1.7e308]))) == 1.7e308


def test_symbols_of_the_wrong_shape_are_config_errors():
    # symbols 2 wide on an n=3 plant used to leak numpy's ValueError from
    # decode and LinAlgError from detect_corruption
    m = make_random_stable_system(3, 4, 0.8, seed=1, sigma_w2=0.0, sigma_v2=0.0)
    for symbols in (np.ones((4, 2)), np.ones((3, 3)), np.ones((4, 3, 1))):
        obs = SymbolObservation(symbols)
        with pytest.raises(ConfigError, match="shape"):
            decode(m, obs, 1)
        with pytest.raises(ConfigError, match="shape"):
            detect_corruption(m, obs)


@pytest.mark.parametrize("k", [2.5, "1", None, np.float64(1.0)])
def test_decode_refuses_a_non_integral_k(k):
    m = ambiguity_system()
    obs = encode(m, [1.0, 2.0])
    with pytest.raises(ConfigError, match="k must be an integer"):
        decode(m, obs, k)
    assert decode(m, obs, np.int64(1)).corrupted == (5,)


def test_encode_refuses_a_non_finite_state_but_not_an_overflow():
    m = ambiguity_system()
    for x0 in ([np.nan, 1.0], [1.0, np.inf]):
        with pytest.raises(ConfigError, match="x0 must be finite"):
            encode(m, x0)
    # a finite state whose symbols pass float64 stays an analysis error
    with pytest.raises(AnalysisError, match="symbols O_d x0"):
        encode(m, [1e308, 1e308])
