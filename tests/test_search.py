import gc
import weakref
from math import comb
from types import SimpleNamespace

import pytest
from secest import (
    FILTERING,
    AttackSpec,
    ConfigError,
    ConstantBias,
    DetectorConfig,
    NoiseLinear,
    PREDICTION,
    SeededRandom,
    SubsetBank,
    SystemModel,
    attack_detect,
    exhaustive_search,
    generate_certificate,
    make_random_stable_system,
    simulate,
    smt_search,
)
from secest.pbsat import AT_LEAST


def small_setup(seed, attacked=(), amplitude=4.0, n=3, p=4, N=3000, eta=1.0, k=1):
    m = make_random_stable_system(n, p, 0.85, seed=60, sigma_w2=0.5, sigma_v2=0.7)
    cfg = DetectorConfig(epsilon=1.0, N=N, t1=80, mode=PREDICTION, eta=eta, k=k)
    atk = AttackSpec(tuple(attacked), SeededRandom(amplitude)) if attacked else AttackSpec()
    traj = simulate(m, atk, cfg.t1 + cfg.window_length(n) + n, seed=seed, burn_in=30)
    return m, traj, cfg


def test_no_attack_first_subset_passes():
    m, traj, cfg = small_setup(seed=0)
    ex = exhaustive_search(m, traj, cfg)
    assert ex.found and ex.subset == (1, 2, 3) and ex.theory_checks == 1
    sm = smt_search(m, traj, cfg)
    assert sm.found and sm.subset == (1, 2, 3, 4) and sm.theory_checks == 1
    assert sm.certificates == []


def test_attack_on_first_sensors_found_complement():
    m, traj, cfg = small_setup(seed=1, attacked=(1, 2), k=2)
    ex = exhaustive_search(m, traj, cfg)
    assert ex.found and ex.subset == (3, 4)
    assert ex.theory_checks == comb(4, 2)  # complement is last in lex order
    sm = smt_search(m, traj, cfg)
    assert sm.found
    flag, _ = attack_detect(m, traj, sm.subset, cfg)
    assert flag == 0
    assert sm.theory_checks <= ex.theory_checks


def test_massive_attack_exhausts_both():
    m, traj, cfg = small_setup(seed=2, attacked=(1, 2, 3, 4), amplitude=8.0)
    ex = exhaustive_search(m, traj, cfg)
    assert not ex.found and ex.theory_checks == comb(4, 3)
    sm = smt_search(m, traj, cfg)
    assert not sm.found and sm.subset is None
    # solver exhausted every hypothesis with at most one attacked sensor
    assert sm.theory_checks <= 1 + 4


def test_search_needs_attack_bound_in_config():
    m, traj, _ = small_setup(seed=0)
    for k in (None, m.p):  # no bound, and a bound on all p sensors
        cfg = DetectorConfig(epsilon=1.0, N=3000, t1=80, eta=1.0, k=k)
        for search in (exhaustive_search, smt_search):
            with pytest.raises(ConfigError):
                search(m, traj, cfg)


def test_outcome_equivalence_over_seeds():
    found_pairs = 0
    for seed in range(5):
        m, traj, cfg = small_setup(seed=seed, attacked=(2,))
        ex = exhaustive_search(m, traj, cfg)
        sm = smt_search(m, traj, cfg)
        if ex.found:
            assert sm.found
            for outcome in (ex, sm):
                flag, _ = attack_detect(m, traj, outcome.subset, cfg)
                assert flag == 0
            found_pairs += 1
        assert sm.theory_checks <= comb(4, 3)
    assert found_pairs >= 4


def test_certificate_soundness_audit():
    m, traj, cfg = small_setup(seed=3, attacked=(1,))
    sm = smt_search(m, traj, cfg)
    assert sm.found
    failed = {
        tuple(entry["subset"]) for entry in sm.trace if entry["flag"] == 1
    }
    for cert in sm.certificates:
        assert cert.sense == AT_LEAST and cert.bound == 1
        assert cert.vars in failed  # never prunes an untested hypothesis
    # the final subset is on the trace with a passing flag
    assert {"subset": list(sm.subset), "flag": 0, "phase": "search"} in sm.trace


def test_detector_calls_exceed_hypothesis_checks_under_attack():
    m, traj, cfg = small_setup(seed=3, attacked=(1,))
    sm = smt_search(m, traj, cfg)
    assert sm.detector_calls >= sm.theory_checks
    cert_calls = [e for e in sm.trace if e["phase"] == "certificate"]
    assert len(cert_calls) == sm.detector_calls - sm.theory_checks


def _search_phase(outcome):
    return [tuple(entry["subset"]) for entry in outcome.trace if entry["phase"] == "search"]


def _trace(outcome):
    return [(tuple(e["subset"]), e["flag"], e["phase"]) for e in outcome.trace]


def _deepest_failures(outcome):
    """For each failed hypothesis, the last failing trace entry before the
    next hypothesis: the smallest subset its certificate walk saw fail."""
    deepest = []
    for subset, flag, phase in _trace(outcome):
        if phase == "search" and flag == 1:
            deepest.append(subset)
        elif phase == "certificate" and flag == 1:
            deepest[-1] = subset
    return deepest


def test_guided_hypothesis_sequence_pinned():
    # the solver's preference order fixes which subsets the guided search
    # tests and in what order, and the scores fix each certificate walk's
    # probes; each failed hypothesis leaves one certificate, over the last
    # subset its walk saw fail
    m, traj, cfg = small_setup(seed=3, attacked=(1,))
    sm = smt_search(m, traj, cfg)
    assert _trace(sm) == [
        ((1, 2, 3, 4), 1, "search"),
        ((1, 3, 4), 1, "certificate"),
        ((1, 4), 1, "certificate"),
        ((1,), 1, "certificate"),
        ((2, 3, 4), 0, "search"),
    ]
    assert _search_phase(sm) == [(1, 2, 3, 4), (2, 3, 4)]
    assert [c.vars for c in sm.certificates] == _deepest_failures(sm) == [(1,)]
    assert sm.subset == (2, 3, 4)

    # filtering mode, sensors 1-3 attacked, the third too weakly to fail
    n = 4
    m = make_random_stable_system(n, 7, 0.9, seed=1, sigma_w2=0.001, sigma_v2=1.0)
    cfg = DetectorConfig(epsilon=1.0, N=300, t1=60, mode=FILTERING, eta=15.0, k=3)
    atk = AttackSpec((1, 2, 3), NoiseLinear((10.0, 10.0, 0.5)))
    traj = simulate(m, atk, cfg.t1 + cfg.window_length(n) + n, seed=1, burn_in=10 * n)
    sm = smt_search(m, traj, cfg)
    assert _trace(sm) == [
        ((1, 2, 3, 4, 5, 6, 7), 1, "search"),
        ((1, 2, 4, 5, 6, 7), 1, "certificate"),
        ((1, 2, 5, 6, 7), 1, "certificate"),
        ((2, 3, 4, 5, 6, 7), 1, "search"),
        ((2, 4, 5, 6, 7), 1, "certificate"),
        ((2, 5, 6, 7), 1, "certificate"),
        ((1, 3, 4, 5, 6, 7), 1, "search"),
        ((1, 4, 5, 6, 7), 1, "certificate"),
        ((1, 5, 6, 7), 1, "certificate"),
        ((1, 2, 3, 4, 6, 7), 1, "search"),
        ((1, 2, 4, 6, 7), 1, "certificate"),
        ((1, 2, 6, 7), 1, "certificate"),
        ((1, 2, 3, 4, 5, 7), 1, "search"),
        ((1, 2, 4, 5, 7), 1, "certificate"),
        ((1, 2, 5, 7), 1, "certificate"),
        ((1, 2, 3, 4, 5, 6), 1, "search"),
        ((1, 2, 4, 5, 6), 1, "certificate"),
        ((1, 2, 5, 6), 1, "certificate"),
        ((3, 4, 5, 6, 7), 0, "search"),
    ]
    assert _search_phase(sm) == [
        (1, 2, 3, 4, 5, 6, 7),
        (2, 3, 4, 5, 6, 7),
        (1, 3, 4, 5, 6, 7),
        (1, 2, 3, 4, 6, 7),
        (1, 2, 3, 4, 5, 7),
        (1, 2, 3, 4, 5, 6),
        (3, 4, 5, 6, 7),
    ]
    assert [c.vars for c in sm.certificates] == _deepest_failures(sm) == [
        (1, 2, 5, 6, 7), (2, 5, 6, 7), (1, 5, 6, 7), (1, 2, 6, 7), (1, 2, 5, 7), (1, 2, 5, 6),
    ]
    assert sm.subset == (3, 4, 5, 6, 7)


# --- certificate generation against a scripted detector ---------------------


def _fake_report(subset, mu):
    return SimpleNamespace(subset=subset, per_sensor_mu=dict(mu))


class ScriptedDetector:
    def __init__(self, failing):
        self.failing = set(failing)
        self.calls = []

    def __call__(self, s):
        s = tuple(s)
        self.calls.append(s)
        flag = 1 if s in self.failing else 0
        return flag, _fake_report(s, {i: 0.0 for i in s})


def test_certificate_stops_at_first_passing_removal():
    # p=5, k=2: budget is p-2k+1 = 2 removals; dropping the lowest-score
    # sensor already passes, so the certificate is the failed subset's
    m = make_random_stable_system(1, 5, 0.5, seed=0)
    cfg = DetectorConfig(epsilon=1.0, eta=1.0, N=4, t1=0, k=2)
    s = (1, 2, 3, 4, 5)
    report = _fake_report(s, {1: 5.0, 2: 0.1, 3: 4.0, 4: 3.0, 5: 2.0})
    det = ScriptedDetector(failing={s})  # every shrunken subset passes
    cert = generate_certificate(m, report, cfg, det)
    assert (cert.vars, cert.sense, cert.bound) == (s, AT_LEAST, 1)
    assert det.calls == [(1, 3, 4, 5)]  # sensor 2 (lowest score) dropped first


def test_certificate_chain_emits_shrinking_subsets():
    m = make_random_stable_system(1, 5, 0.5, seed=0)
    cfg = DetectorConfig(epsilon=1.0, eta=1.0, N=4, t1=0, k=2)
    s = (1, 2, 3, 4, 5)
    report = _fake_report(s, {1: 5.0, 2: 0.1, 3: 0.2, 4: 3.0, 5: 2.0})
    det = ScriptedDetector(failing={s, (1, 3, 4, 5), (1, 4, 5)})
    cert = generate_certificate(m, report, cfg, det)
    # the budget of 2 is walked fully; the deepest failing subset is kept,
    # whose certificate implies those of s and (1, 3, 4, 5)
    assert (cert.vars, cert.sense, cert.bound) == ((1, 4, 5), AT_LEAST, 1)
    assert det.calls == [(1, 3, 4, 5), (1, 4, 5)]


def test_certificate_degenerate_small_subset():
    # |s| <= p-2k+1 leaves no room to shrink: the failed subset's certificate
    m = make_random_stable_system(1, 5, 0.5, seed=0)
    cfg = DetectorConfig(epsilon=1.0, eta=1.0, N=4, t1=0, k=1)
    s = (2, 4)  # p - 2k + 1 = 4 >= |s|
    report = _fake_report(s, {2: 1.0, 4: 2.0})
    det = ScriptedDetector(failing={s})
    cert = generate_certificate(m, report, cfg, det)
    assert (cert.vars, cert.sense, cert.bound) == (s, AT_LEAST, 1)
    assert det.calls == []


def test_certificate_auto_threshold_guard():
    # p=5, k=1: the budget p-2k+1 = 4 walks a 5-sensor hypothesis down to
    # one sensor, and every probe fails.  With an auto threshold the walk
    # must not probe a subset of size <= k, so it stops after size 2; with
    # a fixed eta the same walk probes the last sensor too
    m = make_random_stable_system(1, 5, 0.5, seed=0)
    s = (1, 2, 3, 4, 5)
    report = _fake_report(s, {1: 0.1, 2: 0.2, 3: 0.3, 4: 0.4, 5: 5.0})
    walk = [(2, 3, 4, 5), (3, 4, 5), (4, 5), (5,)]
    for eta, probed in ((None, walk[:3]), (1.0, walk)):
        cfg = DetectorConfig(epsilon=1.0, eta=eta, N=4, t1=0, k=1)
        det = ScriptedDetector(failing={s, *walk})
        cert = generate_certificate(m, report, cfg, det)
        assert det.calls == probed
        assert (cert.vars, cert.sense, cert.bound) == (probed[-1], AT_LEAST, 1)


def test_search_past_a_sensor_without_observability_energy():
    # sensor 2's zero C row has no observability energy, so no failed
    # subset holding it has residue scores; the guided search keeps each
    # such hypothesis's own certificate and finds what exhaustive finds
    m = SystemModel(A=[[0.9]], C=[[1.0], [0.0], [1.0]], sigma_w2=1.0, sigma_v2=1.0)
    cfg = DetectorConfig(epsilon=1.0, eta=0.5, N=400, t1=20, k=1)
    traj = simulate(m, AttackSpec((1,), ConstantBias((50.0,))), 421, seed=7, burn_in=10)
    assert exhaustive_search(m, traj, cfg).subset == (2, 3)
    sm = smt_search(m, traj, cfg)
    assert sm.subset == (2, 3) and sm.theory_checks == 2 and sm.detector_calls == 2
    assert [(c.vars, c.sense, c.bound) for c in sm.certificates] == [((1, 2, 3), AT_LEAST, 1)]


def test_attacked_sensor_scores_highest():
    # under a strong variance-inflating attack the corrupted sensor's
    # normalized residue score dominates in most seeds
    wins = 0
    trials = 10
    for seed in range(trials):
        m, traj, cfg = small_setup(seed=seed, attacked=(3,), amplitude=5.0)
        flag, report = attack_detect(m, traj, (1, 2, 3, 4), cfg)
        if flag == 1:
            mu = report.per_sensor_mu
            wins += mu[3] >= max(mu[i] for i in (1, 2, 4))
    assert wins >= 0.8 * trials


@pytest.mark.parametrize("search", [exhaustive_search, smt_search])
@pytest.mark.parametrize("injected", [False, True])
def test_found_outcome_keeps_no_trajectory(search, injected):
    # a found outcome keeps its report, whose filter run is the outcome's
    # estimates; with the trajectory and the detector dropped, nothing
    # keeps the trajectory alive, and the report, whose deviation is
    # formed, holds neither O_s, K' nor the window moment
    m, traj, cfg = small_setup(seed=1, attacked=(1, 2), k=2)
    detector = SubsetBank(m, cfg).detector(traj) if injected else None
    outcome = search(m, traj, cfg, detector=detector)
    alive = weakref.ref(traj)
    del traj, detector
    gc.collect()
    assert outcome.found and alive() is None
    report = outcome.report
    assert report.passed and "deviation" in vars(report)
    assert "_products" not in vars(report) and report._moment is None  # O_s and K'
    assert outcome.estimates is report.run
