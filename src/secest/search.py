"""Attack-free sensor subset search.

Two strategies locate a subset of p - k sensors that passes the residue
test: plain lexicographic enumeration, and a guided search that encodes
"sensor i is hypothesized attacked" as a Boolean variable, asks the
cardinality solver for a candidate, and prunes failed candidates with
UNSAT certificates of the form "at least one sensor in s' is attacked".
Shrinking the certificate subset s' prunes more of the Boolean search
space, so failed detector runs are reused to localize the conflict.

``theory_checks`` counts the detector runs spent on search hypotheses;
``detector_calls`` additionally includes the certificate-shrinking runs,
and the trace records every call for audits.  Unless a detector is
injected, each search call tests every subset, certificate shrinking
included, against one `SubsetBank` of its own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from math import comb
from typing import Callable

from .detect import DetectorConfig, ResidueReport, SubsetBank
from .errors import AnalysisError, ConfigError
from .kalman import FilterRun
from .model import SystemModel, Trajectory
from .observability import SensorSubset, normalize_subset
from .pbsat import PBConstraint, PBFormula, at_least, at_most, solve

__all__ = [
    "Detector",
    "SearchOutcome",
    "exhaustive_search",
    "smt_search",
    "generate_certificate",
]

# A detector maps a sensor subset to (flag, estimates, report); the
# default tests against a SubsetBank made for the search call, and
# experiment harnesses inject one backed by a prewarmed bank.
Detector = Callable[[SensorSubset], tuple[int, FilterRun, ResidueReport]]


@dataclass
class SearchOutcome:
    """``theory_checks`` counts detector runs on search hypotheses (for
    the plain enumeration: subsets visited).  ``detector_calls``
    additionally includes the runs spent shrinking certificates.
    ``report`` is the residue report of the found subset."""

    found: bool
    subset: SensorSubset | None
    estimates: FilterRun | None
    theory_checks: int
    report: ResidueReport | None = None
    detector_calls: int = 0
    certificates: list[PBConstraint] = field(default_factory=list)
    wall_time: float = 0.0
    trace: list[dict] = field(default_factory=list)

    def to_dict(self, include_timing: bool = True) -> dict:
        return {
            "found": self.found,
            "subset": list(self.subset) if self.subset else None,
            "theory_checks": self.theory_checks,
            "detector_calls": self.detector_calls,
            "certificates": [
                {"vars": list(c.vars), "sense": c.sense, "bound": c.bound}
                for c in self.certificates
            ],
            "wall_time": self.wall_time if include_timing else 0.0,
            "trace": self.trace,
        }


class _CountingDetector:
    """Wraps a detector with invocation counters and an audit log."""

    def __init__(self, inner: Detector):
        self.inner = inner
        self.hypothesis_checks = 0
        self.total_calls = 0
        self.log: list[dict] = []

    def __call__(self, s: SensorSubset, phase: str = "search"):
        flag, run, report = self.inner(s)
        self.total_calls += 1
        if phase == "search":
            self.hypothesis_checks += 1
        self.log.append({"subset": list(s), "flag": flag, "phase": phase})
        return flag, run, report


def _default_detector(
    model: SystemModel, traj: Trajectory, cfg: DetectorConfig
) -> Detector:
    return partial(SubsetBank(model, cfg).detect, traj)


def exhaustive_search(
    model: SystemModel,
    traj: Trajectory,
    k: int,
    cfg: DetectorConfig,
    detector: Detector | None = None,
) -> SearchOutcome:
    """Test all (p choose p-k) subsets in lexicographic order and return
    the first one the detector clears."""
    if not 0 <= k < model.p:
        raise ConfigError(f"need 0 <= k < p, got k={k}, p={model.p}")
    det = _CountingDetector(detector or _default_detector(model, traj, cfg))
    start = time.perf_counter()
    found = False
    subset: SensorSubset | None = None
    estimates: FilterRun | None = None
    report: ResidueReport | None = None
    for s in combinations(range(1, model.p + 1), model.p - k):
        flag, run, rep = det(s)
        if flag == 0:
            found, subset, estimates, report = True, s, run, rep
            break
    return SearchOutcome(
        found=found,
        subset=subset,
        estimates=estimates,
        report=report,
        theory_checks=det.hypothesis_checks,
        detector_calls=det.total_calls,
        wall_time=time.perf_counter() - start,
        trace=det.log,
    )


def smt_search(
    model: SystemModel,
    traj: Trajectory,
    k: int,
    cfg: DetectorConfig,
    detector: Detector | None = None,
) -> SearchOutcome:
    """Certificate-guided search: hypothesize at most k attacked sensors,
    verify the complementary subset with the detector, and prune failed
    hypotheses via cardinality certificates until one clears."""
    if not 0 <= k < model.p:
        raise ConfigError(f"need 0 <= k < p, got k={k}, p={model.p}")
    det = _CountingDetector(detector or _default_detector(model, traj, cfg))
    start = time.perf_counter()
    p = model.p
    formula = PBFormula(p, (at_most(range(1, p + 1), k),))
    certificates: list[PBConstraint] = []

    # Every iteration excludes at least the current assignment, so the
    # number of iterations is bounded by the number of assignments with
    # at most k true variables.
    max_iter = sum(comb(p, j) for j in range(k + 1)) + 1
    for _ in range(max_iter):
        assignment = solve(formula)
        if assignment is None:
            return SearchOutcome(
                found=False,
                subset=None,
                estimates=None,
                theory_checks=det.hypothesis_checks,
                detector_calls=det.total_calls,
                certificates=certificates,
                wall_time=time.perf_counter() - start,
                trace=det.log,
            )
        hypothesis = tuple(i for i in range(1, p + 1) if not assignment[i - 1])
        flag, run, report = det(hypothesis)
        if flag == 0:
            return SearchOutcome(
                found=True,
                subset=hypothesis,
                estimates=run,
                report=report,
                theory_checks=det.hypothesis_checks,
                detector_calls=det.total_calls,
                certificates=certificates,
                wall_time=time.perf_counter() - start,
                trace=det.log,
            )
        certs = generate_certificate(model, traj, report, cfg, k, detector=det)
        certificates.extend(certs)
        formula = formula.with_constraints(certs)
    raise AnalysisError("guided search exceeded its iteration bound")


def generate_certificate(
    model: SystemModel,
    traj: Trajectory,
    report: ResidueReport,
    cfg: DetectorConfig,
    k: int,
    detector: Detector | None = None,
) -> list[PBConstraint]:
    """Certificates explaining why the subset of ``report`` failed the
    residue test.

    Always starts with the full-subset certificate (excluding the current
    hypothesis), then repeatedly drops the sensor with the lowest
    residue score and re-runs the detector: every shrunken subset that
    still fails yields a sharper certificate.  Stops at the first
    passing subset, when the drop list is exhausted, or when the
    shrunken subset can no longer support a threshold.  The residue
    scores are the report's ``per_sensor_mu``.
    """
    subset = normalize_subset(report.subset, model.p)
    det = detector or _default_detector(model, traj, cfg)
    certs = [at_least(subset, 1)]

    budget = model.p - 2 * k + 1
    if budget < 1 or len(subset) <= budget:
        return certs
    scores = report.per_sensor_mu
    drop_order = sorted(subset, key=lambda i: (scores[i], i))[:budget]

    current = list(subset)
    for sensor in drop_order:
        current.remove(sensor)
        shrunk = tuple(current)
        if not shrunk:
            break
        if cfg.eta is None and len(shrunk) <= (cfg.k or 0):
            break  # auto threshold undefined below k+1 sensors
        try:
            if isinstance(det, _CountingDetector):
                flag, _, _ = det(shrunk, phase="certificate")
            else:
                flag, _, _ = det(shrunk)
        except AnalysisError:
            break  # shrunken subset lost observability; stop shrinking
        if flag == 1:
            certs.append(at_least(shrunk, 1))
        else:
            break
    return certs
