"""Attack-free sensor subset search.

Two strategies locate a subset of p - k sensors that passes the residue
test: plain lexicographic enumeration, and a guided search that encodes
"sensor i is hypothesized attacked" as a Boolean variable, asks the
cardinality solver for a candidate, and prunes each failed candidate with
one UNSAT certificate, "at least one sensor in s' is attacked".  Shrinking
s' prunes more of the Boolean search space, so failed detector runs are
reused to localize the conflict; s' is the smallest subset found failing,
whose certificate implies those of the larger ones.

The attack bound k is the detector configuration's ``k``, the one
value that also drives the auto threshold; a search without it is a
configuration error.  An outcome's trace records every detector call for
audits, and its counts are read from it.  ``wall_time`` is the search's
one clock, the seconds from the start of its subset tests to its outcome;
experiment 2 reports it as is.  Unless a detector is injected, each
search call tests every subset against one `SubsetBank` of its own, and
certificate shrinking probes through the search's detector.  An outcome
keeps the found subset's report, whose filter run is its estimates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from math import comb
from typing import Callable, Iterable

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

# A detector maps a sensor subset to (flag, report); the default is the
# detector of a SubsetBank made for the search call, and experiment 2
# injects the detector of a bank that the search keeps across
# repetitions.  The searches log the flag, keep the report of the subset
# found, and read a failed report's scores only to shrink a certificate.
Detector = Callable[[SensorSubset], tuple[int, ResidueReport]]


@dataclass
class SearchOutcome:
    """``subset`` is the subset found, None when none passed, with its
    residue ``report``, whose filter run is ``estimates``.  ``trace`` logs
    every detector call with its phase, and the counts are read from it:
    ``theory_checks`` counts the runs on search hypotheses (for the plain
    enumeration: subsets visited), and ``detector_calls`` additionally
    includes the runs spent shrinking certificates."""

    subset: SensorSubset | None
    report: ResidueReport | None = None
    certificates: list[PBConstraint] = field(default_factory=list)
    wall_time: float = 0.0
    trace: list[dict] = field(default_factory=list)

    @property
    def found(self) -> bool:
        return self.subset is not None

    @property
    def estimates(self) -> FilterRun | None:
        return None if self.report is None else self.report.run

    @property
    def theory_checks(self) -> int:
        return sum(entry["phase"] == "search" for entry in self.trace)

    @property
    def detector_calls(self) -> int:
        return len(self.trace)

    def to_dict(self) -> dict:
        return {
            "found": self.found,
            "subset": list(self.subset) if self.subset else None,
            "theory_checks": self.theory_checks,
            "detector_calls": self.detector_calls,
            "certificates": [
                {"vars": list(c.vars), "sense": c.sense, "bound": c.bound}
                for c in self.certificates
            ],
            "wall_time": self.wall_time,
            "trace": self.trace,
        }


class _CountingDetector:
    """Wraps a detector with an audit log of its calls, and reports the
    log as a search outcome timed from the wrapper's creation."""

    def __init__(self, inner: Detector):
        self.inner = inner
        self.log: list[dict] = []
        self.start = time.perf_counter()

    def __call__(self, s: SensorSubset, phase: str = "search"):
        flag, report = self.inner(s)
        self.log.append({"subset": list(s), "flag": flag, "phase": phase})
        return flag, report

    def outcome(
        self,
        subset: SensorSubset | None = None,
        report: ResidueReport | None = None,
        certificates: Iterable[PBConstraint] = (),
    ) -> SearchOutcome:
        """The search's outcome so far; found when ``subset`` is given."""
        elapsed = time.perf_counter() - self.start
        return SearchOutcome(subset, report, list(certificates), elapsed, self.log)


def _attack_bound(model: SystemModel, cfg: DetectorConfig) -> int:
    k = cfg.k
    if k is None or not 0 <= k < model.p:
        raise ConfigError(f"search needs DetectorConfig.k in [0, p), got k={k}, p={model.p}")
    return k


def exhaustive_search(
    model: SystemModel,
    traj: Trajectory,
    cfg: DetectorConfig,
    detector: Detector | None = None,
) -> SearchOutcome:
    """Test all (p choose p-k) subsets, k = ``cfg.k``, in lexicographic
    order and return the first one the detector clears."""
    k = _attack_bound(model, cfg)
    det = _CountingDetector(detector or SubsetBank(model, cfg).detector(traj))
    for s in combinations(range(1, model.p + 1), model.p - k):
        flag, report = det(s)
        if flag == 0:
            return det.outcome(s, report)
    return det.outcome()


def smt_search(
    model: SystemModel,
    traj: Trajectory,
    cfg: DetectorConfig,
    detector: Detector | None = None,
) -> SearchOutcome:
    """Certificate-guided search: hypothesize at most k attacked sensors,
    verify the complementary subset with the detector, and prune failed
    hypotheses via cardinality certificates until one clears."""
    k = _attack_bound(model, cfg)
    det = _CountingDetector(detector or SubsetBank(model, cfg).detector(traj))
    p = model.p
    formula = PBFormula(p, (at_most(range(1, p + 1), k),))  # then one certificate each

    # Every iteration excludes at least the current assignment, so the
    # number of iterations is bounded by the number of assignments with
    # at most k true variables.
    max_iter = sum(comb(p, j) for j in range(k + 1)) + 1
    for _ in range(max_iter):
        assignment = solve(formula)
        if assignment is None:
            return det.outcome(certificates=formula.constraints[1:])
        hypothesis = tuple(i for i in range(1, p + 1) if not assignment[i - 1])
        flag, report = det(hypothesis)
        if flag == 0:
            return det.outcome(hypothesis, report, formula.constraints[1:])
        cert = generate_certificate(model, report, cfg, partial(det, phase="certificate"))
        formula = formula.with_constraints([cert])
    raise AnalysisError("guided search exceeded its iteration bound")


def generate_certificate(
    model: SystemModel,
    report: ResidueReport,
    cfg: DetectorConfig,
    detector: Detector,
) -> PBConstraint:
    """at_least(s*, 1): why the subset of ``report`` failed the residue
    test, with s* the smallest subset that ``detector`` found failing.

    s* starts as the failed subset.  The walk repeatedly drops the sensor
    with the lowest residue score (the report's ``per_sensor_mu``; a
    report whose scores raise AnalysisError gets no walk) and re-runs the
    detector; each shrunken subset that still fails becomes s*.  It stops
    at the first passing subset, when the drop list is exhausted, or when
    the shrunken subset can no longer support a threshold.
    """
    k = _attack_bound(model, cfg)
    failed = normalize_subset(report.subset, model.p)
    budget = model.p - 2 * k + 1
    if budget < 1 or len(failed) <= budget:
        return at_least(failed, 1)
    try:
        scores = report.per_sensor_mu
    except AnalysisError:
        return at_least(failed, 1)  # no scores to order the walk by
    drop_order = sorted(failed, key=lambda i: (scores[i], i))[:budget]

    current = list(failed)
    for sensor in drop_order:
        current.remove(sensor)
        shrunk = tuple(current)
        if cfg.eta is None and len(shrunk) <= k:
            break  # auto threshold undefined below k+1 sensors
        try:
            flag, _ = detector(shrunk)
        except AnalysisError:
            break  # shrunken subset lost observability; stop shrinking
        if flag == 0:
            break
        failed = shrunk
    return at_least(failed, 1)
