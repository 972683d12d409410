"""Attack-free sensor subset search.

Two strategies locate a subset of p - k sensors that passes the residue
test: plain lexicographic enumeration, and a guided search that encodes
"sensor i is hypothesized attacked" as a Boolean variable, asks the
cardinality solver for a candidate, and prunes failed candidates with
UNSAT certificates of the form "at least one sensor in s' is attacked".
Shrinking the certificate subset s' prunes more of the Boolean search
space, so failed detector runs are reused to localize the conflict.

The attack bound k is the detector configuration's ``k``, the one
value that also drives the auto threshold; a search without it is a
configuration error.  ``theory_checks`` counts the detector runs spent on
search hypotheses; ``detector_calls`` additionally includes the
certificate-shrinking runs, and the trace records every call for audits.
``wall_time`` is the search's one clock, the seconds from the start of
its subset tests to its outcome; experiment 2 reports it as is.  Unless a
detector is injected, each search call tests every subset against one
`SubsetBank` of its own, and certificate shrinking probes through the
search's detector.
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

# A detector maps a sensor subset to (flag, estimates, report); the
# default is the detector of a SubsetBank made for the search call, and
# experiment harnesses inject the detector of a prewarmed bank.
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
    """Wraps a detector with an audit log of its calls, and reports their
    counts as a search outcome timed from the wrapper's creation."""

    def __init__(self, inner: Detector):
        self.inner = inner
        self.log: list[dict] = []
        self.start = time.perf_counter()

    def __call__(self, s: SensorSubset, phase: str = "search"):
        flag, run, report = self.inner(s)
        self.log.append({"subset": list(s), "flag": flag, "phase": phase})
        return flag, run, report

    def outcome(
        self,
        subset: SensorSubset | None = None,
        run: FilterRun | None = None,
        report: ResidueReport | None = None,
        certificates: Iterable[PBConstraint] = (),
    ) -> SearchOutcome:
        """The search's outcome so far; found when ``subset`` is given."""
        return SearchOutcome(
            found=subset is not None,
            subset=subset,
            estimates=run,
            theory_checks=sum(entry["phase"] == "search" for entry in self.log),
            report=report,
            detector_calls=len(self.log),
            certificates=list(certificates),
            wall_time=time.perf_counter() - self.start,
            trace=self.log,
        )


def _attack_bound(model: SystemModel, cfg: DetectorConfig) -> int:
    k = cfg.k
    if k is None or not 0 <= k < model.p:
        raise ConfigError(f"search needs DetectorConfig.k in [0, p), got k={k}, p={model.p}")
    return k


def _default_detector(
    model: SystemModel, traj: Trajectory, cfg: DetectorConfig
) -> Detector:
    return SubsetBank(model, cfg).detector(traj)


def exhaustive_search(
    model: SystemModel,
    traj: Trajectory,
    cfg: DetectorConfig,
    detector: Detector | None = None,
) -> SearchOutcome:
    """Test all (p choose p-k) subsets, k = ``cfg.k``, in lexicographic
    order and return the first one the detector clears."""
    k = _attack_bound(model, cfg)
    det = _CountingDetector(detector or _default_detector(model, traj, cfg))
    for s in combinations(range(1, model.p + 1), model.p - k):
        flag, run, report = det(s)
        if flag == 0:
            return det.outcome(s, run, report)
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
    det = _CountingDetector(detector or _default_detector(model, traj, cfg))
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
            return det.outcome(certificates=certificates)
        hypothesis = tuple(i for i in range(1, p + 1) if not assignment[i - 1])
        flag, run, report = det(hypothesis)
        if flag == 0:
            return det.outcome(hypothesis, run, report, certificates)
        certs = generate_certificate(model, report, cfg, partial(det, phase="certificate"))
        certificates.extend(certs)
        formula = formula.with_constraints(certs)
    raise AnalysisError("guided search exceeded its iteration bound")


def generate_certificate(
    model: SystemModel,
    report: ResidueReport,
    cfg: DetectorConfig,
    detector: Detector,
) -> list[PBConstraint]:
    """Certificates explaining why the subset of ``report`` failed the
    residue test, probing shrunken subsets with ``detector``.

    Always starts with the full-subset certificate (excluding the current
    hypothesis), then repeatedly drops the sensor with the lowest
    residue score and re-runs the detector: every shrunken subset that
    still fails yields a sharper certificate.  Stops at the first
    passing subset, when the drop list is exhausted, or when the
    shrunken subset can no longer support a threshold.  The residue
    scores are the report's ``per_sensor_mu``.
    """
    k = _attack_bound(model, cfg)
    subset = normalize_subset(report.subset, model.p)
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
        if cfg.eta is None and len(shrunk) <= k:
            break  # auto threshold undefined below k+1 sensors
        try:
            flag, _, _ = detector(shrunk)
        except AnalysisError:
            break  # shrunken subset lost observability; stop shrinking
        if flag == 1:
            certs.append(at_least(shrunk, 1))
        else:
            break
    return certs
