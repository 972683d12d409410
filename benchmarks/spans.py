"""Span recording around secest's public functions, installed from outside.

``Tracer.install`` replaces each traced function at every lookup site: in
its defining module, in the package namespace and in every module that
imported it by name (``detect``, ``search`` and ``cli`` bind
``solve_steady_state``, ``attack_detect`` and others that way, so patching
only the defining module would miss their nested calls).  Spans are kept
in memory as (op, name, start, end, parent) and written out at the end of
the run.  A span's self time is its duration minus the time covered by
its child spans; no traced function calls itself, so busy time is the
plain sum of span durations.

The tracer also keeps the counters that are cheaper to take at the call
boundary than to reconstruct: filter steps, repeated Riccati solves,
residue-test outcomes and search check counts.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import sys
import time
from collections import Counter, defaultdict

# Traced functions per secest module, in report order.
TRACED = {
    "model": ("simulate",),
    "observability": (
        "observability_matrix",
        "noise_structure",
        "is_observable",
        "sparse_observability_index",
    ),
    "kalman": ("solve_steady_state", "run_filter", "cross_covariance_correction"),
    "detect": ("attack_detect", "residue_report", "expected_residue_matrix"),
    "pbsat": ("solve",),
    "search": ("exhaustive_search", "smt_search", "generate_certificate"),
    "noiseless": ("encode", "decode", "detect_corruption"),
    "cli": ("run_scenario", "run_experiment2"),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# name -> (unit, better) for every per-layer metric, in report order.
LAYER_METRICS: dict[str, tuple[str, str]] = {}
for _fn in FUNCTIONS:
    LAYER_METRICS[f"{_fn}.calls"] = ("calls/op", "lower")
    LAYER_METRICS[f"{_fn}.busy_s"] = ("s/op", "lower")
    LAYER_METRICS[f"{_fn}.self_s"] = ("s/op", "lower")
LAYER_METRICS.update(
    {
        "kalman.filter_steps": ("steps/op", "lower"),
        "kalman.solve_steady_state.repeat_ratio": ("ratio", "lower"),
        "detect.pass_ratio": ("ratio", "higher"),
        "search.hypothesis_checks": ("checks/op", "lower"),
        "search.certificate_checks": ("checks/op", "lower"),
        "search.certificates": ("certs/op", "lower"),
    }
)


def _model_key(model) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(model.A.tobytes())
    h.update(model.C.tobytes())
    h.update(repr((model.sigma_w2, model.sigma_v2)).encode())
    return h.digest()


class Tracer:
    """Collects spans and counters while installed; see module docstring."""

    def __init__(self):
        self.op = -1  # index of the op in progress; -1 before the first
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._solved: set[tuple] = set()
        self.count = Counter()
        self._observers = {
            "kalman.solve_steady_state": self._on_solve,
            "kalman.run_filter": self._on_run_filter,
            "detect.residue_report": self._on_residue_report,
            "search.exhaustive_search": self._on_search,
            "search.smt_search": self._on_search,
        }

    # -- counters ---------------------------------------------------------

    def _on_solve(self, args, kwargs, flt):
        model = args[0] if args else kwargs["model"]
        key = (_model_key(model), flt.subset, flt.mode)
        self.count["solves"] += 1
        if key in self._solved:
            self.count["repeat_solves"] += 1
        self._solved.add(key)

    def _on_run_filter(self, args, kwargs, run):
        self.count["filter_steps"] += run.t_end + 1

    def _on_residue_report(self, args, kwargs, report):
        self.count["residue_tests"] += 1
        self.count["residue_passes"] += int(report.passed)

    def _on_search(self, args, kwargs, outcome):
        self.count["hypothesis_checks"] += outcome.theory_checks
        self.count["certificate_checks"] += outcome.detector_calls - outcome.theory_checks
        self.count["certificates"] += len(outcome.certificates)

    # -- installation -----------------------------------------------------

    def _wrap(self, name, fn):
        observer = self._observers.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self.op, name, start, end, parent)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "secest" or key.startswith("secest."))
        ]
        for mod_name, fns in TRACED.items():
            home = sys.modules[f"secest.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapped = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr in [a for a, v in vars(module).items() if v is original]:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- summaries --------------------------------------------------------
    # Summaries run after the measured calls returned, so every span is closed.

    def _busy_self_calls(self):
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for sid, (_, name, start, end, _) in enumerate(self.spans):
            busy[name] += end - start
            own[name] += end - start - child[sid]
            calls[name] += 1
        return busy, own, calls

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Every per-layer metric, per op where the unit says so."""
        busy, own, calls = self._busy_self_calls()
        per = 1.0 / max(ops, 1)
        out: dict[str, float] = {}
        for fn in FUNCTIONS:
            out[f"{fn}.calls"] = calls[fn] * per
            out[f"{fn}.busy_s"] = busy[fn] * per
            out[f"{fn}.self_s"] = own[fn] * per
        c = self.count
        out["kalman.filter_steps"] = c["filter_steps"] * per
        out["kalman.solve_steady_state.repeat_ratio"] = c["repeat_solves"] / max(c["solves"], 1)
        out["detect.pass_ratio"] = c["residue_passes"] / max(c["residue_tests"], 1)
        out["search.hypothesis_checks"] = c["hypothesis_checks"] * per
        out["search.certificate_checks"] = c["certificate_checks"] * per
        out["search.certificates"] = c["certificates"] * per
        return out

    def top_self(self, count: int = 3) -> list[tuple[str, float]]:
        """The traced functions with the most self time, as (name, seconds)."""
        _, own, _ = self._busy_self_calls()
        return sorted(own.items(), key=lambda kv: -kv[1])[:count]

    def write(self, path: str) -> None:
        """Write every span as CSV, times in seconds from the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "op", "parent", "name", "start_s", "end_s"])
            for sid, (op, name, start, end, parent) in enumerate(self.spans):
                writer.writerow(
                    [sid, op, parent, name, f"{start - origin:.9f}", f"{end - origin:.9f}"]
                )
