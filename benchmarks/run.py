#!/usr/bin/env python3
"""secest benchmark: closed-loop timing of four workloads, with a traced mode.

Run from the root of a secest checkout (the program is imported from
``src/``, never from an installed copy):

    python3 benchmarks/run.py --workload exp1_sweep --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py            # every workload, untraced then traced

One workload run prints machine facts and every metric as ``metric <name>
<value> <unit>`` lines; its last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
Results and, for traced runs, every span are also written to
``benchmarks/out/``.  Workloads, metrics and the layer-to-metric mapping
are described in README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# One BLAS thread: ops are small dense matrices behind a single client,
# and a fixed count keeps runs comparable.  Must be set before numpy loads.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 9
DEFAULT_SEED = 1
DEFAULT_SECONDS = 25

# name -> (unit, better); the set gated in BENCHMARK.json, printed with --trace 0.
# Their times are nominal seconds: CPU seconds of this process rescaled by
# the reference kernels sampled in the same minutes (reference.py).  On a
# shared host wall and CPU seconds drift by a third from one minute to the
# next; nominal seconds do not.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_norm_s_p50": ("s", "lower"),
    "subset_tests_per_norm_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
# name -> unit; printed as metric lines only: wall and CPU seconds (too
# noisy on a shared host to gate), numbers that do not apply to every
# workload (search medians) or that are 0 on a healthy run (error_rate).
REPORT_ONLY = {
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "subset_tests_per_s": "1/s",
    "op_cpu_s_p50": "s",
    "subset_tests_per_cpu_s": "1/s",
    "ref_scale": "ratio",
    "exhaustive_s_p50": "s",
    "guided_s_p50": "s",
    "error_rate": "ratio",
    "ops": "count",
}


def _pin_environment() -> str | None:
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # Repetition parallelism stays off; the value found is recorded.
    return os.environ.pop("SECEST_THREADS", None)


def _import_secest():
    if not os.path.isfile(os.path.join(SRC, "secest", "__init__.py")):
        sys.exit(f"error: no secest package under {SRC}; run from a secest checkout")
    sys.path.insert(0, SRC)
    import secest

    if not os.path.abspath(secest.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported secest from {secest.__file__}, not from {SRC}")


def machine_facts(secest_threads: str | None) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "secest_threads": secest_threads if secest_threads is not None else "unset",
    }


def measure_setup(workload, seed: int, size: str):
    """Median CPU time of importing secest in a fresh interpreter plus
    median CPU time of workload generation, each over SETUP_REPEATS tries
    and in nominal seconds.  Tries are short, so the reference kernels are
    sampled after each for as long as the try took."""
    from reference import Reference

    ref = Reference(dense_share=0.0)  # importing is interpreter work
    ref.sample()
    code = "import time; t = time.process_time(); import secest; print(time.process_time() - t)"
    env = dict(os.environ, PYTHONPATH=SRC)
    imports, generation = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-s", "-c", code],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        cpu_s = float(done.stdout.split()[-1])
        ref.sample(cpu_s)
        imports.append(ref.nominal(cpu_s, len(ref.gaps) - 2))
    for _ in range(SETUP_REPEATS):
        t0 = time.process_time()
        prepared = workload.prepare(seed, size)
        cpu_s = time.process_time() - t0
        ref.sample(cpu_s)
        generation.append(ref.nominal(cpu_s, len(ref.gaps) - 2))
    return statistics.median(imports) + statistics.median(generation), prepared


def run_workload(args, secest_threads: str | None) -> int:
    import spans
    from workloads import WORKLOADS, summarize

    workload = WORKLOADS[args.workload]
    facts = machine_facts(secest_threads)
    setup_s, prepared = measure_setup(workload, args.seed, args.size)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        measurement = workload.measure(prepared, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    summary = summarize(measurement)
    summary["setup_s"] = setup_s
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = [p for op in measurement.ops for p in op.problems]

    for name, value in facts.items():
        print(f"fact {name} {value}")
    suffix = "_traced" if args.trace else ""
    for name, unit in {**{n: u for n, (u, _) in END_TO_END.items()}, **REPORT_ONLY}.items():
        value = summary[name]
        shown = "n/a" if value is None else repr(value)
        print(f"metric {name}{suffix} {shown} {unit}")
    if tracer is not None:
        layers = tracer.layer_metrics(summary["ops"])
        for name, (unit, _) in spans.LAYER_METRICS.items():
            print(f"layer {name} {layers[name]!r} {unit}")
        for rank, (name, own) in enumerate(tracer.top_self(), 1):
            share = own / measurement.wall_s
            print(f"top_self {rank} {name} {own / max(summary['ops'], 1)!r} s/op {share:.1%}")
    for problem in problems[:5]:
        print(f"problem {problem.strip()}", file=sys.stderr)

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "facts": facts,
        "metrics": summary,
        "problems": problems[:20],
        "op_cpu_s": [op.cpu_s for op in measurement.ops],
        "op_s": [op.seconds for op in measurement.ops],
        "op_norm_s": [op.norm_s for op in measurement.ops],
    }
    if tracer is not None:
        record["layers"] = layers
        tracer.write(os.path.join(OUT, f"spans-{tag}.csv"))
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if tracer is not None:
        metrics = {n: {"value": layers[n], "unit": u} for n, (u, _) in spans.LAYER_METRICS.items()}
    else:
        metrics = {n: {"value": summary[n], "unit": u} for n, (u, _) in END_TO_END.items()}
    print(
        json.dumps(
            {
                "correct": summary["failed"] == 0,
                "attempted": summary["ops"],
                "failed": summary["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    from workloads import WORKLOADS

    summary: dict[str, dict] = {}
    correct = True
    for name in WORKLOADS:
        entry: dict = {}
        for trace in (0, 1):
            cmd = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--size", args.size,
            ]
            done = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=4 * args.seconds + 300
            )
            sys.stderr.write(done.stderr)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                print(f"error: {name} --trace {trace} exited {done.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            for line in lines[:-1]:
                kind, _, rest = line.partition(" ")
                if kind == "fact":
                    if not summary and trace == 0:
                        print(line)
                elif kind in ("metric", "layer", "top_self"):
                    print(f"{kind} {name} {rest}")
                    if kind == "metric":
                        key, value, _unit = rest.split(" ", 2)
                        if value != "n/a":
                            entry[key] = float(value)
        overhead = entry["op_s_p50_traced"] - entry["op_s_p50"]
        print(f"metric {name} tracing_overhead_s {overhead!r} s")
        entry["tracing_overhead_s"] = overhead
        summary[name] = entry
    print(json.dumps({"correct": correct, "workloads": summary}))
    return 0


def main(argv=None) -> int:
    secest_threads = _pin_environment()
    _import_secest()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "toy"), default="default")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, secest_threads)


if __name__ == "__main__":
    sys.exit(main())
