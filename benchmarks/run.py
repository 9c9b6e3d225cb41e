"""Run one benchmark workload against the l0kit sources and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports l0kit from ``src/``. With
``--trace 0`` it measures untraced for S seconds and reports the end-to-end
metrics. With ``--trace 1`` it runs a fixed plan of solves twice on the same
inputs, untraced and then traced, and reports the per-layer metrics and the
tracing overhead. Stdout carries the metrics with their units and the
environment record; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, where ``metrics``
holds the end_to_end (or per_layer) metrics named in BENCHMARK.json. The full
report, and the spans of a traced run, go to ``benchmarks/out/``. The exit
code is 1 when a solve fails the correctness gate and 2 when the sources are
missing.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# BLAS threads per process. One client runs one solve at a time, and a single
# thread keeps timings steady on a small shared machine.
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_cap": THREAD_CAP,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "load": "closed loop, one client",
    }


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "l0kit" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: run from a full checkout; {src / 'l0kit'} or BENCHMARK.json is missing",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:   # before numpy loads its BLAS
        os.environ[var] = str(THREAD_CAP)
    sys.path[:0] = [str(src), str(HERE)]
    import l0kit
    if not Path(l0kit.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: l0kit imported from {l0kit.__file__}, not {src}", file=sys.stderr)
        return 2
    import numpy as np
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)

    if args.trace:
        tracer, plain, traced = workloads.run_traced(workload, args.seed, args.seconds)
        measured = {k: {"value": v, "unit": tracing.LAYER_METRICS[k]}
                    for k, v in tracer.layer_metrics().items()}
        untraced_p50 = float(np.median(plain.solve_s))
        traced_p50 = float(np.median(traced.solve_s))
        measured["trace.overhead_s"] = {"value": traced_p50 - untraced_p50, "unit": "s"}
        measured["trace.unaccounted_frac"] = {"value": tracer.unaccounted_frac(),
                                              "unit": "ratio"}
        phases = [plain, traced]
        names = [m["name"] for m in spec["per_layer"]]
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write_spans(spans_file)
        extra = {"solves_per_phase": traced.attempted, "untraced_solve_s_p50": untraced_p50,
                 "traced_solve_s_p50": traced_p50, "spans": len(tracer.spans),
                 "spans_file": str(spans_file.relative_to(ROOT))}
    else:
        outcome = workloads.run_timed(workload, args.seed, args.seconds)
        measured = outcome.end_to_end()
        phases = [outcome]
        names = [m["name"] for m in spec["end_to_end"]]
        extra = {"solve_s": outcome.solve_s, "setup_s": outcome.setup_s}

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    failures = [reason for p in phases for _, reason in p.failures]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "metrics": measured,
              "attempted": attempted, "failed": failed, "failures": failures[:20], **extra}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    for name, m in measured.items():
        note = f"  (p{m['percentile']:g} of {m['samples']} solves)" if "percentile" in m else ""
        print(f"{name:36s} {m['value']:.6g} {m['unit']}{note}")
    for reason in failures[:20]:
        print(f"FAILED: {reason}")
    print("environment " + json.dumps(env))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": measured[n]["value"], "unit": measured[n]["unit"]}
                                  for n in names}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
