"""solfold benchmark: end-to-end and per-layer numbers for three workloads.

    python3 perfbench/run.py --workload {verify-all,limit-set,lattice} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a solfold checkout; it imports solfold from ./src
and leaves no file behind but solfold's bytecode cache.

Workloads (inputs come from --seed; load is one closed-loop client: the next
op starts when the previous one returns):

- verify-all: `solfold verify --suite all --samples 500 --seed seed*1000+i`
  through solfold.cli.main.  Check: exit code 0, and the run's first seed
  reruns byte-identically.
- limit-set: `solfold export limit-set --A A --N 8`, then
  general_position_max on the lines read back, A alternating between 2,1,1,1
  and 3,2,1,1.  Check: per-family line weights equal the exact oracle, no
  limit points, no nonconverged words, general position 4.  The traced run
  also exports 3,2,1,1 at N = 10 once, after its loop, and reports its line
  count over the exact one as limit_set.n10_lines_ratio (below 1 while the
  float dedupe merges lines there).
- lattice: box hits in the radius-20 word ball, 100 fundamental-domain
  reductions checked against the same points moved by a radius-2 word, and
  one conjugacy test between same-trace matrices.  Check: hits equal the
  benchmark's own enumeration, representatives lie in the domain and agree,
  "found" carries a valid integer certificate, "refuted" survives a
  brute-force search.

With --trace 0, W worker processes run one after another (W = 3 for
limit-set, 6 otherwise); each times its own set-up (import solfold, build
inputs, one warm-up op) and then runs ops for S/W seconds.

This machine's speed drifts by a third within seconds and by more over
minutes, so wall-clock medians of two runs can differ by half.  While the
warm-up op and every timed op run, worker.SpeedProbe times a slice of a
fixed reference computation every 10 ms.  Each time metric of the result is
the wall time, less those slices, scaled to the reference speed: multiplied
by worker.NOMINAL_SLICE_S over the mean slice time measured during it.  The
result line holds:

- setup_s: median of the W set-up times;
- op_p50_s: median op time;
- ops_per_s: median over workers of ops per second of op time;
- peak_rss_mb: median of the workers' ru_maxrss.

The table above it also gives failed_frac, the unscaled wall-clock figures
(setup_wall_s, op_p50_wall_s, ops_per_wall_s), the median slice time
ref_slice_s, and op_p90_s / op_p90_wall_s when the run holds at least 100
ops.  With --trace 1 one worker runs for S seconds, each op untraced and then
traced on the same inputs; the result holds the per-layer metrics of
tracing.LAYER_METRICS, whose times are wall-clock.

Worker processes run with OMP/OPENBLAS/MKL_NUM_THREADS=1.  The last line of
stdout is the JSON result; the first names the machine and the Python and
numpy versions.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEADLINE_S = 170.0
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# the end-to-end metrics of the result line, as BENCHMARK.json lists them
END_TO_END = ["setup_s", "op_p50_s", "ops_per_s", "peak_rss_mb"]


def at_reference(seconds: float, slice_s: float) -> float:
    """A duration measured while the reference slice took slice_s, in
    seconds at the reference speed."""
    return seconds * worker.NOMINAL_SLICE_S / slice_s


def run_workers(args, work: str, started: float) -> list:
    env = dict(os.environ, PYTHONPATH=SRC, **{v: "1" for v in THREADS})
    workload = workloads.WORKLOADS[args.workload]
    data = workload.oracle_data()
    count = 1 if args.trace else workload.workers
    results = []
    for j in range(count):
        wdir = os.path.join(work, f"w{j}")
        os.mkdir(wdir)
        plan = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "budget_s": args.seconds / count, "first_op": j * 10000,
                "final_check": j == 0, "workdir": wdir, "src": SRC,
                "oracle": data, "result": os.path.join(wdir, "result.json")}
        plan_path = os.path.join(wdir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        remaining = DEADLINE_S - (time.monotonic() - started)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), plan_path],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(remaining, 1.0))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {j} exited {proc.returncode}")
        with open(plan["result"], encoding="utf-8") as fh:
            results.append(json.load(fh))
    return results


def machine(results: list) -> dict:
    return {"machine": platform.machine(), "system": platform.system(),
            "release": platform.release(), "processor": platform.processor(),
            "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            **results[0]["env"]}


def summarize(args, results: list):
    """(every metric of the run as name -> (value, unit), the result line)."""
    pairs = [p for r in results for p in r["times"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    table = {"failed_frac": (failed / attempted if attempted else 1.0, "ratio")}
    if args.trace:
        table.update((name, (results[0]["layers"][name], unit))
                     for name, unit in tracing.LAYER_METRICS)
        gated = [name for name, _ in tracing.LAYER_METRICS]
    else:
        wall = [t for t, _ in pairs]
        scaled = [at_reference(*p) for p in pairs]

        def per_worker_rate(scale):
            return statistics.median(len(r["times"]) / sum(scale(*p) for p in r["times"])
                                     for r in results)

        table.update({
            "setup_s": (statistics.median(at_reference(*r["setup"]) for r in results), "s"),
            "op_p50_s": (statistics.median(scaled), "s"),
            "ops_per_s": (per_worker_rate(at_reference), "1/s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
            "setup_wall_s": (statistics.median(r["setup"][0] for r in results), "s"),
            "op_p50_wall_s": (statistics.median(wall), "s"),
            "ops_per_wall_s": (per_worker_rate(lambda t, s: t), "1/s"),
            "ref_slice_s": (statistics.median(s for _, s in pairs), "s"),
        })
        if len(wall) >= 100:
            table["op_p90_s"] = (statistics.quantiles(scaled, n=10)[-1], "s")
            table["op_p90_wall_s"] = (statistics.quantiles(wall, n=10)[-1], "s")
        gated = END_TO_END
    result = {"correct": attempted > 0 and failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": table[name][0], "unit": table[name][1]}
                          for name in gated}}
    return table, result


def main(argv=None) -> int:
    started = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "solfold", "__init__.py")):
        print(f"perfbench: no solfold sources under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(os.path.join(SRC, "solfold"), quiet=1):
        print("perfbench: solfold sources do not compile", file=sys.stderr)
        return 2
    for v in THREADS:
        os.environ[v] = "1"
    # SIGTERM raises, so subprocess.run kills and waits for the running worker
    # and the work directory is removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        results = run_workers(args, work, started)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    table, result = summarize(args, results)
    failures = {}
    for r in results:
        for reason, n in r["failures"].items():
            failures[reason] = failures.get(reason, 0) + n
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "ops": sum(len(r["times"]) for r in results),
                      "env": machine(results), "failures": failures}, sort_keys=True))
    for name, (value, unit) in table.items():
        print(f"  {name:<56} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
