"""One benchmark worker: a fresh Python process that times its own set-up.

    python3 perfbench/worker.py PLAN.json

set-up (setup_s) runs from the start of `import solfold` through building the
workload's inputs to the end of one untimed warm-up op.  Then ops run in a
closed loop, one at a time, until the plan's budget of wall time is spent;
each answer is checked after its op's clock stops.  A wrong answer or a
raised exception counts as a failed op and the loop goes on.  With trace on,
each step runs its ops untraced and then again traced on the same inputs,
and the two answers must be equal.  The result goes to PLAN.json's "result"
path as JSON.

The speed of a shared machine drifts by a third within seconds and by more
over minutes.  While the warm-up op and every timed op run, a SpeedProbe
times short slices of a fixed reference computation.  The result holds each
duration (less the slices) with the mean slice time measured during it, so
that run.py can scale it to the reference speed (NOMINAL_SLICE_S).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import Counter

import oracle
import tracing
import workloads


# The reference slice's time on the machine the figures are scaled to: a
# duration of d seconds measured while the slice took s seconds is reported
# as d * NOMINAL_SLICE_S / s ("seconds at reference speed").  This is about
# the slice's time on a 2-vCPU x86-64 VM with Python 3.11 and numpy 2.4.
NOMINAL_SLICE_S = 4.5e-4


class SpeedProbe:
    """Samples the machine's speed while an op runs.

    Every PERIOD seconds of wall time SIGALRM runs one slice of a fixed
    reference computation (Python float arithmetic and 2 x 2 numpy
    products, the mix solfold's ops are made of) and times it.  Used as
    `with probe:` around one op; afterwards `spent` holds the seconds the
    slices took and `slice_s` their mean.  When no slice fell inside the op,
    `slice_s` keeps the previous mean, or one slice is timed right after the
    first op (and counted in `spent`).
    """

    PERIOD = 0.01

    def __init__(self) -> None:
        import numpy as np

        self._P = np.array([[0.8, 0.3], [0.1, 0.9]])
        self._v = np.array([1.0, 2.0])
        self._samples: list = []
        self._busy = False
        self.spent = 0.0
        self.slice_s = None

    def _time_slice(self) -> float:
        start = time.perf_counter()
        s, v, P, absolute = 0.0, self._v, self._P, abs
        for i in range(100):
            s += (i * 0.5) ** 0.5
            v = P @ v
            v = v / absolute(v).max()
        return time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            try:
                self._samples.append(self._time_slice())
            finally:
                self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self._samples and self.slice_s is None:
            self._samples.append(self._time_slice())
        self.spent = sum(self._samples)
        if self._samples:
            self.slice_s = self.spent / len(self._samples)


def run(plan: dict) -> dict:
    clock = time.perf_counter
    t0 = clock()
    wl = workloads.WORKLOADS[plan["workload"]](plan)
    wl.setup()
    probe = SpeedProbe()
    op_id = plan["first_op"]
    with probe:
        wl.op(wl.prepare(op_id))
    setup = (clock() - t0 - probe.spent, probe.slice_s)

    import numpy
    import solfold
    src = os.path.realpath(plan["src"])
    if not os.path.realpath(solfold.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported solfold from {solfold.__file__}, not {src}")

    tracer = tracing.Tracer() if plan["trace"] else None
    times = {False: [], True: []}      # traced -> [(op seconds, slice seconds)]
    traced_ops = []
    bytes_out = {}
    reasons = Counter()
    failed = set()                     # (op id, traced)
    attempted = 0

    def fail(key, reason):
        failed.add(key)
        reasons[reason] += 1

    def attempt(inputs, oid, traced):
        nonlocal attempted
        attempted += 1
        if traced:
            tracer.op = oid
            tracer.install()
        start = clock()
        try:
            with probe:
                answer = wl.op(inputs, split=tracer is not None)
        except Exception as e:
            if not reasons:
                traceback.print_exc()
            fail((oid, traced), f"raised {type(e).__name__}: {e}")
            return None
        finally:
            elapsed = clock() - start - probe.spent
            if traced:
                tracer.uninstall()
            times[traced].append((elapsed, probe.slice_s))
        for e in wl.check(inputs, answer)[:1]:
            fail((oid, traced), e)
        return answer

    loop_start = clock()
    while clock() - loop_start < plan["budget_s"]:
        step = []
        for _ in range(wl.group):
            op_id += 1
            step.append((op_id, wl.prepare(op_id)))
        plain = [attempt(inputs, oid, False) for oid, inputs in step]
        if tracer is None:
            continue
        for (oid, inputs), a in zip(step, plain):
            b = attempt(inputs, oid, True)
            traced_ops.append(oid)
            if b is not None:
                bytes_out[oid] = wl.bytes_out(b)
            if a is not None and b is not None and not wl.same(a, b):
                fail((oid, True), "traced answer differs from the untraced one")
    if plan["final_check"]:
        for oid, e in wl.final_errors():
            fail((oid, False), e)

    result = {
        "setup": setup,
        "times": times[False],
        "attempted": attempted,
        "failed": len(failed),
        "failures": dict(reasons),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "solfold": getattr(solfold, "__version__", "?")},
    }
    if tracer is not None:
        tracer.require(wl.expected)
        counts = {}

        def exact_lines(A, n):
            if (A, n) not in counts:
                counts[(A, n)] = oracle.line_count(oracle.limit_summary(A, n))
            return counts[(A, n)]

        def p50(pairs):
            return statistics.median(t / ref for t, ref in pairs)

        overhead = p50(times[True]) / p50(times[False]) - 1.0
        result["layers"] = tracing.layer_metrics(tracer, traced_ops, bytes_out,
                                                 exact_lines, overhead)
        result["layers"].update(wl.probe_layers())
    return result


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    result = run(plan)
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
