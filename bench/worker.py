"""One benchmark worker: set-up, then the timed or the traced phase.

``run.py`` starts it as a fresh interpreter:

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

It prints ``ready`` once the first job can start (set-up: import, input
generation, golden load), and at the end one JSON line with attempted,
failed, metrics and info.  With --setup-only it stops after ``ready``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import statistics
import sys
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import golden  # noqa: E402
import workloads  # noqa: E402

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# Highest percentile a workload's tail may use.  A fixed cap keeps the tail
# comparable when a run plays one round more or less.  For genus-pairs it
# sits below the dimension-4 sixth of a round, whose slots rotate.
TAIL_CAP = {"genus-pairs": 75.0, "fpd-rigidity": 90.0, "small-jobs": 95.0}
# Seconds one traced round takes (it plays every job twice).  A traced run
# plays round(--seconds / this) rounds, so its counts depend on the seed
# and --seconds only.
TRACE_ROUND_S = {"genus-pairs": 15.0, "fpd-rigidity": 19.0, "small-jobs": 0.55}

# The reference clock.  The speed of a shared machine drifts by 10-30 %
# over seconds, for every process alike.  A fixed stdlib kernel, run between
# jobs, measures that speed; times are reported in reference seconds, the
# wall time multiplied by REF_NOMINAL_S over the kernel's current duration.
# No change to the program can alter the kernel.
REF_NOMINAL_S = 0.02      # a kernel call lasts this long at reference speed
REF_EVERY_S = 0.15        # job time between two kernel calls
REF_WINDOW_S = 1.0        # kernel calls within this of a job calibrate it
REF_MIN_SAMPLES = 5


# ---------------------------------------------------------------------------
# reference clock
# ---------------------------------------------------------------------------

def reference_kernel():
    """Wall time of a fixed piece of rational, integer and dict work like
    the program's own, with the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        x = Fraction(1, 3)
        acc = {}
        for i in range(1, 1600):
            x = x * Fraction(i, i + 1) + Fraction(1, i)
            key = (i % 17, i % 5)
            acc[key] = acc.get(key, 0) + x.numerator.bit_length()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class ReferenceClock:
    """Kernel samples taken during a phase, and the speed factor at a time."""

    def __init__(self):
        self.times = []
        self.samples = []
        self.next_at = 0.0

    def maybe_sample(self):
        now = time.perf_counter()
        if now >= self.next_at:
            self.sample()
            self.next_at = time.perf_counter() + REF_EVERY_S

    def sample(self):
        self.times.append(time.perf_counter())
        self.samples.append(reference_kernel())

    def factor(self, at=None):
        """REF_NOMINAL_S over the mean kernel time near ``at`` (or over the
        whole phase): multiply a wall time by it to get reference seconds."""
        if at is None:
            near = self.samples
        else:
            lo = bisect.bisect_left(self.times, at - REF_WINDOW_S)
            hi = bisect.bisect_right(self.times, at + REF_WINDOW_S)
            if hi - lo < REF_MIN_SAMPLES:
                i = bisect.bisect_left(self.times, at)
                lo = max(0, min(i - REF_MIN_SAMPLES // 2,
                                len(self.times) - REF_MIN_SAMPLES))
                hi = lo + REF_MIN_SAMPLES
            near = self.samples[lo:hi]
        return REF_NOMINAL_S * len(near) / sum(near)


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

def percentile(values, pct):
    """Kernel-smoothed percentile: the mean of the sorted values weighted by
    a triangle of half-width min(5, (100 - pct) / 2) percentile points
    around ``pct``.  Averaging the neighbouring ranks keeps one job that
    moves up or down a rank from moving the result."""
    ordered = sorted(values)
    n = len(ordered)
    width = min(5.0, (100.0 - pct) / 2)
    total = weight = 0.0
    for i, x in enumerate(ordered):
        w = 1.0 - abs(100.0 * (i + 0.5) / n - pct) / width
        if w > 0:
            total += w * x
            weight += w
    if not weight:  # too few values for the band: nearest rank
        return ordered[max(1, math.ceil(pct / 100.0 * n)) - 1]
    return total / weight


def tail(durations, cap=TAIL_LADDER[-1]):
    """(percentile, value): the highest ladder percentile up to ``cap`` with
    at least ten jobs beyond it, and its smoothed value."""
    n = len(durations)
    pct = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if p <= cap and n * (100.0 - p) / 100.0 >= 10:
            pct = p
    return pct, percentile(durations, pct)


def peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Plays jobs through main() and checks them against the golden file."""

    def __init__(self, workload, seed):
        self.cli = golden.import_cli()
        self.directory = golden.make_workdir()
        self.rounds = workloads.Rounds(workload, seed)
        self.golden = golden.Golden.load(workload)
        self.attempted = 0
        self.failed = 0

    def close(self):
        golden.remove_workdir(self.directory)

    def play(self, argv):
        """Run one job: (seconds, result or None when it raised)."""
        resolved = workloads.resolve(argv, self.directory)
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = golden.call_main(self.cli.main, resolved)
        except Exception as exc:  # a raising job is a failed job
            print("job %r raised %r" % (argv, exc), file=sys.stderr)
            result = None
        seconds = time.perf_counter() - start
        if result is None or not self.golden.matches(argv, result,
                                                     self.directory):
            self.failed += 1
            if result is not None:
                print("job %r differs from the golden file" % (argv,),
                      file=sys.stderr)
        return seconds, result


def timed_phase(runner, seconds):
    clock = ReferenceClock()
    jobs = []  # (start, seconds in main, seconds of the whole loop step)
    begin = time.perf_counter()
    r = 0
    elapsed = 0.0
    # play whole rounds, stopping at the round boundary nearest to seconds
    while r == 0 or elapsed + elapsed / r / 2 < seconds:
        for argv in runner.rounds.round(r):
            clock.maybe_sample()
            start = time.perf_counter()
            main_s = runner.play(argv)[0]
            jobs.append((start, main_s, time.perf_counter() - start))
        r += 1
        elapsed = time.perf_counter() - begin
    clock.sample()
    factors = [clock.factor(start) for start, _m, _s in jobs]
    durations = [m * f for (_t, m, _s), f in zip(jobs, factors)]
    busy = sum(step * f for (_t, _m, step), f in zip(jobs, factors))
    pct, tail_s = tail(durations, TAIL_CAP[runner.rounds.workload])
    metrics = {
        "job_p50_s": percentile(durations, 50.0),
        "job_tail_s": tail_s,
        "jobs_per_s": len(jobs) / busy,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {"tail_percentile": pct, "jobs": len(jobs), "rounds": r,
            "wall_s": elapsed, "speed": clock.factor(),
            "wall_job_p50_s": statistics.median(m for _t, m, _s in jobs),
            "wall_jobs_per_s": len(jobs) / sum(s for _t, _m, s in jobs)}
    return metrics, info


def traced_phase(runner, seconds):
    import spans

    tracer = spans.Tracer()
    rounds = max(1, round(seconds / TRACE_ROUND_S[runner.rounds.workload]))
    plain_s = traced_s = 0.0
    jobs = 0
    for r in range(rounds):
        for argv in runner.rounds.round(r):
            dt_plain, plain = runner.play(argv)
            tracer.begin_job(jobs)
            with tracer:
                dt_traced, traced = runner.play(argv)
            tracer.end_job()
            if plain != traced:
                runner.failed += 1
                print("job %r: traced output differs" % (argv,),
                      file=sys.stderr)
            plain_s += dt_plain
            traced_s += dt_traced
            jobs += 1
    metrics = tracer.metrics()
    metrics["trace.jobs_per_s"] = jobs / traced_s
    metrics["trace.untraced_jobs_per_s"] = jobs / plain_s
    metrics["trace.overhead"] = traced_s / plain_s
    top = sorted(tracer.self_by_name.items(), key=lambda kv: -kv[1])[:8]
    info = {"traced_rounds": rounds, "jobs": jobs,
            "top_self_s": [[name, self_s, tracer.calls_by_name[name]]
                           for name, self_s in top]}
    return metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="One benchmark worker; started by run.py.")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    runner = Runner(args.workload, args.seed)
    try:
        print("ready", flush=True)
        if args.setup_only:
            return 0
        phase = traced_phase if args.trace else timed_phase
        metrics, info = phase(runner, args.seconds)
        print(json.dumps({"attempted": runner.attempted,
                          "failed": runner.failed, "metrics": metrics,
                          "info": info}), flush=True)
        return 0
    finally:
        runner.close()


if __name__ == "__main__":
    sys.exit(main())
