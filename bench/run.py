"""Seeded closed-loop benchmark of the toricgenera command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S [--trace 0|1]

One client runs one ``toricgenera.cli.main(argv)`` job at a time in a fresh
worker interpreter (worker.py), with no extra threads.  Jobs come in
balanced rounds drawn from the seed (see workloads.py); the worker plays
whole rounds for about ``--seconds`` and checks every job's exit code,
stdout and stderr against the golden file (see golden.py).

With ``--trace 0`` it reports the end-to-end metrics: job_p50_s,
job_tail_s, jobs_per_s, peak_rss_mb, and setup_s, the median over several
fresh workers of the time from spawn to the first job being ready (import,
input generation, golden load).  Times are in reference seconds (see
worker.ReferenceClock).  With ``--trace 1`` it plays a fixed number of
rounds, each job once untraced and once traced (see spans.py), and reports
the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it name every metric with
its unit, plus fail_ratio, the tail percentile and its sample count, the
Python version, the git SHA and nproc.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import golden  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from worker import ReferenceClock  # noqa: E402

SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 170.0
E2E_UNITS = {"job_p50_s": "s", "job_tail_s": "s", "jobs_per_s": "1/s",
             "setup_s": "s", "peak_rss_mb": "MB"}


def _read_line(proc, deadline):
    remaining = deadline - time.perf_counter()
    if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
        raise TimeoutError("worker did not answer in time")
    return proc.stdout.readline().decode("utf-8")


def spawn(args, setup_only):
    """Start one worker; returns (set-up seconds, parsed result or None)."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    deadline = start + WORKER_TIMEOUT_S
    # unbuffered, so that readline never takes more than one line off the
    # pipe and select() sees every line still to be read
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, cwd=ROOT)
    try:
        if _read_line(proc, deadline).strip() != "ready":
            raise RuntimeError("worker failed during set-up")
        setup_s = time.perf_counter() - start
        result = None
        if not setup_only:
            line = _read_line(proc, deadline)
            if not line:
                raise RuntimeError("worker ended without a result")
            result = json.loads(line)
        if proc.wait(timeout=max(1.0, deadline - time.perf_counter())):
            raise RuntimeError("worker exited with %d" % proc.returncode)
        return setup_s, result
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def git_sha():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(args):
    """Run one workload; returns the final result object."""
    if args.trace:
        _setup, result = spawn(args, setup_only=False)
        units = dict(spans.metric_units())
        units.update({"trace.jobs_per_s": "1/s",
                      "trace.untraced_jobs_per_s": "1/s",
                      "trace.overhead": "ratio"})
    else:
        # set-ups are calibrated by the kernel calls between them; the last
        # worker also plays the timed phase
        clock = ReferenceClock()
        walls = []
        for i in range(SETUP_SAMPLES):
            clock.sample()
            clock.sample()
            wall, result = spawn(args, setup_only=i < SETUP_SAMPLES - 1)
            walls.append(wall)
        result["metrics"]["setup_s"] = statistics.median(walls) * \
            clock.factor()
        result["info"]["wall_setup_s"] = statistics.median(walls)
        units = E2E_UNITS
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics, "info": result["info"]}


def describe(workload, out):
    info = out["info"]
    lines = ["workload %s: %d jobs attempted, %d failed, fail_ratio %.6f"
             % (workload, out["attempted"], out["failed"],
                out["failed"] / out["attempted"])]
    for name, m in sorted(out["metrics"].items()):
        lines.append("  %-42s %14.6g %s" % (name, m["value"], m["unit"]))
    if "tail_percentile" in info:
        lines.append("  job_tail_s is p%g of %d jobs (%d rounds, %.2f s)"
                     % (info["tail_percentile"], info["jobs"], info["rounds"],
                        info["wall_s"]))
        lines.append("  times are reference seconds; machine speed %.3f x "
                     "reference; in wall time job_p50_s %.6g s, jobs_per_s "
                     "%.6g 1/s, setup_s %.6g s"
                     % (info["speed"], info["wall_job_p50_s"],
                        info["wall_jobs_per_s"], info["wall_setup_s"]))
    else:
        lines.append("  traced %d rounds, %d jobs; tracing overhead %.2fx"
                     % (info["traced_rounds"], info["jobs"],
                        out["metrics"]["trace.overhead"]["value"]))
        lines.append("  largest self times:")
        for name, self_s, calls in info["top_self_s"]:
            lines.append("    %-48s %10.4f s %9d calls" % (name, self_s, calls))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Seeded benchmark of the toricgenera CLI.")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    missing = [p for p in [os.path.join(golden.SRC, "toricgenera")] +
               [golden.golden_path(w) for w in names]
               if not os.path.exists(p)]
    if missing:
        print("error: the checkout lacks %s" % ", ".join(missing),
              file=sys.stderr)
        return 2
    print("python %s, git %s, nproc %d" % (
        platform.python_version(), git_sha(), os.cpu_count() or 0))
    results = {}
    for workload in names:
        out = run_workload(argparse.Namespace(**{**vars(args),
                                                 "workload": workload}))
        results[workload] = out
        for line in describe(workload, out):
            print(line)
    if args.workload == "all":
        final = {
            "correct": all(o["correct"] for o in results.values()),
            "attempted": sum(o["attempted"] for o in results.values()),
            "failed": sum(o["failed"] for o in results.values()),
            "metrics": {"%s.%s" % (w, name): m for w, o in results.items()
                        for name, m in o["metrics"].items()},
        }
    else:
        out = results[args.workload]
        final = {key: out[key] for key in
                 ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, TimeoutError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        sys.exit(3)
