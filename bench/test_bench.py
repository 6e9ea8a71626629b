"""Tests of the benchmark itself: golden check, tracing and generator."""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import golden  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def runner():
    r = worker.Runner("small-jobs", 3)
    yield r
    r.close()


def _originals():
    from toricgenera import algebra, cli, fgl, localize
    return {
        "cli.genus_value": cli.genus_value,
        "cli.cf_series": cli.cf_series,
        "cli.catalog": cli.catalog,
        "localize.weight_series": localize.weight_series,
        "fgl.weight_series": fgl.weight_series,
        "MultiSeries.__mul__": vars(algebra.MultiSeries)["__mul__"],
        "MultiSeries.__rmul__": vars(algebra.MultiSeries)["__rmul__"],
        "MultiSeries.zero": vars(algebra.MultiSeries)["zero"],
        "Poly.__mul__": vars(algebra.Poly)["__mul__"],
        "GenusSpec.logarithm": vars(fgl.GenusSpec)["logarithm"],
    }


def test_altered_output_counts_as_failure(runner):
    argv = ["genus", "--input", "builtin:cp2:eps=--", "--genus", "todd"]
    runner.play(argv)
    assert (runner.attempted, runner.failed) == (1, 0)
    code, out, err = runner.golden.expected[tuple(argv)]
    runner.golden.expected[tuple(argv)] = (code, out.replace("z", "y"), err)
    runner.play(argv)
    assert (runner.attempted, runner.failed) == (2, 1)
    runner.golden.expected[tuple(argv)] = (code + 1, out, err)
    runner.play(argv)
    assert runner.failed == 2


def test_raising_job_counts_as_failure(runner, monkeypatch):
    def boom(argv):
        raise RuntimeError("boom")
    monkeypatch.setattr(runner.cli, "main", boom)
    assert runner.play(["list-builtins"])[1] is None
    assert runner.failed == 1


def test_tracer_wraps_rebound_names_and_restores_them():
    before = _originals()
    jobs = [["check-cf", "--input", "{in}/cp2fp-flip1.json", "--genus",
             "hurewicz", "--order", "2"],
            ["phi", "--mode", "universal", "--input", "builtin:s6", "--genus",
             "signature", "--order", "2"]]
    tracer = spans.Tracer()
    traced = []
    runner = worker.Runner("fpd-rigidity", 1)
    try:
        for i, argv in enumerate(jobs):
            tracer.begin_job(i)
            with tracer:
                during = _originals()
                traced.append(runner.play(argv)[1])
            tracer.end_job()
            assert all(during[k] is not before[k] for k in before)
        assert _originals() == before
        plain = [runner.play(argv)[1] for argv in jobs]
    finally:
        runner.close()
    assert plain == traced
    assert runner.failed == 0
    m = tracer.metrics()
    assert m["stage.point_products.calls"] > 0
    assert m["stage.genus_build.calls"] > 0
    assert m["stage.cf_extract.calls"] > 0  # universal phi substitutes
    assert m["algebra.poly_mul.calls"] > 0
    assert m["cli.main.calls"] == 2
    assert m["algebra.divide_linear.not_divisible"] > 0  # flipped sign
    assert set(m) == {name for name, _unit in spans.metric_units()}


def test_traced_counts_repeat_for_a_seed():
    counts = []
    for _ in range(2):
        r = worker.Runner("small-jobs", 11)
        try:
            metrics, _info = worker.traced_phase(r, 1)
        finally:
            r.close()
        assert r.failed == 0
        counts.append({k: v for k, v in metrics.items()
                       if not k.endswith("_s") and not k.startswith("trace.")})
    assert counts[0] == counts[1]
    assert counts[0]["quasitoric.vertices"] > 0


def test_excess_order_shows_wasted_precision():
    r = worker.Runner("genus-pairs", 1)
    tracer = spans.Tracer()
    cases = []
    try:
        for inp, n in (("builtin:cp2:eps=--", 2), ("{in}/cp2xcp1.json", 3)):
            for command, order in workloads.PAIR_SLOTS:
                argv = [command, "--input", inp, "--genus", "todd",
                        "--order", str(order)]
                tracer.begin_job(len(cases))
                with tracer:
                    r.play(argv)
                tracer.end_job()
                wasted = command == "genus" and max(order, 1) + 2 > 2 * n
                cases.append(wasted)
    finally:
        r.close()
    assert r.failed == 0
    excess = [c["localize.excess_order"] for _j, c in tracer.per_job]
    assert [e > 0 for e in excess] == cases
    assert any(cases) and not all(cases)


def test_rounds_are_seeded_and_in_the_golden_file():
    for workload in workloads.WORKLOADS:
        universe = {tuple(a) for a in workloads.universe(workload)}
        expected = golden.Golden.load(workload).expected
        assert set(expected) == universe
        a, b = workloads.Rounds(workload, 5), workloads.Rounds(workload, 5)
        c = workloads.Rounds(workload, 6)
        ra = [a.round(r) for r in range(3)]
        assert ra == [b.round(r) for r in range(3)]
        assert ra != [c.round(r) for r in range(3)]
        assert all(tuple(job) in universe for jobs in ra for job in jobs)
        assert len({len(jobs) for jobs in ra}) == 1


def test_tail_is_highest_percentile_with_ten_beyond():
    assert worker.tail(list(range(1, 41))) == (75.0, 30.5)
    assert worker.tail(list(range(1, 101))) == (90.0, pytest.approx(90.5))
    assert worker.tail([1.0] * 5) == (50.0, 1.0)
    assert worker.tail(list(range(1, 1001)), cap=95.0) == \
        (95.0, pytest.approx(950.5))
    assert worker.percentile([3.0, 1.0, 2.0], 50.0) == 2.0


def test_reference_clock_uses_nearby_kernel_calls():
    clock = worker.ReferenceClock()
    clock.times = [0.1 * i for i in range(40)]
    clock.samples = [0.01] * 20 + [0.04] * 20
    assert clock.factor(0.5) == pytest.approx(2.0)
    assert clock.factor(3.5) == pytest.approx(0.5)
    assert clock.factor(100.0) == pytest.approx(0.5)
    assert clock.factor() == pytest.approx(0.8)


def _bench_command(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=120)


def test_run_prints_the_result_as_its_last_line():
    out = _bench_command(golden.ROOT, "--workload", "small-jobs", "--seed",
                         "4", "--seconds", "0.3", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(golden.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(golden.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench_command(tmp_path, "--workload", "small-jobs", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert "correct" not in out.stdout
