"""Every job of the benchmark's golden files, replayed in process.

The golden files under ``bench/golden`` hold each job's argv, exit code,
stdout and stderr; this test plays every job through ``cli.main`` and
compares the result byte for byte, so a change that alters one output
fails here and names the job.  It reads ``bench/`` and writes its input
files into a fresh work directory that it removes afterwards.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import golden  # noqa: E402
import workloads  # noqa: E402

from toricgenera import cli  # noqa: E402


@pytest.fixture(scope="module")
def workdir():
    directory = golden.make_workdir()
    yield directory
    golden.remove_workdir(directory)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_golden_job_replays_byte_identically(workload, workdir):
    expected = golden.Golden.load(workload)
    assert expected.expected, workload
    for argv in expected.expected:
        result = golden.call_main(cli.main, workloads.resolve(list(argv),
                                                              workdir))
        assert expected.matches(argv, result, workdir), (
            "first differing job: %r gave %r" % (list(argv), result))
