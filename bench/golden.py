"""The golden file: every job's argv, exit code, stdout and stderr.

``python3 bench/golden.py [--workload NAME]`` runs every job
of each workload universe through ``toricgenera.cli.main``, checks the
results against oracles that do not depend on the golden file, and writes
``bench/golden/<workload>.jsonl`` (one job per line).  The benchmark
compares every job it times to these files byte for byte.

Oracles:
- genus-pairs, standard CP^n: the genus value equals
  ``fgl.projective_space_value`` (logarithm coefficients, no localization);
- genus-pairs, every input: the torus genus value equals the value of the
  fixed-point data restricted to a generic circle (1, q, q^2, ...);
- fpd-rigidity: inputs with a flipped sign violate Conner-Floyd (exit 2)
  under check-cf and phi;
- small-jobs: the invalid inputs exit 1 with an error on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
GOLDEN_DIR = os.path.join(BENCH, "golden")
WORK = os.path.join(ROOT, ".benchwork")

if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import workloads  # noqa: E402


def import_cli():
    """Import toricgenera.cli from the checkout's src/ directory."""
    if not os.path.isdir(os.path.join(SRC, "toricgenera")):
        raise FileNotFoundError("no toricgenera package under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from toricgenera import cli
    return cli


def make_workdir():
    """A fresh directory inside the checkout holding every input file."""
    os.makedirs(WORK, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="inputs-", dir=WORK)
    workloads.write_inputs(directory)
    return directory


def remove_workdir(directory):
    shutil.rmtree(directory, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(WORK)


def call_main(main, argv):
    """Run main(argv) capturing its streams: (exit code, stdout, stderr).

    argparse rejections exit through SystemExit, which is a result; any
    other exception propagates to the caller.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def golden_path(workload):
    return os.path.join(GOLDEN_DIR, workload + ".jsonl")


class Golden:
    """Expected (exit code, stdout, stderr) per job, keyed by argv with the
    input directory written as the ``{in}`` placeholder."""

    def __init__(self, entries):
        self.expected = {tuple(e["argv"]): (e["code"], e["stdout"], e["stderr"])
                         for e in entries}

    @classmethod
    def load(cls, workload):
        with open(golden_path(workload), encoding="utf-8") as fh:
            return cls(json.loads(line) for line in fh if line.strip())

    def matches(self, argv, result, directory):
        """True when ``result`` (from call_main on the resolved argv) equals
        the golden entry of ``argv`` byte for byte."""
        code, out, err = result
        actual = (code, out.replace(directory, workloads.IN),
                  err.replace(directory, workloads.IN))
        return self.expected.get(tuple(argv)) == actual


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _generic_direction(fpd):
    for q in (3, 5, 7, 11, 13, 17, 19, 23):
        nu = tuple(q ** i for i in range(fpd.k))
        if all(sum(a * b for a, b in zip(w, nu))
               for p in fpd.points for w in p.weights):
            return nu
    raise ValueError("no generic direction found")


def _genus_of(argv):
    """The genus spec the CLI builds for a genus-pairs job."""
    from toricgenera.fgl import catalog
    opts = dict(zip(argv[1::2], argv[2::2]))
    return catalog(opts["--genus"], max(int(opts["--order"]), 1))


def _torus_value(argv, stdout, n):
    if argv[0] == "genus":
        prefix = "genus_value: "
    else:
        prefix = "cf_%d = " % n
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    raise AssertionError("no genus value in output of %r" % (argv,))


def check_oracles(workload, argv, result, directory):
    """Raise AssertionError when a golden entry contradicts an oracle."""
    from toricgenera import cli, localize, quasitoric
    from toricgenera.fgl import projective_space_value

    code, out, err = result
    if workload == "genus-pairs":
        assert code == 0 and not err, (argv, result)
        resolved = workloads.resolve(argv, directory)
        pair = cli.parse_manifold(resolved[2])
        fpd = quasitoric.signs_and_weights(pair)
        genus = _genus_of(argv)
        value = _torus_value(argv, out, fpd.n)
        circle = quasitoric.restrict_to_subcircle(fpd, _generic_direction(fpd))
        assert str(localize.genus_value(circle, genus)) == value, argv
        n = fpd.n
        if argv[0] == "genus" and argv[2] == "builtin:cp%d:eps=%s" % (n, "-" * n):
            assert str(projective_space_value(genus, n)) == value, argv
    elif workload == "fpd-rigidity":
        flipped = "-flip" in " ".join(argv)
        if flipped and argv[0] in ("check-cf", "phi"):
            assert code == 2, (argv, result)
        assert code in (0, 2) and not err, (argv, result)
    elif workload == "small-jobs":
        if argv[2:3] and argv[2] in workloads.INVALID:
            assert code == 1 and err.startswith("error: ") and not out, argv
        else:
            assert code in (0, 2) and not err, (argv, result)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def generate(workload):
    """Golden entries of every job in the workload's universe."""
    cli = import_cli()
    directory = make_workdir()
    try:
        entries = []
        for argv in workloads.universe(workload):
            result = call_main(cli.main, workloads.resolve(argv, directory))
            check_oracles(workload, argv, result, directory)
            code, out, err = result
            entries.append({"argv": argv, "code": code,
                            "stdout": out.replace(directory, workloads.IN),
                            "stderr": err.replace(directory, workloads.IN)})
        return entries
    finally:
        remove_workdir(directory)


def write(workload, entries):
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(golden_path(workload), "w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(json.dumps(e, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        action="append")
    args = parser.parse_args(argv)
    for workload in args.workload or workloads.WORKLOADS:
        entries = generate(workload)
        write(workload, entries)
        print("%s: %d jobs" % (workload, len(entries)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
