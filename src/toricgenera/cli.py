"""Command-line front end.

Commands take a manifold (a JSON file or a builtin identifier), a genus and
a truncation order, and report series, genus values, Conner-Floyd and
rigidity checks, pairing obstructions and special-omniorientation tests.

Exit codes: 0 = pass, 1 = input error, 2 = relation/rigidity violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from toricgenera.fgl import CATALOG_NAMES, catalog
from toricgenera.localize import (
    ConnerFloydViolation,
    cf_series,
    circle_genus_value,
    dataset,
    genus_value,
    pairing_obstruction,
    phi,
    special_vanishing,
)
from toricgenera.quasitoric import (
    FixedPointData,
    InvalidPairError,
    QuasitoricPair,
    fpd_to_json_obj,
    load_manifold,
    signs_and_weights,
    simplex_pair,
    special_check,
    square_pair,
    validate_pair,
)

EXIT_PASS = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2


class InputError(ValueError):
    pass


@dataclass
class JobConfig:
    command: str
    input: str = ""
    genus: str = "hurewicz"
    genus_order: int | None = None
    mode: str = "linear"
    order: int = 6
    format: str = "text"
    flip_orientation: bool = False
    pairing: str | None = None
    search_pairings: bool = False
    lines: list = field(default_factory=list)

    def emit(self, text):
        self.lines.append(text)


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------

def _parse_params(parts):
    params = {}
    for part in parts:
        if "=" not in part:
            raise InputError("malformed builtin parameter %r" % part)
        key, value = part.split("=", 1)
        params[key] = value
    return params


def parse_builtin(spec):
    """Resolve "builtin:<family>[:<param>=<value>]*"."""
    parts = spec.split(":")
    family = parts[1] if len(parts) > 1 else ""
    params = _parse_params(parts[2:])
    if family in ("s6", "flag3"):
        return dataset(family)
    if family == "square":
        eps = params.get("eps", "-1,-1")
        delta = params.get("delta", "0,0")
        try:
            e1, e2 = (int(x) for x in eps.split(","))
            d1, d2 = (int(x) for x in delta.split(","))
        except ValueError as exc:
            raise InputError("square parameters must be integers: %s" % exc)
        try:
            return square_pair(e1, e2, d1, d2)
        except InvalidPairError as exc:
            raise InputError(str(exc))
    if family.startswith("cp"):
        try:
            n = int(family[2:])
        except ValueError:
            raise InputError("unknown builtin %r" % spec)
        eps_str = params.get("eps", "-" * n)
        if len(eps_str) != n or any(c not in "+-" for c in eps_str):
            raise InputError("eps for cp%d must be %d characters of +/-" % (n, n))
        eps = tuple(1 if c == "+" else -1 for c in eps_str)
        return simplex_pair(n, eps)
    raise InputError("unknown builtin %r" % spec)


def list_builtins():
    """Rows describing the builtin manifolds and datasets."""
    rows = [
        ("cp{n}[:eps=+-...]", "quasitoric", "simplex pair, n+1 fixed points"),
        ("square[:eps=e1,e2][:delta=d1,d2]", "quasitoric",
         "pair over the square, 4 fixed points"),
        ("s6", "fixed_points", "n=3, k=2, 2 points"),
        ("flag3", "fixed_points", "n=3, k=3, 6 points"),
    ]
    return rows


def parse_manifold(source):
    """A builtin identifier or a path to a manifold JSON file."""
    if source.startswith("builtin:"):
        return parse_builtin(source)
    try:
        return load_manifold(source)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (source, exc))
    except ValueError as exc:
        raise InputError(str(exc))


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

def _check_genus(job):
    if job.genus not in CATALOG_NAMES:
        raise InputError("unknown genus %r (choose from %s)"
                         % (job.genus, ", ".join(CATALOG_NAMES)))


def _build_genus(job, extra=0):
    """The job's genus at catalog order ``max(order, 1) + extra``.

    A torus job on n-dimensional data passes ``extra = n - 1``, so that
    ``localized_sum`` (which needs the genus to ``order + n + 1``) never
    rebuilds it; the hurewicz ring keeps its ``--genus-order`` size.
    """
    generators = None
    if job.genus == "hurewicz":
        generators = job.genus_order or max(job.order, 1)
    return catalog(job.genus, max(job.order, 1) + extra, generators=generators)


def _fixed_points(job, manifold):
    if isinstance(manifold, FixedPointData):
        fpd = manifold
    else:
        try:
            fpd = signs_and_weights(manifold)
        except InvalidPairError as exc:
            raise InputError("invalid pair: %s" % exc) from exc
    return fpd.flipped() if job.flip_orientation else fpd


def _cf_payload(cf):
    return [{"l": e.l, "value": e.value_str()} for e in cf]


def _finish(job, payload, code):
    if job.format == "json":
        job.lines = [json.dumps(payload, sort_keys=True)]
    return code


def run(job):
    """Execute a job; returns the exit code and fills job.lines."""
    try:
        return _run(job)
    except ValueError as exc:
        job.emit("error: %s" % exc)
        return EXIT_INPUT


def _list_builtins(job):
    rows = list_builtins()
    if job.format == "json":
        job.emit(json.dumps([{"name": r[0], "type": r[1], "info": r[2]}
                             for r in rows]))
    else:
        for name, kind, info in rows:
            job.emit("%-34s %-12s %s" % (name, kind, info))
    return EXIT_PASS


def _validate(job, manifold):
    if isinstance(manifold, FixedPointData):
        job.emit("fixed point data: n=%d k=%d points=%d"
                 % (manifold.n, manifold.k, len(manifold)))
        return _finish(job, {"pass": True, "problems": []}, EXIT_PASS)
    report = validate_pair(manifold)
    for p in report.problems:
        job.emit("violation: %s" % p)
    job.emit("valid" if report.ok else "invalid")
    payload = {"pass": report.ok, "problems": list(report.problems)}
    return _finish(job, payload, EXIT_PASS if report.ok else EXIT_INPUT)


def _show_fixed_points(job, manifold, fpd):
    if job.format == "json":
        job.emit(json.dumps(fpd_to_json_obj(fpd), sort_keys=True))
    else:
        for p in fpd.points:
            job.emit("%-12s sign=%+d weights=%s"
                     % (p.label, p.sign, list(p.weights)))
    return EXIT_PASS


def _value(job, key, prefix, compute):
    """Report ``compute()`` under ``key``, or its Conner-Floyd violation."""
    try:
        value = compute()
    except ConnerFloydViolation as exc:
        job.emit("violation: %s" % exc)
        return _finish(job, {"pass": False, "error": str(exc)},
                       EXIT_VIOLATION)
    job.emit(prefix + str(value))
    return _finish(job, {"pass": True, key: str(value)}, EXIT_PASS)


def _phi(job, manifold, fpd):
    return _value(job, "phi", "phi = ", lambda: phi(
        fpd, _build_genus(job, fpd.n - 1), job.mode, job.order))


def _genus(job, manifold, fpd):
    # a pair satisfies the Conner-Floyd relations, so one generic circle
    # gives its genus exactly; raw data keeps the torus check
    value_of = circle_genus_value if isinstance(manifold, QuasitoricPair) \
        else genus_value
    return _value(job, "genus_value", "genus_value: ",
                  lambda: value_of(fpd, _build_genus(job)))


def _check(rigidity):
    """The check-cf (rigidity False) or check-rigidity handler."""
    def handler(job, manifold, fpd):
        cf = cf_series(fpd, _build_genus(job, fpd.n - 1), job.order)
        for e in cf:
            if not rigidity or e.l >= cf.n:
                job.emit("cf_%d = %s" % (e.l, e.value_str()))
        if rigidity:
            ok = cf.rigid()
            first = None if ok else next(
                (e.l for e in cf if not e.is_zero() and e.l != cf.n), None)
            job.emit("rigid" if ok else "not rigid (cf_%s != 0)" % first)
        else:
            ok = cf.conner_floyd_ok()
            first = None if ok else cf.first_violation()
            job.emit("pass" if ok else "fail at cf_%d" % first)
        payload = {"cf": _cf_payload(cf), "pass": ok, "first_violation": first}
        if cf.conner_floyd_ok():
            payload["genus_value"] = str(cf.genus_value())
        return _finish(job, payload, EXIT_PASS if ok else EXIT_VIOLATION)
    return handler


def _pairing(job, manifold, fpd):
    augmentation = catalog("augmentation", max(job.order, 1))
    if job.search_pairings:
        found = pairing_obstruction(fpd, augmentation, search=True)
        for rep in found:
            job.emit("vanishing pairing: %s" %
                     " ".join("{%s}" % ",".join(str(i + 1) for i in b)
                              for b in rep.blocks))
        ok = bool(found)
        job.emit("%d vanishing pairing(s)" % len(found))
        payload = {"pass": ok,
                   "pairings": [[list(map(lambda i: i + 1, b))
                                 for b in rep.blocks] for rep in found]}
        return _finish(job, payload, EXIT_PASS if ok else EXIT_VIOLATION)
    if not job.pairing:
        raise InputError("provide --pairing blocks or --search-pairings")
    blocks = []
    try:
        for block in job.pairing.split(","):
            blocks.append([int(x) - 1 for x in block.split("-")])
    except ValueError:
        raise InputError("malformed --pairing %r" % job.pairing)
    try:
        report = pairing_obstruction(fpd, augmentation, blocks=blocks)
    except ValueError as exc:
        raise InputError(str(exc))
    for block, vanish in zip(report.blocks, report.vanishing):
        job.emit("block {%s}: %s"
                 % (",".join(str(i + 1) for i in block),
                    "vanishes" if vanish else "does not vanish"))
    payload = {"pass": report.ok,
               "blocks": [{"points": [i + 1 for i in b], "vanishes": v}
                          for b, v in zip(report.blocks, report.vanishing)]}
    return _finish(job, payload, EXIT_PASS if report.ok else EXIT_VIOLATION)


def _special_check(job, manifold, fpd):
    if isinstance(manifold, FixedPointData):
        raise InputError("special-check needs a quasitoric pair")
    if not special_check(manifold.lam):
        raise InputError("pair %r is not specially omnioriented"
                         % manifold.name)
    kv = catalog("krichever", max(job.order, 1) + fpd.n - 1)
    hr = catalog("hurewicz", max(fpd.n, 1))
    # the check is of the pair's own omniorientation, whatever
    # --flip-orientation says
    own = fpd.flipped() if job.flip_orientation else fpd
    report = special_vanishing(own, job.order, kv, hr)
    job.emit("krichever value: %s" % report.kv_value)
    job.emit("krichever rigid to order %d: %s"
             % (job.order, "yes" if report.kv_rigid else "no"))
    if report.hr_value is not None:
        job.emit("cobordism class (hurewicz): %s" % report.hr_value)
    job.emit("pass" if report.ok else "fail")
    payload = {"pass": report.ok,
               "krichever_value": str(report.kv_value),
               "krichever_rigid": report.kv_rigid,
               "hurewicz_value":
               None if report.hr_value is None else str(report.hr_value)}
    return _finish(job, payload, EXIT_PASS if report.ok else EXIT_VIOLATION)


# command -> (handler, inputs): the handler gets the job alone (JOB), the
# parsed manifold too (MANIFOLD), or the manifold and its fixed points
# (FIXED_POINTS; GENUS checks the genus name before extracting them)
JOB, MANIFOLD, FIXED_POINTS, GENUS = range(4)
HANDLERS = {
    "validate": (_validate, MANIFOLD),
    "fixed-points": (_show_fixed_points, FIXED_POINTS),
    "phi": (_phi, GENUS),
    "genus": (_genus, GENUS),
    "check-cf": (_check(rigidity=False), GENUS),
    "check-rigidity": (_check(rigidity=True), GENUS),
    "pairing": (_pairing, GENUS),
    "special-check": (_special_check, GENUS),
    "list-builtins": (_list_builtins, JOB),
}
COMMANDS = tuple(HANDLERS)


def _run(job):
    if job.command not in HANDLERS:
        raise InputError("unknown command %r" % job.command)
    handler, inputs = HANDLERS[job.command]
    if inputs == JOB:
        return handler(job)
    if not job.input:
        raise InputError("--input is required for %s" % job.command)
    manifold = parse_manifold(job.input)
    if inputs == MANIFOLD:
        return handler(job, manifold)
    if inputs == GENUS:
        _check_genus(job)
    return handler(job, manifold, _fixed_points(job, manifold))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="toricgenera",
        description="Exact equivariant genus computations for torus "
                    "manifolds from fixed-point data.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", default="",
                        help="manifold JSON file or builtin:<name>")
    parser.add_argument("--genus", default="hurewicz",
                        help="|".join(CATALOG_NAMES))
    parser.add_argument("--genus-order", type=int, default=None,
                        help="hurewicz generator count (default: --order)")
    parser.add_argument("--mode", choices=("linear", "universal"),
                        default="linear")
    parser.add_argument("--order", type=int, default=6)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--flip-orientation", action="store_true")
    parser.add_argument("--pairing", default=None,
                        help='comma-separated blocks like "1-4,2-3"')
    parser.add_argument("--search-pairings", action="store_true")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.order < 0:
        print("error: --order must be >= 0", file=sys.stderr)
        return EXIT_INPUT
    if args.genus_order is not None and args.genus_order < 1:
        print("error: --genus-order must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    job = JobConfig(
        command=args.command,
        input=args.input,
        genus=args.genus,
        genus_order=args.genus_order,
        mode=args.mode,
        order=args.order,
        format=args.format,
        flip_orientation=args.flip_orientation,
        pairing=args.pairing,
        search_pairings=args.search_pairings,
    )
    code = run(job)
    out = sys.stdout if code != EXIT_INPUT else sys.stderr
    for line in job.lines:
        print(line, file=out)
    return code


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
