"""Command-line front end.

Commands take a manifold (a JSON file or a builtin identifier), a genus and
a truncation order, and report series, genus values, Conner-Floyd and
rigidity checks, pairing obstructions and special-omniorientation tests.

Exit codes: 0 = pass, 1 = input error, 2 = relation/rigidity violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass, field

from toricgenera.fgl import CATALOG_NAMES, catalog
from toricgenera.localize import (
    ConnerFloydViolation,
    cf_series,
    dataset,
    genus_value,
    pairing_obstruction,
    phi,
    special_vanishing,
)
from toricgenera.quasitoric import (
    FixedPointData,
    InvalidPairError,
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
    """One CLI job: the parsed options, whose defaults are the CLI's, and
    the output lines ``run`` fills.  The command line hands ``order`` and
    ``genus_order`` over as text, which ``run`` reads as decimals."""
    command: str
    input: str = ""
    genus: str = "hurewicz"
    genus_order: int | str | None = None
    mode: str = "linear"
    order: int | str = 6
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

def _parse_params(family, parts, keys):
    """The "<key>=<value>" parameters of a builtin that takes ``keys``;
    a malformed, unknown or repeated parameter is refused."""
    params = {}
    for part in parts:
        if "=" not in part:
            raise InputError("malformed builtin parameter %r" % part)
        key, value = part.split("=", 1)
        if key not in keys:
            raise InputError("builtin %s takes %s, not %r" % (
                family, " and ".join(keys) or "no parameters", key))
        if key in params:
            raise InputError("builtin parameter %r is given twice" % key)
        params[key] = value
    return params


def _decimal(text, pattern="-?(?:0|[1-9][0-9]*)"):
    """``text`` as an int when it is an ASCII decimal matching ``pattern``:
    no sign beyond the pattern's, no spaces, underscores or other digits."""
    if re.fullmatch(pattern, text) is None:
        raise ValueError("%r is not a decimal integer" % text)
    return int(text)


def parse_builtin(spec):
    """Resolve "builtin:<family>[:<param>=<value>]*"."""
    parts = spec.split(":")
    family = parts[1] if len(parts) > 1 else ""
    if family in ("s6", "flag3"):
        _parse_params(family, parts[2:], ())
        return dataset(family)
    if family == "square":
        params = _parse_params(family, parts[2:], ("eps", "delta"))
        eps = params.get("eps", "-1,-1")
        delta = params.get("delta", "0,0")
        try:
            e1, e2 = (_decimal(x) for x in eps.split(","))
            d1, d2 = (_decimal(x) for x in delta.split(","))
        except ValueError as exc:
            raise InputError("square parameters must be integers: %s" % exc)
        try:
            return square_pair(e1, e2, d1, d2)
        except InvalidPairError as exc:
            raise InputError(str(exc))
    if family.startswith("cp"):
        try:
            n = _decimal(family[2:], "0|[1-9][0-9]*")
        except ValueError:
            raise InputError("unknown builtin %r" % spec)
        params = _parse_params(family, parts[2:], ("eps",))
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


def _build_genus(job, extra=0, least=0):
    """The job's genus at catalog order ``max(order, least, 1) + extra``.

    A torus job on n-dimensional data passes ``extra = n - 1``, so that
    ``localized_sum`` (which needs the genus to ``order + n + 1``) never
    rebuilds it; a genus value, which needs it to ``n + 1`` whatever the
    order, passes ``least = n - 1``.  The hurewicz ring keeps its
    ``--genus-order`` size.
    """
    generators = None
    if job.genus == "hurewicz":
        generators = job.genus_order or max(job.order, 1)
    return catalog(job.genus, max(job.order, least, 1) + extra,
                   generators=generators)


def _fixed_points(job, manifold):
    if isinstance(manifold, FixedPointData):
        fpd = manifold
    else:
        try:
            fpd = signs_and_weights(manifold)
        except InvalidPairError as exc:
            raise InputError("invalid pair: %s" % exc) from exc
    return fpd.flipped() if job.flip_orientation else fpd


def _finish(job, payload, code):
    if job.format == "json":
        job.lines = [json.dumps(payload, sort_keys=True)]
    return code


def run(job):
    """Execute a job; returns the exit code and fills job.lines.

    This is the one place where a failure becomes an exit code: bad input
    (ValueError) exits 1 with ``error: ...``, and a Conner-Floyd violation
    exits 2 with ``violation: ...`` (under ``--format json``, a report
    with ``"pass": false``).
    """
    try:
        return _run(job)
    except ValueError as exc:
        job.emit("error: %s" % exc)
        return EXIT_INPUT
    except ConnerFloydViolation as exc:
        job.emit("violation: %s" % exc)
        return _finish(job, {"pass": False, "error": str(exc)},
                       EXIT_VIOLATION)


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


def _value(job, key, prefix, value):
    text = str(value)
    job.emit(prefix + text)
    return _finish(job, {"pass": True, key: text}, EXIT_PASS)


def _phi(job, manifold, fpd):
    return _value(job, "phi", "phi = ", phi(
        fpd, _build_genus(job, fpd.n - 1), job.mode, job.order))


def _genus(job, manifold, fpd):
    # a pair's fixed points are certified (validation checks the edge
    # rule), and evaluate at one generic direction; raw data keeps the
    # torus check
    return _value(job, "genus_value", "genus_value: ",
                  genus_value(fpd, _build_genus(job, least=fpd.n - 1)))


def _check(rigidity):
    """The check-cf (rigidity False) or check-rigidity handler."""
    def handler(job, manifold, fpd):
        # a validated pair meets the relations by theorem, so its certified
        # points take the evaluation at order 0 as in genus; raw data, and
        # every order >= 1, run the torus pass, which decides them itself
        cf = cf_series(fpd, _build_genus(job, fpd.n - 1), job.order)
        # each entry is rendered at most once: text check-rigidity prints
        # l >= n only, and the JSON payload keeps every entry
        values = [{"l": e.l, "value": e.value_str()} for e in cf
                  if job.format == "json" or not rigidity or e.l >= cf.n]
        for v in values:
            job.emit("cf_%d = %s" % (v["l"], v["value"]))
        if rigidity:
            ok = cf.rigid()
            first = None if ok else next(
                (e.l for e in cf if not e.is_zero() and e.l != cf.n), None)
            job.emit("rigid" if ok else "not rigid (cf_%s != 0)" % first)
        else:
            ok = cf.conner_floyd_ok()
            first = None if ok else cf.first_violation()
            job.emit("pass" if ok else "fail at cf_%d" % first)
        payload = {"cf": values, "pass": ok, "first_violation": first}
        if job.format == "json" and cf.conner_floyd_ok():  # text omits it
            payload["genus_value"] = str(cf.genus_value())
        return _finish(job, payload, EXIT_PASS if ok else EXIT_VIOLATION)
    return handler


def _pairing(job, manifold, fpd):
    if job.search_pairings:
        found = pairing_obstruction(fpd, search=True)
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
            blocks.append([_decimal(x, "[1-9][0-9]*") - 1
                           for x in block.split("-")])
    except ValueError:
        raise InputError("malformed --pairing %r" % job.pairing)
    report = pairing_obstruction(fpd, blocks=blocks)
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
    kv_value = str(report.kv_value)
    hr_value = None if report.hr_value is None else str(report.hr_value)
    job.emit("krichever value: %s" % kv_value)
    job.emit("krichever rigid to order %d: %s"
             % (job.order, "yes" if report.kv_rigid else "no"))
    if hr_value is not None:
        job.emit("cobordism class (hurewicz): %s" % hr_value)
    job.emit("pass" if report.ok else "fail")
    payload = {"pass": report.ok, "krichever_value": kv_value,
               "krichever_rigid": report.kv_rigid, "hurewicz_value": hr_value}
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
_GENUS_ORDER_COMMANDS = ("phi", "genus", "check-cf", "check-rigidity")


def _order(value, option):
    """An order as an int: the command line hands it over as text, which
    must be an ASCII decimal (see ``_decimal``)."""
    if not isinstance(value, str):
        return value
    try:
        return _decimal(value)
    except ValueError as exc:
        raise InputError("%s: %s" % (option, exc)) from exc


def _run(job):
    job.order = _order(job.order, "--order")
    if job.order < 0:
        raise InputError("--order must be >= 0")
    job.genus_order = _order(job.genus_order, "--genus-order")
    if job.genus_order is not None and job.genus_order < 1:
        raise InputError("--genus-order must be >= 1")
    if job.command not in HANDLERS:
        raise InputError("unknown command %r" % job.command)
    if job.genus_order is not None and (job.genus != "hurewicz" or job.command
                                        not in _GENUS_ORDER_COMMANDS):
        raise InputError("--genus-order applies only to --genus hurewicz in "
                         + ", ".join(_GENUS_ORDER_COMMANDS))
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
    parser.add_argument("--input",
                        help="manifold JSON file or builtin:<name>")
    parser.add_argument("--genus", help="|".join(CATALOG_NAMES))
    # the orders stay text here, so that ``run`` refuses a malformed one
    # with exit 1 like any other bad input
    parser.add_argument("--genus-order",
                        help="hurewicz generator count (default: --order)")
    parser.add_argument("--mode", choices=("linear", "universal"))
    parser.add_argument("--order")
    parser.add_argument("--format", choices=("text", "json"))
    parser.add_argument("--flip-orientation", action="store_true")
    parser.add_argument("--pairing",
                        help='comma-separated blocks like "1-4,2-3"')
    parser.add_argument("--search-pairings", action="store_true")
    return parser


# one parser serves every main call; parsing leaves no state in it
_parser = functools.cache(build_parser)


def main(argv=None):
    # options the command line leaves out keep JobConfig's defaults
    job = _parser().parse_args(argv, namespace=JobConfig(command=""))
    code = run(job)
    out = sys.stdout if code != EXIT_INPUT else sys.stderr
    for line in job.lines:
        print(line, file=out)
    return code


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
