"""Seeded job generators for the benchmark workloads.

A job is an argv list for ``toricgenera.cli.main``.  Input files are named
``{in}/<name>.json``; the placeholder ``{in}`` stands for the directory the
benchmark writes them to during set-up, so the program only ever sees argv
and files.

Each workload has a finite *universe* of jobs (every job any seed can draw;
the golden file holds exactly these) and a seeded stream of *rounds*.  A
round holds one job per cell of the workload; the seed picks the variants
and the order of play (see Rounds).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random

IN = "{in}"

WORKLOADS = ("genus-pairs", "fpd-rigidity", "small-jobs")

WHY = {
    "genus-pairs": "validated quasitoric pairs of dimension 2-4: torus "
                   "localization cost grows with dimension; random --order "
                   "exposes wasted precision",
    "fpd-rigidity": "raw fixed-point data at orders 2-6, a quarter with a "
                    "flipped sign: genus construction and cf extraction "
                    "dominate",
    "small-jobs": "cheap commands drawn with repeats from a small pool: "
                  "per-call parsing, vertex minors and formatting dominate",
}


def _eps_strings(n):
    return ["".join(s) for s in itertools.product("+-", repeat=n)]


# square members with eps in {+-1} and delta in {-1, 0, 1}
SQUARES = ["square:eps=%d,%d:delta=%d,%d" % (e1, e2, d1, d2)
           for e1 in (1, -1) for e2 in (1, -1)
           for d1 in (-1, 0, 1) for d2 in (-1, 0, 1)
           if abs(e1 * e2 - d1 * d2) == 1]


# ---------------------------------------------------------------------------
# input files
# ---------------------------------------------------------------------------

def _std_simplex(quasitoric, n):
    return quasitoric.simplex_pair(n, (-1,) * n)


def input_objects():
    """Every input file any job may name, as {file stem: JSON object}."""
    from toricgenera import localize, quasitoric as q

    cp1, cp2 = _std_simplex(q, 1), _std_simplex(q, 2)
    prod = q.product_pair
    pairs = {
        "cp1x3": prod(prod(cp1, cp1), cp1),
        "cp1x4": prod(prod(prod(cp1, cp1), cp1), cp1),
        "cp2xcp1": prod(cp2, cp1),
        "cp2xcp2": prod(cp2, cp2),
    }
    objs = {name: q.pair_to_json_obj(p) for name, p in pairs.items()}
    fpds = {
        "s6": localize.dataset("s6"),
        "flag3": localize.dataset("flag3"),
        "cp2fp": q.signs_and_weights(cp2),
        "cp3fp": q.signs_and_weights(_std_simplex(q, 3)),
    }
    for name, fpd in fpds.items():
        if name in FPD_JSON:
            objs[name] = q.fpd_to_json_obj(fpd)
        for i in FLIPS:
            objs["%s-flip%d" % (name, i)] = q.fpd_to_json_obj(fpd.flip_one(i))
    return objs


def write_inputs(directory):
    """Write every input file into ``directory`` (which must exist)."""
    for name, obj in input_objects().items():
        with open(os.path.join(directory, name + ".json"), "w",
                  encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True)


def resolve(argv, directory):
    return [a.replace(IN, directory) for a in argv]


# ---------------------------------------------------------------------------
# genus-pairs
# ---------------------------------------------------------------------------

PAIR_FAMILIES = ("cp2", "cp3", "cp4", "square", "cp1x3", "cp2xcp1",
                 "cp1x4", "cp2xcp2")
PAIR_GENERA = ("hurewicz", "todd", "krichever")
PAIR_DIM = {"cp2": 2, "square": 2, "cp3": 3, "cp1x3": 3, "cp2xcp1": 3,
            "cp4": 4, "cp1x4": 4, "cp2xcp2": 4}
# per cell, in rising cost: `check-cf --order 0` and `genus` at every
# --order 0..6
PAIR_SLOTS = [("check-cf", 0)] + [("genus", o) for o in range(7)]


def _pair_inputs(family):
    if family in ("cp2", "cp3", "cp4"):
        n = int(family[2:])
        return ["builtin:%s:eps=%s" % (family, e) for e in _eps_strings(n)]
    if family == "square":
        return ["builtin:" + s for s in SQUARES]
    return ["%s/%s.json" % (IN, family)]


def _pair_job(inp, genus, slot):
    command, order = slot
    return [command, "--input", inp, "--genus", genus, "--order", str(order)]


# ---------------------------------------------------------------------------
# fpd-rigidity
# ---------------------------------------------------------------------------

FPD_INPUTS = ("s6", "flag3", "cp2fp", "cp3fp")
FPD_JSON = ("cp2fp", "cp3fp")  # s6 and flag3 are builtins
FLIPS = (0, 1)
FPD_GENERA = ("krichever", "elliptic", "t2", "signature", "hurewicz")
# highest --order per (input, genus): every job stays under ~1 s and a round
# of every (input, genus, order) under ~10 s; below 2 the pair is left out
FPD_MAX_ORDER = {
    ("s6", "krichever"): 6, ("s6", "elliptic"): 6, ("s6", "t2"): 5,
    ("s6", "signature"): 6, ("s6", "hurewicz"): 6,
    ("cp2fp", "krichever"): 5, ("cp2fp", "elliptic"): 6, ("cp2fp", "t2"): 4,
    ("cp2fp", "signature"): 6, ("cp2fp", "hurewicz"): 6,
    ("flag3", "krichever"): 2, ("flag3", "elliptic"): 4, ("flag3", "t2"): 1,
    ("flag3", "signature"): 5, ("flag3", "hurewicz"): 2,
    ("cp3fp", "krichever"): 2, ("cp3fp", "elliptic"): 5, ("cp3fp", "t2"): 1,
    ("cp3fp", "signature"): 6, ("cp3fp", "hurewicz"): 2,
}
FPD_COMMANDS = (("check-rigidity",), ("check-cf",), ("phi",),
                ("phi", "--mode", "universal"))
# one job in this many has an input with one sign flipped, which violates
# the Conner-Floyd relations
FPD_FLIP_EVERY = 4


def _fpd_input(name, flip):
    if flip is not None:
        return "%s/%s-flip%d.json" % (IN, name, flip)
    if name in FPD_JSON:
        return "%s/%s.json" % (IN, name)
    return "builtin:" + name


def _fpd_job(name, flip, genus, command, order):
    return list(command) + ["--input", _fpd_input(name, flip), "--genus",
                            genus, "--order", str(order)]


# ---------------------------------------------------------------------------
# small-jobs
# ---------------------------------------------------------------------------

BLOCKS = ("1-2,3-4", "1-3,2-4", "1-4,2-3")
_CP2 = ["builtin:cp2:eps=" + e for e in _eps_strings(2)]
_CP3 = ["builtin:cp3:eps=" + e for e in _eps_strings(3)]
_SQ = ["builtin:" + s for s in SQUARES]
# inputs whose correct answer is exit 1
INVALID = ("builtin:cp0", IN + "/missing.json", "builtin:cp2:eps=+x",
           "builtin:cp3:eps=++")

# each template is a list of variants; a round plays every template once
SMALL_TEMPLATES = (
    [["list-builtins"], ["list-builtins", "--format", "json"]],
    [["validate", "--input", i] for i in _CP2 + _CP3],
    [["validate", "--input", i, "--format", "json"] for i in _SQ],
    [["validate", "--input", i] for i in ("builtin:s6", "builtin:flag3")],
    [["fixed-points", "--input", i] for i in _CP3],
    [["fixed-points", "--input", i, "--format", "json"] for i in _SQ],
    [["fixed-points", "--input", i, "--format", "json"] for i in _CP2],
    [["genus", "--input", i, "--genus", "todd"] for i in _CP2],
    [["genus", "--input", i, "--genus", "todd"] for i in _SQ],
    [["genus", "--input", i, "--genus", "todd", "--format", "json"]
     for i in _SQ],
    [["pairing", "--input", i, "--pairing", b] for i in _SQ for b in BLOCKS],
    [["pairing", "--input", i, "--pairing", b] for i in _CP3 for b in BLOCKS],
    [["pairing", "--input", i, "--search-pairings"] for i in _SQ],
    [["pairing", "--input", i, "--search-pairings"] for i in _CP3],
    [["special-check", "--input", "builtin:cp1:eps=+", "--order", str(o)]
     for o in range(3)],
    [["special-check", "--input", "builtin:square:eps=-1,1:delta=2,0",
      "--order", str(o)] for o in range(3)],
    [["genus", "--input", INVALID[0]], ["validate", "--input", INVALID[0]]],
    [["genus", "--input", INVALID[1]], ["fixed-points", "--input", INVALID[1]]],
    [["validate", "--input", INVALID[2]], ["genus", "--input", INVALID[3]]],
)


# ---------------------------------------------------------------------------
# universes and rounds
# ---------------------------------------------------------------------------

def universe(workload):
    """Every job the workload can generate, in a fixed order."""
    jobs = []
    if workload == "genus-pairs":
        for family in PAIR_FAMILIES:
            for inp in _pair_inputs(family):
                for genus in PAIR_GENERA:
                    for slot in PAIR_SLOTS:
                        jobs.append(_pair_job(inp, genus, slot))
    elif workload == "fpd-rigidity":
        for name in FPD_INPUTS:
            for flip in (None,) + FLIPS:
                for genus in FPD_GENERA:
                    for order in range(2, FPD_MAX_ORDER[name, genus] + 1):
                        for command in FPD_COMMANDS:
                            jobs.append(_fpd_job(name, flip, genus, command,
                                                 order))
    elif workload == "small-jobs":
        seen = set()
        for template in SMALL_TEMPLATES:
            for argv in template:
                if tuple(argv) not in seen:
                    seen.add(tuple(argv))
                    jobs.append(argv)
    else:
        raise KeyError("unknown workload %r" % workload)
    return jobs


def _stride(n):
    """A step coprime with n near 3n/8, so that consecutive rounds jump
    across a cell's cost-ordered variants instead of walking them."""
    step = max(1, round(3 * n / 8))
    while math.gcd(step, n) != 1:
        step += 1
    return step % n if n > 1 else 0


class Rounds:
    """The seeded stream of balanced rounds of one workload.

    ``Rounds(workload, seed).round(r)`` is the job list of round r; it
    depends only on the workload, the seed and r.  Every round holds one
    job per cell.  A cell walks its variants with a stride, from a start
    that the seed picks; the cells of a group start evenly spaced, so that
    each round holds every kind of variant in the same proportion whatever
    the seed.
    """

    def __init__(self, workload, seed):
        if workload not in WORKLOADS:
            raise KeyError("unknown workload %r" % workload)
        self.workload = workload
        self.seed = seed
        groups = {}  # group key -> cells; a cell is (genus, variants)
        if workload == "genus-pairs":
            for genus in PAIR_GENERA:
                for dim in (2, 3):
                    # every slot every round; the family rotates
                    families = [f for f in PAIR_FAMILIES if PAIR_DIM[f] == dim]
                    for slot in PAIR_SLOTS:
                        groups.setdefault((dim, genus), []).append(
                            (genus, [(f, slot) for f in families]))
                for family in PAIR_FAMILIES:
                    if PAIR_DIM[family] == 4:
                        # every family every round; the slot rotates
                        groups.setdefault((4, genus), []).append(
                            (genus, [(family, slot) for slot in PAIR_SLOTS]))
        elif workload == "fpd-rigidity":
            # every (input, genus, order) every round
            for name in FPD_INPUTS:
                for genus in FPD_GENERA:
                    for order in range(2, FPD_MAX_ORDER[name, genus] + 1):
                        groups[name, genus, order] = [(genus, [(name, order)])]
        else:
            for i, template in enumerate(SMALL_TEMPLATES):
                groups[i] = [(None, template)]
        rng = self._rng("cells")
        self.cells = []  # (genus, variants, start, stride)
        for key in sorted(groups, key=str):
            cells = groups[key]
            rng.shuffle(cells)
            n = len(cells[0][1])
            base = rng.randrange(n)
            for i, (genus, variants) in enumerate(cells):
                self.cells.append((genus, variants,
                                   (base + i * n // len(cells)) % n,
                                   _stride(n)))

    def _rng(self, *parts):
        key = ":".join([self.workload, str(self.seed)] + [str(p) for p in parts])
        return random.Random(key)

    def round(self, r):
        rng = self._rng("round", r)
        flipped = set(rng.sample(range(len(self.cells)),
                                 len(self.cells) // FPD_FLIP_EVERY)) \
            if self.workload == "fpd-rigidity" else ()
        jobs = []
        for c, (genus, variants, start, stride) in enumerate(self.cells):
            variant = variants[(start + r * stride) % len(variants)]
            if self.workload == "genus-pairs":
                family, slot = variant
                inp = rng.choice(_pair_inputs(family))
                jobs.append(_pair_job(inp, genus, slot))
            elif self.workload == "fpd-rigidity":
                name, order = variant
                flip = rng.choice(FLIPS) if c in flipped else None
                jobs.append(_fpd_job(name, flip, genus,
                                     rng.choice(FPD_COMMANDS), order))
            else:
                jobs.append(list(variant))
        rng.shuffle(jobs)
        return jobs
