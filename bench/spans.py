"""In-memory span tracing of the toricgenera layers, from outside the package.

``Tracer.install()`` replaces the public functions and methods of the
package modules (their module attributes, class attributes, and every
other module attribute of the package bound to the same function by
``from ... import``) with wrappers that record a span per call:
(name, start, end, parent span, job id).  Counters are taken at the same
boundaries.  ``uninstall()`` puts every original object back.

Spans are kept in memory for one job at a time; ``end_job()`` derives self
times (a span's duration minus the part its child spans cover) and folds
them into per-module, per-stage and per-name totals.  A stage is decided
by a span's own name, or by its name together with its parent's name;
spans without a rule inherit the stage of their parent.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

PACKAGE = "toricgenera"
LAYERS = ("cli", "quasitoric", "fgl", "localize", "algebra")
# dunder methods worth a span; other names starting with "_" are private
DUNDERS = ("__mul__", "__rmul__", "__str__")
# hot arithmetic leaves: only these Poly methods are wrapped
POLY_WRAPPED = ("__mul__", "__rmul__", "__str__", "to_json_obj")
COUNT_ONLY = ("algebra.Poly.__mul__",)
PROPERTIES = ("fgl.GenusSpec.logarithm",)

STAGES = ("point_products", "divide_invert", "common_denominator",
          "cf_extract", "genus_build", "fixed_points")

# a span with one of these names starts the stage, wherever it is called
TERMINAL = {
    "fgl.catalog": "genus_build",
    "fgl.GenusSpec.at_order": "genus_build",
    "fgl.GenusSpec.logarithm": "genus_build",
    "algebra.LocalizedSum.over_common_denominator": "common_denominator",
    "quasitoric.validate_pair": "fixed_points",
    "quasitoric.signs_and_weights": "fixed_points",
    "cli.parse_manifold": "fixed_points",
    "algebra.MultiSeries.__str__": "render",
    "algebra.MultiSeries.to_json_obj": "render",
    "algebra.MultiSeries.to_json": "render",
    "algebra.Poly.__str__": "render",
    "algebra.Poly.to_json_obj": "render",
}
# (name, parent name) -> stage
BY_PARENT = {
    ("algebra.MultiSeries.compose_at_linear", "localize.localized_sum"):
        "point_products",
    ("fgl.weight_series", "localize.localized_sum"): "point_products",
    ("algebra.MultiSeries.__mul__", "localize.localized_sum"):
        "point_products",
    ("algebra.MultiSeries.divide_linear", "localize.localized_sum"):
        "divide_invert",
    ("algebra.MultiSeries.invert_unit", "localize.localized_sum"):
        "divide_invert",
    ("algebra.MultiSeries.divide_linear", "localize.cf_series"): "cf_extract",
    ("algebra.MultiSeries.divide_linear", "algebra.LocalizedSum.normalize"):
        "cf_extract",
    ("algebra.MultiSeries.substitute", "localize.phi"): "cf_extract",
}
# stages whose outputs are measured for coefficient size
SIZED_STAGES = ("point_products", "divide_invert", "common_denominator",
                "cf_extract")

COUNTERS = (
    "algebra.mul.calls", "algebra.mul.out_terms", "algebra.poly_mul.calls",
    "algebra.divide_linear.calls", "algebra.divide_linear.not_divisible",
    "localize.excess_order", "localize.sum_terms", "fgl.at_order.rebuilds",
    "quasitoric.vertices",
)


def _coeff_bits(series):
    best = 0
    for p in series.terms.values():
        for c in p.terms.values():
            best = max(best, abs(c.numerator).bit_length(),
                       c.denominator.bit_length())
    return best


def _probe_mul(tr, args, result):
    tr.job_counts["algebra.mul.calls"] += 1
    tr.job_counts["algebra.mul.out_terms"] += len(result.terms)


def _probe_divide(tr, args, result):
    tr.job_counts["algebra.divide_linear.calls"] += 1


def _probe_localized_sum(tr, args, result):
    fpd, genus, _mode, order = args
    need = order + 2 * fpd.n
    tr.job_counts["localize.excess_order"] += max(genus.order, need) - need
    tr.job_counts["localize.sum_terms"] += sum(len(num.terms)
                                               for num, _den in result)


def _probe_at_order(tr, args, result):
    spec, order = args
    if order > spec.order:
        tr.job_counts["fgl.at_order.rebuilds"] += 1


def _probe_vertices(tr, args, result):
    tr.job_counts["quasitoric.vertices"] += len(args[0].polytope.vertices)


PROBES = {
    "algebra.MultiSeries.__mul__": _probe_mul,
    "algebra.MultiSeries.divide_linear": _probe_divide,
    "localize.localized_sum": _probe_localized_sum,
    "fgl.GenusSpec.at_order": _probe_at_order,
    "quasitoric.validate_pair": _probe_vertices,
    "quasitoric.signs_and_weights": _probe_vertices,
}


class Tracer:
    """Span recorder for the package; install around traced jobs only."""

    def __init__(self):
        self.names = []          # name id -> qualified name
        self.name_ids = {}
        self.stack = []          # open spans: (index, name id)
        self.recs = []           # index -> (name id, t0, t1, parent, job)
        self.excl = {}           # index -> probe time spent inside it
        self.job_id = -1
        self.job_counts = dict.fromkeys(COUNTERS, 0)
        self.poly_mul = [0]      # a cell, read by the count-only wrapper
        self.coeff_bits = 0
        self._saved = []         # (owner, attribute, original object)
        # totals over every finished job
        self.self_by_name = {}
        self.calls_by_name = {}
        self.stage_self = dict.fromkeys(STAGES + ("render",), 0.0)
        self.stage_calls = dict.fromkeys(STAGES + ("render",), 0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.per_job = []        # (job id, counters of that job)
        self.cli_self = 0.0      # cli spans outside every stage

    # -- wrapping -------------------------------------------------------
    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _span_wrapper(self, fn, name):
        nid = self._name_id(name)
        probe = PROBES.get(name)
        # exact division is attempted on purpose; count the attempts that fail
        not_divisible = sys.modules[PACKAGE + ".algebra"].NotDivisibleError \
            if name == "algebra.MultiSeries.divide_linear" else None
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tr.stack
            parent, parent_nid = stack[-1] if stack else (-1, -1)
            idx = len(tr.recs)
            tr.recs.append(None)
            stack.append((idx, nid))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf_counter()
                stack.pop()
                tr.recs[idx] = (nid, t0, t1, parent, tr.job_id)
                if not_divisible is not None:
                    tr.job_counts["algebra.divide_linear.calls"] += 1
                    if isinstance(exc, not_divisible):
                        tr.job_counts["algebra.divide_linear.not_divisible"] += 1
                raise
            t1 = perf_counter()
            stack.pop()
            tr.recs[idx] = (nid, t0, t1, parent, tr.job_id)
            if probe is not None or parent_nid >= 0:
                tr._after(nid, parent, parent_nid, args, result, probe, t1)
            return result

        return wrapper

    def _after(self, nid, parent, parent_nid, args, result, probe, t1):
        if probe is not None:
            probe(self, args, result)
        stage = BY_PARENT.get((self.names[nid], self.names[parent_nid])) \
            if parent_nid >= 0 else None
        stage = stage or TERMINAL.get(self.names[nid])
        if stage in SIZED_STAGES:
            series = result[0] if isinstance(result, tuple) else result
            if hasattr(series, "terms"):
                self.coeff_bits = max(self.coeff_bits, _coeff_bits(series))
        elif probe is None:
            return
        if parent >= 0:
            self.excl[parent] = self.excl.get(parent, 0.0) + \
                (perf_counter() - t1)

    def _count_wrapper(self, fn):
        cell = self.poly_mul

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, fn, name, memo):
        if id(fn) not in memo:
            memo[id(fn)] = self._count_wrapper(fn) if name in COUNT_ONLY \
                else self._span_wrapper(fn, name)
        return memo[id(fn)]

    def _wrap_class(self, cls, layer, memo):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            if cls.__name__ == "Poly" and attr not in POLY_WRAPPED:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                name = "%s.%s" % (layer, fn.__qualname__)
                new = type(raw)(self._wrap(fn, name, memo))
            elif isinstance(raw, property):
                name = "%s.%s.%s" % (layer, cls.__qualname__, attr)
                if name not in PROPERTIES:
                    continue
                new = property(self._wrap(raw.fget, name, memo), raw.fset,
                               raw.fdel, raw.__doc__)
            elif inspect.isfunction(raw):
                name = "%s.%s" % (layer, raw.__qualname__)
                new = self._wrap(raw, name, memo)
            else:
                continue
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, new)

    def install(self):
        """Wrap the package; raises if it is already wrapped."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = {layer: sys.modules["%s.%s" % (PACKAGE, layer)]
                   for layer in LAYERS}
        memo = {}
        functions = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(obj, layer, memo)
                elif inspect.isfunction(obj) and not attr.startswith("_"):
                    functions[id(obj)] = self._wrap(
                        obj, "%s.%s" % (layer, obj.__qualname__), memo)
        # every package attribute bound to a wrapped function, including
        # names re-bound by ``from ... import``
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in functions:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, functions[id(obj)])

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- jobs -----------------------------------------------------------
    def begin_job(self, job_id):
        self.job_id = job_id
        self.recs = []
        self.excl = {}
        self.stack = []
        self.job_counts = dict.fromkeys(COUNTERS, 0)
        self.poly_mul[0] = 0

    def end_job(self):
        """Derive self times from this job's spans and fold them in."""
        self.job_counts["algebra.poly_mul.calls"] = self.poly_mul[0]
        recs = self.recs
        names = self.names
        child = [0.0] * len(recs)
        stage_of = [None] * len(recs)
        for i, (nid, t0, t1, parent, _job) in enumerate(recs):
            name = names[nid]
            own = TERMINAL.get(name)
            if own is None and parent >= 0:
                own = BY_PARENT.get((name, names[recs[parent][0]]))
            inherited = stage_of[parent] if parent >= 0 else None
            stage_of[i] = own or inherited
            if own is not None and own != inherited:
                self.stage_calls[own] += 1
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (nid, t0, t1, _parent, _job) in enumerate(recs):
            own = (t1 - t0) - child[i] - self.excl.get(i, 0.0)
            name = names[nid]
            self.self_by_name[name] = self.self_by_name.get(name, 0.0) + own
            self.calls_by_name[name] = self.calls_by_name.get(name, 0) + 1
            if stage_of[i] is not None:
                self.stage_self[stage_of[i]] += own
            elif name.startswith("cli."):
                self.cli_self += own
        for key, value in self.job_counts.items():
            self.counts[key] += value
        self.per_job.append((self.job_id, dict(self.job_counts)))
        self.recs = []
        self.excl = {}

    # -- report ---------------------------------------------------------
    def metrics(self):
        """Per-layer metrics of every finished job, named as in
        metric_units()."""
        out = {}
        for stage in STAGES:
            out["stage.%s.self_s" % stage] = self.stage_self[stage]
            out["stage.%s.calls" % stage] = self.stage_calls[stage]
        out["cli.main.self_s"] = self.cli_self
        out["cli.main.calls"] = self.calls_by_name.get("cli.main", 0)
        out["algebra.render.self_s"] = self.stage_self["render"]
        out["algebra.render.calls"] = self.stage_calls["render"]
        for layer in LAYERS:
            out["layer.%s.self_s" % layer] = sum(
                v for k, v in self.self_by_name.items()
                if k.startswith(layer + "."))
        out.update(self.counts)
        calls = self.counts["algebra.divide_linear.calls"]
        useful = calls - self.counts["algebra.divide_linear.not_divisible"]
        out["algebra.divide_linear.useful_ratio"] = useful / calls if calls \
            else 1.0
        out["algebra.coeff_bits_max"] = self.coeff_bits
        return out


def metric_units():
    """(name, unit) of every metric Tracer.metrics() reports."""
    out = []
    for stage in STAGES:
        out += [("stage.%s.self_s" % stage, "s"),
                ("stage.%s.calls" % stage, "count")]
    out += [("cli.main.self_s", "s"), ("cli.main.calls", "count"),
            ("algebra.render.self_s", "s"), ("algebra.render.calls", "count")]
    out += [("layer.%s.self_s" % layer, "s") for layer in LAYERS]
    out += [(name, "count") for name in COUNTERS]
    out += [("algebra.divide_linear.useful_ratio", "ratio"),
            ("algebra.coeff_bits_max", "bits")]
    return out
