"""Genus evaluation by fixed-point localization.

A fixed-point datum contributes sign(x) / prod_j (weight-series of w_j(x));
the sum over fixed points is an honest power series exactly when the
Conner-Floyd relations hold, and its homogeneous pieces are the cf
coefficients (the constant one being the non-equivariant genus).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from toricgenera.algebra import (
    LocalizedSum,
    MultiSeries,
    NormalizeError,
    NotDivisibleError,
    canonical_linear_form,
)
from toricgenera.fgl import weight_series
from toricgenera.quasitoric import (
    FixedPoint,
    FixedPointData,
    generic_direction,
    restrict_to_subcircle,
    signs_and_weights,
    simplex_pair,
    special_check,
)


class ConnerFloydViolation(ArithmeticError):
    """Fixed point data fails the Conner-Floyd relations for a genus."""

    def __init__(self, l, detail=None):
        self.l = l
        super().__init__(detail or
                         "Conner-Floyd relation cf_%d = 0 is violated" % l)


class FunctionalEquationError(ArithmeticError):
    """The rigidity functional equation has a non-constant left side."""


# ---------------------------------------------------------------------------
# bundled datasets
# ---------------------------------------------------------------------------

def dataset(name):
    """Bundled fixed-point data: "s6", "flag3" or "cp1"."""
    if name == "s6":
        return FixedPointData(3, 2, [
            FixedPoint("x1", 1, [(1, 0), (0, 1), (-1, -1)]),
            FixedPoint("x2", 1, [(-1, 0), (0, -1), (1, 1)]),
        ])
    if name == "flag3":
        basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        points = []
        for perm in itertools.permutations(range(3)):
            weights = []
            for i in range(3):
                for j in range(i + 1, 3):
                    weights.append(tuple(
                        basis[perm[i]][t] - basis[perm[j]][t] for t in range(3)))
            label = "".join(str(p + 1) for p in perm)
            points.append(FixedPoint(label, 1, weights))
        return FixedPointData(3, 3, points)
    if name == "cp1":
        return FixedPointData(1, 1, [
            FixedPoint("x0", 1, [(1,)]),
            FixedPoint("x1", 1, [(-1,)]),
        ])
    raise KeyError("unknown dataset %r" % name)


# ---------------------------------------------------------------------------
# the localized sum of a fixed point datum
# ---------------------------------------------------------------------------

def _point_product(spec, point, k, order):
    """The product of the weight series [w](u) at ``point``, exact to
    ``order``."""
    prod = MultiSeries.constant(spec.ring, k, order, 1)
    for w in point.weights:
        prod = prod * weight_series(spec, w, k)
    return prod


def localized_sum(fpd, genus, mode, order):
    """Represent sum_x sign(x) prod_j 1/(weight series) as a LocalizedSum.

    In linear mode the weight series of w is b(w.u) = (w.u) b_+(w.u), so
    each factor is a_+(w.u) / (w.u) with the univariate unit a_+ = 1/b_+:
    the numerator of a point is sign(x) / prod_j content(w_j) times
    prod_j a_+(w_j.u), exact to order + n, over the multiset of primitive
    forms of its weights.

    Universal mode (the slow reference for ``phi``) divides the product
    of the full [w](u) exactly by as many of its primitive linear factors
    as possible; any residual factors are expanded as a finite geometric
    tail, which is exact to the working order.  Division failures surface
    later, in normalize().
    """
    if mode not in ("linear", "universal"):
        raise ValueError("mode must be 'linear' or 'universal'")
    k, n = fpd.k, fpd.n
    ls = LocalizedSum(genus.ring, k, order)
    if mode == "linear":
        top = order + n
        aplus = genus.at_order(top + 1).a_plus()
        for point in fpd.points:
            scale = Fraction(point.sign)
            den = {}
            for w in point.weights:
                prim, s = canonical_linear_form(w)
                den[prim] = den.get(prim, 0) + 1
                scale /= s
            num = MultiSeries.constant(genus.ring, k, top, scale)
            for w in point.weights:
                num = num * aplus.compose_at_linear(w, k, top)
            ls.add_term(num, den)
        return ls
    exact = order + 2 * n
    spec = genus.at_order(exact)
    for point in fpd.points:
        prims = []
        scale = Fraction(1)
        for w in point.weights:
            prim, s = canonical_linear_form(w)
            prims.append(prim)
            scale *= s
        Q = _point_product(spec, point, k, exact)
        divided, residual = [], []
        for prim in prims:
            try:
                Q = Q.divide_linear(prim)
                divided.append(prim)
            except NotDivisibleError:
                residual.append(prim)
        if not residual:
            den = {}
            for prim in prims:
                den[prim] = den.get(prim, 0) + 1
            ls.add_term(Q.invert_unit().scale(point.sign), den)
            continue
        # geometric tail over the residual linear factors; the product must
        # be exact to the top term's demand plus the n_h degrees consumed
        # by the exact divisions
        n_h, n_r = len(divided), len(residual)
        imax = order + n
        big = order + 2 * n_h + (imax + 1) * n_r
        Q = _point_product(genus.at_order(big), point, k, big)
        for prim in divided:
            Q = Q.divide_linear(prim)
        low = Q.homogeneous_component(n_r)
        R = Q - low
        base_den = {}
        for prim in divided:
            base_den[prim] = base_den.get(prim, 0) + 1
        rpow = MultiSeries.constant(genus.ring, k, Q.order, 1)
        for i in range(imax + 1):
            den = dict(base_den)
            for prim in residual:
                den[prim] = den.get(prim, 0) + (i + 1)
            num = rpow.truncate(order + n_h + (i + 1) * n_r)
            num = num.scale(Fraction(point.sign * (-1) ** i) / scale ** (i + 1))
            if not num.is_zero():
                ls.add_term(num, den)
            rpow = rpow * R
            if rpow.is_zero():
                break
    return ls


def phi(fpd, genus, mode, order):
    """The equivariant genus of the fixed point data, as a power series.

    Linear mode normalizes the localized sum directly; universal mode is
    the linear series reparametrized along the logarithm, u_i -> m(u_i),
    which is the same substitution that linearizes every weight series.
    """
    try:
        linear = localized_sum(fpd, genus, "linear", order).normalize()
    except NormalizeError as exc:
        raise ConnerFloydViolation(
            fpd.n + exc.net_degree,
            "fixed point data violates the Conner-Floyd relations: "
            "non-cancelling terms at cf_%d" % (fpd.n + exc.net_degree)) from exc
    if mode == "linear":
        return linear
    if mode == "universal":
        # a genus is exact to order >= 1; the order-0 logarithm is 0
        m = genus.at_order(max(order, 1)).logarithm.truncate(order)
        images = [m.embed(fpd.k, [i]) for i in range(fpd.k)]
        return linear.substitute(images) if fpd.k else linear
    raise ValueError("mode must be 'linear' or 'universal'")


# ---------------------------------------------------------------------------
# cf coefficients
# ---------------------------------------------------------------------------

class CfEntry:
    """One coefficient cf_l: a homogeneous series, or a violation."""

    __slots__ = ("l", "series", "violation")

    def __init__(self, l, series=None, violation=None):
        self.l = l
        self.series = series
        self.violation = violation

    @property
    def ok(self):
        return self.violation is None

    def is_zero(self):
        return self.ok and self.series.is_zero()

    def value_str(self):
        if self.ok:
            return str(self.series)
        num, den = self.violation
        parts = []
        for form, mult in sorted(den.items()):
            s = str(MultiSeries.linear_form(num.ring, num.k, 1, form))
            parts.append("(%s)%s" % (s, "^%d" % mult if mult > 1 else ""))
        return "(%s) / [%s]" % (num, " ".join(parts))

    def __repr__(self):
        return "cf_%d = %s" % (self.l, self.value_str())


class CfSeries:
    """The coefficients cf_l, 0 <= l <= n + order, of a fixed point datum.

    cf_l vanishes for l < n exactly when the data satisfies the
    Conner-Floyd relations; cf_n is the genus and cf_{n+m} is homogeneous
    of u-degree m.
    """

    def __init__(self, n, genus_name, entries):
        self.n = n
        self.genus_name = genus_name
        self.entries = entries

    def entry(self, l):
        return self.entries[l]

    def __iter__(self):
        return iter(self.entries)

    def first_violation(self):
        for e in self.entries:
            if not e.is_zero():
                if e.l < self.n or not e.ok:
                    return e.l
        return None

    def conner_floyd_ok(self):
        return all(e.is_zero() for e in self.entries if e.l < self.n)

    def rigid(self):
        return (self.conner_floyd_ok()
                and all(e.is_zero() for e in self.entries if e.l > self.n))

    def genus_value(self):
        """cf_n; raises ConnerFloydViolation at the first l < n with
        cf_l != 0, or when cf_n is not a power series."""
        bad = self.first_violation()
        if bad is not None and bad < self.n:
            raise ConnerFloydViolation(bad)
        e = self.entries[self.n]
        if not e.ok:
            raise ConnerFloydViolation(self.n, "cf_n is not defined")
        return e.series.constant_term()


def cf_series(fpd, genus, order):
    """Compute cf_l for 0 <= l <= n + order (linear mode).

    The common-denominator representation keeps the principal part exact,
    so violations in degrees l < n are detected and reported verbatim.
    """
    n = fpd.n
    ls = localized_sum(fpd, genus, "linear", order)
    D = ls.common_denominator()
    entries = [CfEntry(l, MultiSeries.zero(genus.ring, fpd.k, max(l - n, 0)))
               for l in range(n + order + 1)]
    # each point contributes over n linear forms, so the lowest non-zero
    # component has net degree >= -n
    for net, comp, quotient in ls._quotients():
        l = n + net
        entries[l] = CfEntry(l, violation=(comp, D)) if quotient is None \
            else CfEntry(l, quotient.truncate(max(net, 0)))
    return CfSeries(n, genus.name, entries)


def genus_value(fpd, genus):
    """The non-equivariant genus cf_n; raises on Conner-Floyd failure."""
    return cf_series(fpd, genus, 0).genus_value()


def circle_genus_value(fpd, genus):
    """genus_value on the generic circle of ``fpd``.

    Exact only when the Conner-Floyd relations are known to hold, as for
    the fixed points of a validated quasitoric pair: cf_n is then a
    constant, which every generic circle sees unchanged.  Data without a
    torus (k = 0) is evaluated as it is.
    """
    if fpd.k:
        fpd = restrict_to_subcircle(fpd, generic_direction(fpd))
    return genus_value(fpd, genus)


class SpecialVanishingReport:
    def __init__(self, n, kv_value, kv_rigid, hr_value):
        self.n = n
        self.kv_value = kv_value
        self.kv_rigid = kv_rigid
        self.hr_value = hr_value

    @property
    def ok(self):
        out = self.kv_value.is_zero() and self.kv_rigid
        if self.hr_value is not None:
            out = out and self.hr_value.is_zero()
        return out


def special_vanishing_check(pair, order, krichever_genus, hurewicz_genus=None):
    """For a special omniorientation: the Krichever genus vanishes and is
    rigid to ``order``; in dimensions < 5 the cobordism class itself
    vanishes (checked through the hurewicz genus when supplied)."""
    if not special_check(pair.lam):
        raise ValueError("pair %r is not specially omnioriented" % pair.name)
    return special_vanishing(signs_and_weights(pair), order, krichever_genus,
                             hurewicz_genus)


def special_vanishing(fpd, order, krichever_genus, hurewicz_genus=None):
    """``special_vanishing_check`` on the fixed points of a specially
    omnioriented pair."""
    cf = cf_series(fpd, krichever_genus, order)
    kv_value = cf.genus_value()
    hr_value = None
    if fpd.n < 5 and hurewicz_genus is not None:
        hr_value = circle_genus_value(fpd, hurewicz_genus)
    return SpecialVanishingReport(fpd.n, kv_value, cf.rigid(), hr_value)


# ---------------------------------------------------------------------------
# pairing obstruction
# ---------------------------------------------------------------------------

def _block_vanishes(fpd, indices, augmentation):
    """Exact vanishing of the augmentation-genus sum over a block.

    Each term is homogeneous of net degree -n, so the block sum vanishes
    as a rational function iff the cross-multiplied numerator is zero.
    """
    sub = FixedPointData(fpd.n, fpd.k, [fpd.points[i] for i in indices])
    ls = localized_sum(sub, augmentation, "linear", 0)
    S, _D = ls.over_common_denominator()
    return S.is_zero()


class PairingReport:
    def __init__(self, blocks, vanishing):
        self.blocks = blocks
        self.vanishing = vanishing

    @property
    def ok(self):
        return all(self.vanishing)


def pairing_obstruction(fpd, augmentation, blocks=None, search=False):
    """Test blockwise vanishing of the augmentation-genus localization.

    With ``blocks`` (a partition of the point indices), reports which
    blocks sum to zero.  With ``search=True``, enumerates all perfect
    pairings and returns the list of (pairing, report) for those that
    vanish entirely.
    """
    if search:
        idx = list(range(len(fpd.points)))
        if len(idx) % 2:
            raise ValueError("perfect pairings need an even point count")
        found = []
        for pairing in _perfect_pairings(idx):
            vanishing = [_block_vanishes(fpd, b, augmentation) for b in pairing]
            if all(vanishing):
                found.append(PairingReport(pairing, vanishing))
        return found
    if blocks is None:
        raise ValueError("provide explicit blocks or search=True")
    seen = sorted(i for b in blocks for i in b)
    if seen != list(range(len(fpd.points))):
        raise ValueError("blocks must partition the point set")
    vanishing = [_block_vanishes(fpd, b, augmentation) for b in blocks]
    return PairingReport([list(b) for b in blocks], vanishing)


def _perfect_pairings(indices):
    if not indices:
        yield []
        return
    first, rest = indices[0], indices[1:]
    for i, second in enumerate(rest):
        remaining = rest[:i] + rest[i + 1:]
        for tail in _perfect_pairings(remaining):
            yield [[first, second]] + tail


# ---------------------------------------------------------------------------
# rigidity functional equations
# ---------------------------------------------------------------------------

def functional_equation_data(which):
    """Fixed point data behind the named rigidity functional equation."""
    if which == "cp1":
        return dataset("cp1")
    if which == "cp2":
        return signs_and_weights(simplex_pair(2, (1, -1)))
    if which == "s6":
        return dataset("s6")
    raise KeyError("unknown functional equation %r" % which)


def functional_equation_check(which, genus, order):
    """Evaluate the named localization sum; return the constant if the
    result is constant, else raise FunctionalEquationError."""
    fpd = functional_equation_data(which)
    try:
        series = phi(fpd, genus, "linear", order)
    except ConnerFloydViolation as exc:
        raise FunctionalEquationError(
            "localization sum is not a power series: %s" % exc) from exc
    c = series.constant_term()
    if not (series - c).is_zero():
        raise FunctionalEquationError(
            "genus %r is not rigid on %s: non-constant terms %s"
            % (genus.name, which, series - c))
    return c


# ---------------------------------------------------------------------------
# the P_omega polynomials
# ---------------------------------------------------------------------------

def p_omega(nvars, genus, order):
    """Coefficients of prod_{i<j} a_+(u_i - u_j) = 1 + sum P_w u^w.

    The conjugate-orientation unit series evaluated along all positive
    roots; the grading in the formal parameter coincides with the total
    u-degree, so the coefficients are read off directly.
    """
    aplus = genus.at_order(order + 1).a_plus()
    prod = MultiSeries.constant(genus.ring, nvars, order, 1)
    for i in range(nvars):
        for j in range(i + 1, nvars):
            w = tuple(1 if t == i else (-1 if t == j else 0)
                      for t in range(nvars))
            prod = prod * aplus.compose_at_linear(w, nvars, order)
    return {e: p for e, p in prod.terms.items()}
