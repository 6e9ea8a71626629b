"""Genera as exponential series, their formal group laws, and the catalog.

A genus is described by its exponential series b(x) = x + b1 x^2 + ... over
a graded coefficient ring; the logarithm m(x) is the reverse series and the
group law is F(u1, u2) = b(m(u1) + m(u2)).  The catalog covers the familiar
examples (Todd, signature, c_n, Abel, two-parameter Todd, elliptic) together
with the Krichever genus x exp(E), E built from Weierstrass functions by
integer recurrences for the Taylor and Laurent coefficients of p.

Every catalog builder returns its exponential as ``_flatten``'s integer
rows (see ``algebra``), the builders of signature, t2, elliptic and
Krichever by chaining the row kernels of inversion, product, the degree
recurrence, integration and reversion.  A monomial is its packed
generator exponent throughout, the key of the rows and of ``Poly.terms``
alike, so the Weierstrass recurrences add the packed exponents of a, p2,
p3 and g2.  A genus keeps its builder's rows: its unit a_+ is inverted
straight from them, per order, for the linear localized sum, and its
logarithm is reverted from them; the exponential series is boxed from
them on first use only.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, factorial, lcm

from toricgenera.algebra import (
    _FIELD,
    _add_product,
    _assemble,
    _boxed,
    _flatten,
    _integrate_rows,
    _invert_rows,
    _lowest_terms,
    _pack,
    _recurrence_rows,
    _revert_rows,
    _rows_product,
    MultiSeries,
    Poly,
    QQ,
    make_ring,
)


class BsfglShapeError(ArithmeticError):
    """The group law is not of Krichever form."""

    def __init__(self, degree, message=None):
        self.degree = degree
        super().__init__(message or
                         "group law fails the Krichever shape "
                         "at degree %d" % degree)


class GenusSpec:
    """A genus: name, coefficient ring and the int rows of its exponential.

    A genus keeps ``_flatten``'s (den, rows) of its exponential b(x),
    exact to the declared ``order``, with the builder M -> (den, rows)
    that extends it.  ``exponential`` is boxed from the rows on first
    use; the logarithm (exact to ``order``) is ``_revert_rows`` of the
    rows, boxed once, and ``a_plus`` (exact to ``order - 1``) the unit
    1/b_+, boxed from the cached rows of ``_a_plus_rows``.
    ``at_order(m)`` is the same genus exact to m and no further, over the
    same ring.

    ``GenusSpec(name, exponential, builder)`` checks a series b(x) = x +
    ..., flattens it once and keeps it as the boxed exponential; its
    ``builder``, M -> series exact to M, is checked and flattened the
    same way on every rebuild.
    """

    def __init__(self, name, exponential, builder=None):
        self._store(name, exponential.ring, exponential.order,
                    _checked_rows(exponential),
                    builder and (lambda M: _checked_rows(builder(M))))
        self.exponential = exponential

    @classmethod
    def _of_rows(cls, name, ring, order, builder, rows=None):
        """The genus exact to ``order`` of the row builder, from ``rows``
        or, if None, from ``builder(order)``; nothing is checked."""
        self = object.__new__(cls)
        self._store(name, ring, order,
                    builder(order) if rows is None else rows, builder)
        return self

    def _store(self, name, ring, order, rows, builder):
        self.name = name
        self.ring = ring
        self.order = order
        self._den, self._rows = rows
        self._builder = builder
        self._logarithm = None
        self._a_plus = {}  # top -> the rows of _a_plus_rows
        self._at_order = {}

    @functools.cached_property
    def exponential(self):
        return _boxed(self.ring, 1, self.order, self._den, self._rows)

    @property
    def logarithm(self):
        if self._logarithm is None:
            self._logarithm = _boxed(self.ring, 1, self.order, *_revert_rows(
                self._den, self._rows, self.order))
        return self._logarithm

    def at_order(self, order):
        """The genus exact to ``order`` >= 1: this one, its rows truncated,
        or a rebuild by the builder when ``order`` exceeds this one's.
        Each order is derived once, so its logarithm and a_+ are cached
        too."""
        if order < 1:
            raise ValueError("a genus is exact to order >= 1, not %d" % order)
        if order > self.order and self._builder is None:
            raise ValueError("genus %r cannot be extended beyond order %d"
                             % (self.name, self.order))
        if order == self.order:
            return self
        if order not in self._at_order:
            rows = _lowest_terms(self._den, [
                row for row in self._rows if row[1] <= order]) \
                if order < self.order else None
            self._at_order[order] = GenusSpec._of_rows(
                self.name, self.ring, order, self._builder, rows)
        return self._at_order[order]

    def b_plus(self):
        """The unit series b(x)/x."""
        return self.exponential.shift_down(0)

    def _a_plus_rows(self, top):
        """(den, {t: [(packed generator exponent, int)]}), a_t = rows[t] /
        den for t <= top with a_t != 0: a_+ = x / b(x) by ``_invert_rows``
        on the stored rows of degree <= top + 1 shifted down one degree,
        derived once per top.  The genus is rebuilt by ``at_order`` only
        when it is exact to less than top + 1.  Callers only read the
        result."""
        if top not in self._a_plus:
            spec = self if self.order > top else self.at_order(top + 1)
            den, rows = _invert_rows(spec._den, [
                ((d - 1,), d - 1, p) for _e, d, p in spec._rows
                if d <= top + 1], top)
            self._a_plus[top] = den, {d: p for _e, d, p in rows}
        return self._a_plus[top]

    def a_plus(self):
        """The unit series a_+ = 1/b_+ = x/b(x), exact to order - 1."""
        top = self.order - 1
        den, rows = self._a_plus_rows(top)
        return _assemble(self.ring, 1, top,
                         {(t,): dict(p) for t, p in rows.items()}, den)

    def exp_coefficient(self, j):
        """b_j, the coefficient of x^{j+1} in the exponential."""
        return self.exponential.coefficient((j + 1,))

    def __repr__(self):
        return "GenusSpec(%r, order=%d)" % (self.name, self.order)


def _checked_rows(exponential):
    """``_flatten``'s (den, rows) of a series b(x) = x + ..., checked."""
    if exponential.k != 1:
        raise ValueError("exponential must be univariate")
    if not exponential.constant_term().is_zero():
        raise ValueError("exponential must have zero constant term")
    if exponential.coefficient((1,)).constant_value() != 1:
        raise ValueError("exponential must start with x")
    return _flatten(exponential.terms, exponential.order)


def fgl_from_exponential(spec, order=None):
    """The group law F(u1, u2) = b(m(u1) + m(u2)) of the genus, a series
    in two variables exact to ``order`` (default: the genus's own)."""
    if order is not None:
        spec = spec.at_order(order)
    return weight_series(spec, (1, 1), 2)


def logarithm_from_fgl(F):
    """Recover m from a group law: m'(u) = 1/(dF/du2 at u2=0), m(0) = 0."""
    if F.k != 2:
        raise ValueError("a formal group law has two variables")
    u = MultiSeries.variable(F.ring, 1, F.order, 0)
    if F.slice_var(1, 0) != u or F.slice_var(0, 0) != u:
        raise ValueError("group law is not unital")
    f1 = F.slice_var(1, 1)
    return f1.invert_unit().integrate().truncate(F.order)


def m_series(spec, m):
    """The power system [m](u) = b(m * logarithm(u))."""
    return spec.exponential.substitute([spec.logarithm.scale(m)])


def weight_series(spec, w, k):
    """The first Chern class series of a weight-w line bundle."""
    if len(w) != k:
        raise ValueError("weight length must equal the variable count")
    if not any(w):
        raise ValueError("zero weight vector")
    m = spec.logarithm
    g = MultiSeries.zero(spec.ring, k, m.order)
    for i, wi in enumerate(w):
        if wi:
            g = g + m.in_slot(k, i).scale(wi)
    return spec.exponential.substitute([g])


def conjugate_orientation(spec):
    """The complementary orientation a(x) = x^2 / b(x); a_+ = 1/b_+."""
    x = MultiSeries.variable(spec.ring, 1, spec.order, 0)
    return x * spec.a_plus()


def projective_space_value(spec, n):
    """Genus of CP^n through the logarithm: (n+1) * m_n."""
    spec = spec.at_order(n + 1)
    return spec.logarithm.coefficient((n + 1,)) * (n + 1)


# ---------------------------------------------------------------------------
# the catalog: one builder M -> the rows of the exponential exact to M per
# genus
# ---------------------------------------------------------------------------

def _augmentation(M):
    return 1, [((1,), 1, [(0, 1)])]


def _hurewicz_ring(generators):
    return make_ring(*[("b%d" % j, 2 * j) for j in range(1, generators + 1)])


def _hurewicz(generators, M):
    """x + sum_j b_j x^(j+1), degrees above M dropped; the packed
    exponent of b_j is 1 in its field, j - 1 (``_FIELD``)."""
    return 1, [((1,), 1, [(0, 1)])] + [
        ((j + 1,), j + 1, [(1 << _FIELD * (j - 1), 1)])
        for j in range(1, min(generators, M - 1) + 1)]


def _univariate_rows(den, acc):
    """``_flatten``'s (L, rows) of the univariate series acc / den, for an
    int product {u-exponent: {packed generator exponent: int}}."""
    return _lowest_terms(den, [
        (e, e[0], nz) for e, p in sorted(acc.items())
        if (nz := [(g, c) for g, c in p.items() if c])])


_Z_RING = make_ring(("z", 2))
_V_RING = make_ring(("v", 2))
_YZ_RING = make_ring(("y", 2), ("z", 2))
_ELLIPTIC_RING = make_ring(("delta", 4), ("eps", 8))
_DELTA, _EPS = _pack((1, 0)), _pack((0, 1))


def _todd(M):
    """(e^(zx) - 1) / z = sum_j z^j x^(j+1) / (j+1)!, over M!.  Over one
    generator the packed exponent of z^j is j."""
    top = factorial(M)
    return top, [((j + 1,), j + 1, [(j, top // factorial(j + 1))])
                 for j in range(M)]


def _cn(M):
    """sum_j (-v)^j x^(j+1), over 1."""
    return 1, [((j + 1,), j + 1, [(j, (-1) ** j)]) for j in range(M)]


def _complete_homogeneous(j, c, shift=0):
    """The rows entry [(packed exponent, c)] of c * h_j(y, z) * (y z)^shift,
    h_j(y, z) = sum_{i=0..j} y^i z^(j-i); y^a z^b packs as a + b * 2^64
    (``_FIELD``)."""
    return [(i + shift + ((j - i + shift) << _FIELD), c)
            for i in range(j + 1)]


def _abel(M):
    """(M!, rows) of the abel exponential sum_j h_j(y, z) x^(j+1) / (j+1)!."""
    top = factorial(M)
    return top, [((j + 1,), j + 1,
                  _complete_homogeneous(j, top // factorial(j + 1)))
                 for j in range(M)]


def _t2(M):
    """(e^{yx} - e^{zx}) / (y e^{zx} - z e^{yx}), with the factor y - z
    cancelled exactly from numerator and denominator so that y = z is a
    legal specialization: the abel rows times the inverse rows of the
    denominator."""
    top, abel = _abel(M)
    den, inverse = _invert_rows(top, [((0,), 0, [(0, top)])] + [
        ((m,), m, _complete_homogeneous(m - 2, -(top // factorial(m)), 1))
        for m in range(2, M + 1)], M)
    return _univariate_rows(top * den, _rows_product(abel, inverse, M))


def _signature(M):
    """tanh(zx) / z: the rows of z^-1 sinh(zx) times the inverse rows of
    cosh(zx), both over M!.  Over one generator the packed exponent of
    z^j is j."""
    top = factorial(M)
    sinh = [((j,), j, [(j - 1, top // factorial(j))])
            for j in range(1, M + 1, 2)]
    den, inverse = _invert_rows(top, [
        ((j,), j, [(j, top // factorial(j))])
        for j in range(0, M + 1, 2)], M)
    return _univariate_rows(top * den, _rows_product(sinh, inverse, M))


def _elliptic(M):
    """The reverse of the integral of (1 - 2 delta t^2 + eps t^4)^(-1/2):
    the degree recurrence with alpha = -1/2 to order M - 1, integrated to
    order M and reverted, on rows."""
    R = [((0,), 0, [(0, 1)]), ((2,), 2, [(_DELTA, -2)]),
         ((4,), 4, [(_EPS, 1)])]
    return _revert_rows(*_integrate_rows(*_recurrence_rows(
        1, R, 1, M - 1, Fraction(1, 2), -1)), M)


# -- Krichever genus --------------------------------------------------------

_KRING = make_ring(("a", 2), ("p2", 4), ("p3", 6), ("g2", 8))
# the packed exponents of a, p2, p3 and g2; a monomial's is their sum
_A, _P2, _P3, _G2 = (_pack(e) for e in ((1, 0, 0, 0), (0, 1, 0, 0),
                                        (0, 0, 1, 0), (0, 0, 0, 1)))


def _weierstrass_taylor(count):
    """R_0..R_(count-1), int polynomials {packed exponent over (a, p2, p3,
    g2): int}."""
    R = [{_P2: 2}, {_P3: 2}, {2 * _P2: 12, _G2: -1}]
    for j in range(1, count - 2):
        acc = {}
        for i in range(j + 1):
            _add_product(acc, R[i].items(), R[j - i].items(), 3 * comb(j, i))
        R.append({g: c for g, c in acc.items() if c})
    return R[:max(count, 0)]


def _weierstrass_laurent(count):
    """{j: (int polynomial, denominator) of c_j} for 2 <= j <= max(count, 3),
    the polynomials keyed as in ``_weierstrass_taylor``."""
    c = {2: ({_G2: 1}, 20),
         3: ({3 * _P2: 4, _P2 + _G2: -1, 2 * _P3: -1}, 28)}
    for j in range(4, count + 1):
        pairs = [(c[i], c[j - i]) for i in range(2, j - 1)]
        den = lcm(*(d1 * d2 for (_n1, d1), (_n2, d2) in pairs))
        acc = {}
        for (n1, d1), (n2, d2) in pairs:
            _add_product(acc, n1.items(), n2.items(), 3 * den // (d1 * d2))
        c[j] = ({g: x for g, x in acc.items() if x},
                (2 * j + 1) * (j - 3) * den)
    return c


def _krichever(M):
    """The Baker-Akhiezer exponential x e^{ax} / (x phi(x, z)) = x exp(E)
    over Q[a, p2, p3, g2] with p2 = p(z), p3 = p'(z).

    E = a x + (integral of zeta(z - s) - zeta(z) from 0 to x) + log(sigma(x)
    / x).  Its x^(j+2) term is (-1)^j R_j / (2 (j+2)!), with R_j = 2 D^j(p2)
    for the derivation D p2 = p3, D p3 = 6 p2^2 - g2/2: R_0 = 2 p2, R_1 =
    2 p3, R_2 = 12 p2^2 - g2 and R_(j+2) = 3 sum_(i=0..j) C(j, i) R_i R_(j-i)
    for j >= 1.  Its x^(2j) term is -c_j / (2j (2j-1)), with c_j the Laurent
    coefficients of p(x) = 1/x^2 + sum c_j x^(2j-2): c_2 = g2/20, c_3 = g3/28
    with g3 = 4 p2^3 - g2 p2 - p3^2, and c_j = 3/((2j+1)(j-3)) sum_(i=2..j-2)
    c_i c_(j-i) for j >= 4.  exp(E) is taken once on E's rows, to order
    M - 1, by the degree recurrence, and shifted up one degree."""
    top = M - 1
    parts = [(1, {_A: 1}, 1)]  # (degree, int polynomial, divisor)
    parts += [(j + 2, R_j, (-1) ** j * 2 * factorial(j + 2))
              for j, R_j in enumerate(_weierstrass_taylor(top - 1))]
    parts += [(2 * j, c_j, -2 * j * (2 * j - 1) * den)
              for j, (c_j, den) in _weierstrass_laurent(top // 2).items()]
    parts = [part for part in parts if part[0] <= top]
    den = lcm(*(q for _d, _p, q in parts))
    acc = {}
    for d, poly, q in parts:
        _add_product(acc.setdefault(d, {}), poly.items(), [(0, 1)], den // q)
    den, rows = _recurrence_rows(*_lowest_terms(den, [
        ((d,), d, [(g, c) for g, c in out.items() if c])
        for d, out in sorted(acc.items())]), 1, top, 1, 0)
    return den, [((d + 1,), d + 1, p) for _e, d, p in rows]


def krichever_exponential(order):
    """The Krichever genus with its exponential exact to ``order``."""
    return GenusSpec._of_rows("krichever", _KRING, order, _krichever)


# name -> (ring, builder M -> ``_flatten``'s (den, rows) of the exponential
# exact to M); hurewicz's ring and builder take its generator count first
CATALOG = {
    "augmentation": (QQ, _augmentation),
    "hurewicz": (_hurewicz_ring, _hurewicz),
    "todd": (_Z_RING, _todd),
    "cn": (_V_RING, _cn),
    "abel": (_YZ_RING, _abel),
    "t2": (_YZ_RING, _t2),
    "signature": (_Z_RING, _signature),
    "elliptic": (_ELLIPTIC_RING, _elliptic),
    "krichever": (_KRING, _krichever),
}
CATALOG_NAMES = tuple(CATALOG)


def catalog(name, order, generators=None):
    """Build a named genus, its exponential exact to ``order + 2``.

    Consumers take the order they need through ``at_order``; the CLI's
    genus builds rest on the margin of 2, which the benchmark's
    ``localize.excess_order`` probe measures.  ``generators`` selects the
    polynomial generator count of the hurewicz genus (default: order).
    Both are checked before anything is built.
    """
    if name not in CATALOG:
        raise KeyError("unknown genus %r" % name)
    if order < -1:
        raise ValueError("a catalog genus is built to order >= -1, not %d"
                         % order)
    if name == "hurewicz" and generators is None:
        generators = order
    if generators is not None and generators < 1:
        raise ValueError("generators must be >= 1, not %d" % generators)
    ring, build = CATALOG[name]
    if name == "hurewicz":
        ring, build = ring(generators), functools.partial(build, generators)
    return GenusSpec._of_rows(name, ring, order + 2, build)


# ---------------------------------------------------------------------------
# Krichever shape of a group law
# ---------------------------------------------------------------------------

class BsfglShape:
    """Recovered parameters of F = u1 c(u2) + u2 c(u1) - a u1 u2 - Q u1^2 u2^2."""

    def __init__(self, a, c, d):
        self.a = a
        self.c = c
        self.d = d


def verify_bsfgl_shape(spec, order):
    """Recover (a, c, d) from the group law of ``spec`` and verify

        F = u1 c(u2) + u2 c(u1) - a u1 u2
            - u1^2 u2^2 (d(u1) - d(u2)) / (u1 c(u2) - u2 c(u1))

    as an identity of truncated series.  a is -2 f1 (forced: the linear
    coefficient of c must vanish), c = 1/m'(u) + a u, and d is read off the
    u2^2 coefficient of F.  Raises BsfglShapeError on failure.
    """
    M = order + 4  # margin so every recovered series is exact past `order`
    spec = spec.at_order(M)
    ring = spec.ring
    a = spec.exp_coefficient(1) * -2
    F = fgl_from_exponential(spec, M)
    mprime = spec.logarithm.derivative()
    au = MultiSeries(ring, 1, M - 1, {(1,): a})
    c = mprime.invert_unit() + au
    if not c.coefficient((1,)).is_zero():
        raise BsfglShapeError(1, "linear term of c does not cancel")
    c2 = c.coefficient((2,))
    F2 = F.slice_var(1, 2)
    if not F2.constant_term().is_zero():
        raise BsfglShapeError(2, "group law is not unital")
    d = MultiSeries.constant(ring, 1, F2.order - 1, c2) - F2.shift_down(0)

    ce1 = c.in_slot(2, 0)
    ce2 = c.in_slot(2, 1)
    u1 = MultiSeries.variable(ring, 2, M, 0)
    u2 = MultiSeries.variable(ring, 2, M, 1)
    head = u1 * ce2 + u2 * ce1 - (u1 * u2).scale(a)
    dnum = d.in_slot(2, 0) - d.in_slot(2, 1)
    dden = u1 * ce2 - u2 * ce1
    q = dnum.divide_linear((1, -1)) * dden.divide_linear((1, -1)).invert_unit()
    rhs = head - q * u1 * u1 * u2 * u2
    if not rhs.agrees_with(F, order):
        diff = rhs.truncate(order) - F.truncate(order)
        bad = min(sum(e) for e in diff.terms)
        raise BsfglShapeError(bad)
    return BsfglShape(a, c.truncate(order), d.truncate(order))


def elliptic_fgl_check(order):
    """Does the elliptic group law equal Euler's addition formula?"""
    spec = catalog("elliptic", order)
    F = fgl_from_exponential(spec, order)
    ring = spec.ring
    d, e = Poly.gen(ring, "delta"), Poly.gen(ring, "eps")
    R = MultiSeries(ring, 1, order, {(0,): Poly.constant(ring, 1),
                                     (2,): d * -2, (4,): e})
    c = R.sqrt_unit()
    u1 = MultiSeries.variable(ring, 2, order, 0)
    u2 = MultiSeries.variable(ring, 2, order, 1)
    num = u1 * c.in_slot(2, 1) + u2 * c.in_slot(2, 0)
    den = MultiSeries.constant(ring, 2, order, 1) - (u1 * u1 * u2 * u2).scale(e)
    return F.agrees_with(num * den.invert_unit(), order)


# ---------------------------------------------------------------------------
# characteristic-number evaluation
# ---------------------------------------------------------------------------

def partitions(n, cap=None):
    """All partitions of n with parts at most ``cap``, as descending
    tuples, in lexicographically descending order."""
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return out


def genus_from_chern_numbers(spec, n, chern):
    """Evaluate the genus from tangential characteristic numbers.

    ``chern`` maps each partition of n (descending tuple) to the
    characteristic number against the monomial-symmetric class of the
    normal bundle; the result is sum_w b^w chern(w).
    """
    spec = spec.at_order(n + 1)
    total = Poly.zero(spec.ring)
    for part in partitions(n):
        if part not in chern:
            raise KeyError("missing Chern number for partition %r" % (part,))
        coeff = Poly.constant(spec.ring, 1)
        for j in part:
            coeff = coeff * spec.exp_coefficient(j)
        total = total + coeff * Fraction(chern[part])
    return total
