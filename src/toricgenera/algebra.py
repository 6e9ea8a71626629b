"""Exact sparse polynomials and truncated multivariate power series.

Coefficient arithmetic is exact rational (fractions.Fraction) throughout;
there is no floating point anywhere.  Power series live in torus variables
u1..uk and are truncated by *total* u-degree; the coefficients are sparse
polynomials in a fixed tuple of named, evenly graded generators.

All values are immutable after construction; every operation returns a new
object, so sharing across threads is safe.

A generator exponent is one packed int everywhere (``_pack``): it keys
``Poly.terms`` and the integer rows alike, so the exponent of a product is
the int sum g1 + g2.  ``Poly(ring, {exponent tuple: c})`` checks and packs
each exponent where it enters, and ``Poly.sorted_terms`` unpacks them for
the text, JSON and ``substitute_gens``; a series keeps its u-exponents as
tuples, which ``MultiSeries(...)`` checks the same way.
Arithmetic runs on flat integer rows: ``_flatten`` brings a series over one
common integer denominator as rows (u-exponent, degree, [(packed generator
exponent, numerator)]), and ``_assemble`` makes one Fraction per non-zero
sum.  Every product adds plain int products per generator exponent with
``_add_product``: a ``Poly`` product on its terms, and every series
product per u-exponent in one kernel, ``_product``, which ``*``,
``scale`` and ``**`` call.  The row kernels ``_invert_rows`` (1 / F),
``_recurrence_rows`` (the unit powers and exp, by a degree recurrence),
``_revert_rows`` (the reverse series, by an int power table) and
``_integrate_rows`` each take and return rows over their least common
denominator, with no Fraction between steps; ``invert_unit``,
``_recurrence``, ``revert`` and ``integrate`` box them.  The genus
catalog chains them and keeps the rows: a genus boxes its exponential
only when it is asked for, and its logarithm and a_+ from their own
rows (see ``fgl``).
``MultiSeries.compose_at_linear`` writes each term c_d (w . u)^d straight
into its u-monomials, and ``MultiSeries.substitute`` runs one such pass
per variable over int power tables of the images.
``LocalizedSum.over_common_denominator`` multiplies each numerator by the
int polynomial of its missing forms (``_expand_forms``) into one such
accumulator (a linear localized sum arrives already cross-multiplied).
``MultiSeries.divide_linear``, the Conner-Floyd cancellation, is long
division on the form's first non-zero variable; ``_divide_forms`` is the
same division on int polynomials, which the linear localized sum runs on
its genus-free partition sums before any coefficient ring enters.

Both classes serialize through one canonical form: ``_sorted_terms`` orders
a term dict of exponent tuples by weighted degree (generator degrees for a
``Poly``, 1 per u-variable for a series), then by descending exponents,
and ``_render`` writes rows of (u-exponent, coefficient ``Poly``) as text,
naming each packed generator exponent once per call; a ``Poly`` is the
single row ``((), self)``.

Results are built with ``Poly._trusted`` and ``MultiSeries._trusted``,
which skip the re-validation of ``__init__``.  They may only be given
fresh dicts that no one else holds, with no zero coefficient, packed
generator exponents of the ring, u-exponent tuples of length k and every
u-degree <= order.
"""

from __future__ import annotations

import json
import operator
import re
import struct
from fractions import Fraction
from itertools import groupby
from math import factorial, gcd, lcm
from typing import NamedTuple


class NotDivisibleError(ArithmeticError):
    """Raised when an exact division by a linear form fails.

    ``degree`` is the total u-degree of the first homogeneous component
    that is not divisible.
    """

    def __init__(self, degree, form=None):
        self.degree = degree
        self.form = form
        msg = "not divisible by linear form at homogeneous degree %d" % degree
        if form is not None:
            msg += " (form %s)" % (form,)
        super().__init__(msg)


class NormalizeError(ArithmeticError):
    """Raised when a localized sum fails to be an honest power series.

    ``net_degree`` locates the lowest non-cancelling degree of the sum of
    rational functions (negative for principal parts).
    """

    def __init__(self, net_degree):
        self.net_degree = net_degree
        super().__init__(
            "localized sum is not a power series: non-cancelling terms at "
            "net degree %d" % net_degree)


class Generator(NamedTuple):
    """A named ring generator; ``make_ring`` checks its degree is even."""

    name: str
    degree: int


def make_ring(*gens):
    """Build a ring (ordered generator tuple) from (name, degree) pairs."""
    ring = tuple(Generator(*g) for g in gens)
    for i, g in enumerate(ring):
        if g.degree < 0 or g.degree % 2 != 0:
            raise ValueError("generator degree must be even and >= 0")
        if g.name in (h.name for h in ring[:i]):
            raise ValueError("duplicate generator name %r" % g.name)
    return ring


QQ = make_ring()  # the rationals: no generators


def _frac(x):
    """A coefficient as a Fraction: an int or a Fraction, not a bool."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError("expected an exact rational, got %r" % (x,))


class Poly:
    """Sparse polynomial over Q in the ring's generators.

    Terms map packed generator exponents (``_pack``) to nonzero
    Fractions; zero coefficients are never stored and serialization
    follows the one canonical order, so equal polynomials have identical
    representations.  The constructor takes exponent tuples and refuses
    an entry that is not an int in 0..2^32 - 1, naming it.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        n = len(ring)
        clean = {}
        for e, c in terms.items():
            if len(e) != n:
                raise ValueError("exponent length %d != ring size %d" % (len(e), n))
            g = _pack(e)
            c = _frac(c)
            if c:
                clean[g] = c
        self.terms = clean

    # -- constructors -------------------------------------------------
    @classmethod
    def _trusted(cls, ring, terms):
        """Wrap ``terms`` as is: a fresh dict of packed generator
        exponents to non-zero Fractions (see the module docstring)."""
        self = object.__new__(cls)
        self.ring = ring
        self.terms = terms
        return self

    @classmethod
    def zero(cls, ring):
        return cls._trusted(ring, {})

    @classmethod
    def constant(cls, ring, value):
        value = _frac(value)
        return cls._trusted(ring, {0: value} if value else {})

    @classmethod
    def gen(cls, ring, name, power=1):
        for i, g in enumerate(ring):
            if g.name == name:
                e = [0] * len(ring)
                e[i] = power
                return cls(ring, {tuple(e): 1})
        raise KeyError("no generator named %r" % name)

    # -- predicates ---------------------------------------------------
    def is_zero(self):
        return not self.terms

    def constant_value(self):
        """The rational value of a constant polynomial; None otherwise."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            g, c = next(iter(self.terms.items()))
            if not g:
                return c
        return None

    # -- arithmetic ---------------------------------------------------
    def _same_ring(self, other):
        if self.ring != other.ring:
            raise ValueError("polynomial ring mismatch")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.ring, other)
        self._same_ring(other)
        terms = dict(self.terms)
        for g, c in other.terms.items():
            s = terms.get(g, 0) + c
            if s:
                terms[g] = s
            else:
                terms.pop(g, None)
        return Poly._trusted(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.ring,
                             {g: -c for g, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            q = _frac(other)
            if not q:
                return Poly.zero(self.ring)
            return Poly._trusted(self.ring,
                                 {g: c * q for g, c in self.terms.items()})
        self._same_ring(other)
        terms = {}
        _add_product(terms, self.terms.items(), other.terms.items())
        return Poly._trusted(self.ring,
                             {g: c for g, c in terms.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.constant(self.ring, 1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = Poly.constant(self.ring, other)
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.terms == other.terms)

    # -- substitution and evaluation ----------------------------------
    def substitute_gens(self, target_ring, images):
        """Map each generator to a Poly (or rational) over ``target_ring``.

        ``images`` is a dict name -> Poly/rational; unnamed generators map
        to the target generator with the same name.
        """
        out = Poly.zero(target_ring)
        for e, c in self.sorted_terms():
            term = Poly.constant(target_ring, c)
            for g, ei in zip(self.ring, e):
                if ei:
                    img = images.get(g.name)
                    if img is None:
                        img = Poly.gen(target_ring, g.name)
                    term = term * img ** ei
            out = out + term
        return out

    # -- serialization ------------------------------------------------
    def sorted_terms(self):
        """The (exponent tuple, coefficient) pairs in the canonical order."""
        n = len(self.ring)
        return _sorted_terms(
            {_unpack(n, g): c for g, c in self.terms.items()},
            [g.degree for g in self.ring])

    def __str__(self):
        return _render(self.ring, (((), self),))

    def __repr__(self):
        return "Poly(%s)" % self

    def to_json_obj(self):
        return [{"gen": list(e), "val": str(c)}
                for e, c in self.sorted_terms()]


def _sorted_terms(terms, weights):
    """The canonical order of a term dict: by weighted degree, then by
    descending exponents (the keys are distinct, so ``reverse`` is exact)."""
    return sorted(terms.items(), reverse=True,
                  key=lambda t: (-sum(map(operator.mul, t[0], weights)), t[0]))


def _factors(names, e):
    return [n if x == 1 else "%s^%d" % (n, x) for n, x in zip(names, e) if x]


def _render(ring, rows):
    """The one renderer: rows of (u-exponent, coefficient Poly) as a sum of
    terms, each its sign, coefficient, generator factors, then u-factors.
    A row's terms come in ``_sorted_terms``' order; each packed generator
    exponent is unpacked, keyed and named once per call."""
    names = [g.name for g in ring]
    weights = [g.degree for g in ring]
    named = {}  # packed exponent -> (sort key, generator factors)
    out = []
    for u, p in rows:
        ufactors = _factors(["u%d" % (i + 1) for i in range(len(u))], u)
        terms = []
        for g, c in p.terms.items():
            if g not in named:
                e = _unpack(len(names), g)
                named[g] = ((-sum(map(operator.mul, e, weights)), e),
                            _factors(names, e))
            terms.append((named[g], c))
        terms.sort(reverse=True, key=lambda t: t[0][0])
        for (_key, factors), c in terms:
            num, den = c.numerator, c.denominator
            q = str(abs(num)) if den == 1 else "%d/%d" % (abs(num), den)
            body = "*".join(factors + ufactors)
            if not body:
                body = q
            elif q != "1":
                body = "%s*%s" % (q if den == 1 else "(%s)" % q, body)
            if out:
                out.append(" - " if num < 0 else " + ")
            elif num < 0:
                out.append("-")
            out.append(body)
    return "".join(out) or "0"


# A generator exponent is one int: entry i fills the bits
# [_FIELD i, _FIELD (i + 1)), so the packed sum of two exponents is the
# packed exponent of their product.  ``_pack`` refuses an entry outside
# 0..2^32 - 1.  An exponent in a kernel's output is a sum of one input
# exponent per factor of a product, so a field can carry into the next
# only in a product of more than 2^32 factors, and each factor costs a
# kernel at least one loop step.
_FIELD = 64
_MAX_EXPONENT = (1 << _FIELD // 2) - 1


def _exponent(e, what):
    """The exponent ``e`` as a tuple of ints in 0..2^32 - 1: floats,
    strings, bools and negative entries are refused, never truncated,
    and ``what`` names the exponent in the error."""
    out = []
    for i, x in enumerate(e, 1):
        x = _as_int(x, "%s entry %d", what, i)
        if not 0 <= x <= _MAX_EXPONENT:
            raise ValueError("%s entry %d is not in 0..%d: %r"
                             % (what, i, _MAX_EXPONENT, x))
        out.append(x)
    return tuple(out)


def _pack(e):
    """A generator-exponent tuple as one int (see ``_FIELD``)."""
    return sum(x << _FIELD * i
               for i, x in enumerate(_exponent(e, "generator exponent")))


def _unpack(n, packed):
    """The n-entry generator-exponent tuple of a packed int: its fields,
    read as n little-endian unsigned 64-bit words (``_FIELD``)."""
    return struct.unpack("<%dQ" % n,
                         packed.to_bytes(_FIELD // 8 * n, "little"))


def _flatten(terms, order):
    """Series terms of u-degree <= order over one integer denominator.

    Returns ``(L, [(u-exponent, degree, [(packed generator exponent,
    numerator)])])`` where L is the lcm of every coefficient's
    denominator, each coefficient equals numerator / L, and the rows are
    sorted by degree.
    """
    rows = sorted(((e, d, p.terms) for e, p in terms.items()
                   if (d := sum(e)) <= order), key=operator.itemgetter(1))
    den = lcm(*(c.denominator for _e, _d, pt in rows for c in pt.values()))
    return den, [(e, d, [(g, c.numerator * (den // c.denominator))
                         for g, c in pt.items()])
                 for e, d, pt in rows]


def _lowest_terms(den, rows):
    """Rows over ``den`` divided through by the gcd of den and every
    numerator: the same rows over their least common denominator, as
    ``_flatten`` gives them."""
    common = gcd(den, *(c for _e, _d, p in rows for _g, c in p))
    return den // common, [(e, d, [(g, c // common) for g, c in p])
                           for e, d, p in rows]


def _recur(N, rows, order, weight):
    """N extended from [N_0] to N_0..N_order, each N_d an int polynomial
    {u-exponent: [(packed generator exponent, int)]} with no zero term:
    N_d = sum_(1 <= j <= d) weight(j, d) S_j N_(d-j), S_j the degree-j
    part of ``_flatten`` rows (its degree 0 is not read)."""
    add = operator.add
    comps = {j: [(e, p) for e, _j, p in row]
             for j, row in groupby(rows, operator.itemgetter(1)) if j}
    for d in range(1, order + 1):
        acc = {}
        for j, comp in comps.items():
            if j > d:
                break
            m = weight(j, d)
            for e1, p1 in comp:
                for e2, p2 in N[d - j].items():
                    _add_product(acc.setdefault(tuple(map(add, e1, e2)), {}),
                                 p1, p2, m)
        N.append({e: nz for e, out in acc.items()
                  if (nz := [(g, c) for g, c in out.items() if c])})
    return N


def _invert_rows(den, rows, order):
    """``_flatten``'s (L, rows) of 1 / F to ``order``, for F = rows / den,
    ``_flatten`` rows whose first row is the non-zero rational constant
    G_0 / den.

    With G = rows, P_d = -sum_(j >= 1) G_j P_(d-j) / G_0 is the degree-d
    part of 1 / G, and N_d = G_0^(d+1) P_d is an int polynomial: N_0 = 1,
    N_d = -sum_j G_0^(j-1) G_j N_(d-j).  So 1 / F = den N_d / G_0^(d+1),
    brought over |G_0|^(order+1) and into lowest terms."""
    e0, _d, ((g0, c0),) = rows[0]
    N = _recur([{e0: [(g0, 1)]}], rows, order,
               lambda j, d: -c0 ** (j - 1))
    s, a = (1, c0) if c0 > 0 else (-1, -c0)
    rows = []
    for d, Nd in enumerate(N):
        lift = den * s ** (d + 1) * a ** (order - d)
        rows += [(e, d, [(g, c * lift) for g, c in pd])
                 for e, pd in Nd.items()]
    return _lowest_terms(a ** (order + 1), rows)


def _recurrence_rows(den, rows, k, order, a, b):
    """``_flatten``'s (L, rows) of P to ``order``, for s = rows / den with
    its part of degree 0 left out: P_0 = 1,
    d P_d = sum_{j=1..d} (a j + b d) s_j P_(d-j).

    The Euler operator sum_i u_i d/du_i is d on degree d, so (a, b) =
    (alpha + 1, -1) gives (1 + s)^alpha and (1, 0) gives exp(s), for
    every k.  In ints, with a = p/q, P_d is N_d / ((L q)^d d!) and
    N_d = sum_j (p j + q b d) (L q)^(j-1) (d-1)!/(d-j)! S_j N_(d-j).
    """
    p, q = a.numerator, a.denominator
    Lq = den * q
    N = _recur([{(0,) * k: [(0, 1)]}], rows, order,
               lambda j, d: (p * j + q * b * d) * Lq ** (j - 1)
               * (factorial(d - 1) // factorial(d - j)))
    top = factorial(order)
    return _lowest_terms(Lq ** order * top, [
        (e, d, [(g, c * (Lq ** (order - d) * (top // factorial(d))))
                for g, c in pd])
        for d, Nd in enumerate(N) for e, pd in Nd.items()])


def _revert_rows(den, rows, order):
    """``_flatten``'s (L, rows) of the inverse series g of a univariate
    f = x + sum_{j>=2} f_j x^j = rows / den, to ``order``.

    g = x - sum_{j>=2} f_j g^j is solved by degree with the power table
    G[j][d] = [x^d] g^j = sum_i g_i G[j-1][d-i], which for j >= 2 needs
    only g_1..g_(d-1).  Over f's denominator L, G[j][d] is an int
    polynomial over L^(d-j), so the table sums ints unscaled.
    """
    f = {d: p for _e, d, p in rows if d > 1}
    G = [None] + [{j: [(0, 1)]}  # g^j = x^j + ...
                  for j in range(1, max(f, default=1) + 1)]
    for d in range(2, order + 1):
        for j in range(2, min(d, len(G))):
            out = {}
            for i in range(1, d - j + 2):
                _add_product(out, G[1][i], G[j - 1][d - i])
            G[j][d] = [(g, c) for g, c in out.items() if c]
        out = {}
        for j, fj in f.items():
            if j <= d:
                _add_product(out, fj, G[j][d], -den ** (j - 2))
        G[1][d] = [(g, c) for g, c in out.items() if c]
    return _lowest_terms(den ** (order - 1), [
        ((d,), d, [(g, c * den ** (order - d)) for g, c in p])
        for d, p in G[1].items() if p])


def _integrate_rows(den, rows):
    """``_flatten``'s (L, rows) of the termwise integral of a univariate
    series, rows / den: x^d becomes x^(d+1) / (d + 1)."""
    scale = lcm(*(d + 1 for _e, d, _p in rows))
    return _lowest_terms(den * scale, [
        ((d + 1,), d + 1, [(g, c * (scale // (d + 1))) for g, c in p])
        for _e, d, p in rows])


def _assemble(ring, k, order, acc, den):
    """The series sum of (acc[e][g] / den) g u^e, non-zero sums only, for
    packed generator exponents g."""
    terms = {}
    for e, nums in acc.items():
        coeffs = {g: Fraction(n, den) for g, n in nums.items() if n}
        if coeffs:
            terms[e] = Poly._trusted(ring, coeffs)
    return MultiSeries._trusted(ring, k, order, terms)


def _boxed(ring, k, order, den, rows):
    """The series of ``_flatten`` rows over ``den``."""
    return _assemble(ring, k, order, {e: dict(p) for e, _d, p in rows}, den)


def _times_form(poly, form):
    """An int polynomial {u-exponent: int} times the linear form given as
    its non-zero (i, m_i); zero sums are dropped."""
    out = {}
    for e, c in poly.items():
        for i, m in form:
            e2 = e[:i] + (e[i] + 1,) + e[i + 1:]
            out[e2] = out.get(e2, 0) + c * m
    return {e: c for e, c in out.items() if c}


def _divide_forms(poly, forms, base):
    """The exact quotient of an int polynomial {packed u-exponent: int},
    with no zero coefficient and u-exponents the base-``base`` digits of
    one int, by a list of primitive forms, each given as its non-zero
    (place value base^i, m_i) with the pivot first; None if there is none.

    Long division on the pivot u_p, from its top exponent down: a term
    c u^m gives the quotient term (c / m_p) u^(m - e_p) and takes
    (c / m_p) m_j off the term at m - e_p + e_j.  A primitive form leaves
    every exact quotient integral (Gauss's lemma), so a remainder of c
    by m_p, or a term left at pivot exponent 0, proves there is none.  A
    coordinate form u_p is a shift of every exponent.
    """
    for (place, lead), *rest in forms:
        if not rest:  # u_p, as the form is primitive
            if any(e // place % base == 0 for e in poly):
                return None
            poly = {e - place: c for e, c in poly.items()}
            continue
        rows = {}  # pivot exponent -> {packed u-exponent: int}
        for e, c in poly.items():
            rows.setdefault(e // place % base, {})[e] = c
        poly = {}
        for i in range(max(rows, default=0), 0, -1):
            row = rows.get(i)
            if not row:
                continue
            below = rows.setdefault(i - 1, {})
            for m, c in row.items():
                if c:
                    q, r = divmod(c, lead)
                    if r:
                        return None
                    m -= place
                    poly[m] = q
                    for d, m_j in rest:
                        below[m + d] = below.get(m + d, 0) - q * m_j
        if any(rows.get(0, {}).values()):
            return None
    return poly


def _expand_forms(k, forms):
    """The product of a multiset {integer form: multiplicity} of linear
    forms in k variables, as an int polynomial."""
    poly = {(0,) * k: 1}
    for form, mult in sorted(forms.items()):
        nonzero = [(i, m) for i, m in enumerate(form) if m]
        for _ in range(mult):
            poly = _times_form(poly, nonzero)
    return poly


def _product(ring, k, order, factors, scale=1):
    """``scale`` (an int or Fraction) times the product of ``factors``,
    series flattened by ``_flatten``, exact to ``order`` in one integer
    pass: the accumulator starts as the constant row of the numerator of
    ``scale`` and takes every factor in turn."""
    den, acc = scale.denominator, {(0,) * k: {0: scale.numerator}}
    for den_f, rows in factors:
        den *= den_f
        acc = _rows_product([(e, sum(e), [(g, c) for g, c in p.items() if c])
                             for e, p in acc.items()], rows, order)
    return _assemble(ring, k, order, acc, den)


def _rows_product(seed, rows, order):
    """The int product {u-exponent: {generator-exponent: int}}, to
    ``order``, of two lists of flattened rows, ``rows`` sorted by degree."""
    add = operator.add
    acc = {}
    for e1, d1, p1 in seed:
        room = order - d1
        for e2, d2, p2 in rows:
            if d2 > room:
                break
            _add_product(acc.setdefault(tuple(map(add, e1, e2)), {}), p1, p2)
    return acc


def _add_product(out, p1, p2, m=1):
    """out[g1 + g2] += m * c1 * c2 over the (packed generator exponent,
    int) pairs of ``p1`` and ``p2``."""
    for g1, c1 in p1:
        c1 *= m
        for g2, c2 in p2:
            g = g1 + g2
            out[g] = out.get(g, 0) + c1 * c2


class MultiSeries:
    """Power series in u1..uk over a Poly coefficient ring, truncated by
    total u-degree ``order`` (all monomials of degree <= order are exact).

    k = 0 is legal: the series is then a bare polynomial coefficient.
    """

    __slots__ = ("ring", "k", "order", "terms")

    def __init__(self, ring, k, order, terms):
        if k < 0 or order < 0:
            raise ValueError("k and order must be >= 0")
        self.ring = ring
        self.k = k
        self.order = order
        clean = {}
        for e, p in terms.items():
            if len(e) != k:
                raise ValueError("u-exponent length %d != k=%d" % (len(e), k))
            e = _exponent(e, "u-exponent")
            if sum(e) > order:
                continue
            if not isinstance(p, Poly):
                p = Poly.constant(ring, p)
            if not p.is_zero():
                clean[e] = p
        self.terms = clean

    # -- constructors -------------------------------------------------
    @classmethod
    def _trusted(cls, ring, k, order, terms):
        """Wrap ``terms`` as is: a fresh dict of length-k u-exponents of
        degree <= order to non-zero Polys (see the module docstring)."""
        self = object.__new__(cls)
        self.ring = ring
        self.k = k
        self.order = order
        self.terms = terms
        return self

    @classmethod
    def _derived(cls, ring, k, order, terms):
        """``_trusted``, for a k or order that an argument sets: a
        negative one is refused as ``__init__`` refuses it."""
        if k < 0 or order < 0:
            raise ValueError("k and order must be >= 0")
        return cls._trusted(ring, k, order, terms)

    @classmethod
    def zero(cls, ring, k, order):
        return cls._derived(ring, k, order, {})

    @classmethod
    def constant(cls, ring, k, order, value):
        return cls(ring, k, order, {(0,) * k: value})

    @classmethod
    def variable(cls, ring, k, order, i):
        e = [0] * k
        e[i] = 1
        return cls(ring, k, order, {tuple(e): Fraction(1)})

    @classmethod
    def linear_form(cls, ring, k, order, w):
        """The degree-one series w1*u1 + ... + wk*uk."""
        if len(w) != k:
            raise ValueError("linear form must have k=%d entries, not %d"
                             % (k, len(w)))
        terms = {}
        for i, wi in enumerate(map(_frac, w)):
            if wi:
                e = [0] * k
                e[i] = 1
                terms[tuple(e)] = wi
        return cls(ring, k, order, terms)

    # -- basic access -------------------------------------------------
    def is_zero(self):
        return not self.terms

    def coefficient(self, e):
        return self.terms.get(tuple(e), Poly.zero(self.ring))

    def constant_term(self):
        return self.coefficient((0,) * self.k)

    def homogeneous_component(self, d):
        return self._trusted(self.ring, self.k, self.order,
                             {e: p for e, p in self.terms.items() if sum(e) == d})

    def slice_var(self, j, power):
        """Coefficient of u_j^power, as a series in the remaining variables."""
        return self._derived(self.ring, self.k - 1, self.order - power, {
            e[:j] + e[j + 1:]: p for e, p in self.terms.items() if e[j] == power})

    def truncate(self, order):
        """Restrict to degrees <= order; never claims more exactness."""
        order = min(order, self.order)
        return self._derived(self.ring, self.k, order,
                             {e: p for e, p in self.terms.items() if sum(e) <= order})

    # -- arithmetic ---------------------------------------------------
    def _compat(self, other):
        if self.ring != other.ring or self.k != other.k:
            raise ValueError("series ring or variable-count mismatch")

    def __add__(self, other):
        if not isinstance(other, MultiSeries):
            other = MultiSeries.constant(self.ring, self.k, self.order, other)
        self._compat(other)
        order = min(self.order, other.order)
        terms = {e: p for e, p in self.terms.items() if sum(e) <= order}
        for e, p in other.terms.items():
            if sum(e) > order:
                continue
            s = terms.get(e)
            s = p if s is None else s + p
            if s.is_zero():
                terms.pop(e, None)
            else:
                terms[e] = s
        return self._trusted(self.ring, self.k, order, terms)

    __radd__ = __add__

    def __neg__(self):
        return self._trusted(self.ring, self.k, self.order,
                             {e: -p for e, p in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        """Multiply by a rational or Poly scalar (no truncation loss)."""
        if isinstance(c, Poly):
            return self * MultiSeries(c.ring, self.k, self.order,
                                      {(0,) * self.k: c})
        return _product(self.ring, self.k, self.order,
                        [_flatten(self.terms, self.order)], _frac(c))

    def __mul__(self, other):
        if not isinstance(other, MultiSeries):
            return self.scale(other)
        self._compat(other)
        order = min(self.order, other.order)
        return _product(self.ring, self.k, order,
                        [_flatten(self.terms, order),
                         _flatten(other.terms, order)])

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a series")
        return _product(self.ring, self.k, self.order,
                        [_flatten(self.terms, self.order)] * n)

    def __eq__(self, other):
        """Content equality (same ring, k and stored terms)."""
        return (isinstance(other, MultiSeries) and self.ring == other.ring
                and self.k == other.k and self.terms == other.terms)

    def agrees_with(self, other, order=None):
        """Equality after truncating both sides to a common order."""
        self._compat(other)
        n = min(self.order, other.order)
        if order is not None:
            n = min(n, order)
        return self.truncate(n).terms == other.truncate(n).terms

    # -- core series operations ---------------------------------------
    def _recurrence(self, a, b):
        """P to ``order`` with P_0 = 1 and d P_d = sum_{j=1..d}
        (a j + b d) s_j P_(d-j), s being self's part of degree >= 1: the
        series of ``_recurrence_rows``."""
        return _boxed(self.ring, self.k, self.order, *_recurrence_rows(
            *_flatten(self.terms, self.order), self.k, self.order, a, b))

    def invert_unit(self):
        """Inverse of a series whose constant term is a nonzero rational,
        by the one integer kernel ``_invert_rows``."""
        c0 = self.constant_term().constant_value()
        if c0 is None:
            raise ValueError("invert_unit: constant term is not rational")
        if c0 == 0:
            raise ZeroDivisionError("invert_unit: constant term is zero")
        return _boxed(self.ring, self.k, self.order, *_invert_rows(
            *_flatten(self.terms, self.order), self.order))

    def sqrt_unit(self):
        """Square root of a series with constant term 1: (1 + s)^(1/2) at
        s = self - 1, by ``_recurrence``."""
        if self.constant_term().constant_value() != 1:
            raise ValueError("sqrt_unit requires constant term 1")
        return self._recurrence(Fraction(3, 2), -1)

    def exp(self):
        """exp of a series with zero constant term, by ``_recurrence``."""
        if not self.constant_term().is_zero():
            raise ValueError("exp requires zero constant term")
        return self._recurrence(1, 0)

    def derivative(self):
        """d/du of a univariate series, exact to one order less."""
        if self.k != 1:
            raise ValueError("derivative is for univariate series")
        return self._derived(self.ring, 1, self.order - 1, {
            (d - 1,): p * d for (d,), p in self.terms.items() if d})

    def integrate(self):
        """Termwise integral of a univariate series, vanishing at 0, by
        ``_integrate_rows``."""
        if self.k != 1:
            raise ValueError("integrate is for univariate series")
        return _boxed(self.ring, 1, self.order + 1, *_integrate_rows(
            *_flatten(self.terms, self.order)))

    def shift_down(self, i, n=1):
        """Exact division by u_i^n; fails if any term has u_i-exponent < n."""
        terms = {}
        for e, p in self.terms.items():
            if e[i] < n:
                raise NotDivisibleError(sum(e))
            terms[e[:i] + (e[i] - n,) + e[i + 1:]] = p
        return self._derived(self.ring, self.k, self.order - n, terms)

    def in_slot(self, k, i):
        """This univariate series as a series in u_i of k variables."""
        if self.k != 1:
            raise ValueError("in_slot is for univariate series")
        if not 0 <= i < k:
            raise ValueError("slot %r is not one of %d variables" % (i, k))
        pad = (0,) * (k - 1)
        return self._trusted(self.ring, k, self.order, {
            pad[:i] + e + pad[i:]: p for e, p in self.terms.items()})

    def substitute(self, images):
        """Compose: substitute images[i] (zero constant term) for u_i.

        One integer pass per variable, over one denominator: a term
        p u_i^t (rest) v^a becomes p [v^b] images[i]^t (rest) v^(a + b),
        with images[i]^t an int power table over den_i^t, lifted to
        den_i^top.  Every image starts in degree >= 1, so a term whose
        v-degree plus its remaining u-degree passes ``order`` is dropped
        at once.  ``_assemble`` runs once, at the end.
        """
        if len(images) != self.k:
            raise ValueError("need %d images, got %d" % (self.k, len(images)))
        if not images:
            return self
        k2 = images[0].k
        order = min([self.order] + [g.order for g in images])
        for g in images:
            if g.ring != self.ring or g.k != k2:
                raise ValueError("image ring or variable-count mismatch")
            if not g.constant_term().is_zero():
                raise ValueError("substitution image has nonzero constant term")
        add = operator.add
        den, rows = _flatten(self.terms, order)
        # (u-exponents still to substitute, v-exponent, its degree) -> terms
        state = {(e, (0,) * k2, 0): p for e, _d, p in rows}
        for image in images:
            den_i, base = _flatten(image.terms, order)
            top = max((e[0] for e, _a, _d in state), default=0)
            powers = [[((0,) * k2, 0, [(0, 1)])]]  # images[i]^t, by degree
            for _t in range(top):
                powers.append(sorted(
                    ((b, sum(b), nz) for b, out in
                     _rows_product(powers[-1], base, order).items()
                     if (nz := [(g, c) for g, c in out.items() if c])),
                    key=operator.itemgetter(1)))
            lift = [den_i ** (top - t) for t in range(top + 1)]
            grown = {}
            for (e, a, d), p in state.items():
                t, rest = e[0], e[1:]
                room = order - d - sum(rest)
                for b, d2, q in powers[t]:
                    if d2 > room:
                        break
                    _add_product(grown.setdefault(
                        (rest, tuple(map(add, a, b)), d + d2), {}),
                        p, q, lift[t])
            state = {key: nz for key, out in grown.items()
                     if (nz := [(g, c) for g, c in out.items() if c])}
            den *= den_i ** top
        return _assemble(self.ring, k2, order,
                         {a: dict(p) for (_e, a, _d), p in state.items()}, den)

    def compose_at_linear(self, w, k, order=None):
        """Univariate series evaluated at the linear form w . u (k variables).

        With w = m / den_w, u^e has the coefficient
        c_d (d! / prod e_i!) prod m_i^e_i / den_w^d in c_d (w . u)^d.
        """
        if self.k != 1:
            raise ValueError("compose_at_linear is for univariate series")
        if len(w) != k:
            raise ValueError("linear form must have k=%d entries, not %d"
                             % (k, len(w)))
        order = self.order if order is None else min(order, self.order)
        weights = [(i, q) for i, q in enumerate(map(_frac, w)) if q]
        den_w = lcm(*(q.denominator for _i, q in weights))
        form = [(i, q.numerator * (den_w // q.denominator)) for i, q in weights]
        den, flat = _flatten(self.terms, order)
        coefficients = {d: p for _e, d, p in flat}
        acc = {}
        power = {(0,) * k: 1}  # (m . u)^d
        for d in range(order + 1):
            if d:
                power = _times_form(power, form)
            p = coefficients.get(d)
            if p is not None:
                lift = den_w ** (order - d)
                for e, c in power.items():
                    c *= lift
                    acc[e] = {g: n * c for g, n in p}
        return _assemble(self.ring, k, order, acc, den * den_w ** order)

    def revert(self):
        """Inverse series g of a univariate f = x + sum_{j>=2} f_j x^j,
        by ``_revert_rows``."""
        if self.k != 1:
            raise ValueError("revert is for univariate series")
        if not self.constant_term().is_zero():
            raise ValueError("revert requires zero constant term")
        if self.coefficient((1,)).constant_value() != 1:
            raise ValueError("revert requires leading coefficient 1")
        return _boxed(self.ring, 1, self.order, *_revert_rows(
            *_flatten(self.terms, self.order), self.order))

    def divide_linear(self, w):
        """Exact division by the linear form w . u.

        Long division on the pivot u_p, the first variable with w_p != 0,
        one homogeneous degree at a time: from the top u_p-exponent down,
        each term c u^m becomes the quotient term (c / w_p) u^(m - e_p),
        and (c / w_p) w_j is taken off the term at m - e_p + e_j for every
        other j.  A term left at u_p-exponent 0 is the obstruction.
        """
        if len(w) != self.k or not any(w):
            raise ValueError("linear form must be a nonzero length-k vector")
        if not self.order:
            raise ValueError("a quotient of a series exact to order 0 "
                             "is exact to no order")
        p = next(i for i, wi in enumerate(w) if wi)
        wp_inv = 1 / _frac(w[p])
        rest = [(j, -_frac(wj) * wp_inv) for j, wj in enumerate(w)
                if j != p and wj]
        by_degree = {}  # degree -> u_p-exponent -> {u-exponent: Poly}
        for e, c in self.terms.items():
            by_degree.setdefault(sum(e), {}).setdefault(e[p], {})[e] = c
        out = {}
        for d in sorted(by_degree):
            rows = by_degree[d]
            for i in range(d, 0, -1):
                below = rows.setdefault(i - 1, {})
                for m, c in rows.get(i, {}).items():
                    qe = m[:p] + (i - 1,) + m[p + 1:]
                    out[qe] = c * wp_inv
                    for j, f in rest:
                        mm = qe[:j] + (qe[j] + 1,) + qe[j + 1:]
                        r = below.get(mm)
                        r = c * f if r is None else r + c * f
                        if r.is_zero():
                            del below[mm]
                        else:
                            below[mm] = r
            if rows.get(0):
                raise NotDivisibleError(d, w)
        return self._trusted(self.ring, self.k, self.order - 1, out)

    # -- serialization ------------------------------------------------
    def sorted_terms(self):
        return _sorted_terms(self.terms, (1,) * self.k)

    def __str__(self):
        return _render(self.ring, self.sorted_terms())

    def __repr__(self):
        return "MultiSeries(k=%d, order=%d: %s)" % (self.k, self.order, self)

    def to_json_obj(self):
        return {
            "ring": [{"name": g.name, "degree": g.degree} for g in self.ring],
            "k": self.k,
            "order": self.order,
            "terms": [{"u": list(e), "coeff": p.to_json_obj()}
                      for e, p in self.sorted_terms()],
        }

    def to_json(self):
        return json.dumps(self.to_json_obj(), separators=(",", ":"))


# ---------------------------------------------------------------------------
# linear forms and localized sums
# ---------------------------------------------------------------------------

def _as_int(x, what, *args):
    """``x`` as an int: floats, strings and bools are refused, never
    truncated.  ``what % args`` names the entry in the error."""
    if type(x) is int:
        return x
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError("%s is not an integer: %r" % (what % args, x))


# an exact rational as ``str(Fraction)`` writes it: ASCII digits, no
# leading zero, a sign on the numerator alone and no zero denominator
_RATIONAL = re.compile(r"(-?(?:0|[1-9][0-9]*))(?:/([1-9][0-9]*))?")


def _as_rational(x, what, *args):
    """``x`` as a Fraction from an int, a Fraction or an exact string in
    the form ``str(Fraction)`` writes, such as "-1/2" or "3", between
    optional ASCII spaces; floats, bools and every other string are
    refused, never rounded or coerced."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        match = _RATIONAL.fullmatch(x.strip(" \t\n\r\f\v"))
        if match:
            num, den = match.groups()
            try:
                return Fraction(int(num)) if den is None else \
                    Fraction(int(num), int(den))
            except ValueError:  # more digits than int() reads
                pass
    elif not isinstance(x, bool):
        try:
            return Fraction(operator.index(x))
        except TypeError:
            pass
    raise ValueError("%s is not an exact rational: %r" % (what % args, x))


def canonical_linear_form(w):
    """Split an integer vector as scale * primitive with primitive > 0.

    The primitive part has coprime entries and positive first nonzero
    entry; the integer scale absorbs sign and content.  A float, string
    or bool entry raises ValueError; nothing is truncated.
    """
    w = tuple(_as_int(x, "linear form entry %d", i + 1)
              for i, x in enumerate(w))
    if not any(w):
        raise ValueError("zero linear form")
    g = gcd(*w)
    lead = next(x for x in w if x)
    if lead < 0:
        g = -g
    return tuple(x // g for x in w), g


class LocalizedSum:
    """A finite sum of terms  numerator / (product of linear forms).

    Denominators are multisets of primitive, sign-normalized integer
    vectors (dict form -> multiplicity); scalar contents have been folded
    into the numerators.  ``order`` is the target truncation order of the
    normalization; each numerator must be exact to order + its
    denominator degree, and ``add_term`` refuses one that is not.
    """

    __slots__ = ("ring", "k", "order", "terms")

    def __init__(self, ring, k, order, terms=()):
        self.ring = ring
        self.k = k
        self.order = order
        self.terms = []
        for num, den in terms:
            self.add_term(num, den)

    def add_term(self, numerator, denominator):
        denominator = dict(denominator)
        forms = sum(denominator.values())
        if numerator.order < self.order + forms:
            raise ValueError(
                "a numerator over %d linear forms must be exact to order "
                "%d, not %d" % (forms, self.order + forms, numerator.order))
        self.terms.append((numerator, denominator))

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def common_denominator(self):
        D = {}
        for _num, den in self.terms:
            for form, mult in den.items():
                if D.get(form, 0) < mult:
                    D[form] = mult
        return D

    def over_common_denominator(self):
        """Cross-multiply to (numerator, common denominator multiset) over
        the lcm L of the denominators; a lone term exact to order + deg D
        is returned as it is."""
        D = self.common_denominator()
        top = self.order + sum(D.values())
        if len(self.terms) == 1 and self.terms[0][0].order == top:
            return self.terms[0][0], D
        pieces = []
        for num, den in self.terms:
            missing = {f: m - den.get(f, 0) for f, m in D.items()
                       if m > den.get(f, 0)}
            den_x, flat = _flatten(num.terms, top - sum(missing.values()))
            pieces.append((den_x, flat, _expand_forms(self.k, missing)))
        L = lcm(*(den_x for den_x, _flat, _poly in pieces))
        add = operator.add
        one = [(0, 1)]  # the unit generator row
        acc = {}
        for den_x, flat, poly in pieces:
            for e1, _d, p1 in flat:
                for e2, c2 in poly.items():
                    _add_product(acc.setdefault(tuple(map(add, e1, e2)), {}),
                                 p1, one, c2 * (L // den_x))
        return _assemble(self.ring, self.k, top, acc, L), D

    def _quotients(self):
        """Cross-multiply once, then divide each homogeneous component of
        the numerator exactly by the common denominator D.

        Yields, lowest u-degree first, (net degree, component, quotient)
        for every non-zero component: the net degree is the component's
        u-degree minus deg D, and the quotient is None where the division
        is not exact, decided by the degree alone below deg D.
        """
        total, D = self.over_common_denominator()
        degD = sum(D.values())
        forms = [form for form, mult in sorted(D.items())
                 for _ in range(mult)]
        by_degree = {}
        for e, p in total.terms.items():
            by_degree.setdefault(sum(e), {})[e] = p
        for d in sorted(by_degree):
            comp = MultiSeries._trusted(self.ring, self.k, total.order,
                                        by_degree[d])
            quotient = None  # a non-zero multiple of D has degree >= deg D
            if d >= degD:
                quotient = comp
                try:
                    for form in forms:
                        quotient = quotient.divide_linear(form)
                except NotDivisibleError:
                    quotient = None
            yield d - degD, comp, quotient

    def normalize(self):
        """The honest power series represented by the sum, to ``order``.

        Raises NormalizeError (with the lowest non-cancelling net degree)
        when the terms do not cancel to a power series.  A lone term over
        no forms, exact to ``order``, is that series and is returned as is.
        """
        if len(self.terms) == 1:
            num, den = self.terms[0]
            if not any(den.values()) and num.order == self.order:
                return num
        terms = {}
        for net, _comp, quotient in self._quotients():
            if quotient is None:
                raise NormalizeError(net)
            terms.update(quotient.terms)
        return MultiSeries(self.ring, self.k, self.order, terms)
