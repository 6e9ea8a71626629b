"""Exact sparse polynomials and truncated multivariate power series.

Coefficient arithmetic is exact rational (fractions.Fraction) throughout;
there is no floating point anywhere.  Power series live in torus variables
u1..uk and are truncated by *total* u-degree; the coefficients are sparse
polynomials in a fixed tuple of named, evenly graded generators.

All values are immutable after construction; every operation returns a new
object, so sharing across threads is safe.

Every series product runs on one flat integer kernel, ``_product``:
``_flatten`` brings each factor over one common integer denominator, the
kernel adds plain int products per (u-exponent, generator-exponent), and
``_assemble`` makes one Fraction per non-zero sum; ``*``, ``scale`` and
``**`` call it.  Beside it, ``MultiSeries._recurrence`` builds unit powers
and exp (``invert_unit``, ``sqrt_unit``, ``exp``) by a degree recurrence
in one such pass, and ``revert`` fills an int power table.
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
a term dict by weighted degree (generator degrees for a ``Poly``, 1 per
u-variable for a series), then by descending exponents, and ``_render``
writes rows of (u-exponent, coefficient ``Poly``) as text; a ``Poly`` is
the single row ``((), self)``.

Results are built with ``Poly._trusted`` and ``MultiSeries._trusted``,
which skip the re-validation of ``__init__``.  They may only be given
fresh dicts that no one else holds, with no zero coefficient, exponent
tuples of the ring's and k's lengths and every u-degree <= order.
"""

from __future__ import annotations

import json
import operator
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
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected an exact rational, got %r" % (x,))


class Poly:
    """Sparse polynomial over Q in the ring's generators.

    Terms map generator-exponent tuples to nonzero Fractions; zero
    coefficients are never stored and serialization follows the one
    canonical order, so equal polynomials have identical representations.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        n = len(ring)
        clean = {}
        for e, c in terms.items():
            if len(e) != n:
                raise ValueError("exponent length %d != ring size %d" % (len(e), n))
            c = _frac(c)
            if c:
                clean[tuple(e)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------
    @classmethod
    def _trusted(cls, ring, terms):
        """Wrap ``terms`` as is: a fresh dict of full-length exponent
        tuples to non-zero Fractions (see the module docstring)."""
        self = object.__new__(cls)
        self.ring = ring
        self.terms = terms
        return self

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def constant(cls, ring, value):
        value = _frac(value)
        if not value:
            return cls.zero(ring)
        return cls(ring, {(0,) * len(ring): value})

    @classmethod
    def gen(cls, ring, name, power=1):
        for i, g in enumerate(ring):
            if g.name == name:
                e = [0] * len(ring)
                e[i] = power
                return cls(ring, {tuple(e): Fraction(1)})
        raise KeyError("no generator named %r" % name)

    # -- predicates ---------------------------------------------------
    def is_zero(self):
        return not self.terms

    def constant_value(self):
        """The rational value of a constant polynomial; None otherwise."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            e, c = next(iter(self.terms.items()))
            if not any(e):
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
        for e, c in other.terms.items():
            s = terms.get(e, Fraction(0)) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Poly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            q = _frac(other)
            if not q:
                return Poly.zero(self.ring)
            return Poly(self.ring, {e: c * q for e, c in self.terms.items()})
        self._same_ring(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return Poly(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.constant(self.ring, 1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
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
        for e, c in self.terms.items():
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
        return _sorted_terms(self.terms, [g.degree for g in self.ring])

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
    terms, each its sign, coefficient, generator factors, then u-factors."""
    names = [g.name for g in ring]
    out = []
    for u, p in rows:
        ufactors = _factors(["u%d" % (i + 1) for i in range(len(u))], u)
        for e, c in p.sorted_terms():
            num, den = c.numerator, c.denominator
            q = str(abs(num)) if den == 1 else "%d/%d" % (abs(num), den)
            body = "*".join(_factors(names, e) + ufactors)
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


def _flatten(terms, order):
    """Series terms of u-degree <= order over one integer denominator.

    Returns ``(L, [(u-exponent, degree, [(generator-exponent, numerator)])])``
    where L is the lcm of every coefficient's denominator, each
    coefficient equals numerator / L, and the rows are sorted by degree.
    """
    rows = sorted(((e, d, p.terms) for e, p in terms.items()
                   if (d := sum(e)) <= order), key=operator.itemgetter(1))
    den = lcm(*(c.denominator for _e, _d, pt in rows for c in pt.values()))
    return den, [(e, d, [(g, c.numerator * (den // c.denominator))
                         for g, c in pt.items()])
                 for e, d, pt in rows]


def _assemble(ring, k, order, acc, den):
    """The series sum of (acc[e][g] / den) g u^e, non-zero sums only."""
    terms = {}
    for e, nums in acc.items():
        coeffs = {g: Fraction(n, den) for g, n in nums.items() if n}
        if coeffs:
            terms[e] = Poly._trusted(ring, coeffs)
    return MultiSeries._trusted(ring, k, order, terms)


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
    pass.  The first factor's rows, times the numerator of ``scale``, seed
    the accumulator; with no factors the product is the constant ``scale``."""
    num, den = scale.numerator, scale.denominator
    seed = acc = None
    for den_f, rows in factors:
        den *= den_f
        if seed is None:
            seed = rows if num == 1 else [
                (e, d, [(g, c * num) for g, c in p]) for e, d, p in rows]
            continue
        if acc is not None:
            seed = [(e, sum(e), [(g, c) for g, c in p.items() if c])
                    for e, p in acc.items()]
        acc = _rows_product(seed, rows, order)
    if acc is None:  # fewer than two factors
        acc = ({e: dict(p) for e, _d, p in seed} if seed is not None
               else {(0,) * k: {(0,) * len(ring): num}})
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
    """out[g1 + g2] += m * c1 * c2 over the (generator-exponent, int)
    pairs of ``p1`` and ``p2``."""
    add = operator.add
    for g1, c1 in p1:
        c1 *= m
        for g2, c2 in p2:
            g = tuple(map(add, g1, g2))
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
            if sum(e) > order:
                continue
            if not isinstance(p, Poly):
                p = Poly.constant(ring, p)
            if not p.is_zero():
                clean[tuple(e)] = p
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
    def zero(cls, ring, k, order):
        return cls(ring, k, order, {})

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
        terms = {}
        for i, wi in enumerate(w):
            if wi:
                e = [0] * k
                e[i] = 1
                terms[tuple(e)] = _frac(wi)
        return cls(ring, k, order, terms)

    # -- basic access -------------------------------------------------
    def is_zero(self):
        return not self.terms

    def coefficient(self, e):
        return self.terms.get(tuple(e), Poly.zero(self.ring))

    def constant_term(self):
        return self.coefficient((0,) * self.k)

    def homogeneous_component(self, d):
        return MultiSeries(self.ring, self.k, self.order,
                           {e: p for e, p in self.terms.items() if sum(e) == d})

    def slice_var(self, j, power):
        """Coefficient of u_j^power, as a series in the remaining variables."""
        return MultiSeries(self.ring, self.k - 1, self.order - power, {
            e[:j] + e[j + 1:]: p for e, p in self.terms.items() if e[j] == power})

    def truncate(self, order):
        """Restrict to degrees <= order; never claims more exactness."""
        order = min(order, self.order)
        return MultiSeries(self.ring, self.k, order,
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
        return MultiSeries(self.ring, self.k, order, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiSeries(self.ring, self.k, self.order,
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
    def _recurrence(self, a, b, c0=1, scale=1):
        """``scale`` * P to ``order``, s being self's part of degree >= 1
        over c0: P_0 = 1, d P_d = sum_{j=1..d} (a j + b d) s_j P_(d-j).

        The Euler operator sum_i u_i d/du_i is d on degree d, so (a, b) =
        (alpha + 1, -1) gives (1 + s)^alpha and (1, 0) gives exp(s), for
        every k.  In ints, with a = p/q and s_j = S_j / L, P_d is
        N_d / ((L q)^d d!) and N_d = sum_j (p j + q b d) (L q)^(j-1)
        (d-1)!/(d-j)! S_j N_(d-j).
        """
        order, add = self.order, operator.add
        den, rows = _flatten(self.terms, order)
        p, q = a.numerator, a.denominator
        sign = c0.denominator if c0 > 0 else -c0.denominator
        Lq = den * abs(c0.numerator) * q
        comps = {d: [(e, g) for e, _d, g in row]
                 for d, row in groupby(rows, operator.itemgetter(1)) if d}
        N = [{(0,) * self.k: [((0,) * len(self.ring), 1)]}]
        for d in range(1, order + 1):
            acc = {}
            for j, s_j in comps.items():
                if j > d:
                    break
                m = sign * (p * j + q * b * d) * Lq ** (j - 1) \
                    * (factorial(d - 1) // factorial(d - j))
                for e1, p1 in s_j:
                    for e2, p2 in N[d - j].items():
                        e = tuple(map(add, e1, e2))
                        _add_product(acc.setdefault(e, {}), p1, p2, m)
            N.append({e: nz for e, out in acc.items()
                      if (nz := [(g, c) for g, c in out.items() if c])})
        top = factorial(order)
        lift = [scale.numerator * Lq ** (order - d) * (top // factorial(d))
                for d in range(order + 1)]
        return _assemble(self.ring, self.k, order, {
            e: {g: c * lift[d] for g, c in pd}
            for d, Nd in enumerate(N) for e, pd in Nd.items()},
            Lq ** order * top * scale.denominator)

    def invert_unit(self):
        """Inverse of a series whose constant term is a nonzero rational
        c0: (1 + s)^(-1) / c0 at s = self / c0 - 1, by ``_recurrence``."""
        c0 = self.constant_term().constant_value()
        if c0 is None:
            raise ValueError("invert_unit: constant term is not rational")
        if c0 == 0:
            raise ZeroDivisionError("invert_unit: constant term is zero")
        return self._recurrence(0, -1, c0, 1 / c0)

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
        return MultiSeries(self.ring, 1, self.order - 1, {
            (d - 1,): p * d for (d,), p in self.terms.items() if d})

    def integrate(self):
        """Termwise integral of a univariate series, vanishing at 0."""
        if self.k != 1:
            raise ValueError("integrate is for univariate series")
        return MultiSeries(self.ring, 1, self.order + 1, {
            (d + 1,): p * Fraction(1, d + 1) for (d,), p in self.terms.items()})

    def shift_down(self, i, n=1):
        """Exact division by u_i^n; fails if any term has u_i-exponent < n."""
        terms = {}
        for e, p in self.terms.items():
            if e[i] < n:
                raise NotDivisibleError(sum(e))
            terms[e[:i] + (e[i] - n,) + e[i + 1:]] = p
        return MultiSeries(self.ring, self.k, self.order - n, terms)

    def embed(self, k, positions):
        """Re-index variables into a larger variable set.

        ``positions[i]`` is the target slot of source variable i.
        """
        terms = {}
        for e, p in self.terms.items():
            e2 = [0] * k
            for i, ei in enumerate(e):
                e2[positions[i]] = ei
            terms[tuple(e2)] = p
        return MultiSeries(self.ring, k, self.order, terms)

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
        add, one = operator.add, (0,) * len(self.ring)
        den, rows = _flatten(self.terms, order)
        # (u-exponents still to substitute, v-exponent, its degree) -> terms
        state = {(e, (0,) * k2, 0): p for e, _d, p in rows}
        for image in images:
            den_i, base = _flatten(image.terms, order)
            top = max((e[0] for e, _a, _d in state), default=0)
            powers = [[((0,) * k2, 0, [(one, 1)])]]  # images[i]^t, by degree
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
        order = self.order if order is None else min(order, self.order)
        weights = [(i, _frac(wi)) for i, wi in enumerate(w) if wi]
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
        """Inverse series g of a univariate f = x + sum_{j>=2} f_j x^j.

        g = x - sum_{j>=2} f_j g^j is solved by degree with the power table
        G[j][d] = [x^d] g^j = sum_i g_i G[j-1][d-i], which for j >= 2 needs
        only g_1..g_(d-1).  Over f's denominator L, G[j][d] is an int
        polynomial over L^(d-j), so the table sums ints unscaled.
        """
        if self.k != 1:
            raise ValueError("revert is for univariate series")
        if not self.constant_term().is_zero():
            raise ValueError("revert requires zero constant term")
        if self.coefficient((1,)).constant_value() != 1:
            raise ValueError("revert requires leading coefficient 1")
        order = self.order
        den, rows = _flatten(self.terms, order)
        f = {d: p for _e, d, p in rows if d > 1}
        G = [None] + [{j: [((0,) * len(self.ring), 1)]}  # g^j = x^j + ...
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
        return _assemble(self.ring, 1, order, {
            (d,): {g: c * den ** (order - d) for g, c in p}
            for d, p in G[1].items() if p}, den ** (order - 1))

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
        return MultiSeries(self.ring, self.k, self.order - 1, out)

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


def _as_rational(x, what, *args):
    """``x`` as a Fraction from an int, a Fraction or an exact string such
    as "1/2"; floats and bools are refused, never rounded."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ValueError:
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
        one = [((0,) * len(self.ring), 1)]  # the unit generator row
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
        is not exact.
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
