"""Exact sparse polynomials and truncated multivariate power series.

Coefficient arithmetic is exact rational (fractions.Fraction) throughout;
there is no floating point anywhere.  Power series live in torus variables
u1..uk and are truncated by *total* u-degree; the coefficients are sparse
polynomials in a fixed tuple of named, evenly graded generators.

All values are immutable after construction; every operation returns a new
object, so sharing across threads is safe.

Series multiplication (``MultiSeries.__mul__``, ``mul_linear`` and
``scale``) runs on flat integer kernels: ``_flatten`` brings each operand
over one common integer denominator, the kernel adds plain int products
per (u-exponent, generator-exponent), and ``_assemble`` makes one Fraction
per non-zero sum.  Results are built with ``Poly._trusted`` and
``MultiSeries._trusted``, which skip the re-validation of ``__init__``.
They may only be given fresh dicts that no one else holds, with no zero
coefficient, exponent tuples of the ring's and k's lengths and every
u-degree <= order.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction
from math import factorial, gcd, lcm


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


class Generator:
    """A named ring generator with an even nonnegative degree."""

    __slots__ = ("name", "degree")

    def __init__(self, name, degree):
        if degree < 0 or degree % 2 != 0:
            raise ValueError("generator degree must be even and >= 0")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "degree", degree)

    def __setattr__(self, *a):
        raise AttributeError("Generator is immutable")

    def __eq__(self, other):
        return (isinstance(other, Generator)
                and self.name == other.name and self.degree == other.degree)

    def __hash__(self):
        return hash((self.name, self.degree))

    def __repr__(self):
        return "Generator(%r, %d)" % (self.name, self.degree)


def make_ring(*gens):
    """Build a ring (ordered generator tuple) from (name, degree) pairs."""
    out = []
    seen = set()
    for g in gens:
        g = g if isinstance(g, Generator) else Generator(*g)
        if g.name in seen:
            raise ValueError("duplicate generator name %r" % g.name)
        seen.add(g.name)
        out.append(g)
    return tuple(out)


QQ = make_ring()  # the rationals: no generators


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected an exact rational, got %r" % (x,))


def binomial(alpha, j):
    """The coefficient of t^j in (1 + t)^alpha, for a rational alpha."""
    out = Fraction(1)
    for i in range(j):
        out = out * (alpha - i) / (i + 1)
    return out


def _fmt_frac(q, product_context):
    if q.denominator == 1:
        return str(q.numerator)
    s = "%d/%d" % (q.numerator, q.denominator)
    return "(%s)" % s if product_context else s


class Poly:
    """Sparse polynomial over Q in the ring's generators.

    Terms map generator-exponent tuples to nonzero Fractions; zero
    coefficients are never stored and serialization order is graded-lex,
    so equal polynomials have identical representations.
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

    def weighted_degrees(self):
        """Set of generator-graded degrees occurring among the terms."""
        return {sum(ei * g.degree for ei, g in zip(e, self.ring))
                for e in self.terms}

    # -- arithmetic ---------------------------------------------------
    def _same_ring(self, other):
        if self.ring != other.ring:
            raise ValueError("polynomial ring mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
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
        if isinstance(other, (int, Fraction)):
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
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.ring, other)
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- substitution and evaluation ----------------------------------
    def substitute_gens(self, target_ring, images):
        """Map each generator to a Poly (or rational) over ``target_ring``.

        ``images`` is a dict name -> Poly/rational; unnamed generators map
        to the target generator with the same name.
        """
        out = Poly.zero(target_ring)
        cache = {}
        for e, c in self.terms.items():
            term = Poly.constant(target_ring, c)
            for i, ei in enumerate(e):
                if not ei:
                    continue
                name = self.ring[i].name
                key = (name, ei)
                if key not in cache:
                    img = images.get(name)
                    if img is None:
                        img = Poly.gen(target_ring, name)
                    elif isinstance(img, (int, Fraction)):
                        img = Poly.constant(target_ring, img)
                    cache[key] = img ** ei
                term = term * cache[key]
            out = out + term
        return out

    def evaluate(self, values):
        """Evaluate at rational generator values (dict name -> Fraction)."""
        total = Fraction(0)
        vals = [values[g.name] for g in self.ring] if self.ring else []
        for e, c in self.terms.items():
            v = c
            for ei, x in zip(e, vals):
                if ei:
                    v *= _frac(x) ** ei
            total += v
        return total

    # -- serialization ------------------------------------------------
    def _sort_key(self, e):
        return (sum(ei * g.degree for ei, g in zip(e, self.ring)),
                tuple(-x for x in e))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: self._sort_key(t[0]))

    def _term_strings(self):
        for e, c in self.sorted_terms():
            factors = []
            for g, ei in zip(self.ring, e):
                if ei == 1:
                    factors.append(g.name)
                elif ei:
                    factors.append("%s^%d" % (g.name, ei))
            yield c, factors

    def __str__(self):
        return _render_terms(self._term_strings())

    def __repr__(self):
        return "Poly(%s)" % self

    def to_json_obj(self):
        return [{"gen": list(e), "val": _fmt_frac(c, False)}
                for e, c in self.sorted_terms()]

    @classmethod
    def from_json_obj(cls, ring, obj):
        return cls(ring, {tuple(t["gen"]): Fraction(t["val"]) for t in obj})


def _render_terms(term_iter):
    """Render (coefficient, factor-list) pairs canonically."""
    parts = []
    for c, factors in term_iter:
        sign = "-" if c < 0 else "+"
        c = abs(c)
        if factors:
            body = "*".join(factors)
            if c != 1:
                body = "%s*%s" % (_fmt_frac(c, True), body)
        else:
            body = _fmt_frac(c, False)
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += " %s %s" % (sign, body)
    return out


def _flatten(terms, order):
    """Series terms of u-degree <= order over one integer denominator.

    Returns ``(L, [(u-exponent, degree, [(generator-exponent, numerator)])])``
    where L is the lcm of every coefficient's denominator and each
    coefficient equals numerator / L.
    """
    rows = [(e, d, p.terms) for e, p in terms.items()
            if (d := sum(e)) <= order]
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
                terms[tuple(e)] = Fraction(wi)
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
        terms = {}
        for e, p in self.terms.items():
            if e[j] == power:
                terms[e[:j] + e[j + 1:]] = p
        return MultiSeries(self.ring, self.k - 1, self.order - power, terms)

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
        if isinstance(other, (int, Fraction, Poly)):
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
        q = _frac(c)
        den, flat = _flatten(self.terms, self.order)
        acc = {e: {g: n * q.numerator for g, n in p} for e, _d, p in flat}
        return _assemble(self.ring, self.k, self.order, acc,
                         den * q.denominator)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self.scale(other)
        self._compat(other)
        order = min(self.order, other.order)
        den_a, flat_a = _flatten(self.terms, order)
        den_b, flat_b = _flatten(other.terms, order)
        flat_b.sort(key=operator.itemgetter(1))
        add = operator.add
        acc = {}
        for e1, d1, p1 in flat_a:
            room = order - d1
            for e2, d2, p2 in flat_b:
                if d2 > room:
                    break
                e = tuple(map(add, e1, e2))
                out = acc.get(e)
                if out is None:
                    out = acc[e] = {}
                for g1, c1 in p1:
                    for g2, c2 in p2:
                        g = tuple(map(add, g1, g2))
                        out[g] = out.get(g, 0) + c1 * c2
        return _assemble(self.ring, self.k, order, acc, den_a * den_b)

    __rmul__ = __mul__

    def mul_linear(self, w):
        """Fast multiplication by the linear form w . u (shift-and-add).

        A series exact to ``order`` times a form of degree one is exact to
        ``order + 1``, and the product says so.
        """
        weights = [(i, _frac(wi)) for i, wi in enumerate(w) if wi]
        den_w = lcm(*(q.denominator for _i, q in weights))
        den, flat = _flatten(self.terms, self.order)
        acc = {}
        for i, q in weights:
            m = q.numerator * (den_w // q.denominator)
            for e, _d, p in flat:
                e2 = e[:i] + (e[i] + 1,) + e[i + 1:]
                out = acc.get(e2)
                if out is None:
                    out = acc[e2] = {}
                for g, c in p:
                    out[g] = out.get(g, 0) + c * m
        return _assemble(self.ring, self.k, self.order + 1, acc, den * den_w)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a series")
        result = MultiSeries.constant(self.ring, self.k, self.order, 1)
        for _ in range(n):
            result = result * self
        return result

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
    def power_sum(self, coefficient):
        """sum_j coefficient(j) * self^j for a series with zero constant
        term: self^j starts at degree j, so the sum is exact to ``order``.

        ``coefficient`` maps j >= 0 to a rational or Poly; powers are
        accumulated, and a coefficient 1 adds its power unscaled.
        """
        if not self.constant_term().is_zero():
            raise ValueError("power_sum requires zero constant term")
        result = MultiSeries.constant(self.ring, self.k, self.order,
                                      coefficient(0))
        power = MultiSeries.constant(self.ring, self.k, self.order, 1)
        for j in range(1, self.order + 1):
            power = power * self
            if power.is_zero():
                break
            c = coefficient(j)
            result = result + (power if c == 1 else power.scale(c))
        return result

    def invert_unit(self):
        """Inverse of a series whose constant term is a nonzero rational:
        the geometric series in t = 1 - self / c0, over c0."""
        c0 = self.constant_term().constant_value()
        if c0 is None:
            raise ValueError("constant term is not rational; cannot invert")
        if c0 == 0:
            raise ZeroDivisionError("constant term is zero; not a unit")
        t = 1 - self.scale(1 / c0)
        return t.power_sum(lambda j: 1).scale(1 / c0)

    def sqrt_unit(self):
        """Square root of a series with constant term 1: the binomial
        series of (1 + t)^(1/2) at t = self - 1."""
        if self.constant_term().constant_value() != 1:
            raise ValueError("sqrt requires constant term 1")
        return (self - 1).power_sum(lambda j: binomial(Fraction(1, 2), j))

    def exp(self):
        """exp of a series with zero constant term."""
        return self.power_sum(lambda j: Fraction(1, factorial(j)))

    def derivative(self):
        """d/du of a univariate series."""
        if self.k != 1:
            raise ValueError("derivative is for univariate series")
        terms = {}
        for (d,), p in self.terms.items():
            if d:
                terms[(d - 1,)] = p * d
        return MultiSeries(self.ring, 1, max(self.order - 1, 0), terms)

    def integrate(self):
        """Termwise integral of a univariate series, vanishing at 0."""
        if self.k != 1:
            raise ValueError("integrate is for univariate series")
        terms = {}
        for (d,), p in self.terms.items():
            terms[(d + 1,)] = p * Fraction(1, d + 1)
        return MultiSeries(self.ring, 1, self.order + 1, terms)

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
        """Compose: substitute images[i] (zero constant term) for u_i."""
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
        one = MultiSeries.constant(self.ring, k2, order, 1)
        powers = [{0: one} for _ in range(self.k)]
        out = MultiSeries.zero(self.ring, k2, order)
        for e, p in sorted(self.terms.items(), key=lambda t: sum(t[0])):
            if sum(e) > order:
                continue
            term = MultiSeries.constant(self.ring, k2, order, p)
            for i, ei in enumerate(e):
                if not ei:
                    continue
                cache = powers[i]
                top = max(cache)
                while top < ei:
                    cache[top + 1] = cache[top] * images[i]
                    top += 1
                term = term * cache[ei]
            out = out + term
        return out

    def compose_at_linear(self, w, k, order=None):
        """Univariate series evaluated at the linear form w . u (k variables)."""
        if self.k != 1:
            raise ValueError("compose_at_linear is for univariate series")
        order = self.order if order is None else min(order, self.order)
        out = MultiSeries.zero(self.ring, k, order)
        power = MultiSeries.constant(self.ring, k, order, 1)
        for d in range(order + 1):
            c = self.coefficient((d,))
            if not c.is_zero():
                out = out + power.scale(c)
            if d < order:
                power = power.mul_linear(w)
        return out

    def revert(self):
        """Inverse series of a univariate f = x + O(x^2).

        Solved degree by degree: g is corrected so that f(g(x)) = x.
        """
        if self.k != 1:
            raise ValueError("revert is for univariate series")
        if not self.constant_term().is_zero():
            raise ValueError("revert requires zero constant term")
        if self.coefficient((1,)).constant_value() != 1:
            raise ValueError("revert requires leading coefficient 1")
        order = self.order
        g = MultiSeries.variable(self.ring, 1, order, 0)
        for d in range(2, order + 1):
            err = self.substitute([g]) - MultiSeries.variable(self.ring, 1, order, 0)
            c = err.coefficient((d,))
            if not c.is_zero():
                g = g - MultiSeries(self.ring, 1, order, {(d,): c})
        return g

    def divide_linear(self, w):
        """Exact division by the linear form w . u.

        Works one homogeneous degree at a time, pivoting on the first
        variable with nonzero weight; the equations for the pivot-free
        monomials are the divisibility obstruction.
        """
        if len(w) != self.k or not any(w):
            raise ValueError("linear form must be a nonzero length-k vector")
        p = next(i for i, wi in enumerate(w) if wi)
        wp_inv = 1 / Fraction(w[p])
        rest = [(j, Fraction(wj)) for j, wj in enumerate(w) if j != p and wj]
        by_degree = {}
        for e, c in self.terms.items():
            by_degree.setdefault(sum(e), {})[e] = c
        out = {}
        for d in sorted(by_degree):
            h = by_degree[d]
            if d == 0:
                raise NotDivisibleError(0, w)
            # The equation for a degree-d monomial M is
            #   H[M] = sum_j w_j Q[M - e_j];
            # sweeping the pivot exponent downward makes it triangular, and
            # the pivot-free equations are the divisibility obstruction.
            q = {}
            active = {}
            for m in h:
                active.setdefault(m[p], set()).add(m)
            for i in range(d, -1, -1):
                for m in active.get(i, ()):
                    val = h.get(m, Poly.zero(self.ring))
                    for j, wj in rest:
                        if m[j] >= 1:
                            prev = q.get(m[:j] + (m[j] - 1,) + m[j + 1:])
                            if prev is not None:
                                val = val - prev * wj
                    if val.is_zero():
                        continue
                    if i == 0:
                        raise NotDivisibleError(d, w)
                    qe = m[:p] + (m[p] - 1,) + m[p + 1:]
                    q[qe] = val * wp_inv
                    for j, _wj in rest:
                        mm = qe[:j] + (qe[j] + 1,) + qe[j + 1:]
                        active.setdefault(i - 1, set()).add(mm)
            out.update(q)
        return MultiSeries(self.ring, self.k, max(self.order - 1, 0), out)

    # -- evaluation ----------------------------------------------------
    def evaluate_graded(self, direction, gen_values=None):
        """Evaluate along u = direction * t; returns t-coefficients [c0..cN].

        ``direction`` is a rational k-vector; generator values (if the ring
        is nontrivial) are given by ``gen_values``.
        """
        gen_values = gen_values or {}
        out = [Fraction(0)] * (self.order + 1)
        for e, p in self.terms.items():
            v = p.evaluate(gen_values)
            for i, ei in enumerate(e):
                if ei:
                    v *= _frac(direction[i]) ** ei
            out[sum(e)] += v
        return out

    # -- serialization ------------------------------------------------
    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda t: (sum(t[0]), tuple(-x for x in t[0])))

    def _term_strings(self):
        for e, p in self.sorted_terms():
            ufactors = []
            for i, ei in enumerate(e):
                if ei == 1:
                    ufactors.append("u%d" % (i + 1))
                elif ei:
                    ufactors.append("u%d^%d" % (i + 1, ei))
            for c, gfactors in p._term_strings():
                yield c, gfactors + ufactors

    def __str__(self):
        return _render_terms(self._term_strings())

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

    @classmethod
    def from_json_obj(cls, obj):
        ring = make_ring(*[(g["name"], g["degree"]) for g in obj["ring"]])
        terms = {tuple(t["u"]): Poly.from_json_obj(ring, t["coeff"])
                 for t in obj["terms"]}
        return cls(ring, obj["k"], obj["order"], terms)

    @classmethod
    def from_json(cls, s):
        return cls.from_json_obj(json.loads(s))


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


def product_of_forms(ring, k, order, forms):
    """Expand a multiset {form: multiplicity} of linear forms as a series."""
    out = MultiSeries.constant(ring, k, order, 1)
    for form, mult in sorted(forms.items()):
        for _ in range(mult):
            out = out.mul_linear(form)
    return out.truncate(order)


class LocalizedSum:
    """A finite sum of terms  numerator / (product of linear forms).

    Denominators are multisets of primitive, sign-normalized integer
    vectors (dict form -> multiplicity); scalar contents have been folded
    into the numerators.  ``order`` is the target truncation order of the
    normalization; each numerator must be exact to order + its
    denominator degree.
    """

    __slots__ = ("ring", "k", "order", "terms")

    def __init__(self, ring, k, order, terms=()):
        self.ring = ring
        self.k = k
        self.order = order
        self.terms = [(num, dict(den)) for num, den in terms]

    def add_term(self, numerator, denominator):
        self.terms.append((numerator, dict(denominator)))

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
        """Cross-multiply to (numerator, common denominator multiset)."""
        D = self.common_denominator()
        degD = sum(D.values())
        total = MultiSeries.zero(self.ring, self.k, self.order + degD)
        for num, den in self.terms:
            missing = {f: m - den.get(f, 0) for f, m in D.items() if m - den.get(f, 0)}
            piece = num.truncate(self.order + degD - sum(missing.values()))
            for form, mult in sorted(missing.items()):
                for _ in range(mult):
                    piece = piece.mul_linear(form)
            total = total + piece
        return total, D

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
        when the terms do not cancel to a power series.
        """
        terms = {}
        for net, _comp, quotient in self._quotients():
            if quotient is None:
                raise NormalizeError(net)
            terms.update(quotient.terms)
        return MultiSeries(self.ring, self.k, self.order, terms)
