"""Genus evaluation by fixed-point localization.

A fixed-point datum contributes sign(x) / prod_j (weight-series of w_j(x));
the sum over fixed points is an honest power series exactly when the
Conner-Floyd relations hold, and its homogeneous pieces are the cf
coefficients (the constant one being the non-equivariant genus).  The
genus enters the linear sum as the int rows of its unit a_+ = x/b(x),
which ``GenusSpec._a_plus_rows`` inverts straight off the int rows the
genus keeps of its exponential, with no series boxed, and keeps per
order on the genus.  The linear sum builds its
genus-free partition sums Z_lam from int power rows (a shift for a
coordinate form u_i) and divides them by the common denominator over the
integers before the genus enters; only data that fail the universal
relations leave the division to the genus's Fractions.  Forms of one
shape, their non-zero entries ((1, -1) for every e_i - e_j), read their
power rows off one composition, placed on each form's support, and each
point carries its scalar sign L / content from its first state on.
A divided sum is one series over no forms, and ``cf_series`` splits it
by degree into its entries.
Certified data at order 0 skip the denominator: each point's power sums
at one generic direction give every p_mu with |mu| < n, and each p_mu
with |mu| = n that some row reads, by one product each, and exact
integer rows of lam alone, keyed by the mu they read (``_m_in_p``), turn
their sums into the monomial sums q_lam, |lam| = n.  Every partition is
the descending tuple that ``fgl.partitions`` writes.  Validation checks
the signs of a pair along every edge, so its sums have no pole; a
non-zero sum of lower degree would be one, and sends the data to the
torus pass.
Uncertified data with n >= 1 meet one evaluation at the same direction
first, in ``phi`` and ``genus_value``: the empty partition's term
sign L / E_x of each point sums to L q_(), the value of the degree -n
sum sum_x sign(x) / e_x(u), which is the lowest component of every
genus's sum (a_0 = 1).  A non-zero value fails cf_0 for every genus and
raises at once; zero decides nothing, and the torus pass runs.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, mul

from toricgenera.algebra import (
    LocalizedSum,
    MultiSeries,
    NotDivisibleError,
    Poly,
    QQ,
    _add_product,
    _assemble,
    _divide_forms,
    _expand_forms,
    _flatten,
    _product,
)
from toricgenera.fgl import catalog, partitions, weight_series
from toricgenera.quasitoric import (
    FixedPoint,
    FixedPointData,
    generic_direction,
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
    """Bundled fixed-point data: "s6", "flag3" or "cp1", built as is (see
    ``FixedPoint._trusted``)."""
    point = FixedPoint._trusted
    if name == "s6":
        return FixedPointData(3, 2, [
            point("x1", 1, [(1, 0), (0, 1), (-1, -1)]),
            point("x2", 1, [(-1, 0), (0, -1), (1, 1)]),
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
            points.append(point(label, 1, weights))
        return FixedPointData(3, 3, points)
    if name == "cp1":
        return FixedPointData(1, 1, [
            point("x0", 1, [(1,)]),
            point("x1", 1, [(-1,)]),
        ])
    raise KeyError("unknown dataset %r" % name)


# ---------------------------------------------------------------------------
# the localized sum of a fixed point datum
# ---------------------------------------------------------------------------

def _point_forms(point):
    """The primitive forms of a point's weights, w_j = s_j * form_j, in
    order, their scales s_j and the content prod_j s_j: the split of
    ``canonical_linear_form`` without its checks, which a ``FixedPoint``
    has made (its weights are non-zero int tuples)."""
    forms, scales, content = [], [], 1
    for w in point.weights:
        s = gcd(*w)
        if next(filter(None, w)) < 0:
            s = -s
        forms.append(tuple(x // s for x in w))
        scales.append(s)
        content *= s
    return forms, scales, content


def _linear_total(fpd, genus, order):
    """(S, D) of the linear localized sum in one pass, with a_+ as int rows
    from ``GenusSpec._a_plus_rows`` (no series boxed): a weight s f takes
    each state, an int polynomial in u per partition mu of the degrees used
    so far, times s^t (f . u)^t into mu + {t}.  u-exponents are packed as
    the base-B digits of one int, so (u_i)^t is the shift t B^i; a form
    that is not a coordinate takes the rows of its shape, its non-zero
    entries, from one ``compose_at_linear`` per shape, placed on its
    support.  A point's states start at sign L / content, and its last
    step, the missing forms' product or its last weight when that product
    is 1, writes into Z.  When every Z_lam divides by D over the integers,
    the ring step runs on the quotients and returns (S / D, {}).  Certified
    data at order 0 skip D: their sums come from ``_evaluated_sums``,
    unless it finds a pole."""
    k, n = fpd.k, fpd.n
    top = order + n
    den_a, coeff = genus._a_plus_rows(top)  # a_t = coeff[t] / den_a
    T = sorted(coeff)
    evaluated = fpd.certified and not order and _evaluated_sums(fpd, T)
    if evaluated:
        L, nums = evaluated
        return _assemble(genus.ring, k, 0,
                         _ring_sums(coeff, den_a, n, nums),
                         den_a ** n * L), {}
    points = [(point.sign,) + _point_forms(point) for point in fpd.points]
    D = Counter()
    for _sign, prims, _scales, _content in points:
        D |= Counter(prims)
    B = order + sum(D.values()) + 1
    digits = [B ** i for i in range(k)]

    def pack(e):
        return sum(x * d for x, d in zip(e, digits))

    # (f, s) -> [(t, (s f . u)^t)]: a coordinate form u_i shifts the
    # exponent; any other f places the rows of its shape g, its non-zero
    # entries, on its support: sum_(t in T) x^t at g . v, whose
    # coefficients are ints, as g is, read once per shape
    ones, shapes, powers = None, {}, {}
    for _sign, prims, scales, _content in points:
        for f, s in zip(prims, scales):
            if (f, 1) not in powers:
                if f.count(0) == k - 1:  # f is primitive: its entry is 1
                    unit = digits[f.index(1)]
                    powers[f, 1] = [(t, [(t * unit, 1)]) for t in T]
                else:
                    g = tuple(filter(None, f))
                    if g not in shapes:
                        if ones is None:
                            one = Poly._trusted(QQ, {0: Fraction(1)})
                            ones = MultiSeries._trusted(
                                QQ, 1, T[-1], {(t,): one for t in T})
                        table = {t: [] for t in T}
                        composed = ones.compose_at_linear(g, len(g))
                        for e, p in composed.terms.items():
                            table[sum(e)].append((e, p.terms[0].numerator))
                        shapes[g] = list(table.items())
                    place = [d for d, x in zip(digits, f) if x]
                    powers[f, 1] = [
                        (t, [(sum(map(mul, e, place)), c) for e, c in rows])
                        for t, rows in shapes[g]]
            if (f, s) not in powers:
                powers[f, s] = [(t, [(e, c * s ** t) for e, c in rows])
                                for t, rows in powers[f, 1]]
    L = lcm(*(content for *_rest, content in points))
    Z = {}  # partition -> {packed u-exponent: int}, over L
    for sign, prims, scales, content in points:
        # from sign L / content through the weights, then times the
        # missing forms, unless their product is 1; the last step, found
        # by its place (a repeated weight repeats its step), writes into Z
        missing = D - Counter(prims)
        steps = [powers[w] for w in zip(prims, scales)]
        if missing or not steps:
            steps.append([(0, [(pack(e), c) for e, c in
                               _expand_forms(k, missing).items()])])
        states = {(): {0: sign * L // content}}
        last = len(steps) - 1
        for i, step in enumerate(steps):
            grown = Z if i == last else {}
            for mu, poly in states.items():
                for t, rows in step:
                    if t + sum(mu) > top:
                        break
                    lam = tuple(sorted(mu + (t,), reverse=True)) if t else mu
                    out = grown.setdefault(lam, {})
                    for e1, c1 in poly.items():
                        for e2, c2 in rows:
                            e = e1 + e2
                            out[e] = out.get(e, 0) + c1 * c2
            states = grown
    # divide each Z_lam by D over the integers, lowest |lam| first; one with
    # |lam| < n must vanish, as its quotient would have negative degree
    forms = [[(d, m) for d, m in zip(digits, form) if m]
             for form, mult in sorted(D.items()) for _ in range(mult)]
    nums = {}  # partition -> Z_lam / D
    for lam in sorted(Z, key=sum):
        poly = {e: c for e, c in Z[lam].items() if c}
        if sum(lam) < n:
            if poly:
                break
        elif poly:
            nums[lam] = _divide_forms(poly, forms, B)
            if nums[lam] is None:
                break
    else:  # the sum is the series S / D, over no denominator
        D = Counter()
    if D:  # S over D: its Fraction division decides for this genus
        nums = Z
    acc = _ring_sums(coeff, den_a, n, nums)
    acc = {tuple(e // d % B for d in digits): p for e, p in acc.items()}
    return _assemble(genus.ring, k, order + sum(D.values()), acc,
                     den_a ** n * L), dict(D)


@functools.cache
def _p_in_m(mu):
    """p_mu over the monomial basis, {lam: int}, for a descending mu:
    p_r m_nu adds r to one part v of nu, or to a new part v = 0, with
    coefficient the multiplicity of v + r."""
    if not mu:
        return {(): 1}
    r, out = mu[-1], {}
    for nu, c in _p_in_m(mu[:-1]).items():
        for v in set(nu) | {0}:
            lam = list(nu)
            if v:
                lam.remove(v)
            lam = tuple(sorted(lam + [v + r], reverse=True))
            out[lam] = out.get(lam, 0) + c * lam.count(v + r)
    return out


@functools.cache
def _m_in_p(lam):
    """(den, ((mu, r), ...)) with den m_lam = sum r p_mu over mu |- |lam|
    (Macdonald I.6), for a descending lam: a constant of lam, keyed by
    the descending mu, built when first asked for.  p_lam = sum R m_nu
    runs over the coarsenings nu of lam: lam itself, with R_(lam lam) =
    prod_i (multiplicity of i)!, and partitions that are
    lexicographically greater.  So m_lam = (p_lam - sum R m_nu) /
    R_(lam lam), by recursion down from m_(n) = p_(n)."""
    R = _p_in_m(lam)
    others = [(c, *_m_in_p(nu)) for nu, c in R.items() if nu != lam]
    D = lcm(*(den for _c, den, _row in others))
    row = {lam: D}
    for c, den, other in others:
        for mu, a in other:
            row[mu] = row.get(mu, 0) - c * (D // den) * a
    den = R[lam] * D
    g = gcd(den, *row.values())
    return den // g, tuple((mu, a // g) for mu, a in row.items() if a)


@functools.cache
def _evaluation_plan(n, T):
    """(low, steps, rows), the products ``_evaluated_sums`` forms at
    degree n for the unit degrees T, built once per (n, T) and process.

    Each product p_mu has a place, the empty mu place 0: by size from
    ``partitions``, every |mu| < n, which fill the first ``low`` places
    and which the pole check reads, then each mu |- n that some row
    ``_m_in_p(lam)`` reads, lam |- n with parts in T.  ``steps`` lists
    (place of mu[:-1], mu[-1]) for each non-empty mu, in place order, as
    p_mu = p_(mu[:-1]) p_(mu[-1]).  ``rows`` lists (lam, den, ((place,
    r), ...)) for each such lam, (n) first.  At n = 0 the empty
    partition is lam, and no place is low."""
    lams = [lam for lam in partitions(n) if set(T).issuperset(lam)]
    read = {mu for lam in lams for mu, _r in _m_in_p(lam)[1]}
    place, steps, low = {(): 0}, [], 0
    for size in range(1, n + 1):
        low = len(place)  # the places of |mu| < size
        for mu in partitions(size):
            if size < n or mu in read:
                place[mu] = len(place)
                steps.append((place[mu[:-1]], mu[-1]))
    rows = []
    for lam in lams:
        den, row = _m_in_p(lam)
        rows.append((lam, den, tuple((place[mu], r) for mu, r in row)))
    return low, tuple(steps), tuple(rows)


def _at_direction(fpd):
    """(L, [(sign(x) L / E_x, c) for each point x]) at nu =
    ``generic_direction(fpd)``: c_j = w_j . nu, E_x = prod_j c_j and L =
    lcm_x |E_x|.  The first entries sum to L q_(), the degree -n sum
    sum_x sign(x) / e_x(u) at nu."""
    nu = generic_direction(fpd)
    points = [(point.sign, [sum(map(mul, w, nu)) for w in point.weights])
              for point in fpd.points]
    L = lcm(*(prod(c) for _sign, c in points))
    return L, [(sign * L // prod(c), c) for sign, c in points]


def _refutes_cf0(fpd):
    """Whether uncertified data with n >= 1 fail cf_0 for every genus, by
    one evaluation at a generic direction: sum_x sign(x) / e_x(u) is the
    lowest component of every genus's localized sum, as a_0 = 1, so a
    non-zero value at nu is a pole that no genus cancels.  A zero value
    decides nothing."""
    if fpd.certified or not fpd.n:
        return False
    return sum(term for term, _c in _at_direction(fpd)[1]) != 0


def _evaluated_sums(fpd, T):
    """(L, {lam: {(0,) * k: L q_lam}}) for lam |- n with parts in T, the
    genus-free sums of certified data at order 0, by evaluation at one
    generic direction nu: q_lam = sum_x sign(x) m_lam(c(x)) / E_x with
    c_j = w_j . nu and E_x = prod_j c_j, over L = lcm_x |E_x|.  The sum
    being a power series, q_lam is a homogeneous polynomial of degree
    |lam| - n (Atiyah-Bott), a constant here, which every generic
    direction sees unchanged.

    Each point takes its power sums p_d = sum_j c_j^d, d <= n, then
    p_mu = p_(mu minus a part) p_part for every partition |mu| < n and
    for each mu |- n that a row reads (``_evaluation_plan``), and adds
    sign L / E_x p_mu into Q_mu: O(n^2 + P(<= n)) products, no partition
    built.  Each L q_lam then comes from its row ``_m_in_p`` of the
    change of basis from power sums to monomials, integers that depend on
    lam alone, with one exact division.  As p -> m is invertible in each
    degree, a non-zero Q_mu with |mu| < n is a non-zero q_lam of that
    degree, whatever its parts, which must vanish.  Validation checks
    the edge rule, which cancels every pole of a pair, so a non-zero one
    means data marked by hand or a fault: None, and the torus pass
    reports it."""
    n = fpd.n
    low, steps, rows = _evaluation_plan(n, tuple(T))
    L, points = _at_direction(fpd)
    Q = [0] * (len(steps) + 1)
    for term, c in points:
        p = [0] * (n + 1)  # p[d] = sum_j c_j^d
        for cj in c:
            x = 1
            for d in range(1, n + 1):
                x *= cj
                p[d] += x
        pm = [term]  # sign L / E_x p_mu
        for parent, part in steps:
            pm.append(pm[parent] * p[part])
        Q = list(map(add, Q, pm))
    if any(Q[:low]):
        return None
    zero = (0,) * fpd.k
    return L, {lam: {zero: sum(r * Q[i] for i, r in row) // den}
               for lam, den, row in rows}


def _ring_sums(coeff, den_a, n, nums):
    """{u-exponent: {packed generator exponent: int}}, the sum over lam of
    den_a^n a_lam nums[lam]: a_lam over den_a^n is built from
    a_(lam minus its last part), and lam has at most n parts, so den_a
    divides exactly."""
    ring_of = {(): [(0, den_a ** n)]}

    def ring(lam):
        if lam not in ring_of:
            out = {}
            _add_product(out, ring(lam[:-1]), coeff[lam[-1]])
            ring_of[lam] = [(g, c // den_a) for g, c in out.items() if c]
        return ring_of[lam]

    acc = {}
    for lam, poly in nums.items():
        for e, c in poly.items():
            if c:
                out = acc.setdefault(e, {})
                for g, a in ring(lam):
                    out[g] = out.get(g, 0) + a * c
    return acc


def localized_sum(fpd, genus, mode, order):
    """Represent sum_x sign(x) prod_j 1/(weight series) as a LocalizedSum.

    In linear mode b(w.u) = (w.u) a_+(w.u)^-1 with a_+ = sum_t a_t x^t, and
    the sum is one term: the cross-multiplied numerator S, exact to
    order + deg D, over the common denominator D of the primitive forms.
    S = sum_lam a_lam Z_lam over partitions lam, where a_lam = prod_i
    a_(lam_i) holds the genus and Z_lam = sum_x sign(x) / content(x)
    (missing forms of x) m_lam(w_1(x).u, ..., w_n(x).u) the fixed points.
    This is exact: prod_j a_+(l_j) = sum_alpha prod_j a_(alpha_j)
    l_j^alpha_j, whose ring factor depends only on the multiset of alpha.
    At order 0 it is Hirzebruch's phi[M] = sum_lam a_lam s_lam[M].
    Each Z_lam is first divided by D over the integers.  When all divide,
    as for data that meet the universal Conner-Floyd relations, the one
    term is (S / D, {}): a power series exact to ``order``, already
    normalized.  Otherwise it is (S, D), and the Fraction division in
    ``_quotients`` decides for this genus alone.

    Universal mode (the slow reference for ``phi``) divides the product of
    the full [w](u) exactly by as many of its primitive forms as possible
    and expands the rest as a finite geometric tail, exact to the working
    order.  A sum that is not a power series is found where it is read:
    ``cf_series`` reads the linear one, ``LocalizedSum.normalize`` either.
    """
    if mode not in ("linear", "universal"):
        raise ValueError("mode must be 'linear' or 'universal'")
    k, n = fpd.k, fpd.n
    ls = LocalizedSum(genus.ring, k, order)
    if mode == "linear":
        ls.add_term(*_linear_total(fpd, genus, order))
        return ls
    exact = order + 2 * n
    spec = genus.at_order(exact)
    for point in fpd.points:
        prims, _scales, content = _point_forms(point)
        Q = _product(genus.ring, k, exact, [
            _flatten(weight_series(spec, w, k).terms, exact)
            for w in point.weights])
        divided, residual = [], []
        for prim in prims:
            try:
                Q = Q.divide_linear(prim)
                divided.append(prim)
            except NotDivisibleError:
                residual.append(prim)
        if not residual:
            ls.add_term(Q.invert_unit().scale(point.sign), Counter(prims))
            continue
        # geometric tail over the residual linear factors; the product must
        # be exact to the top term's demand plus the n_h degrees consumed
        # by the exact divisions
        n_h, n_r = len(divided), len(residual)
        imax = order + n
        big = order + 2 * n_h + (imax + 1) * n_r
        big_spec = genus.at_order(big)
        Q = _product(genus.ring, k, big, [
            _flatten(weight_series(big_spec, w, k).terms, big)
            for w in point.weights])
        for prim in divided:
            Q = Q.divide_linear(prim)
        low = Q.homogeneous_component(n_r)
        R = Q - low
        rpow = MultiSeries.constant(genus.ring, k, Q.order, 1)
        for i in range(imax + 1):
            num = rpow.truncate(order + n_h + (i + 1) * n_r)
            num = num.scale(Fraction(point.sign * (-1) ** i,
                                     content ** (i + 1)))
            if not num.is_zero():
                ls.add_term(num, Counter(divided + residual * (i + 1)))
            rpow = rpow * R
            if rpow.is_zero():
                break
    return ls


_NON_CANCELLING = ("fixed point data violates the Conner-Floyd relations: "
                   "non-cancelling terms at cf_%d")


def phi(fpd, genus, mode, order):
    """The equivariant genus of the fixed point data, as a power series.

    Linear mode is the sum of the ``cf_series`` entries l >= n, raising at
    its first violation; universal mode is the linear series reparametrized
    along the logarithm, u_i -> m(u_i), which is the same substitution
    that linearizes every weight series.  Uncertified data that
    ``_refutes_cf0`` fail cf_0 before any sum.
    """
    if mode not in ("linear", "universal"):
        raise ValueError("mode must be 'linear' or 'universal'")
    if _refutes_cf0(fpd):
        raise ConnerFloydViolation(0, _NON_CANCELLING % 0)
    cf = cf_series(fpd, genus, order)
    l = cf.first_violation()
    if l is not None:
        raise ConnerFloydViolation(l, _NON_CANCELLING % l)
    terms = {}
    for e in cf.entries[fpd.n:]:
        terms.update(e.series.terms)
    linear = MultiSeries._trusted(genus.ring, fpd.k, order, terms)
    if mode == "linear":
        return linear
    # a genus is exact to order >= 1; the order-0 logarithm is 0
    m = genus.at_order(max(order, 1)).logarithm.truncate(order)
    return linear.substitute([m.in_slot(fpd.k, i) for i in range(fpd.k)])


# ---------------------------------------------------------------------------
# cf coefficients
# ---------------------------------------------------------------------------

class CfEntry:
    """One coefficient cf_l: a homogeneous series, or a violation, the
    pair (numerator component over D, a function that returns D rendered,
    shared by the entries of one series)."""

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
        return "(%s) / [%s]" % (num, den())

    def __repr__(self):
        return "cf_%d = %s" % (self.l, self.value_str())


class CfSeries:
    """The coefficients cf_l, 0 <= l <= n + order, of a fixed point datum.

    The data satisfy the Conner-Floyd relations, to this order, exactly
    when every entry is defined (the division by the common denominator is
    exact) and cf_l = 0 for l < n; cf_n is then the genus and cf_{n+m} is
    homogeneous of u-degree m.  Rigid adds cf_l = 0 for l > n.
    """

    def __init__(self, n, genus_name, entries):
        self.n = n
        self.genus_name = genus_name
        self.entries = entries

    def entry(self, l):
        return self.entries[l]

    def __iter__(self):
        return iter(self.entries)

    def first_violation(self, rigid=False):
        """The first l whose cf_l is undefined or is non-zero below n (off
        l = n if ``rigid``); None if there is none."""
        for e in self.entries:
            if not e.ok or (e.l != self.n if rigid else e.l < self.n) \
                    and not e.series.is_zero():
                return e.l
        return None

    def conner_floyd_ok(self):
        return self.first_violation() is None

    def rigid(self):
        return self.first_violation(rigid=True) is None

    def genus_value(self):
        """cf_n; raises ConnerFloydViolation at the first l < n with
        cf_l != 0, or when cf_n is not a power series."""
        bad = self.first_violation()  # = n only where cf_n is undefined
        if bad is not None and bad <= self.n:
            raise ConnerFloydViolation(
                bad, "cf_n is not defined" if bad == self.n else None)
        return self.entries[self.n].series.constant_term()


def cf_series(fpd, genus, order):
    """Compute cf_l for 0 <= l <= n + order (linear mode).

    A linear sum whose Z_lam all divide is one power series over no
    forms, exact to ``order``: cf_(n+d) is its degree-d part, read off
    directly, and cf_l = 0 for l < n.  Otherwise the common-denominator
    representation keeps the principal part exact, so violations in
    degrees l < n are detected and reported verbatim, with D rendered
    once for every failing entry.
    """
    n, ring, k = fpd.n, genus.ring, fpd.k
    ls = localized_sum(fpd, genus, "linear", order)
    if len(ls) == 1 and not ls.terms[0][1]:
        parts = {}
        for e, p in ls.terms[0][0].terms.items():
            parts.setdefault(sum(e), {})[e] = p
        return CfSeries(n, genus.name, [
            CfEntry(l, MultiSeries._trusted(ring, k, max(l - n, 0),
                                            parts.get(l - n, {})))
            for l in range(n + order + 1)])
    D = ls.common_denominator()
    den = functools.cache(lambda: " ".join(
        "(%s)%s" % (MultiSeries.linear_form(ring, k, 1, form),
                    "^%d" % mult if mult > 1 else "")
        for form, mult in sorted(D.items())))
    entries = [CfEntry(l, MultiSeries.zero(ring, k, max(l - n, 0)))
               for l in range(n + order + 1)]
    # each point contributes over n linear forms, so the lowest non-zero
    # component has net degree >= -n
    for net, comp, quotient in ls._quotients():
        l = n + net
        entries[l] = CfEntry(l, violation=(comp, den)) if quotient is None \
            else CfEntry(l, quotient.truncate(max(net, 0)))
    return CfSeries(n, genus.name, entries)


def genus_value(fpd, genus):
    """The non-equivariant genus cf_n; raises on Conner-Floyd failure,
    at once for data that ``_refutes_cf0``."""
    if _refutes_cf0(fpd):
        raise ConnerFloydViolation(0)
    return cf_series(fpd, genus, 0).genus_value()


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
        hr_value = genus_value(fpd, hurewicz_genus)
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
    return ls.over_common_denominator()[0].is_zero()


class PairingReport:
    def __init__(self, blocks, vanishing):
        self.blocks = blocks
        self.vanishing = vanishing

    @property
    def ok(self):
        return all(self.vanishing)


def pairing_obstruction(fpd, blocks=None, search=False):
    """Test blockwise vanishing of the augmentation-genus localization.

    The genus is fixed by the obstruction: the augmentation genus, built
    once per call exact to n + 1, the order each block's linear sum reads.

    With ``blocks`` (a partition of the point indices), reports which
    blocks sum to zero.  With ``search=True``, enumerates all perfect
    pairings and returns the list of (pairing, report) for those that
    vanish entirely.
    """
    augmentation = catalog("augmentation", fpd.n - 1)
    if search:
        idx = list(range(len(fpd.points)))
        if len(idx) % 2:
            raise ValueError("perfect pairings need an even point count")
        found = []
        known = {}  # block -> vanishes; each block is localized once
        for pairing in _perfect_pairings(idx):
            for b in map(tuple, pairing):
                if b not in known:
                    known[b] = _block_vanishes(fpd, b, augmentation)
            vanishing = [known[tuple(b)] for b in pairing]
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
    factors = []
    for i in range(nvars):
        for j in range(i + 1, nvars):
            w = tuple(1 if t == i else (-1 if t == j else 0)
                      for t in range(nvars))
            factors.append(_flatten(
                aplus.compose_at_linear(w, nvars, order).terms, order))
    return dict(_product(genus.ring, nvars, order, factors).terms)
