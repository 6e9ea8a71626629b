import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricgenera.algebra import (
    LocalizedSum,
    MultiSeries,
    NormalizeError,
    NotDivisibleError,
    Poly,
    QQ,
    _divide_forms,
    _expand_forms,
    _flatten,
    _invert_rows,
    _pack,
    _unpack,
    canonical_linear_form,
    make_ring,
)
from toricgenera.fgl import CATALOG_NAMES, _KRING, catalog
from toricgenera.localize import dataset, localized_sum, phi
from toricgenera.quasitoric import (
    FixedPointData,
    signs_and_weights,
    simplex_pair,
)

F = Fraction
BRING = make_ring(("b1", 2), ("b2", 4), ("b3", 6))
ZRING = make_ring(("z", 2))


def const(ring, k, order, v):
    return MultiSeries.constant(ring, k, order, v)


def var(ring, k, order, i):
    return MultiSeries.variable(ring, k, order, i)


# ---------------------------------------------------------------------------
# Poly basics
# ---------------------------------------------------------------------------

def test_poly_arithmetic_and_normal_form():
    b1 = Poly.gen(BRING, "b1")
    b2 = Poly.gen(BRING, "b2")
    p = (b1 + b2) * (b1 - b2)
    assert p == b1 * b1 - b2 * b2
    assert (p - p).is_zero()
    assert (b1 * 0).is_zero()
    q = Poly.constant(BRING, F(1, 2))
    assert (q + q).constant_value() == 1


def test_poly_pow_and_substitute():
    y = Poly.gen(make_ring(("y", 2), ("z", 2)), "y")
    z = Poly.gen(make_ring(("y", 2), ("z", 2)), "z")
    p = (y + z) ** 3
    vals = p.substitute_gens(QQ, {"y": F(2), "z": F(3)}).constant_value()
    assert vals == 125
    # specialize y -> 0 into the z-only ring
    q = p.substitute_gens(ZRING, {"y": 0, "z": Poly.gen(ZRING, "z")})
    assert q == Poly.gen(ZRING, "z", 3)


def test_poly_str_is_graded_lex():
    b1 = Poly.gen(BRING, "b1")
    b2 = Poly.gen(BRING, "b2")
    p = b2 + b1 * b1 * 2 - 1
    assert str(p) == "-1 + 2*b1^2 + b2"


# ---------------------------------------------------------------------------
# MultiSeries operations
# ---------------------------------------------------------------------------

def test_add_examples():
    one = const(QQ, 1, 6, 1)
    u = var(QQ, 1, 6, 0)
    assert (one + u) + (one - u) == const(QQ, 1, 6, 2)

    u1 = var(QQ, 2, 6, 0)
    u2 = var(QQ, 2, 6, 1)
    assert str(u1 + u2) == "u1 + u2"

    b1 = Poly.gen(BRING, "b1")
    s = var(BRING, 1, 6, 0).scale(b1)
    assert (s + (-s)).is_zero()


def test_mul_examples():
    one = const(QQ, 1, 6, 1)
    u = var(QQ, 1, 6, 0)
    sq = (one + u) * (one + u)
    assert sq == one + u.scale(2) + u * u

    # truncation at order N kills u^N * u
    uN = var(QQ, 1, 3, 0) ** 3
    assert (uN * var(QQ, 1, 3, 0)).is_zero()

    u1 = var(QQ, 2, 6, 0)
    u2 = var(QQ, 2, 6, 1)
    assert (u1 + u2) * (u1 - u2) == u1 * u1 - u2 * u2


def test_mul_ring_mismatch():
    with pytest.raises(ValueError):
        var(QQ, 1, 4, 0) * var(ZRING, 1, 4, 0)
    with pytest.raises(ValueError):
        var(QQ, 1, 4, 0) + var(QQ, 2, 4, 0)
    with pytest.raises(ValueError):
        var(QQ, 1, 4, 0).scale(Poly.gen(ZRING, "z"))


@pytest.mark.parametrize("op", [
    lambda a, b: a + b,
    lambda a, b: a * b,
    lambda a, b: b + a,
    lambda a, b: b * a,
], ids=["add", "mul", "radd", "rmul"])
@pytest.mark.parametrize("value", [
    Poly.gen(ZRING, "z") + 1,
    const(ZRING, 2, 3, 1) + var(ZRING, 2, 3, 1),
], ids=["Poly", "MultiSeries"])
@pytest.mark.parametrize("operand", [0.5, "1/2", None])
def test_inexact_operands_raise_type_error(op, value, operand):
    with pytest.raises(TypeError):
        op(value, operand)


def test_invert_unit_examples():
    order = 6
    one = const(QQ, 1, order, 1)
    u = var(QQ, 1, order, 0)
    geo = (one - u).invert_unit()
    assert geo == sum((u ** j for j in range(1, order + 1)), one)

    b1 = Poly.gen(BRING, "b1")
    s = const(BRING, 1, 4, 1) + var(BRING, 1, 4, 0).scale(b1)
    t = s.invert_unit()
    assert (s * t) == const(BRING, 1, 4, 1)
    expect = const(BRING, 1, 4, 1) - var(BRING, 1, 4, 0).scale(b1) \
        + (var(BRING, 1, 4, 0) ** 2).scale(b1 * b1) \
        - (var(BRING, 1, 4, 0) ** 3).scale(b1 * b1 * b1) \
        + (var(BRING, 1, 4, 0) ** 4).scale(b1 ** 4)
    assert t == expect

    assert const(QQ, 0, 0, 2).invert_unit() == const(QQ, 0, 0, F(1, 2))

    with pytest.raises(ZeroDivisionError):
        var(QQ, 1, 4, 0).invert_unit()
    with pytest.raises(ValueError):
        (const(BRING, 1, 4, 1) + const(BRING, 1, 4, Poly.gen(BRING, "b1"))).invert_unit()


def test_substitute_examples():
    # s = u1^2 composed with u1 + u2 (one variable into two)
    s = var(QQ, 1, 6, 0) ** 2
    img = var(QQ, 2, 6, 0) + var(QQ, 2, 6, 1)
    out = s.substitute([img])
    u1, u2 = var(QQ, 2, 6, 0), var(QQ, 2, 6, 1)
    assert out == u1 * u1 + (u1 * u2).scale(2) + u2 * u2

    # identity substitution
    b = var(ZRING, 1, 6, 0) + (var(ZRING, 1, 6, 0) ** 2).scale(Poly.gen(ZRING, "z"))
    assert var(ZRING, 1, 6, 0).substitute([b]) == b

    with pytest.raises(ValueError):
        s.substitute([const(QQ, 2, 6, 1)])

    # u1 u2 at (v1 + v2^3, v1): v2^3 cannot fit beside u2's image, v1 can
    v1, v2 = var(QQ, 2, 3, 0), var(QQ, 2, 3, 1)
    out = (v1 * v2).substitute([v1 + v2 ** 3, v1])
    assert out == v1 * v1


def test_revert_examples():
    x = var(QQ, 1, 6, 0)
    assert x.revert() == x

    # todd-style: (e^{zx}-1)/z reverts to log(1+zu)/z
    order = 6
    z = Poly.gen(ZRING, "z")
    f = MultiSeries(ZRING, 1, order, {
        (j,): z ** (j - 1) * F(1, _factorial(j)) for j in range(1, order + 1)})
    g = f.revert()
    expect = MultiSeries(ZRING, 1, order, {
        (j,): z ** (j - 1) * F((-1) ** (j - 1), j) for j in range(1, order + 1)})
    assert g == expect

    # f = x + b1 x^2 + b2 x^3 reverts to x - b1 x^2 + (2 b1^2 - b2) x^3 - ...
    b1, b2 = Poly.gen(BRING, "b1"), Poly.gen(BRING, "b2")
    f = MultiSeries(BRING, 1, 3, {(1,): F(1), (2,): b1, (3,): b2})
    g = f.revert()
    assert g.coefficient((2,)) == -b1
    assert g.coefficient((3,)) == b1 * b1 * 2 - b2
    # round trip both ways
    assert f.substitute([g]) == var(BRING, 1, 3, 0)
    assert g.substitute([f]) == var(BRING, 1, 3, 0)

    with pytest.raises(ValueError):
        (x.scale(2)).revert()
    with pytest.raises(ValueError):
        (const(QQ, 1, 4, 1) + x).revert()


def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_divide_linear_examples():
    u1, u2 = var(QQ, 2, 6, 0), var(QQ, 2, 6, 1)
    p = u1 * u1 - u2 * u2
    q = p.divide_linear((1, -1))
    assert q == (u1 + u2).truncate(5)

    assert (u1 * u2).divide_linear((1, 0)) == u2.truncate(5)

    with pytest.raises(NotDivisibleError) as err:
        (u1 + u2).divide_linear((1, -1))
    assert err.value.degree == 1


def test_order_zero_derivative_and_quotient_raise():
    # d/du u = 1 and u / u = 1 are not exact to any order when u is known
    # only to order 0
    u = var(QQ, 1, 0, 0)
    with pytest.raises(ValueError):
        u.derivative()
    with pytest.raises(ValueError):
        u.divide_linear((1,))
    with pytest.raises(ValueError):
        const(BRING, 2, 0, 3).divide_linear((1, -1))
    assert var(QQ, 1, 1, 0).derivative() == const(QQ, 1, 0, 1)
    assert var(QQ, 1, 1, 0).derivative().order == 0
    assert var(QQ, 1, 1, 0).divide_linear((1,)).order == 0


def test_divide_linear_pivot_free_obstruction():
    # divisible only up to the u2^2 stray term; pivot on u1
    u1, u2 = var(QQ, 2, 6, 0), var(QQ, 2, 6, 1)
    p = (u1 + u2) * (u1 + u2) + u2 * u2 * u2
    with pytest.raises(NotDivisibleError) as err:
        p.divide_linear((1, 1))
    assert err.value.degree == 3


def _packed(poly, base):
    return {sum(x * base ** i for i, x in enumerate(e)): c
            for e, c in poly.items()}


def _packed_forms(forms, base):
    return [[(base ** i, m) for i, m in enumerate(form) if m]
            for form in forms]


def _divide_forms_by_series(poly, forms, k, top):
    """The quotient of an int polynomial {u-exponent: int} of degree <= top
    by the forms, one ``divide_linear`` each over QQ, or None."""
    q = MultiSeries(QQ, k, top, poly)
    try:
        for form in forms:
            q = q.divide_linear(form)
    except NotDivisibleError:
        return None
    return {e: c.constant_value() for e, c in q.terms.items()}


def _times_poly(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_divide_forms_matches_divide_linear(data):
    # quotients that exist (a cofactor times the forms, nudged or not) and
    # ones that do not, by forms whose pivot entry may exceed 1
    k = data.draw(st.integers(1, 3))
    form = st.lists(st.integers(-3, 3), min_size=k, max_size=k).filter(
        any).map(lambda w: canonical_linear_form(w)[0])
    forms = data.draw(st.lists(form, max_size=3))
    exps = st.tuples(*[st.integers(0, 3)] * k)
    cofactor = data.draw(st.dictionaries(exps, st.integers(-4, 4).filter(
        bool), max_size=4))
    poly = _times_poly(_expand_forms(k, Counter(forms)), cofactor)
    for e, c in data.draw(st.dictionaries(exps, st.integers(-2, 2),
                                          max_size=2)).items():
        poly[e] = poly.get(e, 0) + c
    poly = {e: c for e, c in poly.items() if c}
    top = 3 * k + len(forms)
    base = top + 1
    got = _divide_forms(_packed(poly, base), _packed_forms(forms, base),
                        base)
    want = _divide_forms_by_series(poly, forms, k, top)
    if want is not None:
        want = _packed(want, base)
        assert all(type(c) is int for c in got.values())
    assert got == want


def test_divide_forms_examples():
    # u1 by 2 u1 + u2 leaves a remainder of the pivot entry; u1 u2 by u2
    # is a shift, u1 by u2 is not; (2 u1 + u2)(u1 - u2) by both forms is 1
    base = 4
    u1, u2 = 1, base
    two_one, one_minus_one, coord = _packed_forms(
        [(2, 1), (1, -1), (0, 1)], base)
    assert _divide_forms({u1: 1}, [two_one], base) is None
    assert _divide_forms({u1 + u2: 3}, [coord], base) == {u1: 3}
    assert _divide_forms({u1: 3}, [coord], base) is None
    product = {2 * u1: 2, u1 + u2: -1, 2 * u2: -1}
    assert _divide_forms(product, [two_one, one_minus_one], base) == {0: 1}
    assert _divide_forms(product, [], base) == product
    assert _divide_forms({}, [two_one, coord], base) == {}


def test_linear_forms_refuse_float_weights():
    with pytest.raises(TypeError):
        MultiSeries.linear_form(QQ, 2, 3, (0.1, 1))
    p = var(QQ, 2, 3, 0) + var(QQ, 2, 3, 1)
    for w in [(1.0, 1.0), (1.0, 1), (1, 1.0)]:
        with pytest.raises(TypeError):
            p.divide_linear(w)


def test_canonical_linear_form():
    assert canonical_linear_form((2, -4)) == ((1, -2), 2)
    assert canonical_linear_form((-2, 4)) == ((1, -2), -2)
    assert canonical_linear_form((0, -3)) == ((0, 1), -3)
    with pytest.raises(ValueError):
        canonical_linear_form((0, 0))
    # entries are never truncated to integers
    for w, entry in (((1.5, 2), 1), ((2, 4.0), 2), (("1", 2), 1),
                     ((True, 1), 1)):
        with pytest.raises(ValueError,
                           match="linear form entry %d is not an integer"
                           % entry):
            canonical_linear_form(w)


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def test_normalize_cancelling_pair():
    one = const(QQ, 2, 6, 1)
    ls = LocalizedSum(QQ, 2, 5, [
        (one, {(1, -1): 1}),
        (-one, {(1, -1): 1}),
    ])
    assert ls.normalize().is_zero()


def test_normalize_cp1_augmentation():
    # 1/u - 1/u = 0 (augmentation genus on CP^1 with sign data +1, +1 and
    # weights (1), (-1): the second term is 1/(-u) with the sign folded in)
    one = const(QQ, 1, 8, 1)
    ls = LocalizedSum(QQ, 1, 6, [
        (one, {(1,): 1}),
        (-one, {(1,): 1}),
    ])
    assert ls.normalize().is_zero()


def test_normalize_s6_augmentation():
    # (1 - 1)/(u1 u2 (u1 + u2)) = 0
    one = const(QQ, 2, 9, 1)
    den = {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    ls = LocalizedSum(QQ, 2, 6, [(one, den), (-one, den)])
    assert ls.normalize().is_zero()


def test_normalize_failure_reports_net_degree():
    one = const(QQ, 2, 9, 1)
    den = {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    ls = LocalizedSum(QQ, 2, 6, [(one, den), (one, den)])
    with pytest.raises(NormalizeError) as err:
        ls.normalize()
    assert err.value.net_degree == -3


def test_normalize_honest_series():
    # u1^2 / u1 = u1
    u1 = var(QQ, 2, 7, 0)
    ls = LocalizedSum(QQ, 2, 6, [(u1 * u1, {(1, 0): 1})])
    assert ls.normalize() == u1.truncate(6)


def test_normalize_reports_the_lowest_failing_net_degree():
    # u2^2 / (u1 u2) = u2 / u1 fails at net degree 0; u1^3 / (u1 u2)
    # fails only at net degree 1, though it is the first term that
    # dividing the whole series by u2 meets
    u1, u2 = var(QQ, 2, 6, 0), var(QQ, 2, 6, 1)
    ls = LocalizedSum(QQ, 2, 4, [(u2 * u2 + u1 * u1 * u1,
                                  {(1, 0): 1, (0, 1): 1})])
    with pytest.raises(NormalizeError) as err:
        ls.normalize()
    assert err.value.net_degree == 0


# ---------------------------------------------------------------------------
# randomized property suites (seeded, 200 cases each)
# ---------------------------------------------------------------------------

def _random_poly(rng, ring, max_terms=2, max_exp=2):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        e = tuple(rng.randrange(max_exp + 1) for _ in ring)
        terms[e] = F(rng.randrange(-4, 5), rng.randrange(1, 4))
    return Poly(ring, terms)


def _random_series(rng, ring, k, order, max_terms=5, constant=None):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        e = tuple(rng.randrange(order + 1) for _ in range(k))
        if sum(e) > order:
            continue
        terms[e] = _random_poly(rng, ring)
    s = MultiSeries(ring, k, order, terms)
    if constant is not None:
        s = s - s.constant_term() + constant
    return s


def test_property_revert_round_trip():
    rng = random.Random(20260810)
    ring = BRING
    for _ in range(200):
        order = rng.randrange(3, 7)
        terms = {(1,): Poly.constant(ring, 1)}
        for d in range(2, order + 1):
            terms[(d,)] = _random_poly(rng, ring)
        f = MultiSeries(ring, 1, order, terms)
        g = f.revert()
        x = var(ring, 1, order, 0)
        assert f.substitute([g]) == x
        assert g.substitute([f]) == x


def test_property_invert_unit():
    rng = random.Random(20260811)
    for _ in range(200):
        k = rng.randrange(1, 3)
        order = rng.randrange(2, 6)
        c0 = F(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
        s = _random_series(rng, BRING, k, order, constant=c0)
        t = s.invert_unit()
        assert s * t == const(BRING, k, order, 1)


def test_property_divide_linear_round_trip():
    rng = random.Random(20260812)
    for _ in range(200):
        k = rng.randrange(1, 4)
        order = rng.randrange(2, 6)
        q = _random_series(rng, QQ, k, order)
        w = tuple(rng.randrange(-3, 4) for _ in range(k))
        if not any(w):
            w = (1,) + w[1:]
        prod = _ref_mul_linear(q, w)
        assert prod.order == order + 1
        assert prod.divide_linear(w) == q


def test_property_normalize_split_invariance_and_value():
    rng = random.Random(20260813)
    forms = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)]
    for _ in range(200):
        order = rng.randrange(2, 5)
        nterms = rng.randrange(1, 4)
        terms = []
        expected = MultiSeries.zero(QQ, 2, order)
        for _ in range(nterms):
            den = {}
            for f in rng.sample(forms, rng.randrange(1, 3)):
                den[f] = rng.randrange(1, 3)
            degd = sum(den.values())
            q = _random_series(rng, QQ, 2, order + degd)
            num = q
            for f, m in sorted(den.items()):
                for _ in range(m):
                    num = _ref_mul_linear(num, f)
            # num/den == q by construction
            terms.append((num, den))
            expected = expected + q.truncate(order)
        ls = LocalizedSum(QQ, 2, order, terms)
        value = ls.normalize()
        assert value == expected.truncate(order)

        # splitting one numerator into two summands does not change anything
        i = rng.randrange(len(terms))
        num, den = terms[i]
        half = num.scale(F(1, 3))
        split = terms[:i] + [(half, den), (num - half, den)] + terms[i + 1:]
        ls2 = LocalizedSum(QQ, 2, order, split)
        assert ls2.normalize() == value


def _along(series, r):
    """The t-coefficients [c0..cN] of a series over QQ along u = r t."""
    out = [F(0)] * (series.order + 1)
    for e, p in series.terms.items():
        v = p.constant_value()
        for ri, ei in zip(r, e):
            v *= ri ** ei
        out[sum(e)] += v
    return out


def test_property_numeric_rational_point_oracle():
    rng = random.Random(20260814)
    forms = [(1, 0), (0, 1), (1, 1), (1, -1)]
    cases = 0
    while cases < 200:
        order = rng.randrange(2, 5)
        terms = []
        for _ in range(rng.randrange(1, 4)):
            den = {}
            for f in rng.sample(forms, rng.randrange(1, 3)):
                den[f] = rng.randrange(1, 3)
            degd = sum(den.values())
            q = _random_series(rng, QQ, 2, order + degd)
            num = q
            for f, m in sorted(den.items()):
                for _ in range(m):
                    num = _ref_mul_linear(num, f)
            terms.append((num, den))
        ls = LocalizedSum(QQ, 2, order, terms)
        series = ls.normalize()
        r = (F(rng.randrange(1, 6)), F(rng.randrange(-5, 6), rng.randrange(1, 4)))
        if any(sum(F(wi) * ri for wi, ri in zip(f, r)) == 0
               for _n, den in ls for f in den):
            continue
        cases += 1
        # series along u = r t, as t-coefficients
        series_t = _along(series, r)
        # sum of rational functions along u = r t: Laurent coefficients in t
        laurent = {}
        for num, den in ls:
            nt = _along(num, r)
            dval = F(1)
            dshift = 0
            for f, m in den.items():
                dval *= sum(F(wi) * ri for wi, ri in zip(f, r)) ** m
                dshift += m
            for d, c in enumerate(nt):
                if c:
                    laurent[d - dshift] = laurent.get(d - dshift, F(0)) + c / dval
        for d in range(-8, order + 1):
            got = laurent.get(d, F(0))
            want = series_t[d] if d >= 0 else F(0)
            assert got == want, (d, got, want)


# ---------------------------------------------------------------------------
# flat kernels against the nested-Poly arithmetic they replaced
# ---------------------------------------------------------------------------

def _ref_mul(a, b):
    order = min(a.order, b.order)
    terms = {}
    for e1, p1 in a.terms.items():
        for e2, p2 in b.terms.items():
            if sum(e1) + sum(e2) <= order:
                e = tuple(x + y for x, y in zip(e1, e2))
                terms[e] = terms.get(e, Poly.zero(a.ring)) + p1 * p2
    return MultiSeries(a.ring, a.k, order, terms)


def _ref_mul_linear(s, w):
    # a series exact to s.order times a linear form is exact to s.order + 1
    terms = {}
    for i, wi in enumerate(w):
        for e, p in s.terms.items():
            if wi:
                e2 = e[:i] + (e[i] + 1,) + e[i + 1:]
                terms[e2] = terms.get(e2, Poly.zero(s.ring)) + p * F(wi)
    return MultiSeries(s.ring, s.k, s.order + 1, terms)


def _ref_divide_linear(s, w):
    # the active-set sweep that long division replaced: per degree, solve
    # H[M] = sum_j w_j Q[M - e_j] with the pivot exponent swept downward
    p = next(i for i, wi in enumerate(w) if wi)
    wp_inv = 1 / F(w[p])
    rest = [(j, F(wj)) for j, wj in enumerate(w) if j != p and wj]
    by_degree = {}
    for e, c in s.terms.items():
        by_degree.setdefault(sum(e), {})[e] = c
    out = {}
    for d in sorted(by_degree):
        h = by_degree[d]
        if d == 0:
            raise NotDivisibleError(0, w)
        q = {}
        active = {}
        for m in h:
            active.setdefault(m[p], set()).add(m)
        for i in range(d, -1, -1):
            for m in active.get(i, ()):
                val = h.get(m, Poly.zero(s.ring))
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
    return MultiSeries(s.ring, s.k, max(s.order - 1, 0), out)


def _ref_scale(s, c):
    return MultiSeries(s.ring, s.k, s.order,
                       {e: p * c for e, p in s.terms.items()})


def _assert_same(got, want):
    assert got.terms == want.terms
    assert got.order == want.order and got.k == want.k
    assert got.to_json() == want.to_json()
    # what the trusted constructors rely on
    for e, p in got.terms.items():
        assert type(e) is tuple and len(e) == got.k and sum(e) <= got.order
        assert isinstance(p, Poly) and p.ring == got.ring and p.terms
        for g, c in p.terms.items():
            assert type(g) is int and _pack(_unpack(len(got.ring), g)) == g
            assert type(c) is F and c != 0


# small numerators make cancelling sums common; mixed denominators
# exercise the common-denominator step
_COEFFS = st.builds(F, st.integers(-2, 2), st.sampled_from([1, 2, 3, 4, 6]))
_RINGS = st.sampled_from([QQ, ZRING, BRING])
# the rational numbers and two rings of genera: b1..b3 and the Krichever ring
_ORACLE_RINGS = st.sampled_from([QQ, BRING, _KRING])


@st.composite
def _polys(draw, ring):
    gen_exps = st.tuples(*[st.integers(0, 2)] * len(ring))
    return Poly(ring, draw(st.dictionaries(gen_exps, _COEFFS, max_size=3)))


@st.composite
def _series(draw, ring, k):
    order = draw(st.integers(0, 4))
    u_exps = st.tuples(*[st.integers(0, order)] * k)
    terms = draw(st.dictionaries(u_exps, _polys(ring), max_size=6))
    return MultiSeries(ring, k, order, terms)


@st.composite
def _two_series(draw):
    ring, k = draw(_RINGS), draw(st.integers(0, 3))
    return draw(_series(ring, k)), draw(_series(ring, k))


@settings(max_examples=200, deadline=None)
@given(_two_series())
def test_mul_kernel_matches_nested_poly_product(pair):
    a, b = pair
    _assert_same(a * b, _ref_mul(a, b))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_scale_kernel_matches_termwise_product(data):
    ring, k = data.draw(_RINGS), data.draw(st.integers(0, 3))
    s = data.draw(_series(ring, k))
    c = data.draw(st.one_of(st.integers(-3, 3), _COEFFS, _polys(ring)))
    _assert_same(s.scale(c), _ref_scale(s, c))
    _assert_same(s * c, _ref_scale(s, c))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pow_matches_the_left_to_right_product_chain(data):
    ring, k = data.draw(_RINGS), data.draw(st.integers(0, 3))
    s = data.draw(_series(ring, k))
    n = data.draw(st.integers(0, 4))
    want = const(ring, k, s.order, 1)
    for _ in range(n):
        want = want * s
    _assert_same(s ** n, want)


def test_kernels_drop_cancelled_terms():
    u1, u2 = var(BRING, 2, 3, 0), var(BRING, 2, 3, 1)
    b1, b2 = Poly.gen(BRING, "b1"), Poly.gen(BRING, "b2")
    # the u1*u2 and b1*b2 cross terms cancel
    got = (u1 + u2).scale(b1 + b2) * (u1 - u2).scale(b1 - b2)
    want = (u1 * u1 - u2 * u2).scale(b1 * b1 - b2 * b2)
    _assert_same(got, want)
    assert str(got) == "b1^2*u1^2 - b2^2*u1^2 - b1^2*u2^2 + b2^2*u2^2"
    assert u1.scale(0).is_zero() and u1.scale(Poly.zero(BRING)).is_zero()


# ---------------------------------------------------------------------------
# the localization kernels against the loops they replaced
# ---------------------------------------------------------------------------

@st.composite
def _divisions(draw):
    """(s, w): a product q (w . u), or the same with one extra term."""
    ring, k = draw(_RINGS), draw(st.integers(1, 3))
    weight = st.one_of(st.integers(-3, 3), _COEFFS)
    w = tuple(draw(st.lists(weight, min_size=k, max_size=k).filter(any)))
    s = _ref_mul_linear(draw(_series(ring, k)), w)
    if draw(st.booleans()):
        e = draw(st.tuples(*[st.integers(0, s.order)] * k)
                 .filter(lambda e: sum(e) <= s.order))
        s = s + MultiSeries(ring, k, s.order, {e: draw(_polys(ring))})
    return s, w


def _division_outcome(divide, s, w):
    try:
        q = divide(s, w)
    except NotDivisibleError as err:
        return err.degree, err.form
    return q.terms, q.order


@settings(max_examples=300, deadline=None)
@given(_divisions())
def test_divide_linear_matches_the_active_set_sweep(case):
    s, w = case
    assert _division_outcome(MultiSeries.divide_linear, s, w) == \
        _division_outcome(_ref_divide_linear, s, w)


def _revalidated(s):
    """``s`` rebuilt by the validating constructor from its own terms."""
    return MultiSeries(s.ring, s.k, s.order, dict(s.terms))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_derived_series_equal_their_revalidated_copies(data):
    # the methods that only re-key checked terms build with
    # MultiSeries._trusted, so each must drop its own zeros and
    # over-order terms: its result is what MultiSeries(...) makes of it
    ring, k = data.draw(_RINGS), data.draw(st.integers(1, 3))
    s, t = data.draw(_series(ring, k)), data.draw(_series(ring, k))
    i, n = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, 2))
    raised = MultiSeries(ring, k, s.order + n, {
        e[:i] + (e[i] + n,) + e[i + 1:]: p for e, p in s.terms.items()})
    u = data.draw(_series(ring, 1))
    results = [s.truncate(data.draw(st.integers(0, 5))),
               s.homogeneous_component(data.draw(st.integers(0, 4))),
               s.slice_var(i, data.draw(st.integers(0, s.order))),
               raised.shift_down(i, n), u.in_slot(k, i),
               s + t, s - t, s + (-s), -s, MultiSeries.zero(ring, k, n),
               u.derivative() if u.order else u]
    q, w = data.draw(_divisions())
    if q.order:
        try:
            results.append(q.divide_linear(w))
        except NotDivisibleError:
            pass
    for r in results:
        copy = _revalidated(r)
        assert r.terms == copy.terms and r.order == copy.order


@pytest.mark.parametrize("call", [
    lambda: var(QQ, 2, 2, 0).slice_var(0, 3),
    lambda: MultiSeries.zero(QQ, 0, 1).slice_var(0, 0),
    lambda: var(QQ, 1, 0, 0).derivative(),
    lambda: MultiSeries.zero(QQ, 2, 2).shift_down(0, 3),
    lambda: var(QQ, 2, 2, 0).truncate(-1),
    lambda: MultiSeries.zero(QQ, -1, 0),
], ids=["slice_var order", "slice_var k", "derivative", "shift_down",
        "truncate", "zero"])
def test_derived_series_keep_their_errors(call):
    with pytest.raises(ValueError, match=r"^k and order must be >= 0$"):
        call()


def test_in_slot_places_each_term_in_its_one_slot():
    u = MultiSeries(QQ, 1, 3, {(1,): 1, (3,): F(1, 2)})
    assert str(u.in_slot(3, 1)) == "u2 + (1/2)*u2^3"
    assert u.in_slot(3, 1).order == 3
    assert str(u.in_slot(1, 0)) == str(u)
    # a bivariate source and a slot out of range are refused, where a
    # positions list once folded u1 + 2*u2 into 1 + 2*u1, and a negative
    # slot read from the end
    both = MultiSeries(QQ, 2, 2, {(1, 0): 1, (0, 1): 2})
    with pytest.raises(ValueError, match="univariate"):
        both.in_slot(2, 0)
    for k, i in ((3, -1), (2, 2), (-1, 0), (0, 0)):
        with pytest.raises(ValueError, match="is not one of"):
            u.in_slot(k, i)


def test_shift_down_refuses_a_term_below_the_shift():
    with pytest.raises(NotDivisibleError):
        var(QQ, 2, 2, 0).shift_down(1)


def _ref_compose_at_linear(s, w, k, order=None):
    """The power-and-add loop: sum_d c_d (w . u)^d, one shift-and-add
    product a degree."""
    order = s.order if order is None else min(order, s.order)
    out = MultiSeries.zero(s.ring, k, order)
    power = const(s.ring, k, order, 1)
    for d in range(order + 1):
        c = s.coefficient((d,))
        if not c.is_zero():
            out = out + power.scale(c)
        if d < order:
            power = _ref_mul_linear(power, w)
    return out


def _ref_over_common_denominator(ls):
    """Each numerator times its missing forms, one shift-and-add product
    a form, added up term by term."""
    D = ls.common_denominator()
    degD = sum(D.values())
    total = MultiSeries.zero(ls.ring, ls.k, ls.order + degD)
    for num, den in ls:
        missing = {f: m - den.get(f, 0) for f, m in D.items()
                   if m - den.get(f, 0)}
        piece = num.truncate(ls.order + degD - sum(missing.values()))
        for form, mult in sorted(missing.items()):
            for _ in range(mult):
                piece = _ref_mul_linear(piece, form)
        total = total + piece
    return total, D


def _assert_same_cross_multiplied(ls):
    got, D = ls.over_common_denominator()
    want, ref_D = _ref_over_common_denominator(ls)
    _assert_same(got, want)
    assert D == ref_D
    assert got.order == ls.order + sum(D.values())
    return got


_WEIGHTS = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=5))


@st.composite
def _univariate_series(draw, ring):
    order = draw(st.integers(0, 6))
    terms = draw(st.dictionaries(st.integers(0, order).map(lambda d: (d,)),
                                 _polys(ring), max_size=order + 1))
    return MultiSeries(ring, 1, order, terms)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_compose_at_linear_matches_the_power_and_add_loop(data):
    ring, k = data.draw(_RINGS), data.draw(st.integers(0, 3))
    s = data.draw(_univariate_series(ring))
    w = data.draw(st.tuples(*[_WEIGHTS] * k))
    order = data.draw(st.one_of(st.none(), st.integers(0, 8)))
    # the drawn form, and the zero form, which keeps the constant term
    for form in (w, (0,) * k):
        got = s.compose_at_linear(form, k, order)
        _assert_same(got, _ref_compose_at_linear(s, form, k, order))
        assert got.order == (s.order if order is None
                             else min(order, s.order))


def test_compose_at_linear_examples():
    t = var(BRING, 1, 4, 0)
    b1 = Poly.gen(BRING, "b1")
    s = 1 + t + (t * t).scale(b1) + t * t * t
    u1, u2 = var(BRING, 2, 3, 0), var(BRING, 2, 3, 1)
    x = u1.scale(F(1, 2)) - u2.scale(F(2, 3))
    want = 1 + x + (x * x).scale(b1) + x * x * x
    _assert_same(s.compose_at_linear((F(1, 2), F(-2, 3)), 2, 3), want)
    # a zero form and k = 0 keep the constant term alone
    _assert_same(s.compose_at_linear((0, 0), 2), const(BRING, 2, 4, 1))
    _assert_same(s.compose_at_linear((), 0, 2), const(BRING, 0, 2, 1))
    # the order is clamped to the series' own
    assert s.compose_at_linear((1, 1), 2, 9).order == 4
    with pytest.raises(ValueError, match="univariate"):
        u1.compose_at_linear((1, 1), 2)


_FORMS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)]


@st.composite
def _localized_sums(draw):
    """Sums over QQ or a generator ring, with numerators of mixed
    denominators, each exact to the order its denominator needs."""
    ring, order = draw(_RINGS), draw(st.integers(0, 3))
    ls = LocalizedSum(ring, 2, order)
    for _ in range(draw(st.integers(0, 3))):
        forms = draw(st.lists(st.sampled_from(_FORMS), max_size=3))
        den = {f: forms.count(f) for f in forms}
        extra = draw(st.integers(0, 2))
        u_exps = st.tuples(*[st.integers(0, order + len(forms) + extra)] * 2)
        terms = draw(st.dictionaries(u_exps, _polys(ring), max_size=6))
        ls.add_term(MultiSeries(ring, 2, order + len(forms) + extra, terms),
                    den)
    return ls


@settings(max_examples=200, deadline=None)
@given(_localized_sums())
def test_over_common_denominator_matches_the_mul_linear_loop(ls):
    _assert_same_cross_multiplied(ls)


_LOCALIZED_DATA = {
    "s6": dataset("s6"),
    "flag3": dataset("flag3"),
    "cp2": signs_and_weights(simplex_pair(2, (-1, -1))),
    "cp3": signs_and_weights(simplex_pair(3, (-1, -1, -1))),
    # weights such as e1 + e2 give universal sums geometric tails
    "cp2:eps=+-": signs_and_weights(simplex_pair(2, (1, -1))),
    "cp3:eps=+-+": signs_and_weights(simplex_pair(3, (1, -1, 1))),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), data_name=st.sampled_from(sorted(_LOCALIZED_DATA)),
       genus_name=st.sampled_from(("todd", "hurewicz", "elliptic")),
       mode=st.sampled_from(("linear", "universal")),
       order=st.integers(0, 2), flip=st.booleans())
def test_over_common_denominator_matches_the_loop_on_localized_sums(
        data, data_name, genus_name, mode, order, flip):
    fpd = _LOCALIZED_DATA[data_name]
    if flip:
        fpd = fpd.flip_one(data.draw(st.integers(0, len(fpd) - 1)))
    genus = catalog(genus_name, max(order, 1))
    _assert_same_cross_multiplied(localized_sum(fpd, genus, mode, order))


def test_over_common_denominator_on_augmentation_blocks():
    # the numerators _block_vanishes tests: pairs of fixed points under the
    # augmentation genus, some of which cancel to zero
    aug = catalog("augmentation", 1)
    vanishing = 0
    for name in ("s6", "flag3", "cp2:eps=+-"):
        fpd = _LOCALIZED_DATA[name]
        for block in itertools.combinations(range(len(fpd)), 2):
            sub = FixedPointData(fpd.n, fpd.k, [fpd.points[i] for i in block])
            total = _assert_same_cross_multiplied(
                localized_sum(sub, aug, "linear", 0))
            vanishing += total.is_zero()
    assert vanishing >= 4


def test_over_common_denominator_cancels_to_zero():
    one = const(BRING, 2, 9, F(1, 3))
    den = {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    ls = LocalizedSum(BRING, 2, 6, [(one, den), (-one, den)])
    assert _assert_same_cross_multiplied(ls).is_zero()
    # u1/u1 + u2/u2 over u1 u2 is 2 u1 u2
    u1, u2 = var(QQ, 2, 7, 0), var(QQ, 2, 7, 1)
    ls = LocalizedSum(QQ, 2, 6, [(u1, {(1, 0): 1}), (u2, {(0, 1): 1})])
    total = _assert_same_cross_multiplied(ls)
    assert total == (u1 * u2).scale(2).truncate(8)
    assert LocalizedSum(QQ, 2, 3).over_common_denominator() == \
        (MultiSeries.zero(QQ, 2, 3), {})


def test_localized_sum_refuses_a_numerator_short_of_its_order():
    den = {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    short = const(QQ, 2, 8, 1)
    with pytest.raises(ValueError, match="exact to order 9, not 8"):
        LocalizedSum(QQ, 2, 6, [(short, den)])
    ls = LocalizedSum(QQ, 2, 6)
    with pytest.raises(ValueError, match="over 3 linear forms"):
        ls.add_term(short, den)
    assert len(ls) == 0
    ls.add_term(const(QQ, 2, 9, 1), den)
    total, _D = ls.over_common_denominator()
    assert total.order == 9
    with pytest.raises(NormalizeError):
        ls.normalize()


# ---------------------------------------------------------------------------
# the one power-series evaluator against the loops it replaced
# ---------------------------------------------------------------------------

def _ref_invert_unit(s):
    c0 = s.constant_term().constant_value()
    one = const(s.ring, s.k, s.order, 1)
    t = one - s.scale(F(1) / c0)
    result = power = one
    for _ in range(s.order):
        power = power * t
        if power.is_zero():
            break
        result = result + power
    return result.scale(F(1) / c0)


def _ref_exp(s):
    one = const(s.ring, s.k, s.order, 1)
    result = power = one
    fact = 1
    for i in range(1, s.order + 1):
        power = power * s
        if power.is_zero():
            break
        fact *= i
        result = result + power.scale(F(1, fact))
    return result


def _ref_sqrt_unit(s):
    """The degree-by-degree solve 2 c_d = R_d - sum_{0<i<d} c_i c_{d-i}."""
    ring, k, order = s.ring, s.k, s.order
    comp = [dict() for _ in range(order + 1)]
    comp[0][(0,) * k] = Poly.constant(ring, 1)
    for d in range(1, order + 1):
        acc = {e: p for e, p in s.terms.items() if sum(e) == d}
        for i in range(1, d):
            for e1, p1 in comp[i].items():
                for e2, p2 in comp[d - i].items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    acc[e] = acc.get(e, Poly.zero(ring)) - p1 * p2
        comp[d] = {e: p * F(1, 2) for e, p in acc.items()}
    terms = {}
    for part in comp:
        terms.update(part)
    return MultiSeries(ring, k, order, terms)


def _ref_binomial_half(j):
    """The coefficient of w^j in (1 + w)^(-1/2)."""
    out = F(1)
    for i in range(j):
        out *= F(-1 - 2 * i, 2 * (i + 1))
    return out


@st.composite
def _series_with_constant(draw, constant):
    ring, k = draw(st.one_of(_RINGS, _ORACLE_RINGS)), draw(st.integers(0, 3))
    s = draw(_series(ring, k))
    return s - s.constant_term() + constant


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_invert_unit_matches_the_geometric_loop(data):
    c0 = data.draw(st.sampled_from([1, -1, 2, F(-3, 2)]))
    s = data.draw(_series_with_constant(c0))
    t = s.invert_unit()
    _assert_same(t, _ref_invert_unit(s))
    assert s * t == const(s.ring, s.k, s.order, 1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_inversion_kernel_returns_flattened_rows(data):
    # the kernel's rows are those _flatten reads off the inverse: the
    # least common denominator, no zero entry, sorted by degree
    c0 = data.draw(st.sampled_from([1, -1, 2, F(-3, 2)]))
    s = data.draw(_series_with_constant(c0))
    den, rows = _invert_rows(*_flatten(s.terms, s.order), s.order)
    ref_den, ref = _flatten(_ref_invert_unit(s).terms, s.order)
    assert den == ref_den
    assert [d for _e, d, _p in rows] == [d for _e, d, _p in ref]
    assert {e: dict(p) for e, _d, p in rows} == \
        {e: dict(p) for e, _d, p in ref}
    assert all(c for _e, _d, p in rows for _g, c in p)


@settings(max_examples=150, deadline=None)
@given(_series_with_constant(0))
def test_exp_matches_the_factorial_loop(s):
    _assert_same(s.exp(), _ref_exp(s))


@settings(max_examples=150, deadline=None)
@given(_series_with_constant(1))
def test_sqrt_unit_matches_the_degreewise_solve(s):
    root = s.sqrt_unit()
    _assert_same(root, _ref_sqrt_unit(s))
    _assert_same(root ** 2, s)


def _binomial(alpha, j):
    """The coefficient of t^j in (1 + t)^alpha, for a rational alpha."""
    out = F(1)
    for i in range(j):
        out = out * (alpha - i) / (i + 1)
    return out


def _ref_power_sum(s, coefficient):
    """sum_j coefficient(j) s^j, one full series product per power: the
    evaluator behind invert_unit, exp and sqrt_unit before the degree
    recurrence."""
    result = const(s.ring, s.k, s.order, coefficient(0))
    power = const(s.ring, s.k, s.order, 1)
    for j in range(1, s.order + 1):
        power = power * s
        if power.is_zero():
            break
        c = coefficient(j)
        result = result + (power if c == 1 else power.scale(c))
    return result


def _ref_revert(f):
    """The inverse series corrected one degree at a time through a full
    substitution f(g) - x: the reversion before the power table."""
    order, x = f.order, var(f.ring, 1, f.order, 0)
    g = x
    for d in range(2, order + 1):
        c = (f.substitute([g]) - x).coefficient((d,))
        if not c.is_zero():
            g = g - MultiSeries(f.ring, 1, order, {(d,): c})
    return g


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_unit_powers_match_the_power_sum_loop(data):
    ring, k = data.draw(_ORACLE_RINGS), data.draw(st.integers(0, 3))
    s = data.draw(_series(ring, k))
    s = s - s.constant_term()
    alpha = F(data.draw(st.sampled_from([-1, F(1, 2), F(-1, 2), 3,
                                         F(-2, 3)])))
    c0 = F(data.draw(st.sampled_from([1, -1, 2, F(-3, 2)])))
    unit = (1 + s).scale(c0)
    got = (1 + s)._recurrence(alpha + 1, -1)
    _assert_same(got, _ref_power_sum(s, lambda j: _binomial(alpha, j)))
    # P^q = (1 + s)^p for alpha = p / q
    p, q = alpha.numerator, alpha.denominator
    one = const(ring, k, s.order, 1)
    if p >= 0:
        _assert_same(got ** q, (1 + s) ** p)
    else:
        _assert_same(got ** q * (1 + s) ** -p, one)
    if alpha == -1:
        _assert_same(unit.invert_unit(), got.scale(1 / c0))
    if alpha == F(1, 2) and c0 == 1:
        _assert_same(unit.sqrt_unit(), got)


@st.composite
def _reversible(draw):
    ring = draw(_ORACLE_RINGS)
    order = draw(st.integers(1, 9))
    degrees = st.integers(2, max(order, 2)).map(lambda d: (d,))
    terms = draw(st.dictionaries(degrees, _polys(ring), max_size=3))
    terms[(1,)] = 1
    return MultiSeries(ring, 1, order, terms)


@settings(max_examples=100, deadline=None)
@given(_reversible())
def test_revert_matches_the_substitution_loop(f):
    _assert_same(f.revert(), _ref_revert(f))


def test_revert_and_unit_powers_of_the_catalog_match_the_loops():
    for name in ("todd", "t2", "elliptic", "krichever"):
        b = catalog(name, 7).exponential
        _assert_same(b.revert(), _ref_revert(b))
        unit = b.shift_down(0)
        s = unit - 1
        _assert_same(unit.invert_unit(),
                     _ref_power_sum(s, lambda j: (-1) ** j))
        _assert_same(unit._recurrence(F(1, 3), -1),
                     _ref_power_sum(s, lambda j: _binomial(F(-2, 3), j)))
        _assert_same((s * s).exp(),
                     _ref_power_sum(s * s, lambda j: F(1, _factorial(j))))


def test_binomial_and_power_sum():
    assert [_binomial(F(-1, 2), j) for j in range(8)] == \
        [_ref_binomial_half(j) for j in range(8)]
    assert [_binomial(3, j) for j in range(5)] == [1, 3, 3, 1, 0]
    u = var(BRING, 1, 5, 0)
    b1 = Poly.gen(BRING, "b1")
    # (1 + u)^3 and (1 + b1 u^2)^(-1/2) as unit powers, against their
    # binomial coefficients
    _assert_same((u + 1)._recurrence(4, -1), (u + 1) ** 3)
    w = (u * u).scale(b1)
    _assert_same((w + 1)._recurrence(F(1, 2), -1),
                 MultiSeries(BRING, 1, 5, {
                     (2 * j,): Poly.gen(BRING, "b1", j) * _binomial(F(-1, 2), j)
                     for j in range(3)}))


@pytest.mark.parametrize("call, error, message", [
    (lambda s: s.exp(), ValueError, "exp requires zero constant term"),
    (lambda s: (s - 1).sqrt_unit(), ValueError,
     "sqrt_unit requires constant term 1"),
    (lambda s: (s - 1).invert_unit(), ZeroDivisionError,
     "invert_unit: constant term is zero"),
    (lambda s: (s + MultiSeries.constant(BRING, 1, 4, Poly.gen(BRING, "b1")))
     .invert_unit(), ValueError, "invert_unit: constant term is not rational"),
])
def test_unit_power_refusals_name_their_method(call, error, message):
    s = const(BRING, 1, 4, 1) + var(BRING, 1, 4, 0)
    with pytest.raises(error, match="^%s$" % message):
        call(s)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_text_serialization_matches_canonical_example():
    ring = make_ring(("b1", 2), ("z", 2))
    b1, z = Poly.gen(ring, "b1"), Poly.gen(ring, "z")
    s = MultiSeries(ring, 1, 2, {
        (0,): Poly.constant(ring, 1),
        (1,): b1 * -2,
        (2,): z * z * F(1, 2),
    })
    assert str(s) == "1 - 2*b1*u1 + (1/2)*z^2*u1^2"


def _from_json(blob):
    # the reader of MultiSeries.to_json; the package itself only writes
    obj = json.loads(blob)
    ring = make_ring(*[(g["name"], g["degree"]) for g in obj["ring"]])
    terms = {tuple(t["u"]): Poly(ring, {tuple(c["gen"]): F(c["val"])
                                        for c in t["coeff"]})
             for t in obj["terms"]}
    return MultiSeries(ring, obj["k"], obj["order"], terms)


def test_json_round_trip_is_bit_exact():
    ring = make_ring(("b1", 2), ("z", 2))
    b1 = Poly.gen(ring, "b1")
    s = MultiSeries(ring, 2, 3, {
        (0, 0): Poly.constant(ring, F(-7, 3)),
        (1, 2): b1 + 1,
    })
    blob = s.to_json()
    t = _from_json(blob)
    assert t == s and t.order == s.order and t.k == s.k
    assert t.to_json() == blob


def test_k_zero_series_is_bare_poly():
    s = const(BRING, 0, 0, Poly.gen(BRING, "b1"))
    t = s * s
    assert t.constant_term() == Poly.gen(BRING, "b1") ** 2



def test_poly_is_unhashable_like_multiseries():
    # equal objects must hash equal, and a Poly equals its rational value
    p = Poly.constant(QQ, 3)
    assert p == 3 and p == F(3)
    with pytest.raises(TypeError):
        hash(p)
    with pytest.raises(TypeError):
        hash(const(QQ, 1, 2, 3))


# ---------------------------------------------------------------------------
# exponents: refused where they enter, packed keys against tuple keys
# ---------------------------------------------------------------------------

class _Index:
    """An int-like exponent, as numpy's ints are: it has ``__index__``."""

    def __index__(self):
        return 2


@pytest.mark.parametrize("bad", [F(3, 2), 1.5, -1, True, "1", None])
def test_a_bad_exponent_is_refused_where_it_enters(bad):
    # refused by the constructor, so that none reaches the text (where %d
    # truncates a float) or the packed arithmetic
    ring = make_ring(("b", 2))
    with pytest.raises(ValueError, match="generator exponent entry 1"):
        Poly(ring, {(bad,): 1})
    with pytest.raises(ValueError, match="generator exponent entry 1"):
        Poly(ring, {(bad,): 0})
    with pytest.raises(ValueError, match="generator exponent entry 2"):
        Poly(make_ring(("a", 2), ("b", 2)), {(0, bad): 1})
    with pytest.raises(ValueError, match="u-exponent entry 1"):
        MultiSeries(QQ, 1, 2, {(bad,): 1})
    with pytest.raises(ValueError, match="u-exponent entry 2"):
        MultiSeries(ring, 2, 2, {(0, bad): Poly.gen(ring, "b")})
    if not isinstance(bad, str):
        with pytest.raises(ValueError, match="generator exponent entry 1"):
            Poly.gen(ring, "b", bad)


def test_an_int_like_exponent_enters_as_its_int():
    ring = make_ring(("b", 2))
    assert Poly(ring, {(_Index(),): 1}) == Poly.gen(ring, "b", 2)
    s = MultiSeries(QQ, 1, 2, {(_Index(),): 1})
    assert s == var(QQ, 1, 2, 0) ** 2 and list(s.terms) == [(2,)]


@pytest.mark.parametrize("enter", [
    lambda v: Poly(make_ring(("b", 2)), {(1,): v}),
    lambda v: MultiSeries(QQ, 1, 2, {(1,): v}),
    lambda v: Poly.constant(make_ring(("b", 2)), v),
    lambda v: MultiSeries.linear_form(QQ, 2, 1, (v, 0)),
    lambda v: var(QQ, 1, 2, 0).scale(v),
    lambda v: Poly.gen(make_ring(("b", 2)), "b") * v,
], ids=["Poly", "MultiSeries", "constant", "linear_form", "scale", "mul"])
@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_coefficient_is_refused_where_it_enters(enter, flag):
    # bool is an int subclass, so True would enter as 1 and False as 0
    with pytest.raises(TypeError, match="expected an exact rational"):
        enter(flag)


def test_a_bool_equals_no_poly():
    ring = make_ring(("b", 2))
    assert (Poly.constant(ring, 1) == True) is False  # noqa: E712
    assert (Poly.zero(ring) == False) is False  # noqa: E712
    assert Poly.constant(ring, 1) == 1 and Poly.zero(ring) == 0


def test_poly_keys_are_packed_exponents():
    ring = make_ring(("a", 2), ("b", 4))
    p = Poly(ring, {(2, 1): 3, (0, 0): F(1, 2)})
    assert p.terms == {_pack((2, 1)): 3, 0: F(1, 2)}
    assert p.sorted_terms() == [((0, 0), F(1, 2)), ((2, 1), 3)]
    assert Poly.gen(ring, "b").terms == {_pack((0, 1)): 1}
    assert Poly.constant(ring, 5).terms == {0: 5}
    assert Poly.constant(QQ, 5).terms == {0: 5}


class _TuplePoly:
    """``Poly`` as it was with generator-exponent tuples for keys: the
    reference for the packed keys, with its own canonical order and text."""

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {tuple(e): F(c) for e, c in terms.items() if c}

    @classmethod
    def constant(cls, ring, value):
        return cls(ring, {(0,) * len(ring): value})

    @classmethod
    def gen(cls, ring, name):
        return cls(ring, {tuple(int(g.name == name) for g in ring): 1})

    def constant_value(self):
        if not self.terms:
            return F(0)
        if len(self.terms) == 1:
            e, c = next(iter(self.terms.items()))
            if not any(e):
                return c
        return None

    def __add__(self, other):
        if not isinstance(other, _TuplePoly):
            other = _TuplePoly.constant(self.ring, other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return _TuplePoly(self.ring, terms)

    def __neg__(self):
        return _TuplePoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, _TuplePoly):
            return _TuplePoly(self.ring, {e: c * other
                                          for e, c in self.terms.items()})
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return _TuplePoly(self.ring, terms)

    def __pow__(self, n):
        result = _TuplePoly.constant(self.ring, 1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, F)):
            other = _TuplePoly.constant(self.ring, other)
        return self.ring == other.ring and self.terms == other.terms

    def substitute_gens(self, target_ring, images):
        out = _TuplePoly(target_ring, {})
        for e, c in self.terms.items():
            term = _TuplePoly.constant(target_ring, c)
            for g, ei in zip(self.ring, e):
                if ei:
                    img = images.get(g.name)
                    if img is None:
                        img = _TuplePoly.gen(target_ring, g.name)
                    term = term * img ** ei
            out = out + term
        return out

    def sorted_terms(self):
        return _ref_poly_sorted(self)

    def __str__(self):
        return _ref_render_terms(_ref_poly_term_strings(self))

    def to_json_obj(self):
        return _ref_poly_json(self)


def _key_terms(ring):
    exps = st.tuples(*[st.integers(0, 3)] * len(ring))
    return st.dictionaries(exps, _COEFFS, max_size=4)


# rings of 0, 1, 2, 4 and 9 generators
_KEY_RINGS = st.sampled_from([QQ, ZRING, make_ring(("y", 2), ("z", 2)),
                              _KRING, catalog("hurewicz", 1,
                                              generators=9).ring])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_poly_matches_the_tuple_keyed_reference(data):
    ring = data.draw(_KEY_RINGS)
    t1, t2 = data.draw(_key_terms(ring)), data.draw(_key_terms(ring))
    p, q = Poly(ring, t1), Poly(ring, t2)
    rp, rq = _TuplePoly(ring, t1), _TuplePoly(ring, t2)
    c = data.draw(_COEFFS)
    n = data.draw(st.integers(0, 3))

    def same(got, want):
        assert str(got) == str(want)
        assert got.sorted_terms() == want.sorted_terms()
        assert got.to_json_obj() == want.to_json_obj()
        assert got.constant_value() == want.constant_value()
        assert got == Poly(ring, dict(want.terms))

    for got, want in ((p, rp), (p + q, rp + rq), (p - q, rp - rq),
                      (p * q, rp * rq), (p ** n, rp ** n), (p * c, rp * c),
                      (p + c, rp + c), (-p, -rp)):
        same(got, want)
    assert (p == q) == (rp == rq) and (p == c) == (rp == c)
    # images for some generators; the others map to themselves
    names = data.draw(st.lists(st.sampled_from([g.name for g in ring]),
                               max_size=2, unique=True)) if ring else []
    images = {name: data.draw(_key_terms(ring)) for name in names}
    same(p.substitute_gens(ring, {name: Poly(ring, t)
                                  for name, t in images.items()}),
         rp.substitute_gens(ring, {name: _TuplePoly(ring, t)
                                   for name, t in images.items()}))


# ---------------------------------------------------------------------------
# the one renderer against the two it replaced
# ---------------------------------------------------------------------------

def _ref_fmt_frac(q, product_context):
    if q.denominator == 1:
        return str(q.numerator)
    s = "%d/%d" % (q.numerator, q.denominator)
    return "(%s)" % s if product_context else s


def _ref_poly_sorted(p):
    terms = p.terms if isinstance(p, _TuplePoly) else dict(p.sorted_terms())
    return sorted(terms.items(), key=lambda t: (
        sum(ei * g.degree for ei, g in zip(t[0], p.ring)),
        tuple(-x for x in t[0])))


def _ref_series_sorted(s):
    return sorted(s.terms.items(),
                  key=lambda t: (sum(t[0]), tuple(-x for x in t[0])))


def _ref_poly_term_strings(p):
    for e, c in _ref_poly_sorted(p):
        factors = []
        for g, ei in zip(p.ring, e):
            if ei == 1:
                factors.append(g.name)
            elif ei:
                factors.append("%s^%d" % (g.name, ei))
        yield c, factors


def _ref_series_term_strings(s):
    for e, p in _ref_series_sorted(s):
        ufactors = []
        for i, ei in enumerate(e):
            if ei == 1:
                ufactors.append("u%d" % (i + 1))
            elif ei:
                ufactors.append("u%d^%d" % (i + 1, ei))
        for c, gfactors in _ref_poly_term_strings(p):
            yield c, gfactors + ufactors


def _ref_render_terms(term_iter):
    parts = []
    for c, factors in term_iter:
        sign = "-" if c < 0 else "+"
        c = abs(c)
        if factors:
            body = "*".join(factors)
            if c != 1:
                body = "%s*%s" % (_ref_fmt_frac(c, True), body)
        else:
            body = _ref_fmt_frac(c, False)
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += " %s %s" % (sign, body)
    return out


def _ref_str(x):
    """The text of a Poly or MultiSeries as the two per-class renderers
    (``Poly._term_strings``, ``MultiSeries._term_strings`` and
    ``_render_terms``) wrote it before the one renderer."""
    if isinstance(x, Poly):
        return _ref_render_terms(_ref_poly_term_strings(x))
    return _ref_render_terms(_ref_series_term_strings(x))


def _ref_poly_json(p):
    return [{"gen": list(e), "val": _ref_fmt_frac(c, False)}
            for e, c in _ref_poly_sorted(p)]


def _ref_series_json(s):
    return {"ring": [{"name": g.name, "degree": g.degree} for g in s.ring],
            "k": s.k, "order": s.order,
            "terms": [{"u": list(e), "coeff": _ref_poly_json(p)}
                      for e, p in _ref_series_sorted(s)]}


# the rational numbers, a one-generator ring and two rings of genera
_RENDER_RINGS = st.sampled_from([QQ, ZRING, BRING, _KRING])


@st.composite
def _render_pair(draw):
    ring, k = draw(_RENDER_RINGS), draw(st.integers(0, 3))
    return draw(_polys(ring)), draw(_series(ring, k))


@settings(max_examples=300, deadline=None)
@given(_render_pair())
# u-rows over the Krichever ring that share generator exponents, a^2 and
# p2 of equal weight among them, so one call names each exponent once
@example((Poly(_KRING, {(2, 1, 0, 0): 1, (0, 0, 1, 0): -2}),
          MultiSeries(_KRING, 3, 2, {
              (0, 0, 0): Poly(_KRING, {(1, 0, 0, 0): F(1, 2),
                                       (0, 1, 0, 0): -3}),
              (1, 0, 0): Poly(_KRING, {(0, 1, 0, 0): F(-1, 3),
                                       (1, 0, 0, 0): 2, (0, 0, 0, 1): 1}),
              (0, 1, 1): Poly(_KRING, {(2, 0, 0, 0): 5, (0, 1, 0, 0): -1,
                                       (1, 0, 0, 0): -1})})))
def test_render_matches_the_per_class_renderers(pair):
    p, s = pair
    assert str(p) == _ref_str(p)
    assert p.to_json_obj() == _ref_poly_json(p)
    assert str(s) == _ref_str(s)
    assert s.to_json_obj() == _ref_series_json(s)


@pytest.mark.parametrize("value, text", [
    (Poly.zero(ZRING), "0"),
    (const(QQ, 2, 3, 0), "0"),
    (Poly.constant(QQ, F(-1, 2)), "-1/2"),
    (const(QQ, 0, 0, F(-1, 2)), "-1/2"),
    (Poly.gen(ZRING, "z", 3) * -1, "-z^3"),
    (var(QQ, 2, 3, 0) * -1 + var(QQ, 2, 3, 1) * 3, "-u1 + 3*u2"),
    (const(ZRING, 1, 2, Poly.gen(ZRING, "z", 2) * F(1, 2))
     * var(ZRING, 1, 2, 0) ** 2, "(1/2)*z^2*u1^2"),
], ids=["zero-poly", "zero-series", "rational-poly", "rational-series",
        "negative-unit-poly", "negative-unit-series", "fraction-product"])
def test_render_pins(value, text):
    assert str(value) == text == _ref_str(value)


# ---------------------------------------------------------------------------
# substitution: the one integer pass against the term-at-a-time loop it
# replaced
# ---------------------------------------------------------------------------

def _ref_substitute(s, images):
    # every term p u^e is p times its product of cached image powers, added
    # into a growing sum
    if not images:
        return s
    k2 = images[0].k
    order = min([s.order] + [g.order for g in images])
    one = MultiSeries.constant(s.ring, k2, order, 1)
    powers = [{0: one} for _ in range(s.k)]
    out = MultiSeries.zero(s.ring, k2, order)
    for e, p in sorted(s.terms.items(), key=lambda t: sum(t[0])):
        if sum(e) > order:
            continue
        term = MultiSeries.constant(s.ring, k2, order, p)
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


def _ref_normalize(ls):
    # normalize without its shortcut for a lone term over no forms
    terms = {}
    for net, _comp, quotient in ls._quotients():
        if quotient is None:
            raise NormalizeError(net)
        terms.update(quotient.terms)
    return MultiSeries(ls.ring, ls.k, ls.order, terms)


def _draw_series(data, ring, k, exps, order):
    terms = data.draw(st.dictionaries(exps, _polys(ring), max_size=5))
    return MultiSeries(ring, k, order, terms)


def _draw_image(data, ring, k2, order, var=None):
    """A series with zero constant term, in u_var alone when var is given,
    exact to about ``order``: sometimes less, so that it sets the order."""
    order = data.draw(st.integers(max(order - 1, 0), order + 2))
    if var is None:
        exps = st.tuples(*[st.integers(0, max(order, 1))] * k2).filter(any)
    else:
        exps = st.integers(1, max(order, 1)).map(
            lambda d: tuple(d if j == var else 0 for j in range(k2)))
    return _draw_series(data, ring, k2, exps, order)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_substitute_matches_the_term_at_a_time_reference(data):
    ring = data.draw(_RINGS)
    # phi's images (m(u_i) for u_i), weight_series' (one multivariate image
    # of a univariate series) and general ones
    shape = data.draw(st.sampled_from(["per-variable", "univariate",
                                       "general"]))
    k = 1 if shape == "univariate" else data.draw(st.integers(1, 3))
    k2 = k if shape == "per-variable" else data.draw(st.integers(1, 3))
    order = data.draw(st.integers(0, 5))
    s = _draw_series(data, ring, k, st.tuples(*[st.integers(0, order)] * k),
                     order)
    images = [_draw_image(data, ring, k2, order,
                          i if shape == "per-variable" else None)
              for i in range(k)]
    got, want = s.substitute(images), _ref_substitute(s, images)
    _assert_same(got, want)
    assert str(got) == str(want)


def test_substitute_keeps_its_checks_and_the_empty_case():
    s = var(QQ, 2, 3, 0)
    with pytest.raises(ValueError, match="need 2 images"):
        s.substitute([var(QQ, 2, 3, 0)])
    with pytest.raises(ValueError, match="mismatch"):
        s.substitute([var(QQ, 2, 3, 0), var(QQ, 1, 3, 0)])
    with pytest.raises(ValueError, match="mismatch"):
        s.substitute([var(QQ, 2, 3, 0), var(ZRING, 2, 3, 0)])
    with pytest.raises(ValueError, match="nonzero constant term"):
        s.substitute([var(QQ, 2, 3, 0), const(QQ, 2, 3, 1)])
    c = const(QQ, 0, 2, F(1, 2))
    assert c.substitute([]) is c
    # zero images leave the constant term, at the images' order
    s = const(QQ, 2, 4, 3) + var(QQ, 2, 4, 1)
    zero = MultiSeries.zero(QQ, 3, 2)
    _assert_same(s.substitute([zero, zero]), const(QQ, 3, 2, 3))


_PHI_DATA = {
    "s6": dataset("s6"),
    "flag3": dataset("flag3"),
    "cp2": signs_and_weights(simplex_pair(2, (-1, -1))),
    "cp3": signs_and_weights(simplex_pair(3, (-1, -1, -1))),
}


@pytest.mark.parametrize("name", sorted(_PHI_DATA))
def test_universal_phi_matches_the_reference_pipeline(name):
    # phi's universal mode as it was: normalize through the quotients, then
    # substitute term at a time, on the genus the command line builds
    fpd = _PHI_DATA[name]
    for genus in CATALOG_NAMES:
        for order in range(5):
            spec = catalog(genus, max(order, 1) + fpd.n - 1,
                           generators=max(order, 1))
            linear = _ref_normalize(localized_sum(fpd, spec, "linear", order))
            m = spec.at_order(max(order, 1)).logarithm.truncate(order)
            images = [m.in_slot(fpd.k, i) for i in range(fpd.k)]
            want = _ref_substitute(linear, images)
            got = phi(fpd, spec, "universal", order)
            assert (got.order, str(got)) == (want.order, str(want)), \
                (genus, order)


@pytest.mark.parametrize("name", ["s6", "flag3", "cp2"])
def test_normalize_returns_a_lone_undivided_term_as_it_is(name):
    fpd = _PHI_DATA[name]
    for genus, order in (("todd", 0), ("hurewicz", 2), ("krichever", 3)):
        ls = localized_sum(fpd, catalog(genus, order + fpd.n), "linear",
                           order)
        (num, den), = ls.terms
        assert den == {} and num.order == order
        assert ls.normalize() is num
        _assert_same(num, _ref_normalize(ls))


def test_normalize_truncates_a_lone_term_exact_beyond_its_order():
    u1 = var(QQ, 2, 5, 0)
    s = u1 + u1 ** 4
    ls = LocalizedSum(QQ, 2, 3, [(s, {})])
    _assert_same(ls.normalize(), u1.truncate(3))


@pytest.mark.parametrize("name", ["s6", "flag3", "cp2"])
def test_normalize_fails_every_one_sign_flip_at_net_degree_minus_n(name):
    # a flipped sign leaves the augmentation part, sum_x sign(x) / e_x, at
    # net degree -n uncancelled, whatever the genus; the net degrees were
    # read off the term-at-a-time pipeline
    fpd = _PHI_DATA[name]
    for genus in ("todd", "hurewicz", "krichever"):
        for order in (0, 2):
            spec = catalog(genus, max(order, 1) + fpd.n - 1)
            for i in range(len(fpd.points)):
                ls = localized_sum(fpd.flip_one(i), spec, "linear", order)
                with pytest.raises(NormalizeError) as err:
                    ls.normalize()
                assert err.value.net_degree == -fpd.n
                with pytest.raises(NormalizeError) as ref:
                    _ref_normalize(ls)
                assert ref.value.net_degree == -fpd.n
