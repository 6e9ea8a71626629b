import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricgenera.algebra import (
    LocalizedSum,
    MultiSeries,
    NormalizeError,
    NotDivisibleError,
    Poly,
    QQ,
    canonical_linear_form,
    make_ring,
    product_of_forms,
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
    vals = p.evaluate({"y": F(2), "z": F(3)})
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


def test_divide_linear_pivot_free_obstruction():
    # divisible only up to the u2^2 stray term; pivot on u1
    u1, u2 = var(QQ, 2, 6, 0), var(QQ, 2, 6, 1)
    p = (u1 + u2) * (u1 + u2) + u2 * u2 * u2
    with pytest.raises(NotDivisibleError) as err:
        p.divide_linear((1, 1))
    assert err.value.degree == 3


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
        prod = q.with_order(order + 1).mul_linear(w)
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
                    num = num.mul_linear(f)
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
                    num = num.mul_linear(f)
            terms.append((num, den))
        ls = LocalizedSum(QQ, 2, order, terms)
        series = ls.normalize()
        r = (F(rng.randrange(1, 6)), F(rng.randrange(-5, 6), rng.randrange(1, 4)))
        if any(sum(F(wi) * ri for wi, ri in zip(f, r)) == 0
               for _n, den in ls for f in den):
            continue
        cases += 1
        # series along u = r t, as t-coefficients
        series_t = series.evaluate_graded(r)
        # sum of rational functions along u = r t: Laurent coefficients in t
        laurent = {}
        for num, den in ls:
            nt = num.evaluate_graded(r)
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
    terms = {}
    for i, wi in enumerate(w):
        for e, p in s.terms.items():
            if wi and sum(e) + 1 <= s.order:
                e2 = e[:i] + (e[i] + 1,) + e[i + 1:]
                terms[e2] = terms.get(e2, Poly.zero(s.ring)) + p * F(wi)
    return MultiSeries(s.ring, s.k, s.order, terms)


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
            assert type(g) is tuple and len(g) == len(got.ring)
            assert type(c) is F and c != 0


# small numerators make cancelling sums common; mixed denominators
# exercise the common-denominator step
_COEFFS = st.builds(F, st.integers(-2, 2), st.sampled_from([1, 2, 3, 4, 6]))
_RINGS = st.sampled_from([QQ, ZRING, BRING])


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
def test_mul_linear_kernel_matches_shift_and_add(data):
    ring, k = data.draw(_RINGS), data.draw(st.integers(1, 3))
    s = data.draw(_series(ring, k))
    entry = st.one_of(st.integers(-3, 3),
                      st.fractions(-3, 3, max_denominator=5))
    w = data.draw(st.tuples(*[entry] * k))
    _assert_same(s.mul_linear(w), _ref_mul_linear(s, w))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_scale_kernel_matches_termwise_product(data):
    ring, k = data.draw(_RINGS), data.draw(st.integers(0, 3))
    s = data.draw(_series(ring, k))
    c = data.draw(st.one_of(st.integers(-3, 3), _COEFFS, _polys(ring)))
    _assert_same(s.scale(c), _ref_scale(s, c))
    _assert_same(s * c, _ref_scale(s, c))


def test_kernels_drop_cancelled_terms():
    u1, u2 = var(BRING, 2, 3, 0), var(BRING, 2, 3, 1)
    b1, b2 = Poly.gen(BRING, "b1"), Poly.gen(BRING, "b2")
    # the u1*u2 and b1*b2 cross terms cancel
    got = (u1 + u2).scale(b1 + b2) * (u1 - u2).scale(b1 - b2)
    want = (u1 * u1 - u2 * u2).scale(b1 * b1 - b2 * b2)
    _assert_same(got, want)
    assert str(got) == "b1^2*u1^2 - b2^2*u1^2 - b1^2*u2^2 + b2^2*u2^2"
    _assert_same((u1 - u2).mul_linear((1, 1)), u1 * u1 - u2 * u2)
    _assert_same((u1 + u2).mul_linear((F(1, 2), -F(1, 2))),
                 (u1 * u1 - u2 * u2).scale(F(1, 2)))
    assert (u1 * u1 * u2).mul_linear((1, 1)).is_zero()  # past the order
    assert u1.scale(0).is_zero() and u1.scale(Poly.zero(BRING)).is_zero()


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


def test_json_round_trip_is_bit_exact():
    ring = make_ring(("b1", 2), ("z", 2))
    b1 = Poly.gen(ring, "b1")
    s = MultiSeries(ring, 2, 3, {
        (0, 0): Poly.constant(ring, F(-7, 3)),
        (1, 2): b1 + 1,
    })
    blob = s.to_json()
    t = MultiSeries.from_json(blob)
    assert t == s and t.order == s.order and t.k == s.k
    assert t.to_json() == blob


def test_k_zero_series_is_bare_poly():
    s = const(BRING, 0, 0, Poly.gen(BRING, "b1"))
    t = s * s
    assert t.constant_term() == Poly.gen(BRING, "b1") ** 2


def test_product_of_forms():
    d = product_of_forms(QQ, 2, 4, {(1, 0): 1, (1, 1): 1})
    u1, u2 = var(QQ, 2, 4, 0), var(QQ, 2, 4, 1)
    assert d == u1 * u1 + u1 * u2
