"""The integer rows under the series arithmetic: packed generator
exponents, the row kernels against tuple-keyed copies of the loops they
replaced, and the catalog builders against their boxed predecessors."""

import functools
import itertools
import operator
from fractions import Fraction
from math import factorial, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricgenera.algebra import (
    _MAX_EXPONENT,
    MultiSeries,
    Poly,
    QQ,
    _add_product,
    _assemble,
    _boxed,
    _flatten,
    _integrate_rows,
    _invert_rows,
    _pack,
    _recurrence_rows,
    _revert_rows,
    _rows_product,
    _unpack,
    make_ring,
)
from toricgenera.fgl import (
    _ELLIPTIC_RING,
    _KRING,
    _V_RING,
    _YZ_RING,
    _Z_RING,
    _weierstrass_laurent,
    _weierstrass_taylor,
    CATALOG_NAMES,
    GenusSpec,
    catalog,
)

F = Fraction

# QQ, the catalog rings of one, two, three and four generators, and a
# hurewicz ring of nine
RINGS = [QQ, _Z_RING, _YZ_RING, catalog("hurewicz", 1, generators=3).ring,
         _KRING, catalog("hurewicz", 1, generators=9).ring]
_COEFFS = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3, 4, 6]))


# ---------------------------------------------------------------------------
# tuple-keyed copies of the loops before the exponents were packed
# ---------------------------------------------------------------------------

def _ref_flatten(terms, order):
    rows = sorted(((e, d, dict(p.sorted_terms())) for e, p in terms.items()
                   if (d := sum(e)) <= order), key=operator.itemgetter(1))
    den = lcm(*(c.denominator for _e, _d, pt in rows for c in pt.values()))
    return den, [(e, d, [(g, c.numerator * (den // c.denominator))
                         for g, c in pt.items()])
                 for e, d, pt in rows]


def _ref_assemble(ring, k, order, acc, den):
    terms = {}
    for e, nums in acc.items():
        coeffs = {g: Fraction(n, den) for g, n in nums.items() if n}
        if coeffs:
            terms[e] = Poly(ring, coeffs)
    return MultiSeries(ring, k, order, terms)


def _ref_add_product(out, p1, p2, m=1):
    for g1, c1 in p1:
        c1 *= m
        for g2, c2 in p2:
            g = tuple(map(operator.add, g1, g2))
            out[g] = out.get(g, 0) + c1 * c2


def _ref_rows_product(seed, rows, order):
    acc = {}
    for e1, d1, p1 in seed:
        room = order - d1
        for e2, d2, p2 in rows:
            if d2 > room:
                break
            _ref_add_product(acc.setdefault(
                tuple(map(operator.add, e1, e2)), {}), p1, p2)
    return acc


def _ref_invert(s):
    order, add = s.order, operator.add
    den, rows = _ref_flatten(s.terms, order)
    (e0, _d, ((g0, c0),)), *rest = rows
    comps = [(j, [(e, p) for e, _j, p in row])
             for j, row in itertools.groupby(rest, operator.itemgetter(1))]
    N = [{e0: [(g0, 1)]}]
    for d in range(1, order + 1):
        acc = {}
        for j, comp in comps:
            if j > d:
                break
            m = -c0 ** (j - 1)
            for e1, p1 in comp:
                for e2, p2 in N[d - j].items():
                    _ref_add_product(acc.setdefault(tuple(map(add, e1, e2)),
                                                    {}), p1, p2, m)
        N.append({e: nz for e, out in acc.items()
                  if (nz := [(g, c) for g, c in out.items() if c])})
    s_, a = (1, c0) if c0 > 0 else (-1, -c0)
    acc = {}
    for d, Nd in enumerate(N):
        lift = den * s_ ** (d + 1) * a ** (order - d)
        for e, pd in Nd.items():
            acc[e] = {g: c * lift for g, c in pd}
    return _ref_assemble(s.ring, s.k, order, acc, a ** (order + 1))


def _ref_recurrence(s, a, b):
    order, add = s.order, operator.add
    den, rows = _ref_flatten(s.terms, order)
    p, q = a.numerator, a.denominator
    Lq = den * q
    comps = {d: [(e, g) for e, _d, g in row]
             for d, row in itertools.groupby(rows, operator.itemgetter(1))
             if d}
    N = [{(0,) * s.k: [((0,) * len(s.ring), 1)]}]
    for d in range(1, order + 1):
        acc = {}
        for j, s_j in comps.items():
            if j > d:
                break
            m = (p * j + q * b * d) * Lq ** (j - 1) \
                * (factorial(d - 1) // factorial(d - j))
            for e1, p1 in s_j:
                for e2, p2 in N[d - j].items():
                    _ref_add_product(acc.setdefault(tuple(map(add, e1, e2)),
                                                    {}), p1, p2, m)
        N.append({e: nz for e, out in acc.items()
                  if (nz := [(g, c) for g, c in out.items() if c])})
    top = factorial(order)
    lift = [Lq ** (order - d) * (top // factorial(d))
            for d in range(order + 1)]
    return _ref_assemble(s.ring, s.k, order, {
        e: {g: c * lift[d] for g, c in pd}
        for d, Nd in enumerate(N) for e, pd in Nd.items()},
        Lq ** order * top)


def _ref_revert(s):
    order = s.order
    den, rows = _ref_flatten(s.terms, order)
    f = {d: p for _e, d, p in rows if d > 1}
    G = [None] + [{j: [((0,) * len(s.ring), 1)]}
                  for j in range(1, max(f, default=1) + 1)]
    for d in range(2, order + 1):
        for j in range(2, min(d, len(G))):
            out = {}
            for i in range(1, d - j + 2):
                _ref_add_product(out, G[1][i], G[j - 1][d - i])
            G[j][d] = [(g, c) for g, c in out.items() if c]
        out = {}
        for j, fj in f.items():
            if j <= d:
                _ref_add_product(out, fj, G[j][d], -den ** (j - 2))
        G[1][d] = [(g, c) for g, c in out.items() if c]
    return _ref_assemble(s.ring, 1, order, {
        (d,): {g: c * den ** (order - d) for g, c in p}
        for d, p in G[1].items() if p}, den ** (order - 1))


def _ref_integrate(s):
    return MultiSeries(s.ring, 1, s.order + 1, {
        (d + 1,): p * Fraction(1, d + 1) for (d,), p in s.terms.items()})


def _assert_same(got, want):
    assert got.terms == want.terms
    assert got.order == want.order and got.k == want.k
    assert str(got) == str(want)
    assert got.to_json() == want.to_json()
    for p in got.terms.values():
        for g, c in p.terms.items():
            assert type(g) is int and _pack(_unpack(len(got.ring), g)) == g
            assert type(c) is F and c != 0


def _assert_lowest(den, rows):
    """Rows as ``_flatten`` gives them: by degree, no zero, the least
    common denominator."""
    assert [d for _e, d, _p in rows] == sorted(d for _e, d, _p in rows)
    assert all(p and all(c for _g, c in p) for _e, _d, p in rows)
    assert gcd(den, *(c for _e, _d, p in rows for _g, c in p)) == 1


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@st.composite
def _polys(draw, ring):
    gen_exps = st.tuples(*[st.integers(0, 2)] * len(ring))
    return Poly(ring, draw(st.dictionaries(gen_exps, _COEFFS, max_size=3)))


@st.composite
def _series(draw, ring, k, order=None):
    if order is None:
        order = draw(st.integers(0, 4))
    u_exps = st.tuples(*[st.integers(0, order)] * k)
    terms = draw(st.dictionaries(u_exps, _polys(ring), max_size=6))
    return MultiSeries(ring, k, order, terms)


_RINGS = st.sampled_from(RINGS)
_KS = st.integers(0, 3)


# ---------------------------------------------------------------------------
# packed exponents
# ---------------------------------------------------------------------------

def test_the_largest_exponent_round_trips_and_the_next_is_refused():
    for n in (1, 3, 9):
        for i in range(n):
            e = tuple(_MAX_EXPONENT if j == i else j for j in range(n))
            assert _unpack(n, _pack(e)) == e
            with pytest.raises(ValueError, match="generator exponent"):
                _pack(e[:i] + (_MAX_EXPONENT + 1,) + e[i + 1:])
            with pytest.raises(ValueError, match="generator exponent"):
                _pack(e[:i] + (-1,) + e[i + 1:])
    assert _pack(()) == 0 and _unpack(0, 0) == ()
    # a sum of the largest exponents stays in its fields
    top = _pack((_MAX_EXPONENT,) * 3)
    assert _unpack(3, top + top + top) == (3 * _MAX_EXPONENT,) * 3


def test_an_exponent_past_the_bound_is_refused_where_it_enters():
    ring = make_ring(("x", 0), ("y", 0))
    with pytest.raises(ValueError, match="generator exponent entry 1"):
        Poly(ring, {(_MAX_EXPONENT + 1, 0): 1})
    top = MultiSeries(ring, 0, 0, {(): Poly(ring, {(_MAX_EXPONENT, 1): 1})})
    assert dict((top * top).terms[()].sorted_terms()) == \
        {(2 * _MAX_EXPONENT, 2): 1}


# ---------------------------------------------------------------------------
# the kernels against their tuple-keyed copies
# ---------------------------------------------------------------------------

def _packed(p):
    return [(_pack(g), c) for g, c in p]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_add_product_matches_the_tuple_loop(data):
    ring = data.draw(_RINGS)
    p1, p2 = data.draw(_polys(ring)), data.draw(_polys(ring))
    m = data.draw(st.integers(-5, 5))
    rows1 = [(g, c.numerator) for g, c in p1.sorted_terms()]
    rows2 = [(g, c.numerator) for g, c in p2.sorted_terms()]
    got, want = {}, {}
    _add_product(got, _packed(rows1), _packed(rows2), m)
    _ref_add_product(want, rows1, rows2, m)
    assert {_unpack(len(ring), g): c for g, c in got.items()} == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rows_product_matches_the_tuple_loop(data):
    ring, k = data.draw(_RINGS), data.draw(_KS)
    a, b = data.draw(_series(ring, k)), data.draw(_series(ring, k))
    order = min(a.order, b.order)
    (da, ra), (db, rb) = _flatten(a.terms, order), _flatten(b.terms, order)
    (ra_, rb_) = (_ref_flatten(a.terms, order)[1],
                  _ref_flatten(b.terms, order)[1])
    _assert_same(_assemble(ring, k, order, _rows_product(ra, rb, order),
                           da * db),
                 _ref_assemble(ring, k, order,
                               _ref_rows_product(ra_, rb_, order), da * db))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_invert_rows_matches_the_tuple_loop(data):
    ring, k = data.draw(_RINGS), data.draw(_KS)
    s = data.draw(_series(ring, k))
    s = s - s.constant_term() + data.draw(st.sampled_from([1, -1, 2,
                                                           F(-3, 2)]))
    den, rows = _invert_rows(*_flatten(s.terms, s.order), s.order)
    _assert_lowest(den, rows)
    _assert_same(_boxed(ring, k, s.order, den, rows), _ref_invert(s))
    _assert_same(s.invert_unit(), _ref_invert(s))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_recurrence_rows_match_the_tuple_loop(data):
    ring, k = data.draw(_RINGS), data.draw(_KS)
    s = data.draw(_series(ring, k))
    alpha = F(data.draw(st.sampled_from([-1, F(1, 2), F(-1, 2), 3,
                                         F(-2, 3)])))
    for a, b in ((alpha + 1, -1), (1, 0)):
        want = _ref_recurrence(s, a, b)
        den, rows = _recurrence_rows(*_flatten(s.terms, s.order), k,
                                     s.order, a, b)
        _assert_lowest(den, rows)
        _assert_same(_boxed(ring, k, s.order, den, rows), want)
        _assert_same(s._recurrence(a, b), want)


@st.composite
def _reversible(draw, ring):
    order = draw(st.integers(1, 9))
    degrees = st.integers(2, max(order, 2)).map(lambda d: (d,))
    terms = draw(st.dictionaries(degrees, _polys(ring), max_size=3))
    terms[(1,)] = 1
    return MultiSeries(ring, 1, order, terms)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_revert_rows_match_the_tuple_loop(data):
    f = data.draw(_reversible(data.draw(_RINGS)))
    den, rows = _revert_rows(*_flatten(f.terms, f.order), f.order)
    _assert_lowest(den, rows)
    _assert_same(_boxed(f.ring, 1, f.order, den, rows), _ref_revert(f))
    _assert_same(f.revert(), _ref_revert(f))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integrate_rows_match_the_termwise_integral(data):
    ring = data.draw(_RINGS)
    s = data.draw(_series(ring, 1, data.draw(st.integers(0, 8))))
    den, rows = _integrate_rows(*_flatten(s.terms, s.order))
    _assert_lowest(den, rows)
    _assert_same(_boxed(ring, 1, s.order + 1, den, rows), _ref_integrate(s))
    _assert_same(s.integrate(), _ref_integrate(s))


# ---------------------------------------------------------------------------
# the catalog builders against their boxed predecessors
# ---------------------------------------------------------------------------

def _ref_complete_homogeneous(j, c, shift=0):
    return Poly(_YZ_RING, {(i + shift, j - i + shift): c
                           for i in range(j + 1)})


def _ref_abel(M):
    return MultiSeries(_YZ_RING, 1, M, {
        (j + 1,): _ref_complete_homogeneous(j, F(1, factorial(j + 1)))
        for j in range(M)})


def _ref_t2(M):
    den_terms = {(0,): 1}
    for m in range(2, M + 1):
        den_terms[(m,)] = _ref_complete_homogeneous(
            m - 2, F(-1, factorial(m)), 1)
    den = MultiSeries(_YZ_RING, 1, M, den_terms)
    return _ref_abel(M) * den.invert_unit()


def _ref_signature(M):
    sinh = MultiSeries(_Z_RING, 1, M, {
        (j,): Poly(_Z_RING, {(j - 1,): F(1, factorial(j))})
        for j in range(1, M + 1, 2)})
    cosh = MultiSeries(_Z_RING, 1, M, {
        (j,): Poly(_Z_RING, {(j,): F(1, factorial(j))})
        for j in range(0, M + 1, 2)})
    return sinh * cosh.invert_unit()


def _ref_elliptic(M):
    d = Poly.gen(_ELLIPTIC_RING, "delta")
    e = Poly.gen(_ELLIPTIC_RING, "eps")
    R = MultiSeries(_ELLIPTIC_RING, 1, M, {(0,): 1, (2,): d * -2, (4,): e})
    integrand = R._recurrence(F(1, 2), -1)
    return integrand.integrate().truncate(M).revert()


def _ref_krichever(M):
    top = M - 1
    parts = [(1, {_pack((1, 0, 0, 0)): 1}, 1)]
    parts += [(j + 2, R_j, (-1) ** j * 2 * factorial(j + 2))
              for j, R_j in enumerate(_weierstrass_taylor(top - 1))]
    parts += [(2 * j, c_j, -2 * j * (2 * j - 1) * den)
              for j, (c_j, den) in _weierstrass_laurent(top // 2).items()]
    exponent = MultiSeries.zero(_KRING, 1, top)
    for d, poly, q in parts:
        if d <= top:
            exponent = exponent + MultiSeries(_KRING, 1, top, {
                (d,): Poly(_KRING, {_unpack(len(_KRING), g): F(c, q)
                                    for g, c in poly.items()})})
    return MultiSeries(_KRING, 1, M, {
        (d + 1,): p for (d,), p in exponent.exp().terms.items()})


def _ref_augmentation(M):
    return MultiSeries.variable(QQ, 1, M, 0)


def _ref_hurewicz(generators, M):
    ring = make_ring(*[("b%d" % j, 2 * j) for j in range(1, generators + 1)])
    terms = {(1,): Poly.constant(ring, 1)}
    for j in range(1, generators + 1):  # degrees above M are dropped
        terms[(j + 1,)] = Poly.gen(ring, "b%d" % j)
    return MultiSeries(ring, 1, M, terms)


def _ref_todd(M):
    return MultiSeries(_Z_RING, 1, M, {
        (j + 1,): Poly(_Z_RING, {(j,): F(1, factorial(j + 1))})
        for j in range(M)})


def _ref_cn(M):
    return MultiSeries(_V_RING, 1, M, {
        (j + 1,): Poly(_V_RING, {(j,): (-1) ** j}) for j in range(M)})


REFERENCES = {"augmentation": _ref_augmentation, "hurewicz": _ref_hurewicz,
              "todd": _ref_todd, "cn": _ref_cn, "abel": _ref_abel,
              "t2": _ref_t2, "signature": _ref_signature,
              "elliptic": _ref_elliptic, "krichever": _ref_krichever}


def _assert_same_genus(got, want, order):
    """The same genus exact to ``order``: its stored rows, as ``_flatten``
    gives them, its exponential, logarithm and a_+."""
    assert got.order == want.order == order
    assert (got.name, got.ring) == (want.name, want.ring)
    _assert_lowest(got._den, got._rows)
    assert got._den == want._den
    assert [(e, d, dict(p)) for e, d, p in got._rows] == \
        [(e, d, dict(p)) for e, d, p in want._rows]
    _assert_same(got.exponential, want.exponential)
    _assert_same(got.logarithm, want.logarithm)
    _assert_same(got.a_plus(), want.a_plus())


def test_every_catalog_genus_has_a_boxed_reference():
    assert sorted(REFERENCES) == sorted(CATALOG_NAMES)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_builders_match_their_boxed_predecessors(name):
    # catalog(name, M - 2) against the genus spec of its boxed reference:
    # the stored rows, the exponential, its order, the logarithm, a_+ and
    # its int rows at every top; every truncation and a rebuild against
    # the reference built afresh at that order
    for generators in range(1, 9) if name == "hurewicz" else (None,):
        ref_build = REFERENCES[name]
        if generators:
            ref_build = functools.partial(ref_build, generators)
        for M in range(1, 13):
            spec = catalog(name, M - 2, generators=generators)
            ref_spec = GenusSpec(name, ref_build(M), ref_build)
            _assert_same_genus(spec, ref_spec, M)
            for top in range(M):
                den, rows = spec._a_plus_rows(top)
                ref_den, ref_rows = ref_spec._a_plus_rows(top)
                assert den == ref_den
                assert {t: dict(p) for t, p in rows.items()} == \
                    {t: dict(p) for t, p in ref_rows.items()}
            for m in [*range(1, M), M + 2]:  # truncations and a rebuild
                _assert_same_genus(spec.at_order(m),
                                   GenusSpec(name, ref_build(m)), m)
