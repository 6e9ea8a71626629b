import hashlib
from fractions import Fraction
from math import factorial

import pytest

from toricgenera.algebra import MultiSeries, Poly, QQ, _unpack
from toricgenera.fgl import (
    _KRING,
    _krichever,
    _weierstrass_laurent,
    _weierstrass_taylor,
    CATALOG_NAMES,
    BsfglShapeError,
    GenusSpec,
    catalog,
    conjugate_orientation,
    elliptic_fgl_check,
    fgl_from_exponential,
    genus_from_chern_numbers,
    krichever_exponential,
    logarithm_from_fgl,
    m_series,
    partitions,
    projective_space_value,
    verify_bsfgl_shape,
    weight_series,
)

F = Fraction


def _gen(ring, name):
    return Poly.gen(ring, name)


# ---------------------------------------------------------------------------
# catalog exponentials: frozen low-order coefficients
# ---------------------------------------------------------------------------

def test_catalog_text_and_json_are_pinned():
    # the md5 over str and to_json() of every catalog genus's exponential,
    # logarithm and a_+ at orders 1..10, hurewicz with 1..9 generators, as
    # they were with tuple-keyed polynomial terms
    h = hashlib.md5()
    for name in CATALOG_NAMES:
        for generators in range(1, 10) if name == "hurewicz" else (None,):
            for M in range(1, 11):
                spec = catalog(name, M, generators=generators)
                for s in (spec.exponential, spec.logarithm, spec.a_plus()):
                    h.update(str(s).encode() + b"\0" + s.to_json().encode()
                             + b"\0")
    assert h.hexdigest() == "c9d0a7bd101920f86bea4014f11e6644"


def test_todd_coefficients():
    td = catalog("todd", 6)
    z = _gen(td.ring, "z")
    assert td.exp_coefficient(1) == z * F(1, 2)
    assert td.exp_coefficient(2) == z * z * F(1, 6)


def test_cn_coefficients():
    cg = catalog("cn", 6)
    v = _gen(cg.ring, "v")
    assert cg.exp_coefficient(1) == -v
    assert cg.exp_coefficient(2) == v * v
    assert cg.exp_coefficient(3) == -(v ** 3)


def test_abel_specialization_y_equals_z():
    # at y = z the exponential degenerates to x e^{yx}
    ab = catalog("abel", 6)
    ring = ab.ring
    y = _gen(ring, "y")
    fact = 1
    for j in range(0, 6):
        if j:
            fact *= j
        coeff = ab.exp_coefficient(j).substitute_gens(ring, {"z": y})
        assert coeff == y ** j * F(1, fact)


def test_signature_is_tanh():
    sg = catalog("signature", 7)
    z = _gen(sg.ring, "z")
    # tanh(zx)/z = x - z^2 x^3/3 + 2 z^4 x^5/15 - 17 z^6 x^7/315
    assert sg.exp_coefficient(1).is_zero()
    assert sg.exp_coefficient(2) == z * z * F(-1, 3)
    assert sg.exp_coefficient(4) == z ** 4 * F(2, 15)
    assert sg.exp_coefficient(6) == z ** 6 * F(-17, 315)


def test_elliptic_logarithm_integrand():
    ell = catalog("elliptic", 6)
    d, e = _gen(ell.ring, "delta"), _gen(ell.ring, "eps")
    m = ell.logarithm
    # integral of (1 - 2 d t^2 + e t^4)^(-1/2): x + d x^3/3 + (3d^2 - e) x^5/10
    assert m.coefficient((3,)) == d * F(1, 3)
    assert m.coefficient((5,)) == (d * d * 3 - e) * F(1, 10)


def test_hurewicz_is_generic_polynomial():
    hr = catalog("hurewicz", 5)
    assert hr.exp_coefficient(1) == _gen(hr.ring, "b1")
    assert hr.exp_coefficient(4) == _gen(hr.ring, "b4")
    # m1 = -b1 under reversion
    assert hr.logarithm.coefficient((2,)) == -_gen(hr.ring, "b1")


def test_unknown_catalog_name():
    with pytest.raises(KeyError):
        catalog("nope", 4)


@pytest.mark.parametrize("generators", [0, -2])
def test_catalog_refuses_fewer_than_one_generator(generators):
    with pytest.raises(ValueError, match="generators must be >= 1"):
        catalog("hurewicz", 3, generators=generators)
    # without an explicit count the hurewicz ring has one per order
    assert catalog("hurewicz", 3).ring == catalog("hurewicz", 3, 3).ring


# ---------------------------------------------------------------------------
# group laws
# ---------------------------------------------------------------------------

def test_fgl_additive():
    ag = catalog("augmentation", 6)
    Fs = fgl_from_exponential(ag)
    u1 = MultiSeries.variable(QQ, 2, Fs.order, 0)
    u2 = MultiSeries.variable(QQ, 2, Fs.order, 1)
    assert Fs == u1 + u2


def test_fgl_todd_multiplicative():
    td = catalog("todd", 6)
    Fs = fgl_from_exponential(td, 4)
    z = _gen(td.ring, "z")
    u1 = MultiSeries.variable(td.ring, 2, 4, 0)
    u2 = MultiSeries.variable(td.ring, 2, 4, 1)
    assert Fs == u1 + u2 + (u1 * u2).scale(z)


def test_fgl_hurewicz_leading_terms_and_associativity():
    hr = catalog("hurewicz", 6)
    law = fgl_from_exponential(hr, 6)
    b1 = _gen(hr.ring, "b1")
    assert law.coefficient((1, 1)) == b1 * 2  # equals -2 m1
    _assert_fgl_axioms(law, 6)


def _assert_fgl_axioms(Fs, order):
    ring = Fs.ring
    u = MultiSeries.variable(ring, 1, order, 0)
    # unitality
    assert Fs.slice_var(1, 0).agrees_with(u, order)
    assert Fs.slice_var(0, 0).agrees_with(u, order)
    # commutativity
    flipped = MultiSeries(ring, 2, Fs.order,
                          {(e[1], e[0]): p for e, p in Fs.terms.items()})
    assert flipped == Fs
    # associativity on three variables
    u1 = MultiSeries.variable(ring, 3, order, 0)
    u2 = MultiSeries.variable(ring, 3, order, 1)
    u3 = MultiSeries.variable(ring, 3, order, 2)
    F12 = Fs.substitute([u1, u2])
    F23 = Fs.substitute([u2, u3])
    left = Fs.substitute([F12, u3])
    right = Fs.substitute([u1, F23])
    assert left == right


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_fgl_axioms_all_catalog(name):
    spec = catalog(name, 4)
    law = fgl_from_exponential(spec, 4)
    _assert_fgl_axioms(law, 4)


def test_logarithm_from_fgl_roundtrips():
    for name in ("todd", "t2", "elliptic"):
        spec = catalog(name, 6)
        law = fgl_from_exponential(spec, 6)
        m = logarithm_from_fgl(law)
        assert m.agrees_with(spec.logarithm, 6)


def test_logarithm_from_fgl_todd_closed_form():
    td = catalog("todd", 6)
    m = logarithm_from_fgl(fgl_from_exponential(td, 6))
    z = _gen(td.ring, "z")
    for j in range(1, 7):
        assert m.coefficient((j,)) == z ** (j - 1) * F((-1) ** (j - 1), j)


def test_m_series():
    td = catalog("todd", 6)
    spec = td.at_order(6)
    u = MultiSeries.variable(td.ring, 1, 6, 0)
    assert m_series(spec, 1) == u
    assert m_series(spec, 0).is_zero()
    # [-1](u) = -u/(1 + zu)
    z = _gen(td.ring, "z")
    expect = MultiSeries(td.ring, 1, 6, {
        (j,): z ** (j - 1) * F((-1) ** j) for j in range(1, 7)})
    assert m_series(spec, -1) == expect


def test_m_series_homomorphism_property():
    for name in CATALOG_NAMES:
        spec = catalog(name, 6)
        law = fgl_from_exponential(spec, 6)
        series = {m: m_series(spec.at_order(6), m) for m in range(-2, 4)}
        for p in range(-2, 4):
            for q in range(-2, 4):
                if -2 <= p + q <= 3:
                    got = law.substitute([series[p], series[q]])
                    assert got == series[p + q], (name, p, q)


def test_weight_series():
    ag = catalog("augmentation", 6)
    ws = weight_series(ag, (2, -1), 2)
    u1 = MultiSeries.variable(QQ, 2, 6, 0)
    u2 = MultiSeries.variable(QQ, 2, 6, 1)
    assert ws == u1.scale(2) - u2

    td = catalog("todd", 6)
    for name in ("todd", "t2", "krichever"):
        spec = catalog(name, 5)
        k = 3
        for i in range(k):
            w = tuple(1 if j == i else 0 for j in range(k))
            assert weight_series(spec, w, k) == \
                MultiSeries.variable(spec.ring, k, spec.order, i)

    # todd with w = (1, 1) is the multiplicative group law on the diagonal
    ws = weight_series(td, (1, 1), 2)
    law = fgl_from_exponential(td, ws.order)
    assert ws == law

    with pytest.raises(ValueError):
        weight_series(td, (0, 0), 2)


def test_weight_series_reduces_to_linear_mod_decomposables():
    for name in ("t2", "elliptic", "krichever", "hurewicz"):
        spec = catalog(name, 4)
        ws = weight_series(spec, (2, -3), 2)
        lin = ws.homogeneous_component(1)
        expect = MultiSeries.linear_form(spec.ring, 2, ws.order, (2, -3))
        assert lin == expect


# ---------------------------------------------------------------------------
# specialization lattice
# ---------------------------------------------------------------------------

def _specialized(spec, images, target):
    """Exponential of ``spec`` with generators mapped into target's ring."""
    return MultiSeries(target.ring, 1, spec.order, {
        e: p.substitute_gens(target.ring, images)
        for e, p in spec.exponential.terms.items()})


def test_t2_specializes_to_todd_signature_cn():
    t2 = catalog("t2", 8)
    td = catalog("todd", 8)
    sg = catalog("signature", 8)
    cg = catalog("cn", 8)
    z_td = _gen(td.ring, "z")
    assert _specialized(t2, {"y": 0, "z": z_td}, td) == td.exponential
    z_sg = _gen(sg.ring, "z")
    assert _specialized(t2, {"y": -z_sg, "z": z_sg}, sg) == sg.exponential
    v = _gen(cg.ring, "v")
    assert _specialized(t2, {"y": -v, "z": -v}, cg) == cg.exponential


def test_abel_agrees_with_t2_and_todd_at_y_zero():
    ab = catalog("abel", 8)
    td = catalog("todd", 8)
    z_td = _gen(td.ring, "z")
    assert _specialized(ab, {"y": 0, "z": z_td}, td) == td.exponential


# ---------------------------------------------------------------------------
# conjugate orientation
# ---------------------------------------------------------------------------

def test_conjugate_orientation_hurewicz():
    hr = catalog("hurewicz", 6)
    a = conjugate_orientation(hr)
    b1, b2, b3 = (_gen(hr.ring, n) for n in ("b1", "b2", "b3"))
    assert a.coefficient((2,)) == -b1
    assert a.coefficient((3,)) == b1 * b1 - b2
    assert a.coefficient((4,)) == -(b1 ** 3) + b1 * b2 * 2 - b3


def test_conjugate_orientation_additive():
    ag = catalog("augmentation", 6)
    a = conjugate_orientation(ag)
    assert a == MultiSeries.variable(QQ, 1, 6, 0)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_a_plus_inverts_b_plus(name):
    for order in range(1, 7):
        spec = catalog(name, order)
        a = spec.a_plus()
        assert a.order == spec.order - 1
        assert a * spec.b_plus() == \
            MultiSeries.constant(spec.ring, 1, spec.order - 1, 1)
        x = MultiSeries.variable(spec.ring, 1, spec.order, 0)
        assert conjugate_orientation(spec) == x * a


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_at_order_is_exact_to_the_order_asked_for(name):
    spec = catalog(name, 4, generators=4)            # exact to 6
    longer = catalog(name, 6, generators=4)          # exact to 8
    assert spec.at_order(spec.order) is spec
    assert spec.at_order(3) is spec.at_order(3)      # derived once
    for m in (1, 3, 5, 6, 7, 8):                     # below, at and above
        got = spec.at_order(m)
        assert got.order == m and got.name == name and got.ring == spec.ring
        _assert_exact(got.exponential, longer.exponential, m)
        _assert_exact(got.logarithm, longer.logarithm, m)
        _assert_exact(got.a_plus(), longer.a_plus(), m - 1)
    # truncating down and then rebuilding up gives the longer genus back
    again = spec.at_order(2).at_order(8)
    assert again.order == 8
    assert again.exponential.to_json() == longer.exponential.to_json()
    with pytest.raises(ValueError):
        spec.at_order(0)


def _assert_exact(got, longer, m):
    assert got.order == m
    assert got.to_json() == longer.truncate(m).to_json()


def test_at_order_without_a_builder_only_truncates():
    spec = GenusSpec("todd", catalog("todd", 4).exponential)
    assert spec.at_order(3).exponential == spec.exponential.truncate(3)
    with pytest.raises(ValueError, match="cannot be extended"):
        spec.at_order(spec.order + 1)


def test_krichever_exponential_is_its_catalog_genus():
    kv = krichever_exponential(5)
    assert kv.order == 5 and kv.name == "krichever"
    assert kv.exponential == catalog("krichever", 3).exponential
    assert kv.at_order(7).exponential == catalog("krichever", 5).exponential


# ---------------------------------------------------------------------------
# Krichever exponential and the Krichever shape
# ---------------------------------------------------------------------------

def test_krichever_low_coefficients():
    kv = krichever_exponential(6)
    ring = kv.ring
    a, p2, p3 = (_gen(ring, n) for n in ("a", "p2", "p3"))
    # f = x (1 + a x + (a^2/2 + p2/2) x^2 + ...)
    assert kv.exp_coefficient(1) == a
    assert kv.exp_coefficient(2) == (a * a + p2) * F(1, 2)
    x4 = kv.exp_coefficient(3)
    # x^4 coefficient: a^3/6 + a p2/2 - p3/6
    assert x4 == a ** 3 * F(1, 6) + a * p2 * F(1, 2) - p3 * F(1, 6)


def test_krichever_homogeneous_grading():
    kv = krichever_exponential(8)
    for j in range(1, 8):
        degs = {sum(ei * g.degree for ei, g in zip(e, kv.ring))
                for e in dict(kv.exp_coefficient(j).sorted_terms())}
        assert degs <= {2 * j}


# the Poly chain-rule builder the integer recurrences replaced, kept as the
# reference they must reproduce term for term

def _ref_weierstrass_derivative(poly):
    """The z-derivative on Q[a, p2, p3, g2]: p2 -> p3, p3 -> 6 p2^2 - g2/2."""
    ring = poly.ring
    images = {
        "a": Poly.zero(ring),
        "p2": Poly.gen(ring, "p3"),
        "p3": Poly.gen(ring, "p2") ** 2 * 6 - Poly.gen(ring, "g2") * F(1, 2),
        "g2": Poly.zero(ring),
    }
    out = Poly.zero(ring)
    for e, c in poly.sorted_terms():
        for i, ei in enumerate(e):
            if not ei:
                continue
            de = list(e)
            de[i] -= 1
            out = out + Poly(ring, {tuple(de): c * ei}) * images[ring[i].name]
    return out


def _ref_weierstrass_p_coefficients(count):
    """Laurent coefficients c_j of p(x) = 1/x^2 + sum c_j x^{2j-2}, j >= 2."""
    p2, p3, g2 = (Poly.gen(_KRING, n) for n in ("p2", "p3", "g2"))
    g3 = p2 ** 3 * 4 - g2 * p2 - p3 ** 2
    c = {2: g2 * F(1, 20), 3: g3 * F(1, 28)}
    for j in range(4, count + 1):
        acc = Poly.zero(_KRING)
        for i in range(2, j - 1):
            acc = acc + c[i] * c[j - i]
        c[j] = acc * F(3, (2 * j + 1) * (j - 3))
    return c


def _ref_krichever(M):
    """x exp(a x + integral of zeta(z - s) - zeta(z) + log(sigma(x)/x)),
    with the Taylor coefficients of p(z - s) from chain-rule derivatives."""
    wp = [Poly.gen(_KRING, "p2")]
    for _ in range(M - 2):
        wp.append(_ref_weierstrass_derivative(wp[-1]))
    integral = MultiSeries(_KRING, 1, M, {
        (j + 2,): wp[j] * F((-1) ** j, factorial(j + 2))
        for j in range(0, M - 1)})
    log_sigma = MultiSeries(_KRING, 1, M, {
        (2 * j,): cj * F(-1, 2 * j * (2 * j - 1))
        for j, cj in _ref_weierstrass_p_coefficients(M // 2 + 1).items()})
    ax = MultiSeries(_KRING, 1, M, {(1,): Poly.gen(_KRING, "a")})
    x = MultiSeries.variable(_KRING, 1, M, 0)
    return x * (ax + integral + log_sigma).exp()


@pytest.mark.parametrize("M", range(1, 15))
def test_krichever_matches_the_chain_rule_reference(M):
    got, ref = _krichever(M), _ref_krichever(M)
    assert got.terms == ref.terms and got.order == ref.order == M
    assert str(got) == str(ref)
    assert got.to_json() == ref.to_json()


def test_weierstrass_taylor_matches_chain_rule_derivatives():
    R = _weierstrass_taylor(11)
    assert len(R) == 11
    assert [_weierstrass_taylor(n) for n in range(-1, 4)] == \
        [[], [], R[:1], R[:2], R[:3]]
    wp = Poly.gen(_KRING, "p2")
    for j in range(11):
        assert _poly_of(R[j]) == wp * 2, j
        assert all(isinstance(c, int) for c in R[j].values())
        wp = _ref_weierstrass_derivative(wp)


def _poly_of(packed, den=1):
    """The Poly of an int polynomial {packed exponent: int} over den."""
    return Poly(_KRING, {_unpack(len(_KRING), g): F(c, den)
                         for g, c in packed.items()})


def _laurent_polys(count):
    return {j: _poly_of(num, den)
            for j, (num, den) in _weierstrass_laurent(count).items()}


def test_weierstrass_laurent_matches_abramowitz_stegun():
    # A&S 18.5.25: c_2 = g2/20, c_3 = g3/28, c_4 = g2^2/1200 and
    # c_5 = 3 g2 g3/6160, g3 = 4 p2^3 - g2 p2 - p3^2; exponents over
    # (a, p2, p3, g2)
    expect = {
        2: Poly(_KRING, {(0, 0, 0, 1): F(1, 20)}),
        3: Poly(_KRING, {(0, 3, 0, 0): F(1, 7), (0, 1, 0, 1): F(-1, 28),
                         (0, 0, 2, 0): F(-1, 28)}),
        4: Poly(_KRING, {(0, 0, 0, 2): F(1, 1200)}),
        5: Poly(_KRING, {(0, 3, 0, 1): F(3, 1540), (0, 1, 0, 2): F(-3, 6160),
                         (0, 0, 2, 1): F(-3, 6160)}),
    }
    assert _laurent_polys(5) == expect
    assert _ref_weierstrass_p_coefficients(5) == expect


def test_weierstrass_laurent_matches_the_reference():
    assert _laurent_polys(9) == _ref_weierstrass_p_coefficients(9)
    assert set(_weierstrass_laurent(1)) == {2, 3}


def test_bsfgl_shape_abel():
    ab = catalog("abel", 6)
    shape = verify_bsfgl_shape(ab, 6)
    y, z = _gen(ab.ring, "y"), _gen(ab.ring, "z")
    assert shape.a == -(y + z)
    assert shape.d.is_zero()


def test_bsfgl_shape_t2():
    t2 = catalog("t2", 6)
    shape = verify_bsfgl_shape(t2, 6)
    y, z = _gen(t2.ring, "y"), _gen(t2.ring, "z")
    yz = y * z
    u = MultiSeries.variable(t2.ring, 1, 6, 0)
    assert shape.a == -(y + z)
    assert shape.c == MultiSeries.constant(t2.ring, 1, 6, 1) + (u * u).scale(yz)
    expect_d = -u.scale(yz * (y + z)) - (u * u).scale(yz * yz)
    assert shape.d == expect_d


def test_bsfgl_shape_elliptic():
    ell = catalog("elliptic", 6)
    shape = verify_bsfgl_shape(ell, 6)
    d, e = _gen(ell.ring, "delta"), _gen(ell.ring, "eps")
    u = MultiSeries.variable(ell.ring, 1, 6, 0)
    assert shape.a.is_zero()
    assert shape.d == -(u * u).scale(e)
    R = MultiSeries(ell.ring, 1, 6, {(0,): Poly.constant(ell.ring, 1),
                                     (2,): d * -2, (4,): e})
    assert (shape.c * shape.c) == R


def test_bsfgl_shape_krichever_passes():
    kv = krichever_exponential(6)
    shape = verify_bsfgl_shape(kv, 6)
    a = _gen(kv.ring, "a")
    assert shape.a == a * -2


def test_bsfgl_shape_rejects_generic_law():
    hr = catalog("hurewicz", 6, generators=6)
    with pytest.raises(BsfglShapeError):
        verify_bsfgl_shape(hr, 6)


def test_fks_congruences_krichever():
    # 2f1 = -a, 3f2 = c2, 4f3 = c3, 6f3 = -d1, 5f4 = c4, 10f4 = -d2,
    # modulo monomials that are decomposable (generator-exponent sum >= 2)
    kv = krichever_exponential(8)
    shape = verify_bsfgl_shape(kv, 6)

    def indecomposable(poly):
        return Poly(poly.ring, {e: c for e, c in poly.sorted_terms()
                                if sum(e) < 2})

    f = [kv.exp_coefficient(j) for j in range(5)]
    c = [shape.c.coefficient((j,)) for j in range(5)]
    d = [shape.d.coefficient((j,)) for j in range(3)]
    assert f[1] * 2 == -shape.a
    assert indecomposable(f[2] * 3) == indecomposable(c[2])
    assert indecomposable(f[3] * 4) == indecomposable(c[3])
    assert indecomposable(f[3] * 6) == indecomposable(-d[1])
    assert indecomposable(f[4] * 5) == indecomposable(c[4])
    assert indecomposable(f[4] * 10) == indecomposable(-d[2])


def test_elliptic_fgl_check():
    assert elliptic_fgl_check(4)
    assert elliptic_fgl_check(8)


# ---------------------------------------------------------------------------
# characteristic numbers
# ---------------------------------------------------------------------------

def test_genus_from_chern_numbers_todd_cp2():
    td = catalog("todd", 4)
    z = _gen(td.ring, "z")
    value = genus_from_chern_numbers(td, 2, {(1, 1): 6, (2,): -3})
    assert value == z * z
    assert value == projective_space_value(td, 2)


def test_genus_from_chern_numbers_augmentation_and_point():
    ag = catalog("augmentation", 4)
    assert genus_from_chern_numbers(ag, 2, {(1, 1): 5, (2,): 7}).is_zero()
    assert genus_from_chern_numbers(ag, 0, {(): 1}).constant_value() == 1


def test_genus_from_chern_numbers_missing_partition():
    td = catalog("todd", 4)
    with pytest.raises(KeyError):
        genus_from_chern_numbers(td, 2, {(2,): -3})


def test_projective_space_values():
    td = catalog("todd", 5)
    z = _gen(td.ring, "z")
    for n in range(1, 5):
        assert projective_space_value(td, n) == (-z) ** n
    cg = catalog("cn", 5)
    v = _gen(cg.ring, "v")
    for n in range(1, 4):
        assert projective_space_value(cg, n) == v ** n * (n + 1)
    t2 = catalog("t2", 4)
    y, z = _gen(t2.ring, "y"), _gen(t2.ring, "z")
    # t2(CP^j) = (-1)^j sum y^i z^(j-i)
    assert projective_space_value(t2, 1) == -(y + z)
    assert projective_space_value(t2, 2) == y * y + y * z + z * z
