import itertools
import json
import math
import re

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from toricgenera import quasitoric
from toricgenera.quasitoric import (
    _bareiss,
    _eliminate,
    CharMatrix,
    FixedPoint,
    FixedPointData,
    InvalidPairError,
    Polytope,
    QuasitoricPair,
    fpd_to_json_obj,
    from_json_obj,
    pair_to_json_obj,
    product_pair,
    refine,
    restrict_to_subcircle,
    signs_and_weights,
    simplex_pair,
    special_check,
    square_pair,
    validate_pair,
)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_cp2_standard():
    pair = simplex_pair(2, (-1, -1))
    assert validate_pair(pair).ok


def test_validate_bad_determinant():
    poly = Polytope(1, 2, [(1,), (2,)], [[1, -1]])
    pair = QuasitoricPair(poly, CharMatrix([[1, 2]]))
    report = validate_pair(pair)
    assert not report.ok
    assert any("determinant" in p for p in report.problems)


def test_validate_square_degenerate():
    # eps1 eps2 - delta1 delta2 = 0 at the vertex {3, 4}
    poly = Polytope(2, 4, [(1, 2), (2, 3), (3, 4), (1, 4)],
                    [[1, 0, -1, 0], [0, 1, 0, -1]])
    pair = QuasitoricPair(poly, CharMatrix([[1, 0, 1, 1], [0, 1, 1, 1]]))
    report = validate_pair(pair)
    assert not report.ok
    assert any("(3, 4)" in p for p in report.problems)


def test_validate_unrefined():
    poly = Polytope(1, 2, [(1,), (2,)], [[1, -1]])
    pair = QuasitoricPair(poly, CharMatrix([[2, 1]]))
    assert any("refined" in p for p in validate_pair(pair).problems)


def test_validate_missing_initial_vertex():
    poly = Polytope(1, 3, [(2,), (3,)], [[1, -1, 0]])
    pair = QuasitoricPair(poly, CharMatrix([[1, 1, -1]]))
    assert "initial vertex F1...Fn is missing" in validate_pair(pair).problems


@pytest.mark.parametrize("pair", [
    simplex_pair(1, (-1,)), simplex_pair(3, (1, -1, 1)),
    square_pair(-1, 1, 0, 1),
    product_pair(simplex_pair(2, (-1, -1)), simplex_pair(1, (1,)))],
    ids=["cp1", "cp3", "square", "cp2xcp1"])
def test_a_vertex_list_missing_a_vertex_is_invalid(pair):
    # each ridge of a simple polytope is an edge with two vertices, so
    # leaving any vertex out strands the n ridges it shared
    P = pair.polytope
    assert validate_pair(pair).ok
    for drop in P.vertices[1:]:
        kept = [v for v in P.vertices if v != drop]
        short = QuasitoricPair(Polytope(P.n, P.m, kept, P.normals),
                               pair.lam)
        ridges = [p for p in validate_pair(short).problems
                  if p.startswith("ridge")]
        assert len(ridges) == P.n
        assert all(p.endswith("lies on 1 of the listed vertices, not 2")
                   for p in ridges)
        with pytest.raises(InvalidPairError, match="ridge"):
            signs_and_weights(short)


def test_a_ridge_on_three_listed_vertices_is_invalid():
    # facet 1 alone is a ridge of all three vertices
    poly = Polytope(2, 4, [(1, 2), (1, 3), (1, 4)])
    pair = QuasitoricPair(poly, CharMatrix([[1, 0, 1, 1], [0, 1, 1, 2]]))
    assert "ridge (1,) lies on 3 of the listed vertices, not 2" in \
        validate_pair(pair).problems


@pytest.mark.parametrize("args, message", [
    ((2, 3, [(1, 2), (2, 4)]), "facet index out of range in vertex"),
    ((2, 3, [(1, 2), (2, 1)]), "duplicate vertex"),
    ((2, 3, [(1, 2)], [[1, 0, -1]]), "normals must be an n x m matrix"),
    ((2, 3, [(1, 2)], [[1, 0], [0, 1]]), "normals must be an n x m matrix"),
])
def test_polytope_refusals(args, message):
    with pytest.raises(ValueError, match=message):
        Polytope(*args)


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------

def test_refine_identity_passthrough():
    pair = simplex_pair(2, (-1, -1))
    refined = refine(pair.polytope, pair.lam)
    assert refined.entries == pair.lam.entries


def test_refine_example():
    poly = simplex_pair(2, (-1, -1)).polytope
    refined = refine(poly, [[1, 0, -1], [1, 1, -2]])
    assert refined.entries == [[1, 0, -1], [0, 1, -1]]


def test_refine_rejects_nonunimodular():
    poly = simplex_pair(2, (-1, -1)).polytope
    with pytest.raises(InvalidPairError):
        refine(poly, [[2, 0, -1], [0, 1, -1]])


# ---------------------------------------------------------------------------
# signs and weights
# ---------------------------------------------------------------------------

def test_cp_eps_signs_all_patterns():
    for n in (1, 2, 3):
        for eps in itertools.product((1, -1), repeat=n):
            fpd = signs_and_weights(simplex_pair(n, eps))
            signs = {p.label: p.sign for p in fpd.points}
            s0 = signs["x" + ",".join(str(i) for i in range(1, n + 1))]
            assert s0 == 1
            # vertex x_k omits facet k
            for k in range(1, n + 1):
                label = "x" + ",".join(
                    str(i) for i in sorted(set(range(1, n + 2)) - {k}))
                assert eps[k - 1] == -signs[label] // s0


def test_cp_eps_weights_formula():
    for n in (2, 3):
        for eps in itertools.product((1, -1), repeat=n):
            fpd = signs_and_weights(simplex_pair(n, eps))
            by_label = {p.label: p for p in fpd.points}
            x0 = by_label["x" + ",".join(str(i) for i in range(1, n + 1))]
            assert x0.weights == [tuple(1 if j == i else 0 for j in range(n))
                                  for i in range(n)]

            def e(i):
                return tuple(1 if j == i - 1 else 0 for j in range(n))

            for k in range(1, n + 1):
                label = "x" + ",".join(
                    str(i) for i in sorted(set(range(1, n + 2)) - {k}))
                pt = by_label[label]
                expected = []
                for j in range(1, n):
                    base = j if j < k else j + 1
                    ej = e(base)
                    ek = e(k)
                    sign = eps[base - 1] * eps[k - 1]
                    expected.append(tuple(a - sign * b for a, b in zip(ej, ek)))
                expected.append(tuple(eps[k - 1] * b for b in e(k)))
                assert sorted(pt.weights) == sorted(expected), (eps, k)


def test_square_family_signs():
    for e1, e2 in itertools.product((1, -1), repeat=2):
        for d1, d2 in itertools.product(range(-2, 3), repeat=2):
            if abs(e1 * e2 - d1 * d2) != 1:
                continue
            fpd = signs_and_weights(square_pair(e1, e2, d1, d2))
            signs = {p.label: p.sign for p in fpd.points}
            assert signs["x1,2"] == 1
            assert signs["x2,3"] == -e1
            assert signs["x3,4"] == e1 * e2 - d1 * d2
            assert signs["x1,4"] == -e2


def test_square_pair_rejects_invalid():
    with pytest.raises(InvalidPairError):
        square_pair(1, 1, 1, 1)
    with pytest.raises(InvalidPairError):
        square_pair(2, 1, 0, 0)


# every CP^n up to n = 6 with every eps, and every square with |delta| <= 2
_BUILTINS = ([simplex_pair(n, eps) for n in range(1, 7)
              for eps in itertools.product((1, -1), repeat=n)]
             + [square_pair(e1, e2, d1, d2)
                for e1, e2 in itertools.product((1, -1), repeat=2)
                for d1, d2 in itertools.product(range(-2, 3), repeat=2)
                if abs(e1 * e2 - d1 * d2) == 1])


def _validated(pair):
    """``pair`` built again through the validating constructors."""
    P = pair.polytope
    return QuasitoricPair(Polytope(P.n, P.m, P.vertices, P.normals),
                          CharMatrix(pair.lam.entries), pair.name)


def _points(fpd):
    return (fpd.n, fpd.k, fpd.certified,
            [(p.label, p.sign, p.weights) for p in fpd.points])


def test_trusted_builtins_equal_the_validated_construction(monkeypatch):
    # the builtins skip the constructors' checks and box no normal as a
    # Fraction; their JSON, problems and points are those of the checked
    # pair, and their minors of Lambda and of the normals need no
    # elimination
    calls = _count_bareiss(monkeypatch)
    for pair in _BUILTINS:
        ref = _validated(pair)
        assert all(type(x) is int for row in pair.polytope.normals
                   for x in row)
        assert json.dumps(pair_to_json_obj(pair)) == \
            json.dumps(pair_to_json_obj(ref))
        assert validate_pair(pair).problems == validate_pair(ref).problems
        assert _points(signs_and_weights(pair)) == \
            _points(signs_and_weights(ref))
    assert calls == []  # on both sides: ref's Fractions scale to the same ints


def test_cp0_keeps_its_shape_error():
    # CP^0 has one facet, so its 0 x 0 matrix does not fit: the builtin
    # refuses it as the checked construction does
    message = "characteristic matrix shape does not match polytope"
    with pytest.raises(ValueError, match="^%s$" % message):
        simplex_pair(0, ())
    with pytest.raises(ValueError, match="^%s$" % message):
        QuasitoricPair(Polytope(0, 1, [()], []), CharMatrix([]))
    from toricgenera.cli import EXIT_INPUT, JobConfig, run
    job = JobConfig("validate", input="builtin:cp0")
    assert run(job) == EXIT_INPUT
    assert job.lines == ["error: " + message]


@pytest.mark.parametrize("name", ["s6", "flag3", "cp1"])
def test_datasets_equal_the_checked_points(name):
    from toricgenera.localize import dataset
    fpd = dataset(name)
    checked = FixedPointData(fpd.n, fpd.k, [
        FixedPoint(p.label, p.sign, p.weights) for p in fpd.points])
    assert _points(fpd) == _points(checked)


def test_duality_invariant():
    # W_x^t Lambda_x = I for every vertex of every valid pair tried
    pairs = [simplex_pair(3, (1, -1, 1)), square_pair(-1, -1, 1, 0),
             simplex_pair(4, (-1, -1, -1, -1))]
    for pair in pairs:
        fpd = signs_and_weights(pair)
        for v, pt in zip(pair.polytope.vertices, fpd.points):
            minor = pair.lam.minor(v)
            n = pair.polytope.n
            for a in range(n):
                for b in range(n):
                    dot = sum(pt.weights[a][r] * minor[r][b] for r in range(n))
                    assert dot == (1 if a == b else 0)


def test_toric_variety_positivity():
    # Lambda = refined normal matrix: all signs +1 (CP^n and CP1 x CP1)
    for n in (1, 2, 3, 4):
        fpd = signs_and_weights(simplex_pair(n, (-1,) * n))
        assert all(p.sign == 1 for p in fpd.points)
    prod = product_pair(simplex_pair(1, (-1,)), simplex_pair(1, (-1,)))
    fpd = signs_and_weights(prod)
    assert all(p.sign == 1 for p in fpd.points)


def test_column_negation_flips_incident_signs():
    pair = simplex_pair(2, (-1, -1))
    base = {p.label: p.sign for p in signs_and_weights(pair).points}
    # negate column 3 (the facet F3 column)
    entries = [row[:] for row in pair.lam.entries]
    for r in range(2):
        entries[r][2] = -entries[r][2]
    flipped = QuasitoricPair(pair.polytope, CharMatrix(entries), "neg")
    new = {p.label: p.sign for p in signs_and_weights(flipped).points}
    for v in pair.polytope.vertices:
        label = "x" + ",".join(str(i) for i in v)
        if 3 in v:
            assert new[label] == -base[label]
        else:
            assert new[label] == base[label]


def test_sign_well_defined_under_facet_permutation():
    # permuting the facet order at a vertex permutes the columns of both
    # minors, leaving the product of determinants unchanged
    pair = square_pair(-1, 1, 2, 0)
    for v in pair.polytope.vertices:
        base = (_bareiss(pair.lam.minor(v))[0]
                * _leibniz(pair.polytope.normal_columns(v)))
        rev = tuple(reversed(v))
        swapped = (_bareiss([[row[1], row[0]] for row in pair.lam.minor(v)])[0]
                   * _leibniz([[row[1], row[0]]
                               for row in pair.polytope.normal_columns(v)]))
        assert base == swapped
        assert rev  # orientation data only enters through determinants


# ---------------------------------------------------------------------------
# special omniorientations, products, subcircles
# ---------------------------------------------------------------------------

def test_special_check_examples():
    assert not special_check(simplex_pair(2, (-1, -1)).lam)
    assert special_check(CharMatrix([[1, 1]]))
    assert special_check(CharMatrix([[1, 0, -1, 0], [0, 1, 2, 1]]))


def test_special_square_instance():
    pair = square_pair(-1, 1, 2, 0)
    assert validate_pair(pair).ok
    assert special_check(pair.lam)


def test_product_pair_reproduces_square():
    prod = product_pair(simplex_pair(1, (-1,)), simplex_pair(1, (1,)))
    sq = square_pair(-1, 1, 0, 0)
    got = signs_and_weights(prod)
    want = signs_and_weights(sq)
    assert sorted((p.sign, sorted(p.weights)) for p in got.points) == \
        sorted((p.sign, sorted(p.weights)) for p in want.points)


def test_product_pair_counts_and_specialness():
    prod = product_pair(simplex_pair(1, (-1,)), simplex_pair(2, (-1, -1)))
    assert len(prod.polytope.vertices) == 6
    assert validate_pair(prod).ok
    s1 = square_pair(-1, 1, 2, 0)
    s2 = simplex_pair(1, (1,))
    assert special_check(s1.lam) and special_check(s2.lam)
    assert special_check(product_pair(s1, s2).lam)


def test_restrict_to_subcircle():
    cp1 = signs_and_weights(simplex_pair(1, (-1,)))
    sub = restrict_to_subcircle(cp1, (1,))
    assert [p.weights for p in sub.points] == [[(1,)], [(-1,)]]

    fpd = signs_and_weights(square_pair(-1, 1, 2, 0))
    sub = restrict_to_subcircle(fpd, (1, 1))
    for pt in sub.points:
        assert sum(w[0] for w in pt.weights) == 2

    # the weight e1 - e2 at a vertex of standard CP^2 pairs to zero
    cp2 = signs_and_weights(simplex_pair(2, (-1, -1)))
    assert any(w == (1, -1) for p in cp2.points for w in p.weights)
    with pytest.raises(ValueError):
        restrict_to_subcircle(cp2, (1, 1))
    with pytest.raises(ValueError):
        restrict_to_subcircle(cp2, (2, 2))


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------

def test_pair_json_round_trip():
    pair = square_pair(-1, -1, 1, 0)
    obj = pair_to_json_obj(pair)
    back = from_json_obj(obj)
    assert back.lam.entries == pair.lam.entries
    assert back.polytope.vertices == pair.polytope.vertices
    assert back.polytope.normals == pair.polytope.normals


def test_fpd_json_round_trip():
    fpd = signs_and_weights(simplex_pair(2, (1, -1)))
    obj = fpd_to_json_obj(fpd)
    back = from_json_obj(obj)
    assert back.n == fpd.n and back.k == fpd.k
    assert [(p.sign, p.weights) for p in back.points] == \
        [(p.sign, p.weights) for p in fpd.points]


def test_json_auto_refines():
    obj = pair_to_json_obj(simplex_pair(2, (-1, -1)))
    obj["lambda"] = [[1, 0, -1], [1, 1, -2]]
    pair = from_json_obj(obj)
    assert pair.lam.entries == [[1, 0, -1], [0, 1, -1]]


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        from_json_obj({"type": "mystery"})
    with pytest.raises(ValueError):
        from_json_obj({"type": "fixed_points", "n": 1, "k": 1,
                       "points": [{"sign": 2, "weights": [[1]]}]})


def test_json_rejects_non_objects():
    for obj in ([1, 2], 3, "fixed_points", None):
        with pytest.raises(ValueError, match="must be an object"):
            from_json_obj(obj)


@pytest.mark.parametrize("bad", [1.7, -1.2, 2.0, "3", True, None])
def test_non_integer_entries_are_refused(bad):
    with pytest.raises(ValueError, match=r"weight entry at 'x' .*%s" % bad):
        FixedPoint("x", 1, [(1, bad)])
    with pytest.raises(ValueError, match=r"row 2, column 3 .*%s" % bad):
        CharMatrix([[1, 0, -1], [0, 1, bad]])
    with pytest.raises(ValueError, match="sign at 'x'"):
        FixedPoint("x", bad, [(1,)])


def test_integer_like_entries_are_kept():
    from fractions import Fraction

    class Index:
        def __index__(self):
            return -2

    assert FixedPoint("x", 1, [(Index(), 3)]).weights == [(-2, 3)]
    assert CharMatrix([[1, Index()]]).entries == [[1, -2]]
    with pytest.raises(ValueError):
        CharMatrix([[1, Fraction(1, 2)]])


@pytest.mark.parametrize("bad", [True, False, -1.0, 0.1, "x", None, [1]])
def test_inexact_normal_entries_are_refused(bad):
    normals = [[1, 0, -1], [0, 1, -1]]
    normals[1][2] = bad
    with pytest.raises(ValueError, match=r"normal entry at row 2, column 3 "
                                         r"is not an exact rational"):
        Polytope(2, 3, [(1, 2), (2, 3), (1, 3)], normals)


def test_exact_normal_entries_are_kept():
    from fractions import Fraction as F

    normals = [[1, "0", "-1/2"], [F(2, 3), 1, " 3 "]]
    got = Polytope(2, 3, [(1, 2), (2, 3), (1, 3)], normals).normals
    assert got == [[1, 0, F(-1, 2)], [F(2, 3), 1, 3]]
    assert all(type(x) is F for row in got for x in row)


# strings that ``str(Fraction)`` never writes: a zero denominator, digit
# separators, non-ASCII digits, a plus sign, leading zeros, exponents,
# decimals, a signed denominator and malformed quotients
MALFORMED_NORMALS = ["1/0", "-1/0", "1_0", "\u0663", "+1", "07", "-00",
                     "1e3", "0.5", "1/-2", "-1/02", "1/", "/2", "1 / 2",
                     "--1", "", " ", "\u30001", "0x1", "inf", "nan"]


@pytest.mark.parametrize("bad", MALFORMED_NORMALS)
def test_normal_strings_are_read_only_in_the_written_form(bad):
    normals = [[1, 0, -1], [0, 1, -1]]
    normals[1][2] = bad
    with pytest.raises(ValueError) as info:
        Polytope(2, 3, [(1, 2), (2, 3), (1, 3)], normals)
    assert str(info.value) == "normal entry at row 2, column 3 is not an " \
        "exact rational: %r" % (bad,)


def test_written_normal_strings_are_read_exactly():
    from fractions import Fraction as F

    normals = [["1", "-0", "-1/2"], ["2/4", "\t10 ", "-30/7"]]
    got = Polytope(2, 3, [(1, 2), (2, 3), (1, 3)], normals).normals
    assert got == [[1, 0, F(-1, 2)], [F(1, 2), 10, F(-30, 7)]]
    assert all(type(x) is F for row in got for x in row)
    # what the writer emits is read back as it was
    values = [F(p, q) for p in range(-7, 8) for q in range(1, 6)]
    assert [Polytope(1, len(values), [(1,)], [[str(q) for q in values]])
            .normals[0]] == [values]


def test_fixed_point_invariants():
    with pytest.raises(ValueError):
        FixedPoint("x", 1, [(0, 0)])
    with pytest.raises(ValueError):
        FixedPointData(2, 2, [FixedPoint("x", 1, [(1, 0)])])


@pytest.mark.parametrize("bad, message", [
    ([0, 0], "zero weight vector at 'y'"),
    ([1, 1.5], "weight entry at 'y' is not an integer: 1.5"),
    ([True, 1], "weight entry at 'y' is not an integer: True"),
    ([1, "2"], "weight entry at 'y' is not an integer: '2'"),
])
def test_trusted_points_leave_json_weights_checked(bad, message):
    # the points of a pair skip the checks; read points keep them
    fpd = signs_and_weights(simplex_pair(2, (1, -1)))
    checked = [FixedPoint(p.label, p.sign, p.weights) for p in fpd.points]
    assert [(p.label, p.sign, p.weights) for p in fpd.points] == \
        [(p.label, p.sign, p.weights) for p in checked]
    assert all(type(x) is int for p in fpd.points for w in p.weights
               for x in w)
    obj = fpd_to_json_obj(fpd)
    obj["points"][1].update(label="y")
    obj["points"][1]["weights"][0] = bad
    with pytest.raises(ValueError, match=re.escape(message)):
        from_json_obj(obj)


# ---------------------------------------------------------------------------
# vertex orientations, the second source of signs
# ---------------------------------------------------------------------------

def _with_orientations(pair):
    """The pair with its normals replaced by the sign of each vertex's
    normal determinant."""
    P = pair.polytope
    orientations = [1 if _leibniz(P.normal_columns(v)) > 0 else -1
                    for v in P.vertices]
    return QuasitoricPair(Polytope(P.n, P.m, P.vertices,
                                   orientations=orientations),
                          pair.lam, pair.name)


def _signs(pair):
    return [(p.label, p.sign, p.weights)
            for p in signs_and_weights(pair).points]


_ORIENTED_PAIRS = [
    simplex_pair(2, (-1, -1)),
    simplex_pair(3, (1, -1, 1)),
    square_pair(-1, 1, 2, 0),
    product_pair(simplex_pair(1, (-1,)), simplex_pair(2, (1, -1))),
]


@pytest.mark.parametrize("pair", _ORIENTED_PAIRS,
                         ids=["cp2", "cp3", "square", "product"])
def test_orientations_give_the_signs_of_the_normals(pair):
    oriented = _with_orientations(pair)
    assert oriented.polytope.normals is None
    assert _signs(oriented) == _signs(pair)
    # the key survives the JSON round trip
    obj = pair_to_json_obj(oriented)
    assert obj["polytope"]["orientations"] == oriented.polytope.orientations
    back = from_json_obj(json.loads(json.dumps(obj)))
    assert back.polytope.orientations == oriented.polytope.orientations
    assert _signs(back) == _signs(pair)


@pytest.mark.parametrize("orientations, message", [
    ([1, -1], "orientations must give"),
    ([1, 0, 1], "orientations must give"),
    ([1, 2, 1], "orientations must give"),
    ([1, True, 1], "orientation is not an integer: True"),
    ([1, "1", 1], "orientation is not an integer: '1'")],
    ids=["length", "0", "2", "true", "string"])
def test_orientations_refuse_bad_entries(orientations, message):
    with pytest.raises(ValueError, match=message):
        Polytope(2, 3, [(1, 2), (2, 3), (1, 3)], orientations=orientations)


_FACTORS = {"cp1": simplex_pair(1, (-1,)), "cp2--": simplex_pair(2, (-1, -1)),
            "cp2+-": simplex_pair(2, (1, -1)),
            "cp3+-+": simplex_pair(3, (1, -1, 1)),
            "square": square_pair(-1, 1, 2, 0)}


@pytest.mark.parametrize("p, q", itertools.product(_FACTORS, repeat=2))
def test_products_of_oriented_factors_carry_orientations(p, q):
    p, q = _FACTORS[p], _FACTORS[q]
    ref = _signs(product_pair(p, q))
    for x, y in [(_with_orientations(p), _with_orientations(q)),
                 (p, _with_orientations(q)), (_with_orientations(p), q)]:
        product = product_pair(x, y)
        assert product.polytope.normals is None
        assert _signs(product) == ref


def test_a_product_with_dependent_normals_names_them():
    # the normal [1, 0] is dependent at vertex (2,) of cp1; a product with
    # an oriented factor names the vertices that the product with the
    # factor's normals names
    cp1 = simplex_pair(1, (-1,))
    flat = QuasitoricPair(Polytope(1, 2, cp1.polytope.vertices, [[1, 0]]),
                          cp1.lam)
    signed = _with_orientations(cp1)
    for x, y, normal in [(flat, signed, (flat, cp1)),
                         (signed, flat, (cp1, flat))]:
        with pytest.raises(InvalidPairError) as both:
            signs_and_weights(product_pair(*normal))
        with pytest.raises(InvalidPairError) as mixed:
            product_pair(x, y)
        assert str(mixed.value) == str(both.value)
    with pytest.raises(InvalidPairError,
                       match=r"^vertex \(1, 4\) has dependent normals; "
                             r"vertex \(3, 4\) has dependent normals$"):
        product_pair(signed, flat)


def test_a_product_with_an_unsigned_factor_carries_no_signs():
    cp1 = simplex_pair(1, (-1,))
    naked = QuasitoricPair(Polytope(1, 2, cp1.polytope.vertices), cp1.lam)
    product = product_pair(cp1, naked).polytope
    assert product.normals is None and product.orientations is None


def test_normals_and_orientations_together_are_refused():
    # the orientations contradict the normal determinants [1, 1, -1]
    P = simplex_pair(2, (-1, -1)).polytope
    message = "a polytope takes normals or orientations, not both"
    with pytest.raises(ValueError, match=message):
        Polytope(2, 3, P.vertices, P.normals, orientations=[-1, -1, 1])
    obj = pair_to_json_obj(simplex_pair(2, (-1, -1)))
    obj["polytope"]["orientations"] = [1, 1, -1]
    with pytest.raises(ValueError, match=message):
        from_json_obj(obj)
    obj["polytope"]["normals"] = None
    assert from_json_obj(obj).polytope.orientations == [1, 1, -1]


def test_vertex_orientation_surrogate():
    # normals replaced by the per-vertex sign of det N(P)_x
    ref = simplex_pair(2, (1, -1))
    assert _signs(_with_orientations(ref)) == _signs(ref)

    naked = QuasitoricPair(Polytope(2, 3, ref.polytope.vertices), ref.lam)
    with pytest.raises(ValueError):
        signs_and_weights(naked)


# ---------------------------------------------------------------------------
# Bareiss elimination
# ---------------------------------------------------------------------------

def _leibniz(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]]
                                                for i in range(n))
    return total


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 4))
    entry = st.integers(-3, 3)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    # the last ``dependent`` rows become combinations of the others, so
    # singular matrices of every rank >= 1 are drawn
    dependent = draw(st.integers(0, max(n - 1, 0)))
    for i in range(n - dependent, n):
        coeffs = [draw(st.integers(-2, 2)) for _ in range(n - dependent)]
        rows[i] = [sum(c * row[j] for c, row in zip(coeffs, rows))
                   for j in range(n)]
    return rows


@settings(max_examples=300, deadline=None)
@given(square_matrices())
@example([])
def test_bareiss_determinant_and_adjugate(rows):
    n = len(rows)
    det, adj = _bareiss(rows)
    assert det == _leibniz(rows)
    for i in range(n):
        for j in range(n):
            assert sum(rows[i][t] * adj[t][j] for t in range(n)) == \
                (det if i == j else 0)
            cofactor = [[rows[r][c] for c in range(n) if c != i]
                        for r in range(n) if r != j]
            assert adj[i][j] == (-1) ** (i + j) * _leibniz(cofactor)
    assert type(det) is int
    assert all(type(x) is int for row in adj for x in row)



# ---------------------------------------------------------------------------
# vertex minors along the edges of P
# ---------------------------------------------------------------------------

def _ref_eliminate(pair):
    """The per-vertex loop the edge walk replaced: one elimination of
    every minor of Lambda and of the normals, every ridge counted
    against every listed vertex, and the edge rule read as: along an
    edge, sign det N_x (-1)^a changes sign, a being the position of the
    facet x leaves."""
    P, lam = pair.polytope, pair.lam
    problems = []
    if not lam.is_refined():
        problems.append("matrix is not refined (first n columns != identity)")
    if tuple(range(1, P.n + 1)) not in P.vertices:
        problems.append("initial vertex F1...Fn is missing")
    seen = set()
    for v in P.vertices:
        for f in v:
            ridge = tuple(g for g in v if g != f)
            on = sum(set(ridge) <= set(u) for u in P.vertices)
            if ridge not in seen and on != 2:
                problems.append("ridge %r lies on %d of the listed "
                                "vertices, not 2" % (ridge, on))
            seen.add(ridge)
    minors = [_bareiss(lam.minor(v)) for v in P.vertices]
    for v, (det, _adj) in zip(P.vertices, minors):
        if abs(det) != 1:
            problems.append("vertex %r has minor determinant %s" % (v, det))
    signs = None
    if P.normals is not None:
        dets = [_leibniz(P.normal_columns(v)) for v in P.vertices]
        signs = [(det > 0) - (det < 0) for det in dets]
        for v, det in zip(P.vertices, dets):
            if det == 0:
                problems.append("vertex %r has dependent normals" % (v,))
    orientations = P.orientations if signs is None else signs
    seen = set()
    for v in P.vertices if orientations is not None else ():
        for f in v:
            ridge = set(v) - {f}
            if frozenset(ridge) in seen:
                continue
            seen.add(frozenset(ridge))
            on = [(u, o) for u, o in zip(P.vertices, orientations)
                  if ridge <= set(u)]
            if len(on) == 2 and all(o for _u, o in on):
                (x, ox), (y, oy) = on
                a, b = (u.index(*set(u) - ridge) for u in (x, y))
                if ox * (-1) ** a == oy * (-1) ** b:
                    problems.append("the orientations of vertices %r and "
                                    "%r disagree along their edge" % (x, y))
    return problems, minors, orientations


def _cp1(k):
    pair = simplex_pair(1, (-1,))
    for _ in range(k - 1):
        pair = product_pair(pair, simplex_pair(1, (-1,)))
    return pair


# (n, m, vertices): the vertex lists of simple polytopes, a disconnected
# list, and a path whose middle minor is singular under _SINGULAR_PATH
_SHAPES = [(p.polytope.n, p.polytope.m, p.polytope.vertices) for p in (
    [simplex_pair(n, (-1,) * n) for n in range(1, 5)]
    + [square_pair(-1, -1, 0, 0), _cp1(3), _cp1(4),
       product_pair(simplex_pair(2, (-1, -1)), simplex_pair(1, (-1,))),
       product_pair(simplex_pair(2, (-1, -1)), simplex_pair(2, (-1, -1))),
       product_pair(square_pair(-1, -1, 0, 0), simplex_pair(1, (-1,)))])]
_DISCONNECTED = (2, 4, [(1, 2), (3, 4)])
_PATH = (2, 4, [(1, 2), (2, 3), (3, 4)])
# minor (2, 3) has det 0, so (3, 4) is reached only through it
_SINGULAR_PATH = [[1, 0, 0, 1], [0, 1, 2, 1]]
_SHAPES += [_DISCONNECTED, _PATH]


@st.composite
def vertex_minor_pairs(draw):
    n, m, vertices = draw(st.sampled_from(_SHAPES))
    entry = st.integers(-2, 2)
    if (n, m, vertices) == _PATH and draw(st.booleans()):
        lam = [row[:] for row in _SINGULAR_PATH]
    else:
        lam = [[draw(entry) for _ in range(m)] for _ in range(n)]
    if draw(st.booleans()):
        for r in range(n):
            lam[r][:n] = [int(r == c) for c in range(n)]
    normals = orientations = None
    signs = draw(st.sampled_from(("normals", "orientations", None)))
    if signs == "normals":
        normals = [[draw(st.fractions(-2, 2, max_denominator=3))
                    for _ in range(m)] for _ in range(n)]
        if draw(st.booleans()):  # the identity seeds the normals' walk
            for r in range(n):
                normals[r][:n] = [int(r == c) for c in range(n)]
    elif signs == "orientations":
        orientations = [draw(st.sampled_from((1, -1))) for _ in vertices]
    return QuasitoricPair(Polytope(n, m, vertices, normals, orientations),
                          CharMatrix(lam))


@settings(max_examples=400, deadline=None)
@given(vertex_minor_pairs())
def test_vertex_minors_match_the_per_vertex_loop(pair):
    problems, minors, signs = _eliminate(pair)
    ref_problems, ref_minors, ref_signs = _ref_eliminate(pair)
    assert problems == ref_problems
    assert minors == ref_minors
    assert all(type(x) is int for det, adj in minors
               for x in [det] + [y for row in adj for y in row])
    assert signs == ref_signs


def _count_bareiss(monkeypatch):
    calls = []
    bareiss = quasitoric._bareiss

    def counting_bareiss(rows):
        calls.append(len(rows))
        return bareiss(rows)

    monkeypatch.setattr(quasitoric, "_bareiss", counting_bareiss)
    return calls


@pytest.mark.parametrize("pair", [simplex_pair(5, (-1,) * 5), _cp1(4)],
                         ids=["cp5", "cp1^4"])
def test_eliminate_seeds_once_per_matrix(monkeypatch, pair):
    # the vertex graph of P is connected and both walks start at the
    # initial vertex, whose minors of Lambda and of the normals are the
    # identity: no elimination, every other vertex by a pivot along an edge
    calls = _count_bareiss(monkeypatch)
    assert validate_pair(pair).ok
    assert calls == []
    assert _eliminate(pair)[1] == _ref_eliminate(pair)[1]


# the standard CP^2 with its first two normals scaled by 2 and 3, so the
# initial normal minor is diag(2, 3), and a Lambda left unrefined
_SCALED_NORMALS = [[2, 0, -2], [0, 3, -3]]
_UNREFINED = [[0, 1, -1], [1, 1, -2]]


@pytest.mark.parametrize("normals, lam", [
    (_SCALED_NORMALS, [[1, 0, -1], [0, 1, -1]]),
    ([[1, 0, -1], [0, 1, -1]], _UNREFINED),
    (_SCALED_NORMALS, _UNREFINED),
], ids=["scaled-normals", "unrefined", "both"])
def test_eliminate_seeds_each_initial_minor_that_is_not_the_identity(
        monkeypatch, normals, lam):
    P = simplex_pair(2, (-1, -1)).polytope
    pair = QuasitoricPair(Polytope(2, 3, P.vertices, normals),
                          CharMatrix(lam))
    ref = _ref_eliminate(pair)
    calls = _count_bareiss(monkeypatch)
    assert _eliminate(pair) == ref
    assert calls == [2] * ((normals == _SCALED_NORMALS) + (lam == _UNREFINED))


@pytest.mark.parametrize("shape, lam, seeds", [
    (_DISCONNECTED, [[1, 0, 1, 1], [0, 1, 1, 2]], 1),
    (_PATH, [[1, 0, 1, 1], [0, 1, 1, 2]], 0),
    (_PATH, _SINGULAR_PATH, 1),
], ids=["disconnected", "path", "singular-path"])
def test_eliminate_seeds_every_part_it_cannot_reach(monkeypatch, shape, lam,
                                                    seeds):
    n, m, vertices = shape
    pair = QuasitoricPair(Polytope(n, m, vertices), CharMatrix(lam))
    ref = _ref_eliminate(pair)
    calls = _count_bareiss(monkeypatch)
    assert _eliminate(pair) == ref
    assert len(calls) == seeds



# ---------------------------------------------------------------------------
# the edge rule against the torus pass
# ---------------------------------------------------------------------------

# real polytopes with their true normals: the simplices of dimension at
# most 3, the square, the cube and the prism CP^2 x CP^1
_POLYTOPES = [p.polytope for p in (
    [simplex_pair(n, (-1,) * n) for n in range(1, 4)]
    + [square_pair(-1, -1, 0, 0), _cp1(3),
       product_pair(simplex_pair(2, (-1, -1)), simplex_pair(1, (-1,)))])]
SIGN_SOURCES = ("true normals", "one normal negated", "random normals",
                "random orientations")


@st.composite
def signed_pairs(draw):
    """(sign source, pair): a random refined matrix over a real polytope,
    with signs from one of ``SIGN_SOURCES``.  Of up to 8 matrices drawn,
    the first whose vertex minors are all unimodular is taken, so that
    the signs decide validation more often."""
    P = draw(st.sampled_from(_POLYTOPES))
    n, m = P.n, P.m
    for _ in range(8):
        lam = [[int(r == c) for c in range(n)]
               + [draw(st.sampled_from((1, -1, 0))) for _ in range(m - n)]
               for r in range(n)]
        minors = _eliminate(QuasitoricPair(Polytope(n, m, P.vertices),
                                           CharMatrix(lam)))[1]
        if all(abs(det) == 1 for det, _adj in minors):
            break
    source = draw(st.sampled_from(SIGN_SOURCES))
    normals, orientations = [row[:] for row in P.normals], None
    if source == "one normal negated":
        f = draw(st.integers(0, m - 1))
        for row in normals:
            row[f] = -row[f]
    elif source == "random normals":
        normals = [[draw(st.fractions(-2, 2, max_denominator=3))
                    for _ in range(m)] for _ in range(n)]
    elif source == "random orientations":
        normals = None
        orientations = [draw(st.sampled_from((1, -1))) for _ in P.vertices]
    return source, QuasitoricPair(
        Polytope(n, m, P.vertices, normals, orientations), CharMatrix(lam))


@settings(max_examples=600, deadline=None)
@given(signed_pairs())
def test_a_pair_that_validates_meets_the_conner_floyd_relations(case):
    # true normals never break the edge rule, and every pair that
    # validates passes the torus check on its uncertified points
    from toricgenera.fgl import catalog
    from toricgenera.localize import cf_series

    source, pair = case
    problems = validate_pair(pair).problems
    if source == "true normals":
        assert not [p for p in problems if "along their edge" in p]
    event("%s: %s" % (source, "invalid" if problems else "valid"))
    if problems:
        return
    fpd = signs_and_weights(pair)
    torus = FixedPointData(fpd.n, fpd.k, fpd.points)
    for order in (0, 1):
        genus = catalog("hurewicz", fpd.n + order)
        assert cf_series(torus, genus, order).conner_floyd_ok()
