import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricgenera.quasitoric import (
    _bareiss,
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
                * _bareiss(pair.polytope.normal_columns(v))[0])
        rev = tuple(reversed(v))
        swapped = (_bareiss([[row[1], row[0]] for row in pair.lam.minor(v)])[0]
                   * _bareiss([[row[1], row[0]]
                               for row in pair.polytope.normal_columns(v)])[0])
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


def test_fixed_point_invariants():
    with pytest.raises(ValueError):
        FixedPoint("x", 1, [(0, 0)])
    with pytest.raises(ValueError):
        FixedPointData(2, 2, [FixedPoint("x", 1, [(1, 0)])])


# ---------------------------------------------------------------------------
# vertex orientations, the second source of signs
# ---------------------------------------------------------------------------

def _with_orientations(pair):
    """The pair with its normals replaced by the sign of each vertex's
    normal determinant."""
    P = pair.polytope
    orientations = [1 if _bareiss(P.normal_columns(v))[0] > 0 else -1
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
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-3, 3),
                      st.fractions(-3, 3, max_denominator=4))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    # the last ``dependent`` rows become combinations of the others, so
    # singular matrices of every rank >= 1 are drawn
    dependent = draw(st.integers(0, n - 1))
    for i in range(n - dependent, n):
        coeffs = [draw(st.integers(-2, 2)) for _ in range(n - dependent)]
        rows[i] = [sum(c * row[j] for c, row in zip(coeffs, rows))
                   for j in range(n)]
    return rows


@settings(max_examples=300, deadline=None)
@given(square_matrices())
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
    if all(type(x) is int for row in rows for x in row):
        assert type(det) is int
        assert all(type(x) is int for row in adj for x in row)

