import functools
import inspect
import itertools
import json
import re
import textwrap
from collections import Counter
from fractions import Fraction
from math import factorial, lcm, prod
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricgenera import localize
from toricgenera.algebra import (
    LocalizedSum,
    MultiSeries,
    NormalizeError,
    NotDivisibleError,
    Poly,
    QQ,
    _divide_forms,
    _flatten,
    canonical_linear_form,
)
from toricgenera.cli import JobConfig, build_parser, main, run
from toricgenera.fgl import (
    CATALOG_NAMES,
    GenusSpec,
    _KRING,
    catalog,
    krichever_exponential,
    m_series,
    projective_space_value,
    weight_series,
)
from toricgenera.localize import (
    ConnerFloydViolation,
    FunctionalEquationError,
    cf_series,
    dataset,
    functional_equation_check,
    genus_value,
    localized_sum,
    p_omega,
    pairing_obstruction,
    phi,
    special_vanishing,
    special_vanishing_check,
)
from toricgenera.quasitoric import (
    FixedPoint,
    FixedPointData,
    InvalidPairError,
    fpd_to_json_obj,
    from_json_obj,
    generic_direction,
    load_manifold,
    pair_to_json_obj,
    product_pair,
    restrict_to_subcircle,
    signs_and_weights,
    simplex_pair,
    special_check,
    square_pair,
    validate_pair,
)

F = Fraction


def _gen(spec, name):
    return Poly.gen(spec.ring, name)


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

def test_dataset_shapes():
    s6 = dataset("s6")
    assert len(s6) == 2 and s6.n == 3 and s6.k == 2
    assert s6.points[0].weights == [(1, 0), (0, 1), (-1, -1)]
    assert s6.points[1].weights == [(-1, 0), (0, -1), (1, 1)]

    flag = dataset("flag3")
    assert len(flag) == 6 and flag.n == 3 and flag.k == 3
    assert all(p.sign == 1 for p in flag.points)

    cp1 = dataset("cp1")
    assert [p.weights for p in cp1.points] == [[(1,)], [(-1,)]]
    assert [p.sign for p in cp1.points] == [1, 1]

    with pytest.raises(KeyError):
        dataset("cp9")


def test_cp1_dataset_matches_quasitoric_pair():
    fpd = signs_and_weights(simplex_pair(1, (-1,)))
    ref = dataset("cp1")
    assert [(p.sign, p.weights) for p in fpd.points] == \
        [(p.sign, p.weights) for p in ref.points]


# ---------------------------------------------------------------------------
# the linear localized sum against the divide-and-invert construction
# ---------------------------------------------------------------------------

def _divide_invert_sum(fpd, genus, order):
    """The linear localized sum built without the unit a_+: the product of
    b(w.u) at order + 2n, exactly divided by each primitive form, then
    inverted as a multivariate unit."""
    k, n = fpd.k, fpd.n
    exact = order + 2 * n
    spec = genus.at_order(exact)
    ls = LocalizedSum(genus.ring, k, order)
    for point in fpd.points:
        Q = MultiSeries.constant(genus.ring, k, exact, 1)
        den = {}
        for w in point.weights:
            Q = Q * spec.exponential.compose_at_linear(w, k, exact)
            prim, _s = canonical_linear_form(w)
            den[prim] = den.get(prim, 0) + 1
        for prim, mult in den.items():
            for _ in range(mult):
                Q = Q.divide_linear(prim)
        ls.add_term(Q.invert_unit().scale(point.sign), den)
    return ls


LINEAR_DATA = {
    "cp1": dataset("cp1"),
    "s6": dataset("s6"),
    "flag3": dataset("flag3"),
    "cp2": signs_and_weights(simplex_pair(2, (-1, -1))),
    "cp3": signs_and_weights(simplex_pair(3, (-1, -1, -1))),
    "cp2:eps=+-/flip1": signs_and_weights(
        simplex_pair(2, (1, -1))).flip_one(1),
}


@settings(max_examples=40, deadline=None)
@given(data_name=st.sampled_from(sorted(LINEAR_DATA)),
       genus_name=st.sampled_from(("hurewicz", "todd", "t2", "signature",
                                   "elliptic", "krichever")),
       order=st.integers(0, 3))
def test_linear_sum_equals_divide_invert(data_name, genus_name, order):
    fpd = LINEAR_DATA[data_name]
    genus = catalog(genus_name, max(order, 1))
    _assert_same_total(localized_sum(fpd, genus, "linear", order),
                       _divide_invert_sum(fpd, genus, order))


def _same_total(S, D, ref_S, ref_D):
    """Whether (S, D) is the rational function ref_S / prod(ref_D): a sum
    divided ahead (D == {}) times the reference's forms is ref_S exactly,
    and an undivided one is the same numerator over the same forms."""
    if D:
        return (S.terms, S.order, D) == (ref_S.terms, ref_S.order, ref_D)
    top = S.order + sum(ref_D.values())
    total = MultiSeries(S.ring, S.k, top, S.terms)
    for form, mult in ref_D.items():
        for _ in range(mult):
            total = total * MultiSeries.linear_form(S.ring, S.k, top, form)
    return (total.terms, total.order) == (ref_S.terms, ref_S.order)


def _assert_same_total(new, ref):
    """The linear sum is one term, equal to the reference cross-multiplied
    as a rational function, and exact to order + deg D."""
    assert new.order == ref.order
    assert len(new) == 1
    (S, D), (ref_S, ref_D) = (new.over_common_denominator(),
                              ref.over_common_denominator())
    assert S.order == new.order + sum(D.values())
    assert _same_total(S, D, ref_S, ref_D)
    return S, D


def _ref_linear_localized_sum(fpd, genus, order):
    """The linear localized sum as a chain per point: sign / content
    times one a_+(w.u) at a time, each composed at its full weight."""
    k, top = fpd.k, order + fpd.n
    aplus = genus.at_order(top + 1).a_plus()
    ls = LocalizedSum(genus.ring, k, order)
    for point in fpd.points:
        den, content = Counter(), 1
        for w in point.weights:
            prim, s = canonical_linear_form(w)
            den[prim] += 1
            content *= s
        num = MultiSeries.constant(genus.ring, k, top,
                                   F(point.sign, content))
        for w in point.weights:
            num = num * aplus.compose_at_linear(w, k, top)
        ls.add_term(num, den)
    return ls


def _assert_matches_the_chain(fpd, genus, order):
    return _assert_same_total(localized_sum(fpd, genus, "linear", order),
                              _ref_linear_localized_sum(fpd, genus, order))


def _todd_qq(M):
    """The Todd exponential e^x - 1 at z = 1, over QQ."""
    return MultiSeries(QQ, 1, M, {(j + 1,): F(1, factorial(j + 1))
                                  for j in range(M)})


ORACLE_GENERA = {
    "todd@z=1": GenusSpec("todd@z=1", _todd_qq(3), _todd_qq),
    "todd": catalog("todd", 1),
    "cn": catalog("cn", 1),
    "hurewicz": catalog("hurewicz", 1, generators=3),
    "t2": catalog("t2", 1),
}


@st.composite
def fixed_point_data(draw):
    """Random signs and weights s * v over a small pool of vectors v, so
    that primitive forms repeat across points, with contents up to 3 and
    either sign of the leading entry."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    vector = st.lists(st.integers(-3, 3), min_size=k, max_size=k).filter(any)
    pool = draw(st.lists(vector, min_size=1, max_size=3))
    weight = st.builds(lambda v, s: tuple(s * x for x in v),
                       st.sampled_from(pool),
                       st.sampled_from((-2, -1, 1, 2, 3)))
    points = draw(st.lists(
        st.builds(FixedPoint, st.just("x"), st.sampled_from((1, -1)),
                  st.lists(weight, min_size=n, max_size=n)),
        min_size=1, max_size=4))
    return FixedPointData(n, k, points)


@settings(max_examples=200, deadline=None)
@given(fpd=fixed_point_data(),
       genus_name=st.sampled_from(sorted(ORACLE_GENERA)),
       order=st.integers(0, 4))
# coordinate forms u_3 and u_2 (scaled by 2), and u_1 + u_2 beside them
@example(fpd=FixedPointData(2, 3, [
    FixedPoint("x", 1, [(0, 0, 1), (0, 2, 0)]),
    FixedPoint("y", -1, [(0, 0, -1), (1, 1, 0)])]),
    genus_name="hurewicz", order=2)
# a form whose one entry 1 sits beside other non-zero entries
@example(fpd=FixedPointData(2, 3, [
    FixedPoint("x", 1, [(1, 2, -2), (0, 1, 0)]),
    FixedPoint("y", 1, [(-1, -2, 2), (0, 0, -1)])]),
    genus_name="todd", order=2)
# a_+ = 1, so T = [0], with a non-coordinate form
@example(fpd=FixedPointData(2, 2, [
    FixedPoint("x", 1, [(1, -1), (0, 1)]),
    FixedPoint("y", -1, [(-1, 1), (1, 0)])]),
    genus_name="augmentation", order=1)
def test_linear_numerators_match_the_chain(fpd, genus_name, order):
    genus = {**ORACLE_GENERA, **MORE_GENERA}[genus_name]
    _assert_matches_the_chain(fpd, genus, order)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_point_forms_match_canonical_linear_form(data):
    # non-zero vectors with zeros anywhere and either sign of the leading
    # entry, times contents up to 10^6
    k = data.draw(st.integers(1, 4))
    vector = st.lists(st.integers(-5, 5), min_size=k, max_size=k).filter(any)
    weight = st.builds(lambda v, s: tuple(s * x for x in v), vector,
                       st.integers(-10 ** 6, 10 ** 6).filter(bool))
    weights = data.draw(st.lists(weight, min_size=1, max_size=4))
    forms, scales, content = localize._point_forms(
        FixedPoint("x", 1, weights))
    assert list(zip(forms, scales)) == [canonical_linear_form(w)
                                        for w in weights]
    assert content == prod(scales)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_linear_numerators_match_the_chain_on_generic_circles(n):
    for eps in itertools.product((1, -1), repeat=n):
        fpd = signs_and_weights(simplex_pair(n, eps))
        fpd = restrict_to_subcircle(fpd, generic_direction(fpd))
        for genus_name in ("todd", "hurewicz"):
            _assert_matches_the_chain(fpd, ORACLE_GENERA[genus_name], 2)


@pytest.mark.parametrize("fpd", [
    dataset("s6"),
    dataset("flag3"),
    signs_and_weights(simplex_pair(3, (-1, -1, -1))),
], ids=["s6", "flag3", "cp3"])
def test_linear_numerators_match_the_chain_with_one_sign_flipped(fpd):
    for i in range(len(fpd)):
        for genus_name in ("todd@z=1", "cn", "t2"):
            _assert_matches_the_chain(fpd.flip_one(i),
                                      ORACLE_GENERA[genus_name], 2)


MORE_GENERA = {
    # no odd a_t, a_+ = 1 (T = {0}), and two rings of several generators
    name: catalog(name, 1) for name in ("signature", "elliptic",
                                        "augmentation", "krichever")
}


@settings(max_examples=100, deadline=None)
@given(fpd=fixed_point_data(),
       genus_name=st.sampled_from(sorted(MORE_GENERA)),
       order=st.integers(0, 4))
# one shape, (1, -1), on the three supports of k = 3
@example(fpd=dataset("flag3"), genus_name="krichever", order=2)
# the shape (2, -1) on the supports {1, 3} and {2, 3}, one scaled by -2
@example(fpd=FixedPointData(2, 3, [
    FixedPoint("x", 1, [(2, 0, -1), (0, 2, -1)]),
    FixedPoint("y", -1, [(0, -4, 2), (1, 0, 0)])]),
    genus_name="elliptic", order=3)
def test_linear_total_matches_the_chain_for_sparse_and_trivial_units(
        fpd, genus_name, order):
    _assert_matches_the_chain(fpd, MORE_GENERA[genus_name], order)


LINEAR_EDGE_CASES = {
    "no points": FixedPointData(2, 2, []),
    "n = 0": FixedPointData(0, 2, [FixedPoint("x", 1, []),
                                   FixedPoint("y", -1, []),
                                   FixedPoint("z", 1, [])]),
    "repeated form": FixedPointData(2, 2, [
        FixedPoint("x", 1, [(1, 1), (2, 2)]),
        FixedPoint("y", -1, [(1, -1), (-1, -1)])]),
    # every point holds every form of D, one weight twice: no point takes
    # the missing step, and its repeated step is not the last
    "repeated weight, nothing missing": FixedPointData(2, 2, [
        FixedPoint("x", 1, [(1, 1), (1, 1)]),
        FixedPoint("y", -1, [(-1, -1), (-1, -1)])]),
    "negative contents": FixedPointData(2, 2, [
        FixedPoint("x", -1, [(-2, 0), (0, -3)]),
        FixedPoint("y", 1, [(2, 4), (-3, 0)])]),
}


@pytest.mark.parametrize("name", sorted(LINEAR_EDGE_CASES))
@pytest.mark.parametrize("genus_name", ["todd", "hurewicz", "signature"])
@pytest.mark.parametrize("order", [0, 2])
def test_linear_total_edge_cases(name, genus_name, order):
    fpd = LINEAR_EDGE_CASES[name]
    genus = {**ORACLE_GENERA, **MORE_GENERA}[genus_name]
    S, D = _assert_matches_the_chain(fpd, genus, order)
    if name == "no points":
        assert S.is_zero() and D == {}
    if name == "n = 0":
        assert D == {} and S == MultiSeries.constant(genus.ring, 2, order, 1)
    if name == "repeated form":
        assert D == {(1, 1): 2, (1, -1): 1}
    if name == "repeated weight, nothing missing":
        # 1/[w]^2 - 1/[-w]^2 vanishes for an odd genus
        assert D == ({} if genus_name == "signature" else {(1, 1): 2})


# raw data that fails the universal Conner-Floyd relations (cf_2 under
# hurewicz) but passes todd: Z_lam with |lam| < n do not vanish, while on
# a circle every Z_lam of higher degree divides by D = u^3
TODD_ONLY = FixedPointData(3, 1, [
    FixedPoint("x", -1, [(-3,), (2,), (1,)]),
    FixedPoint("y", 1, [(-3,), (1,), (-1,)]),
    FixedPoint("z", -1, [(-1,), (1,), (-2,)])])


# pairs whose vertex signs break the edge rule, with the problems
# validation reports: CP^2 with one orientation flipped against [1, 1, -1],
# and a square whose facet 4 has its normal reversed, which flips the
# signs at its two vertices
_REVERSED_NORMAL = pair_to_json_obj(square_pair(-1, 1, 2, 0))
_REVERSED_NORMAL["polytope"]["normals"][1][3] = "1"
EDGE_RULE_BROKEN = {
    "cp2 with orientations 1,1,1": ({
        "type": "quasitoric", "lambda": [[1, 0, -1], [0, 1, -1]],
        "polytope": {"n": 2, "m": 3, "vertices": [[1, 2], [2, 3], [1, 3]],
                     "normals": None, "orientations": [1, 1, 1]}}, [
        "the orientations of vertices (1, 2) and (1, 3) disagree along "
        "their edge",
        "the orientations of vertices (2, 3) and (1, 3) disagree along "
        "their edge"]),
    "square with a reversed normal": (_REVERSED_NORMAL, [
        "the orientations of vertices (1, 2) and (1, 4) disagree along "
        "their edge",
        "the orientations of vertices (2, 3) and (3, 4) disagree along "
        "their edge"]),
}
# certified by hand, with a pole: the fixed points the orientation-tampered
# CP^2 above had when validation passed it, which no pair now yields
CERTIFIED_WITH_A_POLE = {
    "cp2 with orientations 1,1,1": FixedPointData(2, 2, [
        FixedPoint("x1,2", 1, [(1, 0), (0, 1)]),
        FixedPoint("x2,3", 1, [(-1, 1), (-1, 0)]),
        FixedPoint("x1,3", -1, [(1, -1), (0, -1)])]),
}
for _fpd in CERTIFIED_WITH_A_POLE.values():
    _fpd.certified = True
# CP^1 listing vertex [1] alone: its one ridge lies on one listed vertex
CP1_WITH_ONE_VERTEX = {
    "type": "quasitoric", "lambda": [[1, -1]],
    "polytope": {"n": 1, "m": 2, "vertices": [[1]],
                 "normals": [["1", "-1"]]}}
# certified-looking data whose sum has its only pole in degree n - 2:
# sum_x sign / E_x = -1, while p_1 = 1 - 1 vanishes
POLE_BELOW_N_MINUS_1 = FixedPointData(2, 1, [
    FixedPoint("x", 1, [(1,), (-1,)])])
POLE_BELOW_N_MINUS_1.certified = True


# each mutant of the pass or of its integer division, as (function,
# original text, replacement), must be caught
MUTANTS = {
    "s^t dilation dropped": (localize._linear_total,
                             "(e, c * s ** t)", "(e, c)"),
    "den_a padding not divided": (localize._ring_sums, "c // den_a", "c"),
    "evaluated sign dropped": (localize._at_direction,
                               "sign * L // prod(c)", "L // prod(c)"),
    # the power of c_j is not advanced, so every p_d reads p_1
    "evaluated powers dropped": (localize._evaluated_sums,
                                 "x *= cj", "x = cj"),
    "evaluated pole check dropped": (localize._evaluated_sums,
                                     "return None", "pass"),
    "evaluated pole check reads |mu| = n - 1 alone": (
        localize._evaluated_sums, "any(Q[:low])",
        "any(Q[low - len(partitions(n - 1)):low])"),
    "monomial row (n) dropped": (localize._evaluation_plan,
                                 "for lam in partitions(n) if",
                                 "for lam in partitions(n)[1:] if"),
    "t = 0 skipped": (localize._linear_total,
                      "for t, rows in powers[f, 1]]",
                      "for t, rows in powers[f, 1] if t]"),
    "|lam| < n check dropped": (localize._linear_total,
                                "if poly:\n                break", "pass"),
    "remainder check dropped": (_divide_forms, "if r:", "if False:"),
    "coordinate test loosened": (localize._linear_total,
                                 "f.count(0) == k - 1", "f.count(1) == 1"),
    "shift on the first variable": (localize._linear_total,
                                    "digits[f.index(1)]", "digits[0]"),
    "scale sign not normalized": (localize._point_forms, "s = -s", "pass"),
    "shape placed on the leading variables": (
        localize._linear_total, "[d for d, x in zip(digits, f) if x]",
        "digits[:len(g)]"),
    "point scalar dropped from the first state": (
        localize._linear_total, "{0: sign * L // content}", "{0: 1}"),
    "missing step skipped for every point": (
        localize._linear_total, "if missing or not steps:", "if not steps:"),
}
# (packed polynomial, packed forms, base, quotient): u1 by 2 u1 + u2 has
# none, (2 u1 + u2)(u1 - u2) by both forms is 1
DIVISIONS = [({1: 1}, [[(1, 2), (4, 1)]], 4, None),
             ({2: 2, 5: -1, 8: -1}, [[(1, 2), (4, 1)], [(1, 1), (4, -1)]],
              4, {0: 1})]


def _mutant_catches(function, old, new):
    """How many cases the pass, with ``old`` replaced by ``new`` in the
    source of ``function``, gets wrong."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1
    namespace = dict(vars(localize))
    exec(source.replace(old, new), namespace)
    # the callers of the mutant, rebound to it
    for caller in (localize._evaluated_sums, localize._linear_total):
        if caller is not function:
            exec(textwrap.dedent(inspect.getsource(caller)), namespace)
    cases = [(LINEAR_EDGE_CASES["negative contents"], "todd", 2),
             (LINEAR_EDGE_CASES["repeated form"], "hurewicz", 1),
             (LINEAR_DATA["cp2"], "todd", 1),
             # certified, with signs of both kinds
             (signs_and_weights(simplex_pair(3, (1, 1, 1))), "hurewicz", 0),
             # certified, with a pole
             (CERTIFIED_WITH_A_POLE["cp2 with orientations 1,1,1"],
              "hurewicz", 0),
             (POLE_BELOW_N_MINUS_1, "todd", 0),
             (LINEAR_DATA["cp2:eps=+-/flip1"], "hurewicz", 1),
             (TODD_ONLY, "hurewicz", 1),
             # one shape, (1, -1), on supports past the leading variables
             (dataset("flag3"), "todd", 1)]
    caught = 0
    for fpd, genus_name, order in cases:
        genus = ORACLE_GENERA[genus_name]
        try:
            S, D = namespace["_linear_total"](fpd, genus, order)
        # a partition reached without its sub-partitions, or a coordinate
        # form left with entry -1
        except (LookupError, ValueError):
            caught += 1
            continue
        ref_S, ref_D = _ref_linear_localized_sum(
            fpd, genus, order).over_common_denominator()
        caught += not _same_total(S, D, ref_S, ref_D)
    for poly, forms, base, quotient in DIVISIONS:
        caught += namespace["_divide_forms"](poly, forms, base) != quotient
    # certified data without a pole must not fall through to the torus
    # pass, where a wrong evaluation would go unseen
    caught += namespace["_evaluated_sums"](
        signs_and_weights(simplex_pair(3, (1, 1, 1))), [0, 1, 2, 3]) is None
    return caught


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_hand_made_mutants_of_the_linear_total_fail(mutant):
    function, old, new = MUTANTS[mutant]
    assert _mutant_catches(function, old, old) == 0
    assert _mutant_catches(function, old, new)


# ---------------------------------------------------------------------------
# the integer pre-division against the Fraction division of the chain
# ---------------------------------------------------------------------------

def _by_chain(fpd, genus, mode, order):
    assert mode == "linear"
    return _ref_linear_localized_sum(fpd, genus, order)


def _outcomes(fpd, genus, order):
    """The cf strings and phi in both modes (or the violation), as text."""
    out = [[e.value_str() for e in cf_series(fpd, genus, order)]]
    for mode in ("linear", "universal"):
        try:
            out.append(str(phi(fpd, genus, mode, order)))
        except ConnerFloydViolation as exc:
            out.append("cf_%d: %s" % (exc.l, exc))
    return out


def _outcomes_by_chain(fpd, genus, order):
    """``_outcomes`` with every linear sum built by the chain, so that its
    ``_quotients`` divide by D in Fractions, genus by genus."""
    with mock.patch.object(localize, "localized_sum", _by_chain):
        return _outcomes(fpd, genus, order)


BUILTIN_DATA = {
    **{"cp%d" % n: signs_and_weights(simplex_pair(n, (-1,) * n))
       for n in range(1, 5)},
    "square": signs_and_weights(square_pair(-1, -1, 0, 0)),
    "s6": dataset("s6"),
    "flag3": dataset("flag3"),
}


@st.composite
def builtin_data(draw):
    """A builtin's fixed points, or the same with one sign flipped."""
    fpd = BUILTIN_DATA[draw(st.sampled_from(sorted(BUILTIN_DATA)))]
    flip = draw(st.integers(-1, len(fpd) - 1))
    return fpd if flip < 0 else fpd.flip_one(flip)


@settings(max_examples=200, deadline=None)
@given(fpd=st.one_of(fixed_point_data(), builtin_data()),
       genus_name=st.sampled_from(CATALOG_NAMES),
       order=st.integers(0, 4))
def test_pre_division_matches_the_fraction_division(fpd, genus_name, order):
    genus = catalog(genus_name, max(order, 1), generators=3)
    assert _outcomes(fpd, genus, order) == \
        _outcomes_by_chain(fpd, genus, order)


def _validated_pairs():
    yield from (simplex_pair(n, eps) for n in range(1, 5)
                for eps in itertools.product((1, -1), repeat=n))
    for e1, e2, d1, d2 in itertools.product((1, -1), (1, -1), (-1, 0, 1),
                                            (-1, 0, 1)):
        if abs(e1 * e2 - d1 * d2) == 1:
            yield square_pair(e1, e2, d1, d2)
    cp1, cp2 = simplex_pair(1, (-1,)), simplex_pair(2, (-1, -1))
    yield from (product_pair(cp1, cp1), product_pair(product_pair(cp1, cp1),
                                                     cp1),
                product_pair(cp2, cp1), product_pair(cp2, cp2))


def test_validated_pairs_divide_ahead_and_a_flipped_sign_does_not():
    # the Z_lam hold no genus, so one genus stands for all
    hurewicz = ORACLE_GENERA["hurewicz"]
    pairs = list(_validated_pairs())
    assert len(pairs) == 30 + 20 + 4
    for pair in pairs:
        ls = localized_sum(signs_and_weights(pair), hurewicz, "linear", 2)
        assert ls.common_denominator() == {}
    flipped = LINEAR_DATA["cp2"].flip_one(1)  # the bench's cp2fp-flip1
    ls = localized_sum(flipped, hurewicz, "linear", 2)
    assert ls.common_denominator() == {(0, 1): 1, (1, 0): 1, (1, -1): 1}
    _assert_same_total(ls, _ref_linear_localized_sum(flipped, hurewicz, 2))


# ---------------------------------------------------------------------------
# certified data at order 0: one evaluation at a generic direction
# ---------------------------------------------------------------------------

def _uncertified(fpd):
    return FixedPointData(fpd.n, fpd.k, fpd.points)


def _refuse(*_args):
    raise AssertionError("wrong route")


def _certified_pairs():
    """CP^1 .. CP^5 with every eps, every valid square member with delta
    in {-1, 0, 1}, the bench's products and the 0-dimensional point."""
    pairs = {p.name: p for p in _validated_pairs()}
    pairs.update((p.name, p) for n in (5,)
                 for p in (simplex_pair(n, eps) for eps in
                           itertools.product((1, -1), repeat=n)))
    cp1 = simplex_pair(1, (-1,))
    cp1x3 = product_pair(product_pair(cp1, cp1), cp1, "cp1x3")
    pairs["cp1x4"] = product_pair(cp1x3, cp1, "cp1x4")
    pairs["point"] = from_json_obj({
        "type": "quasitoric", "lambda": [],
        "polytope": {"n": 0, "m": 0, "vertices": [[]], "normals": []}})
    return pairs


CERTIFIED_PAIRS = _certified_pairs()


@functools.cache
def _catalog_genus(name, n):
    # the hurewicz ring has max(n, 1) generators, enough for cf_n
    return catalog(name, max(n, 1))


def _check_lines(path, genus_name):
    """Exit code and lines of check-cf and check-rigidity --order 0 on
    the manifold at ``path``, in text and in JSON."""
    out = []
    for command in ("check-cf", "check-rigidity"):
        for fmt in ("text", "json"):
            job = JobConfig(command=command, input=str(path),
                            genus=genus_name, order=0, format=fmt)
            out.append((command, fmt, run(job), job.lines))
    return out


@pytest.mark.parametrize("name", sorted(CERTIFIED_PAIRS))
def test_certified_genus_value_and_phi_equal_the_torus(name, tmp_path):
    fpd = signs_and_weights(CERTIFIED_PAIRS[name])
    torus = _uncertified(fpd)
    assert fpd.certified and not torus.certified
    # the checks on the pair evaluate; on its raw export, never certified,
    # they run the torus pass
    pair_path, raw_path = tmp_path / "pair.json", tmp_path / "raw.json"
    pair_path.write_text(json.dumps(pair_to_json_obj(CERTIFIED_PAIRS[name])))
    export = JobConfig(command="fixed-points", input=str(pair_path),
                       format="json")
    assert run(export) == 0
    raw_path.write_text(export.lines[0])
    for genus_name in CATALOG_NAMES:
        genus = _catalog_genus(genus_name, fpd.n)
        expected = [str(genus_value(torus, genus))] + [
            str(phi(torus, genus, mode, 0)) for mode in ("linear",
                                                          "universal")]
        expected_checks = _check_lines(raw_path, genus_name)
        with mock.patch.object(localize, "_expand_forms", _refuse):
            got = [str(genus_value(fpd, genus))] + [
                str(phi(fpd, genus, mode, 0)) for mode in ("linear",
                                                            "universal")]
            got_checks = _check_lines(pair_path, genus_name)
        assert got == expected, genus_name
        assert got_checks == expected_checks, genus_name
        assert all(code == 0 for _c, _f, code, _lines in got_checks)


def test_certified_pairs_cover_the_bench_inputs():
    # CP^1 .. CP^5, the squares, (CP^1)^2 .. (CP^1)^4, CP^2 x CP^1,
    # CP^2 x CP^2 and the point
    assert len(CERTIFIED_PAIRS) == 62 + 20 + 5 + 1
    for name in ("cp1:eps=- x cp1:eps=- x cp1:eps=-", "cp1x4",
                 "cp2:eps=-- x cp1:eps=-", "cp2:eps=-- x cp2:eps=--",
                 "point"):
        assert name in CERTIFIED_PAIRS


# the builtin pairs of dimension <= 4 and the bench's raw inputs: CP^2 and
# CP^3 exported as fixed points, s6 and flag3
DIRECT_READ_DATA = {
    **{name: fpd for name, fpd in ((name, signs_and_weights(pair))
                                   for name, pair in CERTIFIED_PAIRS.items())
       if fpd.n <= 4},
    **{"cp%dfp" % n: _uncertified(signs_and_weights(
        simplex_pair(n, (-1,) * n))) for n in (2, 3)},
    "s6": dataset("s6"),
    "flag3": dataset("flag3"),
}


@st.composite
def direct_read_data(draw):
    """An input of ``DIRECT_READ_DATA``, or the same with the sign of
    point 0 or 1 flipped, as the bench flips its raw inputs."""
    fpd = DIRECT_READ_DATA[draw(st.sampled_from(sorted(DIRECT_READ_DATA)))]
    flip = draw(st.sampled_from((None, 0, 1)))
    return fpd if flip is None or flip >= len(fpd) else fpd.flip_one(flip)


@settings(max_examples=100, deadline=None)
@given(fpd=direct_read_data(), genus_name=st.sampled_from(CATALOG_NAMES),
       order=st.integers(0, 4))
def test_cf_series_reads_a_divided_sum_as_the_quotients_do(fpd, genus_name,
                                                           order):
    # a sum over no forms is split by degree without _quotients; the chain
    # sends every sum through _quotients and the Fraction division
    genus = catalog(genus_name, max(order, 1) + fpd.n - 1, generators=3)
    expected = _outcomes_by_chain(fpd, genus, order)
    assert _outcomes(fpd, genus, order) == expected
    if not localized_sum(fpd, genus, "linear", order).common_denominator():
        with mock.patch.object(localize, "localized_sum", _by_chain):
            ref = cf_series(fpd, genus, order)
        with mock.patch.object(LocalizedSum, "_quotients", _refuse):
            got = cf_series(fpd, genus, order)
        # each entry's degree, exactness order and terms, not only its text
        assert [(e.l, e.series.order, e.series.terms) for e in got] == \
            [(e.l, e.series.order, e.series.terms) for e in ref]
        assert [e.value_str() for e in got] == expected[0]


def test_failing_entries_render_the_denominator_once(monkeypatch):
    # CP^3 under elliptic at order 3 with one sign flipped: four failing
    # entries over the six forms of D, each form rendered once, and every
    # entry as the per-entry rendering wrote it
    fpd = signs_and_weights(simplex_pair(3, (-1,) * 3)).flip_one(0)
    genus = catalog("elliptic", 3 + fpd.n - 1)
    cf = cf_series(fpd, genus, 3)
    D = localized_sum(fpd, genus, "linear", 3).common_denominator()
    expected = []
    for e in cf:
        if not e.ok:
            num, _den = e.violation
            expected.append("(%s) / [%s]" % (num, " ".join(
                "(%s)%s" % (MultiSeries.linear_form(num.ring, num.k, 1, f),
                            "^%d" % m if m > 1 else "")
                for f, m in sorted(D.items()))))
    assert (len(expected), len(D)) == (4, 6)
    calls = []
    linear_form = MultiSeries.linear_form.__func__
    monkeypatch.setattr(MultiSeries, "linear_form", classmethod(
        lambda cls, *args: calls.append(args) or linear_form(cls, *args)))
    assert [e.value_str() for e in cf if not e.ok] == expected
    assert len(calls) == len(D)


@pytest.mark.parametrize("name", ["cp1:eps=-", "cp2:eps=+-", "cp3:eps=---",
                                  "cp4:eps=+-+-", "square:eps=1,-1:delta=0,1",
                                  "cp2:eps=-- x cp1:eps=-", "point"])
@pytest.mark.parametrize("genus_name", ["todd", "hurewicz", "krichever"])
def test_certified_data_above_order_0_keep_the_torus_pass(
        name, genus_name, monkeypatch):
    fpd = signs_and_weights(CERTIFIED_PAIRS[name])
    monkeypatch.setattr(localize, "_evaluated_sums", _refuse)
    for order in (1, 2, 3):
        genus = catalog(genus_name, order + fpd.n)
        new, ref = (localized_sum(data, genus, "linear", order)
                    for data in (fpd, _uncertified(fpd)))
        assert [(S.terms, S.order, D) for S, D in new] == \
            [(S.terms, S.order, D) for S, D in ref]


@pytest.mark.parametrize("name", sorted(CERTIFIED_WITH_A_POLE))
def test_certified_data_with_a_pole_take_the_torus_pass(name):
    # a non-zero q_lam with |lam| < n at the generic direction sends the
    # data on to the torus pass, which reports the violation
    fpd = CERTIFIED_WITH_A_POLE[name]
    assert fpd.certified
    assert localize._evaluated_sums(fpd, list(range(fpd.n + 1))) is None
    for genus_name in CATALOG_NAMES:
        genus = _catalog_genus(genus_name, fpd.n)
        outcomes = []
        for data in (fpd, _uncertified(fpd)):
            try:
                outcomes.append(str(genus_value(data, genus)))
            except ConnerFloydViolation as exc:
                outcomes.append(str(exc))
            cf = cf_series(data, genus, 0)
            outcomes.append([e.value_str() for e in cf])
        assert outcomes[:2] == outcomes[2:], genus_name
        assert outcomes[0] == \
            "Conner-Floyd relation cf_0 = 0 is violated", genus_name
    for mode in ("linear", "universal"):
        with pytest.raises(ConnerFloydViolation):
            phi(fpd, _catalog_genus("hurewicz", fpd.n), mode, 0)


@pytest.mark.parametrize("name", sorted(EDGE_RULE_BROKEN))
def test_a_pair_whose_signs_break_the_edge_rule_is_invalid(name, tmp_path,
                                                           capsys):
    # both once validated, and the fixed points of each had a pole
    obj, problems = EDGE_RULE_BROKEN[name]
    pair = from_json_obj(obj)
    assert validate_pair(pair).problems == problems
    with pytest.raises(InvalidPairError, match=re.escape(problems[0])):
        signs_and_weights(pair)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", "--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "".join("violation: %s\n" % p
                                      for p in problems) + "invalid\n")
    for command in ("genus", "check-cf", "check-rigidity", "special-check"):
        assert main([command, "--input", str(path), "--genus", "todd",
                     "--order", "0"]) == 1
        assert capsys.readouterr().err == \
            "error: invalid pair: %s\n" % "; ".join(problems)


def test_a_pair_missing_a_vertex_is_invalid(tmp_path, capsys):
    # CP^1 listing vertex [1] alone once validated and had a pole; its
    # one ridge, the whole interval, lies on one listed vertex
    problem = "ridge () lies on 1 of the listed vertices, not 2"
    with pytest.raises(InvalidPairError, match=re.escape(problem)):
        signs_and_weights(from_json_obj(CP1_WITH_ONE_VERTEX))
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(CP1_WITH_ONE_VERTEX))
    assert main(["validate", "--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "violation: %s\ninvalid\n" % problem)
    for genus_name in ("todd", "hurewicz", "krichever"):
        assert main(["genus", "--input", str(path), "--genus", genus_name,
                     "--order", "2"]) == 1
        assert capsys.readouterr().err == \
            "error: invalid pair: %s\n" % problem


def _partitions(n, most=None):
    """The partitions of n, as descending tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, most or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@functools.cache
def _orderings(lam, length):
    """The distinct orderings of lam padded with zeros to ``length``."""
    return tuple(set(itertools.permutations(
        tuple(lam) + (0,) * (length - len(lam)))))


def _monomial(lam, c):
    """m_lam(c), the sum of c^alpha over the distinct orderings alpha of
    lam padded with zeros; 0 when lam has more parts than c."""
    if len(lam) > len(c):
        return 0
    return sum(prod(x ** a for x, a in zip(c, alpha))
               for alpha in _orderings(tuple(lam), len(c)))


@pytest.mark.parametrize("name", sorted(CERTIFIED_PAIRS))
def test_evaluated_sums_equal_fractions_at_another_direction(name):
    # q_lam is a constant, so a second generic direction, summed in
    # Fractions over every partition of n, must give the same L q_lam
    fpd = signs_and_weights(CERTIFIED_PAIRS[name])
    n = fpd.n
    L, nums = localize._evaluated_sums(fpd, list(range(n + 1)))
    W = max((abs(x) for p in fpd.points for w in p.weights for x in w),
            default=0)
    nu = tuple((2 * W + 3) ** i for i in range(fpd.k))
    assert nu != generic_direction(fpd) or fpd.k <= 1
    zero = (0,) * fpd.k
    assert set(nums) <= set(_partitions(n))
    for lam in _partitions(n):
        q = 0
        for p in fpd.points:
            c = [sum(a * b for a, b in zip(w, nu)) for w in p.weights]
            q += F(p.sign * _monomial(lam, c), prod(c))
        assert F(nums.get(lam, {zero: 0})[zero], L) == q, lam


def _ref_evaluated_sums(fpd, T):
    """The partition walk the power sums replaced: ``_linear_total``'s
    walk on plain ints at the generic direction, with rows c_j^t for t in
    T and one state per partition of the degrees used so far; None when
    a walked q_lam with |lam| < n is non-zero."""
    n = fpd.n
    nu = generic_direction(fpd)
    points = [(point.sign, [sum(a * b for a, b in zip(w, nu))
                            for w in point.weights])
              for point in fpd.points]
    L = lcm(*(prod(c) for _sign, c in points))
    Z = Counter()
    for sign, c in points:
        states = {(): sign * L // prod(c)}
        for cj in c:
            rows = [(t, cj ** t) for t in T]
            grown = {}
            for mu, v in states.items():
                room = n - sum(mu)
                for t, p in rows:
                    if t > room:
                        break
                    lam = tuple(sorted(mu + (t,), reverse=True)) if t else mu
                    grown[lam] = grown.get(lam, 0) + v * p
            states = grown
        Z.update(states)
    if any(v for lam, v in Z.items() if sum(lam) < n):
        return None
    zero = (0,) * fpd.k
    return L, {lam: {zero: v} for lam, v in Z.items() if sum(lam) == n}


# the certified builtin families: CP^1 .. CP^5, the squares and the
# products above, and CP^6, CP^7 (the n = 7 table) with two eps each
EVALUATED_PAIRS = {**CERTIFIED_PAIRS, **{p.name: p for p in (
    simplex_pair(n, eps) for n in (6, 7)
    for eps in ((-1,) * n, (1, -1) * (n // 2) + (1,) * (n % 2)))}}


@pytest.mark.parametrize("name", sorted(EVALUATED_PAIRS))
def test_evaluated_sums_match_the_partition_walk(name):
    fpd = signs_and_weights(EVALUATED_PAIRS[name])
    n = fpd.n
    # every degree, no odd one (signature), and a_+ = 1 (augmentation)
    for T in (list(range(n + 1)), list(range(0, n + 1, 2)), [0]):
        got = localize._evaluated_sums(fpd, T)
        assert got is not None
        assert got == _ref_evaluated_sums(fpd, T), T


def test_a_warm_evaluation_enumerates_no_partition(monkeypatch):
    # the constants of n and lam are built once; after that each point
    # costs its power sums and one product per partition, and no tuple
    fpd = signs_and_weights(simplex_pair(5, (1, -1, 1, -1, 1)))
    T = list(range(6))
    expected = localize._evaluated_sums(fpd, T)
    for name in ("partitions", "_p_in_m"):
        monkeypatch.setattr(localize, name, _refuse)
    assert localize._evaluated_sums(fpd, T) == expected


@st.composite
def evaluation_data(draw):
    """Fixed points with n 0-6 and k 1-4 and the degrees T of a unit:
    random points and signs, whose sums mostly have poles, or one of two
    torus manifolds, whose sums are power series: CP^n acting through
    distinct vectors x_0 .. x_n (weights x_j - x_i at point i), and, for
    n <= 4, a product of n spheres turned by vectors a_i."""
    n, k = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    vector = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
    kind = draw(st.sampled_from(("random", "projective", "spheres")))
    sign = draw(st.sampled_from((1, -1)))
    if kind == "projective":
        xs = draw(st.lists(vector.map(tuple), min_size=n + 1,
                           max_size=n + 1, unique=True))
        points = [FixedPoint("x", sign, [tuple(a - b for a, b in zip(y, x))
                                         for y in xs if y != x])
                  for x in xs]
    elif kind == "spheres" and n <= 4:
        axes = draw(st.lists(vector.filter(any), min_size=n, max_size=n))
        points = [FixedPoint("x", sign, [tuple(e * x for x in a)
                                         for e, a in zip(ends, axes)])
                  for ends in itertools.product((1, -1), repeat=n)]
    else:
        vector = vector.filter(any)
        points = draw(st.lists(
            st.builds(FixedPoint, st.just("x"), st.sampled_from((1, -1)),
                      st.lists(vector, min_size=n, max_size=n)),
            min_size=1, max_size=4))
    T = sorted({0} | set(draw(st.lists(st.integers(1, 6), max_size=4))))
    return FixedPointData(n, k, points), T


@settings(max_examples=200, deadline=None)
@given(evaluation_data())
def test_evaluated_sums_equal_the_fraction_sums(data):
    # q_lam = sum_x sign m_lam(c) / E_x by brute force over every lam with
    # |lam| <= n: None exactly when one with |lam| < n is non-zero, and
    # otherwise L q_lam for each lam |- n with parts in T
    fpd, T = data
    n = fpd.n
    nu = generic_direction(fpd)
    cs = [(p.sign, [sum(a * b for a, b in zip(w, nu)) for w in p.weights])
          for p in fpd.points]
    q = {lam: sum(F(sign * _monomial(lam, c), prod(c)) for sign, c in cs)
         for size in range(n + 1) for lam in _partitions(size)}
    got = localize._evaluated_sums(fpd, T)
    pole = any(v for lam, v in q.items() if sum(lam) < n)
    assert (got is None) == pole
    if not pole:
        L, nums = got
        zero = (0,) * fpd.k
        assert sorted(nums) == sorted(lam for lam in _partitions(n)
                                      if set(lam) <= set(T))
        for lam, poly in nums.items():
            assert F(poly[zero], L) == q[lam], lam


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 8), c=st.lists(st.integers(-5, 5), max_size=6))
def test_m_in_p_rows_turn_power_sums_into_monomials(n, c):
    # den m_lam(c) = sum_mu r p_mu(c) for every lam |- n, where each row
    # is keyed by descending mu |- n and p_mu is the product of the power
    # sums of c over the parts of mu
    p = [sum(x ** d for x in c) for d in range(n + 1)]
    for lam in _partitions(n):
        den, row = result = localize._m_in_p(lam)
        assert localize._m_in_p(lam) is result  # built once per lam
        assert den > 0 and {mu for mu, _r in row} <= set(_partitions(n))
        assert den * _monomial(lam, c) == sum(
            r * prod(p[part] for part in mu) for mu, r in row), lam


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 8), T=st.sets(st.integers(1, 8)))
def test_evaluation_plan_forms_only_the_products_a_row_reads(n, T):
    # each step forms p_mu from a place before it; the places below low
    # are every |mu| < n, for the pole check, and the others exactly the
    # mu |- n that the rows of the lam |- n with parts in T read
    T = tuple(sorted(T | {0}))
    low, steps, rows = localize._evaluation_plan(n, T)
    mus = [()]
    for parent, part in steps:
        assert parent < len(mus)
        mus.append(tuple(sorted(mus[parent] + (part,), reverse=True)))
    assert len(set(mus)) == len(mus)
    assert [sum(mu) for mu in mus] == sorted(sum(mu) for mu in mus)
    assert sorted(mus[:low]) == sorted(mu for size in range(n)
                                       for mu in _partitions(size))
    lams = [lam for lam in _partitions(n) if set(lam) <= set(T)]
    read = {mu for lam in lams for mu, _r in localize._m_in_p(lam)[1]}
    assert set(mus[low:]) == read - set(mus[:low])
    assert [lam for lam, _den, _row in rows] == lams
    for lam, den, row in rows:
        assert (den, tuple((mus[i], r) for i, r in row)) == \
            localize._m_in_p(lam)


def test_an_even_unit_reads_fewer_products():
    # on CP^7 an even unit reads none of the 15 products of degree 7, so
    # each point forms 29 of the 44; on CP^6 it reads 3 of 11 (the values
    # are checked by test_evaluated_sums_match_the_partition_walk)
    for n, genus_name, count in ((7, "signature", 29), (7, "elliptic", 29),
                                 (7, "todd", 44), (6, "signature", 21),
                                 (6, "todd", 29)):
        _den, rows = catalog(genus_name, n)._a_plus_rows(n)
        _low, steps, _rows = localize._evaluation_plan(n, tuple(sorted(rows)))
        assert len(steps) == count, (n, genus_name)
    # the 44 are every non-empty partition of size at most 7
    assert sum(1 for size in range(1, 8) for _mu in _partitions(size)) == 44


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_a_plus_rows_equal_the_boxed_unit(name):
    # a_+ straight off the exponential's rows, against GenusSpec.a_plus(),
    # which boxes them, and against Miller's recurrence on b_+, the
    # independent reference, term by term; the genus is built exact to 3,
    # so tops 1 and 2 truncate it and 3..10 rebuild it
    for generators in range(1, 7) if name == "hurewicz" else (None,):
        genus = catalog(name, 1, generators=generators)
        for top in range(1, 11):
            den, rows = genus._a_plus_rows(top)
            spec = genus.at_order(top + 1)
            for unit in (spec.a_plus(), spec.b_plus()._recurrence(0, -1)):
                ref_den, ref = _flatten(unit.terms, top)
                assert den == ref_den, (generators, top)
                assert {t: dict(p) for t, p in rows.items()} == \
                    {d: dict(p) for _e, d, p in ref}, (generators, top)


# ---------------------------------------------------------------------------
# the certification flag
# ---------------------------------------------------------------------------

def test_only_a_validated_pair_and_its_flip_are_certified(tmp_path):
    pair = simplex_pair(3, (1, -1, 1))
    fpd = signs_and_weights(pair)
    assert fpd.certified
    todd = catalog("todd", 3)
    assert fpd.flipped().certified
    assert fpd.flipped().flipped().certified
    assert str(genus_value(fpd.flipped(), todd)) == \
        str(-genus_value(fpd, todd))
    assert str(genus_value(fpd, todd)) == \
        str(genus_value(_uncertified(fpd), todd))
    path = tmp_path / "fpd.json"
    path.write_text(json.dumps(fpd_to_json_obj(fpd)))
    uncertified = [
        fpd.flip_one(0),
        fpd.flip_one(0).flip_one(0),
        restrict_to_subcircle(fpd, generic_direction(fpd)),
        load_manifold(str(path)),
        FixedPointData(fpd.n, fpd.k, fpd.points),
        _uncertified(fpd).flipped(),
        dataset("s6"),
        dataset("cp1"),
    ]
    assert not any(data.certified for data in uncertified)


def test_pairing_blocks_are_not_certified(monkeypatch):
    seen = []
    real = localize.localized_sum

    def recording(fpd, genus, mode, order):
        seen.append(fpd.certified)
        return real(fpd, genus, mode, order)

    monkeypatch.setattr(localize, "localized_sum", recording)
    fpd = signs_and_weights(square_pair(-1, -1, 0, 0))
    assert fpd.certified
    pairing_obstruction(fpd, search=True)
    assert seen and not any(seen)


def test_no_json_key_or_cli_option_certifies_data(tmp_path, monkeypatch,
                                                  capsys):
    obj = fpd_to_json_obj(dataset("s6"))
    for key in ("certified", "certificate", "trusted"):
        obj[key] = True
    assert not from_json_obj(obj).certified
    path = tmp_path / "s6.json"
    path.write_text(json.dumps(obj))
    monkeypatch.setattr(localize, "_evaluated_sums", _refuse)
    assert main(["genus", "--input", str(path), "--genus", "hurewicz",
                 "--order", "3"]) == 0
    assert capsys.readouterr().out == \
        "genus_value: -2*b1^3 + 6*b1*b2 - 6*b3\n"
    options = [o for action in build_parser()._actions
               for o in action.option_strings]
    assert not [o for o in options if "cert" in o or "trust" in o]
    with pytest.raises(SystemExit):
        main(["genus", "--input", str(path), "--genus", "todd",
              "--certified"])


@pytest.mark.parametrize("genus_name, code, verdict", [
    ("todd", 0, "pass"), ("hurewicz", 2, "fail at cf_2")])
def test_data_passing_todd_alone_take_the_fraction_division(
        genus_name, code, verdict, tmp_path, capsys):
    genus = catalog(genus_name, 3)
    ls = localized_sum(TODD_ONLY, genus, "linear", 1)
    assert ls.common_denominator() == {(1,): 3}
    _assert_same_total(ls, _ref_linear_localized_sum(TODD_ONLY, genus, 1))
    assert _outcomes(TODD_ONLY, genus, 1) == \
        _outcomes_by_chain(TODD_ONLY, genus, 1)
    path = tmp_path / "todd_only.json"
    path.write_text(json.dumps(fpd_to_json_obj(TODD_ONLY)))
    assert main(["check-cf", "--input", str(path), "--genus", genus_name,
                 "--order", "1"]) == code
    assert capsys.readouterr().out.splitlines()[-1] == verdict


def _point_product(spec, point, k, order):
    """The product of the weight series [w](u) at ``point``, exact to
    ``order``, as a chain of ``*`` calls."""
    prod = MultiSeries.constant(spec.ring, k, order, 1)
    for w in point.weights:
        prod = prod * weight_series(spec, w, k)
    return prod


def _ref_universal_localized_sum(fpd, genus, order):
    """The universal localized sum with each point's product taken as a
    ``*`` chain: exact division by the primitive forms that divide it,
    then a geometric tail over the residual ones."""
    k, n = fpd.k, fpd.n
    ls = LocalizedSum(genus.ring, k, order)
    exact = order + 2 * n
    for point in fpd.points:
        prims, content = [], 1
        for w in point.weights:
            prim, s = canonical_linear_form(w)
            prims.append(prim)
            content *= s
        Q = _point_product(genus.at_order(exact), point, k, exact)
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
        n_h, n_r = len(divided), len(residual)
        imax = order + n
        big = order + 2 * n_h + (imax + 1) * n_r
        Q = _point_product(genus.at_order(big), point, k, big)
        for prim in divided:
            Q = Q.divide_linear(prim)
        R = Q - Q.homogeneous_component(n_r)
        rpow = MultiSeries.constant(genus.ring, k, Q.order, 1)
        for i in range(imax + 1):
            num = rpow.truncate(order + n_h + (i + 1) * n_r)
            num = num.scale(F(point.sign * (-1) ** i, content ** (i + 1)))
            if not num.is_zero():
                ls.add_term(num, Counter(divided + residual * (i + 1)))
            rpow = rpow * R
            if rpow.is_zero():
                break
    return ls


@pytest.mark.parametrize("fpd", [
    dataset("s6"),
    dataset("flag3"),
    signs_and_weights(simplex_pair(2, (-1, -1))),
    signs_and_weights(simplex_pair(3, (1, -1, 1))),
], ids=["s6", "flag3", "cp2", "cp3:eps=+-+"])
@pytest.mark.parametrize("genus_name", ["todd", "hurewicz"])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_universal_point_products_match_the_chain(fpd, genus_name, order):
    genus = catalog(genus_name, max(order, 1))
    new = localized_sum(fpd, genus, "universal", order)
    ref = _ref_universal_localized_sum(fpd, genus, order)
    assert new.order == ref.order == order
    assert len(new) == len(ref)
    for (num, den), (ref_num, ref_den) in zip(new, ref):
        assert num.terms == ref_num.terms
        assert num.order == ref_num.order
        assert Counter(den) == ref_den


def test_localized_sum_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode must be"):
        localized_sum(dataset("cp1"), catalog("todd", 2), "affine", 2)


# ---------------------------------------------------------------------------
# phi
# ---------------------------------------------------------------------------

def test_phi_cp1_hurewicz_linear_constant():
    hr = catalog("hurewicz", 6)
    series = phi(dataset("cp1"), hr, "linear", 6)
    b1 = _gen(hr, "b1")
    assert series.constant_term() == b1 * -2


def test_phi_cp1_universal_localized_sum_structure():
    # the universal-mode sum is 1/u + 1/[-1](u)
    hr = catalog("hurewicz", 6)
    ls = localized_sum(dataset("cp1"), hr, "universal", 6)
    assert len(ls) == 2
    (n1, d1), (n2, d2) = ls.terms
    assert d1 == {(1,): 1} and d2 == {(1,): 1}
    one = MultiSeries.constant(hr.ring, 1, 6, 1)
    assert n1.agrees_with(one, 6)
    minus = m_series(hr.at_order(8), -1)
    u = MultiSeries.variable(hr.ring, 1, 6, 0)
    # n2 / u == 1 / [-1](u), i.e. n2 * [-1](u) == u
    assert (n2 * minus).agrees_with(u, 6)


def test_phi_universal_equals_linear_after_logarithm_cp1():
    hr = catalog("hurewicz", 6)
    uni = phi(dataset("cp1"), hr, "universal", 6)
    slow = localized_sum(dataset("cp1"), hr, "universal", 6).normalize()
    assert uni == slow


def test_phi_universal_slow_path_matches_fast_path():
    td = catalog("todd", 5)
    for fpd, order in ((dataset("cp1"), 5), (dataset("s6"), 4),
                       (signs_and_weights(simplex_pair(2, (-1, -1))), 4)):
        fast = phi(fpd, td, "universal", order)
        slow = localized_sum(fpd, td, "universal", order).normalize()
        assert fast == slow, fpd


def test_phi_universal_slow_path_odd_degrees():
    # CP^2_(1,-1) has a weight of the form e1 + e2, so its universal sum
    # takes the geometric-tail path, and the series is not even: the top
    # odd degree exercises the tail's last term
    hr = catalog("hurewicz", 5)
    fpd = signs_and_weights(simplex_pair(2, (1, -1)))
    for order in (3, 5):
        fast = phi(fpd, hr, "universal", order)
        slow = localized_sum(fpd, hr, "universal", order).normalize()
        assert slow.order >= order
        assert fast == slow, order


def test_phi_cpn_todd_constant():
    td = catalog("todd", 4)
    z = _gen(td, "z")
    for n in (1, 2, 3, 4):
        fpd = signs_and_weights(simplex_pair(n, (-1,) * n))
        val = genus_value(fpd, td)
        assert val == (-z) ** n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cpn_genus_is_hirzebruchs_coefficient(n):
    # phi(CP^n) = [x^n] a_+(x)^(n+1), the classical formula, which takes no
    # localization and no division
    fpd = signs_and_weights(simplex_pair(n, (-1,) * n))
    for name in CATALOG_NAMES:
        spec = catalog(name, n)
        want = (spec.at_order(n + 1).a_plus() ** (n + 1)).coefficient((n,))
        assert genus_value(fpd, spec) == want, name


def test_phi_invalid_data_raises():
    bad = dataset("s6").flip_one(1)
    ag = catalog("augmentation", 4)
    with pytest.raises(ConnerFloydViolation) as err:
        phi(bad, ag, "linear", 4)
    assert err.value.l == 0


# ---------------------------------------------------------------------------
# cf series
# ---------------------------------------------------------------------------

def test_cf_s6_hurewicz():
    hr = catalog("hurewicz", 4)
    cf = cf_series(dataset("s6"), hr, 0)
    assert cf.entry(0).is_zero()
    assert cf.entry(1).is_zero()
    assert cf.entry(2).is_zero()
    b1, b2, b3 = (_gen(hr, n) for n in ("b1", "b2", "b3"))
    expect = (-(b1 ** 3) + b1 * b2 * 3 - b3 * 3) * 2
    assert cf.genus_value() == expect


def test_cf_cp1_todd():
    td = catalog("todd", 4)
    cf = cf_series(dataset("cp1"), td, 0)
    assert cf.entry(0).is_zero()
    assert cf.genus_value() == -_gen(td, "z")


def test_cf_homogeneity():
    hr = catalog("hurewicz", 4)
    cf = cf_series(dataset("s6"), hr, 3)
    for entry in cf:
        if entry.l >= cf.n and entry.ok:
            for e in entry.series.terms:
                assert sum(e) == entry.l - cf.n


def test_check_conner_floyd_flag3():
    hr = catalog("hurewicz", 4)
    cf = cf_series(dataset("flag3"), hr, 1)
    assert cf.conner_floyd_ok()
    assert cf.first_violation() is None


def test_check_conner_floyd_corrupted_s6():
    bad = dataset("s6").flip_one(0)
    hr = catalog("hurewicz", 3)
    cf = cf_series(bad, hr, 0)
    assert not cf.conner_floyd_ok()
    assert cf.first_violation() == 0
    assert not cf.entry(0).ok
    assert "/" in cf.entry(0).value_str()


def test_genus_value_raises_at_the_first_violation():
    bad = dataset("s6").flip_one(0)
    hr = catalog("hurewicz", 3)
    for compute in (lambda: cf_series(bad, hr, 0).genus_value(),
                    lambda: genus_value(bad, hr)):
        with pytest.raises(ConnerFloydViolation) as err:
            compute()
        assert err.value.l == 0
        assert str(err.value) == "Conner-Floyd relation cf_0 = 0 is violated"


# raw data whose cf_0 vanishes but whose cf_1 does not, for every genus
# with a non-zero first coefficient
HALF = FixedPointData(2, 2, [FixedPoint("a", 1, [(1, 0), (0, 1)]),
                             FixedPoint("b", 1, [(-1, 0), (0, 1)])])
CF_DATA = {
    "s6": dataset("s6"),
    "flag3": dataset("flag3"),
    "cp2": signs_and_weights(simplex_pair(2, (-1, -1))),
    "cp3": signs_and_weights(simplex_pair(3, (-1, -1, -1))),
    "half": HALF,
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CF_DATA)),
       st.sampled_from(["hurewicz", "todd", "signature", "t2", "elliptic",
                        "krichever"]),
       st.integers(0, 3), st.integers(-1, 5))
def test_phi_and_cf_series_agree(name, genus_name, order, flip):
    # flip < 0 keeps the data; otherwise one fixed point changes sign
    fpd = CF_DATA[name]
    if flip >= 0:
        fpd = fpd.flip_one(flip % len(fpd))
    genus = catalog(genus_name, order + fpd.n, generators=3)  # hurewicz only
    cf = cf_series(fpd, genus, order)
    first = cf.first_violation()
    if flip < 0 and name != "half":
        assert first is None  # the fixed points of a manifold
    try:
        series = phi(fpd, genus, "linear", order)
    except ConnerFloydViolation as exc:
        assert first is not None and exc.l == first
        return
    assert first is None
    terms = {}
    for e in cf:
        if e.l >= cf.n:
            terms.update(e.series.terms)
    assert series == MultiSeries(genus.ring, fpd.k, order, terms)


def test_flag3_value_matches_p_omega_alternating_sum():
    hr = catalog("hurewicz", 4)
    cf = cf_series(dataset("flag3"), hr, 0)
    flag_value = cf.genus_value()

    table = p_omega(3, hr, 3)
    delta = (2, 1, 0)
    total = Poly.zero(hr.ring)
    for perm in itertools.permutations(range(3)):
        omega = tuple(delta[p] for p in perm)
        sign = _parity(perm)
        total = total + table.get(omega, Poly.zero(hr.ring)) * sign
    assert total == flag_value


def _parity(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def test_p_omega_two_variables():
    hr = catalog("hurewicz", 4)
    table = p_omega(2, hr, 2)
    b1 = _gen(hr, "b1")
    assert table[(1, 0)] == -b1      # a1
    assert table[(0, 1)] == b1       # -a1


def test_p_omega_augmentation_trivial():
    ag = catalog("augmentation", 4)
    table = p_omega(3, ag, 3)
    assert all(not any(e) for e in table)


# ---------------------------------------------------------------------------
# genus values on projective spaces: dual route via the logarithm
# ---------------------------------------------------------------------------

def test_signature_and_cn_values():
    sg = catalog("signature", 4)
    z = _gen(sg, "z")
    assert genus_value(signs_and_weights(simplex_pair(2, (-1, -1))), sg) == z * z
    cg = catalog("cn", 4)
    v = _gen(cg, "v")
    for n in (1, 2, 3):
        fpd = signs_and_weights(simplex_pair(n, (-1,) * n))
        assert genus_value(fpd, cg) == v ** n * (n + 1)
        assert genus_value(fpd, cg) == projective_space_value(cg, n)


def test_bounding_cp1_vanishes_for_every_genus():
    fpd = signs_and_weights(simplex_pair(1, (1,)))
    for name in ("hurewicz", "todd", "krichever", "elliptic", "t2"):
        assert genus_value(fpd, catalog(name, 3)).is_zero(), name


def test_augmentation_cpn_identity():
    ag = catalog("augmentation", 6)
    for n in (1, 2, 3, 4):
        fpd = signs_and_weights(simplex_pair(n, (-1,) * n))
        assert phi(fpd, ag, "linear", 6).is_zero()
        assert phi(fpd, ag, "universal", 6).is_zero()


def test_sign_sensitivity():
    ag = catalog("augmentation", 3)
    for name in ("s6", "cp1"):
        fpd = dataset(name)
        for i in range(len(fpd)):
            cf = cf_series(fpd.flip_one(i), ag, 0)
            assert not cf.conner_floyd_ok(), (name, i)


# ---------------------------------------------------------------------------
# rigidity
# ---------------------------------------------------------------------------

def test_rigidity_s6_krichever():
    kv = catalog("krichever", 4)
    cf = cf_series(dataset("s6"), kv, 4)
    assert cf.conner_floyd_ok()
    assert cf.rigid()


def test_rigidity_cp2e_t2():
    t2 = catalog("t2", 4)
    fpd = signs_and_weights(simplex_pair(2, (1, -1)))
    cf = cf_series(fpd, t2, 4)
    assert cf.rigid()
    y, z = _gen(t2, "y"), _gen(t2, "z")
    assert cf.genus_value() == y * z  # the constant of the t2 equation


def test_rigidity_fails_for_universal_genus():
    hr = catalog("hurewicz", 2)
    fpd = signs_and_weights(simplex_pair(2, (-1, -1)))
    cf = cf_series(fpd, hr, 2)
    assert cf.conner_floyd_ok()
    assert not cf.rigid()
    # the linear-mode series of CP^2 is even, so the first non-constant
    # coefficient sits in degree two
    assert cf.entry(3).is_zero()
    assert not cf.entry(4).is_zero()


def test_signature_rigid_on_cp2():
    sg = catalog("signature", 4)
    fpd = signs_and_weights(simplex_pair(2, (-1, -1)))
    assert cf_series(fpd, sg, 4).rigid()


# ---------------------------------------------------------------------------
# functional equations
# ---------------------------------------------------------------------------

def test_functional_equation_cp1_todd():
    td = catalog("todd", 6)
    c = functional_equation_check("cp1", td, 6)
    assert c == -_gen(td, "z")


def test_functional_equation_cp2_t2():
    t2 = catalog("t2", 5)
    c = functional_equation_check("cp2", t2, 5)
    y, z = _gen(t2, "y"), _gen(t2, "z")
    assert c == y * z
    # the companion one-variable constant c' = 1/f(u) + 1/f(-u)
    cp = functional_equation_check("cp1", t2, 5)
    assert cp == -(y + z)


def test_functional_equation_s6_krichever_constant():
    kv = catalog("krichever", 4)
    c = functional_equation_check("s6", kv, 4)
    assert c == genus_value(dataset("s6"), kv)


def test_functional_equation_failure():
    hr = catalog("hurewicz", 3)
    with pytest.raises(FunctionalEquationError):
        functional_equation_check("cp1", hr, 3)


def test_functional_equation_s6_todd_vanishes():
    # todd sits inside the Krichever family (c = 1, d = 0, a = -z), so it
    # satisfies the six-dimensional equation; its constant is 0
    td = catalog("todd", 4)
    assert functional_equation_check("s6", td, 4).is_zero()


def test_functional_equation_s6_hurewicz_fails():
    hr = catalog("hurewicz", 4)
    with pytest.raises(FunctionalEquationError):
        functional_equation_check("s6", hr, 4)


# ---------------------------------------------------------------------------
# special omniorientations
# ---------------------------------------------------------------------------

def test_special_vanishing_square():
    pair = square_pair(-1, 1, 2, 0)
    kv = catalog("krichever", 4)
    hr = catalog("hurewicz", 2)
    report = special_vanishing_check(pair, 4, kv, hr)
    assert report.kv_value.is_zero()
    assert report.kv_rigid
    assert report.hr_value.is_zero()
    assert report.ok


def test_special_vanishing_cp1_bounding():
    pair = simplex_pair(1, (1,))
    kv = catalog("krichever", 3)
    hr = catalog("hurewicz", 1)
    report = special_vanishing_check(pair, 3, kv, hr)
    assert report.ok


def test_special_vanishing_precondition():
    kv = catalog("krichever", 3)
    with pytest.raises(ValueError):
        special_vanishing_check(simplex_pair(2, (-1, -1)), 3, kv)


def _special_simplices(n):
    return [eps for eps in itertools.product((1, -1), repeat=n)
            if special_check(simplex_pair(n, eps).lam)]


@pytest.mark.parametrize("n, order, count", [(3, 3, 3), (5, 2, 10)])
def test_krichever_vanishes_rigidly_on_special_projective_spaces(n, order,
                                                                 count):
    # the paper's SU theorem: Krichever's genus is rigid on SU-manifolds,
    # and the specially omnioriented CP^n are SU examples (CP^7's 35 wait
    # for a localization that does not build the common denominator)
    special = _special_simplices(n)
    assert len(special) == count
    kv = catalog("krichever", order + n - 1)
    for eps in special:
        report = special_vanishing(signs_and_weights(simplex_pair(n, eps)),
                                   order, kv)
        assert report.kv_value.is_zero() and report.kv_rigid, eps


def _nudged_krichever(M):
    """The Krichever exponential with a^2 added to its x^3 coefficient."""
    return krichever_exponential(M).exponential + MultiSeries(
        _KRING, 1, M, {(3,): Poly.gen(_KRING, "a", 2)})


def test_special_vanishing_fails_for_a_nudged_krichever_exponential():
    # the check can fail: one changed coefficient keeps the three special
    # CP^3 at order 1 and loses their rigidity at order 2
    nudged = GenusSpec("nudged", _nudged_krichever(4), _nudged_krichever)
    special = _special_simplices(3)
    assert len(special) == 3
    for order, rigid in ((1, True), (2, False)):
        for eps in special:
            report = special_vanishing(
                signs_and_weights(simplex_pair(3, eps)), order, nudged)
            assert report.kv_value.is_zero()
            assert (report.kv_rigid, report.ok) == (rigid, rigid), \
                (order, eps)


# ---------------------------------------------------------------------------
# pairing obstruction
# ---------------------------------------------------------------------------

def test_pairing_square_delta2_zero():
    fpd = signs_and_weights(square_pair(-1, -1, 1, 0))
    # vertex order: x1 = {1,2}, x2 = {2,3}, x3 = {3,4}, x4 = {1,4}
    report = pairing_obstruction(fpd, blocks=[[0, 3], [1, 2]])
    assert report.ok
    report = pairing_obstruction(fpd, blocks=[[0, 1], [2, 3]])
    assert not report.ok


def test_pairing_square_delta1_zero():
    fpd = signs_and_weights(square_pair(-1, -1, 0, 1))
    report = pairing_obstruction(fpd, blocks=[[0, 1], [2, 3]])
    assert report.ok


def test_pairing_search_iff_delta_product_zero():
    for e1, e2 in itertools.product((1, -1), repeat=2):
        for d1, d2 in itertools.product(range(-2, 3), repeat=2):
            if abs(e1 * e2 - d1 * d2) != 1:
                continue
            fpd = signs_and_weights(square_pair(e1, e2, d1, d2))
            found = pairing_obstruction(fpd, search=True)
            if d1 * d2 == 0:
                assert found, (e1, e2, d1, d2)
            else:
                assert not found, (e1, e2, d1, d2)
            # {x1, x3} never vanishes, in any pairing
            for rep in found:
                assert [0, 2] not in rep.blocks


def _ref_block_vanishes(fpd, indices):
    """The block check with the augmentation genus built by the caller:
    the localized sum over the block, cross-multiplied, is zero."""
    sub = FixedPointData(fpd.n, fpd.k, [fpd.points[i] for i in indices])
    ls = localized_sum(sub, catalog("augmentation", 1), "linear", 0)
    return ls.over_common_denominator()[0].is_zero()


def _pairing_inputs():
    """CP^1-CP^3 with every eps, the 20 squares with delta in {-1, 0, 1}
    (the benchmark's pool), s6 and flag3."""
    inputs = {}
    for n in (1, 2, 3):
        for eps in itertools.product((1, -1), repeat=n):
            pair = simplex_pair(n, eps)
            inputs[pair.name] = signs_and_weights(pair)
    for e1, e2, d1, d2 in itertools.product((1, -1), (1, -1), (-1, 0, 1),
                                            (-1, 0, 1)):
        if abs(e1 * e2 - d1 * d2) == 1:
            pair = square_pair(e1, e2, d1, d2)
            inputs[pair.name] = signs_and_weights(pair)
    inputs["s6"], inputs["flag3"] = dataset("s6"), dataset("flag3")
    return inputs


PAIRING_INPUTS = _pairing_inputs()


@pytest.mark.parametrize("name", sorted(PAIRING_INPUTS))
def test_pairing_obstruction_matches_the_caller_genus_reference(name):
    # the obstruction builds its own augmentation genus; every perfect
    # pairing, by blocks and by search, agrees with the caller-built one
    fpd = PAIRING_INPUTS[name]
    idx = list(range(len(fpd.points)))
    pairings = list(localize._perfect_pairings(idx)) if len(idx) % 2 == 0 \
        else []
    want = []
    for pairing in pairings:
        vanishing = [_ref_block_vanishes(fpd, b) for b in pairing]
        report = pairing_obstruction(fpd, blocks=pairing)
        assert (report.blocks, report.vanishing) == (pairing, vanishing)
        if all(vanishing):
            want.append((pairing, vanishing))
    if not pairings:
        with pytest.raises(ValueError):
            pairing_obstruction(fpd, search=True)
        return
    found = pairing_obstruction(fpd, search=True)
    assert [(rep.blocks, rep.vanishing) for rep in found] == want


def _ref_pairing_search(fpd, ag):
    """Every perfect pairing whose blocks all vanish, each block localized
    again in every pairing that contains it."""
    found = []
    for pairing in localize._perfect_pairings(list(range(len(fpd.points)))):
        vanishing = [localize._block_vanishes(fpd, b, ag) for b in pairing]
        if all(vanishing):
            found.append((pairing, vanishing))
    return found


@pytest.mark.parametrize("name", ["flag3", "s6", "cp3"])
def test_pairing_search_localizes_each_block_once(name, monkeypatch):
    ag = catalog("augmentation", 2)
    fpd = (signs_and_weights(simplex_pair(3, (-1, -1, -1))) if name == "cp3"
           else dataset(name))
    want = _ref_pairing_search(fpd, ag)
    calls = []
    block_vanishes = localize._block_vanishes
    monkeypatch.setattr(localize, "_block_vanishes",
                        lambda *args: calls.append(args[1])
                        or block_vanishes(*args))
    found = pairing_obstruction(fpd, search=True)
    assert [(rep.blocks, rep.vanishing) for rep in found] == want
    assert len(calls) == len({tuple(b) for b in calls})
    if name == "flag3":
        assert len(calls) == 15


def test_pairing_blocks_must_partition():
    fpd = signs_and_weights(square_pair(-1, -1, 0, 0))
    with pytest.raises(ValueError):
        pairing_obstruction(fpd, blocks=[[0, 1]])


# ---------------------------------------------------------------------------
# coordinate-change consistency: u -> b(u) carries universal to linear
# ---------------------------------------------------------------------------

def _consistency(fpd, spec, order):
    uni = localized_sum(fpd, spec, "universal", order).normalize()
    b = spec.at_order(order).exponential.truncate(order)
    images = [b.in_slot(fpd.k, i) for i in range(fpd.k)]
    lin = phi(fpd, spec, "linear", order)
    assert uni.substitute(images) == lin


def test_coordinate_change_cp1():
    _consistency(dataset("cp1"), catalog("hurewicz", 6), 6)


def test_coordinate_change_cp2():
    _consistency(signs_and_weights(simplex_pair(2, (-1, -1))),
                 catalog("hurewicz", 5), 5)


def test_coordinate_change_s6_todd_order5():
    _consistency(dataset("s6"), catalog("todd", 5), 5)


def test_coordinate_change_s6_hurewicz_order3():
    _consistency(dataset("s6"), catalog("hurewicz", 3, generators=2), 3)


def test_constant_term_agreement():
    hr = catalog("hurewicz", 4)
    for fpd in (dataset("cp1"), dataset("s6")):
        lin = phi(fpd, hr, "linear", 4)
        uni = phi(fpd, hr, "universal", 4)
        assert lin.constant_term() == uni.constant_term()


# ---------------------------------------------------------------------------
# cf_0 refuted at a generic direction, and the degree rule of _quotients
# ---------------------------------------------------------------------------

# cancels in degree 0 (1/u^2 - 1/u^2) but not in degree 1
DEGREE_ONE = FixedPointData(2, 1, [FixedPoint("x", 1, [(1,), (1,)]),
                                   FixedPoint("y", -1, [(-1,), (-1,)])])
# the bounding datum of the CI pins: 1/u^2 + 1/u^2 does not cancel
BOUNDING = DEGREE_ONE.flip_one(1)
# n = 0: the sign sum is the genus, not a pole
TWO_POINTS = FixedPointData(0, 1, [FixedPoint("x", 1, []),
                                   FixedPoint("y", 1, [])])

# the raw export of every builtin pair (the point included), s6, flag3,
# cp1 and the three above
REFUTATION_DATA = {
    **{name: _uncertified(signs_and_weights(pair))
       for name, pair in CERTIFIED_PAIRS.items()},
    "s6": dataset("s6"), "flag3": dataset("flag3"), "cp1": dataset("cp1"),
    "degree one": DEGREE_ONE, "bounding": BOUNDING, "two points": TWO_POINTS,
}


def _ref_phi(fpd, genus, mode, order):
    """phi as the torus pass alone decides it, with no refutation."""
    try:
        linear = localized_sum(fpd, genus, "linear", order).normalize()
    except NormalizeError as exc:
        l = fpd.n + exc.net_degree
        raise ConnerFloydViolation(
            l, "fixed point data violates the Conner-Floyd relations: "
               "non-cancelling terms at cf_%d" % l) from exc
    if mode == "linear" or not fpd.k:
        return linear
    m = genus.at_order(max(order, 1)).logarithm.truncate(order)
    return linear.substitute([m.in_slot(fpd.k, i) for i in range(fpd.k)])


def _ref_genus_value(fpd, genus):
    return cf_series(fpd, genus, 0).genus_value()


def _outcome(call, *args):
    """The value as text, or the exception's type, l and text."""
    try:
        return str(call(*args))
    except Exception as exc:  # a mutant may raise anything
        return type(exc), getattr(exc, "l", None), str(exc)


def _refutation_outcomes(fpd, genus, order):
    got = [_outcome(phi, fpd, genus, mode, order)
           for mode in ("linear", "universal")]
    want = [_outcome(_ref_phi, fpd, genus, "linear", order)]
    # a violation is the same in both modes
    want.append(want[0] if isinstance(want[0], tuple) else
                _outcome(_ref_phi, fpd, genus, "universal", order))
    if not order:
        got.append(_outcome(genus_value, fpd, genus))
        want.append(_outcome(_ref_genus_value, fpd, genus))
    return got, want


# every input, but of CP^5 one eps (each CP^5 costs about 0.5 s here)
@pytest.mark.parametrize("name", sorted(
    name for name, fpd in REFUTATION_DATA.items()
    if fpd.n < 5 or name == "cp5:eps=-----"))
def test_every_flip_is_refuted_as_the_torus_decides_it(name):
    fpd = REFUTATION_DATA[name]
    genus = _catalog_genus("todd", fpd.n)
    for data in [fpd] + [fpd.flip_one(i) for i in range(len(fpd))]:
        got, want = _refutation_outcomes(data, genus, 0)
        assert got == want, [p.sign for p in data.points]


@st.composite
def refutation_data(draw):
    """An input above with one sign flipped or every sign drawn, or random
    data with small weights."""
    if draw(st.booleans()):
        return draw(fixed_point_data())
    fpd = REFUTATION_DATA[draw(st.sampled_from(sorted(REFUTATION_DATA)))]
    if draw(st.booleans()):
        return fpd.flip_one(draw(st.integers(0, len(fpd) - 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(fpd),
                          max_size=len(fpd)))
    return FixedPointData(fpd.n, fpd.k, [
        FixedPoint(p.label, s, p.weights) for p, s in zip(fpd.points, signs)])


@settings(max_examples=150, deadline=None)
@given(fpd=refutation_data(), genus_name=st.sampled_from(CATALOG_NAMES),
       order=st.integers(0, 2))
@example(fpd=DEGREE_ONE, genus_name="todd", order=0)
@example(fpd=BOUNDING, genus_name="hurewicz", order=1)
@example(fpd=TWO_POINTS, genus_name="todd", order=0)
@example(fpd=dataset("flag3").flip_one(2), genus_name="t2", order=0)
def test_refuted_data_raise_what_the_torus_pass_raises(fpd, genus_name,
                                                       order):
    genus = _catalog_genus(genus_name, max(fpd.n, order))
    got, want = _refutation_outcomes(fpd, genus, order)
    assert got == want


def test_a_refutation_runs_no_localized_sum(monkeypatch):
    genus = catalog("todd", 2)
    monkeypatch.setattr(localize, "localized_sum", _refuse)
    for fpd in (BOUNDING, dataset("s6").flip_one(0),
                _uncertified(signs_and_weights(simplex_pair(3, (-1,) * 3)))
                .flip_one(2)):
        assert localize._refutes_cf0(fpd)
        for mode in ("linear", "universal"):
            with pytest.raises(ConnerFloydViolation,
                               match="^fixed point data violates the "
                                     "Conner-Floyd relations: non-cancelling"
                                     " terms at cf_0$") as exc:
                phi(fpd, genus, mode, 2)
            assert exc.value.l == 0
        with pytest.raises(ConnerFloydViolation,
                           match=r"^Conner-Floyd relation cf_0 = 0 is "
                                 r"violated$") as exc:
            genus_value(fpd, genus)
        assert exc.value.l == 0


def test_an_inconclusive_or_exempt_datum_reaches_the_torus():
    todd = catalog("todd", 2)
    # cancels at nu: the torus finds cf_1
    assert not localize._refutes_cf0(DEGREE_ONE)
    with pytest.raises(ConnerFloydViolation, match="at cf_1$") as exc:
        phi(DEGREE_ONE, todd, "linear", 0)
    assert exc.value.l == 1
    assert [e.value_str() for e in cf_series(DEGREE_ONE, todd, 0)] == [
        "0", "(-2*z*u1) / [(u1)^2]", "0"]
    # n = 0: a non-zero sign sum is the genus
    assert not localize._refutes_cf0(TWO_POINTS)
    assert str(genus_value(TWO_POINTS, todd)) == "2"
    assert str(phi(TWO_POINTS, todd, "universal", 1)) == "2"
    # certified data are never refuted, and for n >= 1 their sum at nu is 0
    for name, pair in CERTIFIED_PAIRS.items():
        fpd = signs_and_weights(pair)
        assert not localize._refutes_cf0(fpd)
        q = sum(t for t, _c in localize._at_direction(fpd)[1])
        assert q == (0 if fpd.n else 1), name


def _ref_quotients(ls):
    """``LocalizedSum._quotients`` dividing every component by D."""
    total, D = ls.over_common_denominator()
    degD = sum(D.values())
    by_degree = {}
    for e, p in total.terms.items():
        by_degree.setdefault(sum(e), {})[e] = p
    for d in sorted(by_degree):
        comp = MultiSeries(ls.ring, ls.k, total.order, by_degree[d])
        quotient = comp
        try:
            for form, mult in sorted(D.items()):
                for _ in range(mult):
                    quotient = quotient.divide_linear(form)
        except NotDivisibleError:
            quotient = None
        yield d - degD, comp, quotient


def _triples(quotients):
    return [(net, comp.order, comp.terms,
             None if q is None else (q.order, q.terms))
            for net, comp, q in quotients]


@settings(max_examples=150, deadline=None)
# the universal sums of random data carry geometric tails that cost seconds
@given(case=st.one_of(
    st.tuples(fixed_point_data(), st.just("linear")),
    st.tuples(builtin_data(), st.sampled_from(("linear", "universal")))),
    genus_name=st.sampled_from(sorted(ORACLE_GENERA)),
    order=st.integers(0, 2))
@example(case=(DEGREE_ONE, "linear"), genus_name="todd", order=1)
@example(case=(BOUNDING, "universal"), genus_name="hurewicz", order=0)
def test_the_degree_rule_yields_what_division_yields(case, genus_name, order):
    fpd, mode = case
    ls = localized_sum(fpd, ORACLE_GENERA[genus_name], mode, order)
    assert _triples(ls._quotients()) == _triples(_ref_quotients(ls))


def test_no_component_below_deg_d_is_divided(monkeypatch):
    ls = localized_sum(BOUNDING, catalog("todd", 2), "linear", 1)
    dividends = []
    divide_linear = MultiSeries.divide_linear
    monkeypatch.setattr(MultiSeries, "divide_linear", lambda s, w: (
        dividends.append(s), divide_linear(s, w))[1])
    quotients = list(ls._quotients())
    assert [(net, q is None) for net, _c, q in quotients][0] == (-2, True)
    assert dividends  # the components of degree >= deg D are divided
    for net, comp, _q in quotients:
        assert (net >= 0) == any(s is comp for s in dividends), net
