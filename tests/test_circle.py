"""The generic-circle route for genus values of quasitoric pairs.

The torus computation on an uncertified copy of a pair's fixed points is
the oracle: for a pair the Conner-Floyd relations hold, so cf_n is a
constant and every generic circle must see the same value, string for
string.
"""

import functools
import itertools
import json
from math import gcd

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from toricgenera import cli, localize
from toricgenera.fgl import (
    catalog,
    fgl_from_exponential,
    projective_space_value,
)
from toricgenera.localize import (
    cf_series,
    circle_genus_value,
    dataset,
    genus_value,
    p_omega,
    phi,
)
from toricgenera.quasitoric import (
    FixedPoint,
    FixedPointData,
    generic_direction,
    pair_to_json_obj,
    product_pair,
    restrict_to_subcircle,
    signs_and_weights,
    simplex_pair,
    square_pair,
)

GENERA = ("hurewicz", "todd", "krichever")


def _pairs():
    """Every CP^n orientation (n <= 3), every square member with
    delta in {-1, 0, 1}, (CP^1)^3 and CP^2 x CP^1, by builtin name."""
    pairs = {}
    for n in (1, 2, 3):
        for eps in itertools.product((1, -1), repeat=n):
            p = simplex_pair(n, eps)
            pairs[p.name] = p
    for e1, e2, d1, d2 in itertools.product((1, -1), (1, -1), (-1, 0, 1),
                                            (-1, 0, 1)):
        if abs(e1 * e2 - d1 * d2) == 1:
            p = square_pair(e1, e2, d1, d2)
            pairs[p.name] = p
    cp1, cp2 = simplex_pair(1, (-1,)), simplex_pair(2, (-1, -1))
    pairs["cp1x3"] = product_pair(product_pair(cp1, cp1), cp1, "cp1x3")
    pairs["cp2xcp1"] = product_pair(cp2, cp1, "cp2xcp1")
    return pairs


PRODUCTS = ("cp1x3", "cp2xcp1")
PAIRS = _pairs()
CASES = sorted(itertools.product(PAIRS, GENERA))


@functools.cache
def _genus(name):
    return catalog(name, 6)


@functools.cache
def _fpd(pair_name):
    return signs_and_weights(PAIRS[pair_name])


@functools.cache
def _torus_value(pair_name, genus_name):
    fpd = _fpd(pair_name)
    torus = FixedPointData(fpd.n, fpd.k, fpd.points)  # not certified
    return str(genus_value(torus, _genus(genus_name)))


def _pairs_to_zero(fpd, nu):
    return any(sum(a * b for a, b in zip(w, nu)) == 0
               for p in fpd.points for w in p.weights)


# ---------------------------------------------------------------------------
# circle value = torus value
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(CASES), data=st.data())
def test_random_generic_circle_equals_torus(case, data):
    pair_name, genus_name = case
    fpd = _fpd(pair_name)
    nu = tuple(data.draw(st.lists(st.integers(-7, 7), min_size=fpd.k,
                                  max_size=fpd.k), label="nu"))
    assume(functools.reduce(gcd, nu, 0) == 1)
    assume(not _pairs_to_zero(fpd, nu))
    circle = restrict_to_subcircle(fpd, nu)
    assert str(genus_value(circle, _genus(genus_name))) == \
        _torus_value(pair_name, genus_name)


@pytest.mark.parametrize("pair_name,genus_name", CASES)
def test_circle_genus_value_equals_torus(pair_name, genus_name):
    value = circle_genus_value(_fpd(pair_name), _genus(genus_name))
    assert str(value) == _torus_value(pair_name, genus_name)


def test_circle_genus_value_of_a_point():
    point = FixedPointData(0, 0, [FixedPoint("x", -1, [])])
    assert str(circle_genus_value(point, _genus("todd"))) == "-1"


@pytest.fixture(scope="module")
def pair_inputs(tmp_path_factory):
    """CLI input of every pair: its builtin, or a file for the products."""
    directory = tmp_path_factory.mktemp("pairs")
    inputs = {name: "builtin:" + name for name in PAIRS}
    for name in PRODUCTS:
        path = directory / (name + ".json")
        path.write_text(json.dumps(pair_to_json_obj(PAIRS[name])))
        inputs[name] = str(path)
    return inputs


def _cli(argv):
    job = cli.JobConfig(**argv)
    return cli.run(job), job.lines


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(CASES), flip=st.booleans())
def test_cli_genus_equals_check_cf_certificate(pair_inputs, case, flip):
    pair_name, genus_name = case
    common = dict(input=pair_inputs[pair_name], genus=genus_name, order=0,
                  flip_orientation=flip)
    if genus_name == "hurewicz":
        common["genus_order"] = 3
    code, lines = _cli(dict(command="genus", **common))
    assert code == cli.EXIT_PASS, lines
    cert_code, cert = _cli(dict(command="check-cf", format="json", **common))
    assert cert_code == cli.EXIT_PASS, cert
    assert lines == ["genus_value: %s" % json.loads(cert[0])["genus_value"]]


def test_cli_routes_pairs_to_the_circle_and_raw_data_to_the_torus(
        monkeypatch):
    # genus, check-cf and check-rigidity --order 0 on a pair evaluate its
    # certified fixed points at one generic direction; raw data, and every
    # order >= 1, run the torus pass
    def refuse(*_args):
        raise AssertionError("wrong route")

    monkeypatch.setattr(localize, "_expand_forms", refuse)
    monkeypatch.setattr(localize, "_divide_forms", refuse)
    code, lines = _cli(dict(command="genus", input="builtin:cp3",
                            genus="todd"))
    assert (code, lines) == (cli.EXIT_PASS, ["genus_value: -z^3"])
    code, lines = _cli(dict(command="check-cf", input="builtin:cp3",
                            genus="todd", order=0))
    assert (code, lines) == (cli.EXIT_PASS, [
        "cf_0 = 0", "cf_1 = 0", "cf_2 = 0", "cf_3 = -z^3", "pass"])
    code, lines = _cli(dict(command="check-rigidity", input="builtin:cp3",
                            genus="todd", order=0))
    assert (code, lines) == (cli.EXIT_PASS, ["cf_3 = -z^3", "rigid"])
    monkeypatch.undo()

    monkeypatch.setattr(localize, "_evaluated_sums", refuse)
    code, lines = _cli(dict(command="genus", input="builtin:s6",
                            genus="hurewicz", order=3))
    assert (code, lines) == (cli.EXIT_PASS,
                             ["genus_value: -2*b1^3 + 6*b1*b2 - 6*b3"])
    code, lines = _cli(dict(command="check-cf", input="builtin:s6",
                            genus="todd", order=0))
    assert (code, lines) == (cli.EXIT_PASS, [
        "cf_0 = 0", "cf_1 = 0", "cf_2 = 0", "cf_3 = 0", "pass"])
    code, lines = _cli(dict(command="check-rigidity", input="builtin:cp3",
                            genus="t2", order=2))
    assert (code, lines) == (cli.EXIT_PASS, [
        "cf_3 = -y^3 - y^2*z - y*z^2 - z^3", "cf_4 = 0", "cf_5 = 0",
        "rigid"])


# ---------------------------------------------------------------------------
# the generic direction
# ---------------------------------------------------------------------------

@st.composite
def fixed_point_data(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    weight = st.lists(st.integers(-6, 6), min_size=k, max_size=k).filter(any)
    points = [FixedPoint("x%d" % i, draw(st.sampled_from((1, -1))),
                         draw(st.lists(weight, min_size=n, max_size=n)))
              for i in range(draw(st.integers(1, 4)))]
    return FixedPointData(n, k, points)


def _powers(q, k):
    return tuple(q ** i for i in range(k))


@settings(max_examples=200, deadline=None)
@given(fpd=fixed_point_data())
def test_generic_direction_is_smallest_generic_power_vector(fpd):
    nu = generic_direction(fpd)
    assert nu == generic_direction(FixedPointData(fpd.n, fpd.k, [
        FixedPoint(p.label, p.sign, p.weights) for p in fpd.points]))
    assert not _pairs_to_zero(fpd, nu)
    q = nu[1] if fpd.k > 1 else 2
    assert nu == _powers(q, fpd.k)
    W = max(abs(x) for p in fpd.points for w in p.weights for x in w)
    assert 2 <= q <= 2 * W + 1
    assert all(_pairs_to_zero(fpd, _powers(r, fpd.k)) for r in range(2, q))
    # the restriction accepts it, so it is primitive and generic
    assert restrict_to_subcircle(fpd, nu).k == 1


def test_generic_direction_skips_non_generic_q():
    # (2, -1, 0) pairs to 0 with (1, 2, 4) and (3, -1, 0) with (1, 3, 9)
    fpd = FixedPointData(2, 3, [FixedPoint("x", 1, [(2, -1, 0),
                                                     (3, -1, 0)])])
    assert generic_direction(fpd) == (1, 4, 16)
    assert generic_direction(dataset("flag3")) == (1, 2, 4)


# ---------------------------------------------------------------------------
# the working order of the point products
# ---------------------------------------------------------------------------

ORDER_DATA = {
    "cp1": dataset("cp1"),
    "s6": dataset("s6"),
    "s6-flip0": dataset("s6").flip_one(0),
    "cp2:eps=+-": signs_and_weights(simplex_pair(2, (1, -1))),
    "square": signs_and_weights(square_pair(-1, 1, 1, 0)),
}


def _genus_at(name, exact):
    """The genus with its exponential built to exactly ``exact``."""
    spec = catalog(name, exact - 2, generators=4)
    assert spec.order == exact
    return spec


def _phi_str(fpd, genus, mode, order):
    try:
        return str(phi(fpd, genus, mode, order))
    except ArithmeticError as exc:
        return repr(exc)


@settings(max_examples=30, deadline=None)
@given(data_name=st.sampled_from(sorted(ORDER_DATA)),
       genus_name=st.sampled_from(("hurewicz", "todd", "t2", "krichever")),
       order=st.integers(0, 3))
def test_extra_genus_precision_changes_no_result(data_name, genus_name,
                                                 order):
    # the linear sum needs a_+ = 1/b_+ exact to order + n, hence b exact
    # to order + n + 1 and no further
    fpd = ORDER_DATA[data_name]
    loose = _genus_at(genus_name, order + 2 * fpd.n + 4)
    for exact in (order + fpd.n + 1, order + 2 * fpd.n):
        tight = _genus_at(genus_name, exact)
        assert [repr(e) for e in cf_series(fpd, tight, order)] == \
            [repr(e) for e in cf_series(fpd, loose, order)]
        for mode in ("linear", "universal"):
            assert _phi_str(fpd, tight, mode, order) == \
                _phi_str(fpd, loose, mode, order)
        # p_omega needs a_+ to its order, projective_space_value the
        # logarithm to n + 1 and the group law the logarithm to its order
        assert p_omega(3, tight, order) == p_omega(3, loose, order)
        for n in range(exact):
            assert projective_space_value(tight, n) == \
                projective_space_value(loose, n)
        for m in (1, order + 1):
            law = fgl_from_exponential(tight, m)
            assert law.order == m
            assert law.to_json() == fgl_from_exponential(loose, m).to_json()
