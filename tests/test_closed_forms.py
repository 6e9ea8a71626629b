"""Closed forms that need no localized sum, as oracles for it.

The t2 genus at order 0 is a signed count of fixed points by index, and
the elliptic genus is rigid on the spin examples (Bott-Taubes 1989) and
not on the others.  The formulas live here only: the package has one
genus path, the localized sum.
"""

import itertools
from collections import Counter
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricgenera.algebra import Poly
from toricgenera.cli import main
from toricgenera.fgl import catalog
from toricgenera.localize import (
    ConnerFloydViolation,
    cf_series,
    dataset,
    genus_value,
)
from toricgenera.quasitoric import (
    FixedPointData,
    generic_direction,
    product_pair,
    signs_and_weights,
    simplex_pair,
    square_pair,
)

T2_RING = catalog("t2", 1).ring  # (y, z)


def _builtins():
    """CP^1 .. CP^5 with every eps, every valid square member with delta
    in {-1, 0, 1}, products of CP^1 and CP^2, s6 and flag3."""
    data = {}
    for n in range(1, 6):
        for eps in itertools.product((1, -1), repeat=n):
            pair = simplex_pair(n, eps)
            data[pair.name] = signs_and_weights(pair)
    for e1, e2, d1, d2 in itertools.product((1, -1), (1, -1), (-1, 0, 1),
                                            (-1, 0, 1)):
        if abs(e1 * e2 - d1 * d2) == 1:
            pair = square_pair(e1, e2, d1, d2)
            data[pair.name] = signs_and_weights(pair)
    cp1, cp2 = simplex_pair(1, (-1,)), simplex_pair(2, (-1, -1))
    for pair in (product_pair(cp1, cp1), product_pair(cp2, cp1),
                 product_pair(cp2, cp2),
                 product_pair(product_pair(cp1, cp1), cp1)):
        data[pair.name] = signs_and_weights(pair)
    data["s6"], data["flag3"] = dataset("s6"), dataset("flag3")
    return data


BUILTINS = _builtins()


def _raw(fpd):
    """The same fixed points, not certified: the torus pass decides."""
    return FixedPointData(fpd.n, fpd.k, fpd.points)


def _index_count(fpd):
    """sum_x sign(x) (-y)^ind(x) (-z)^(n - ind(x)), with ind(x) the number
    of weights w of x with w . nu < 0 at nu = ``generic_direction``.

    1/f(x) tends to -z as x -> +oo and to -y as x -> -oo, for the t2
    exponential f = (e^(yx) - e^(zx)) / (y e^(zx) - z e^(yx)); the genus,
    a constant, is the limit of the localized sum along s nu as s -> oo.
    """
    nu = generic_direction(fpd)
    terms = Counter()
    for point in fpd.points:
        ind = sum(sum(map(mul, w, nu)) < 0 for w in point.weights)
        terms[ind, fpd.n - ind] += point.sign * (-1) ** fpd.n
    return Poly(T2_RING, terms)


def _t2(n):
    return catalog("t2", max(n, 1))


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(BUILTINS)), raw=st.booleans())
def test_t2_genus_is_the_index_count(name, raw):
    fpd = BUILTINS[name]
    fpd = _raw(fpd) if raw else fpd
    assert genus_value(fpd, _t2(fpd.n)) == _index_count(fpd)


def test_index_count_of_cp2_through_the_command_line(capsys):
    assert main(["genus", "--input", "builtin:cp2", "--genus", "t2"]) == 0
    out = capsys.readouterr().out
    assert out == "genus_value: y^2 + y*z + z^2\n"
    assert out == "genus_value: %s\n" % _index_count(BUILTINS["cp2:eps=--"])


@pytest.mark.parametrize("name", ["cp2:eps=--", "cp2:eps=+-",
                                  "cp3:eps=---", "s6", "flag3"])
def test_t2_is_rigid_with_the_index_count_at_cf_n(name):
    # observed, not proved: the whole cf series is the index count at n
    fpd = BUILTINS[name]
    for order in (1, 2):
        cf = cf_series(fpd, catalog("t2", order + fpd.n - 1), order)
        assert cf.rigid(), order
        assert cf.genus_value() == _index_count(fpd)


@pytest.mark.parametrize("name, spin", [
    ("cp3:eps=---", True), ("cp5:eps=-----", True), ("flag3", True),
    ("cp2:eps=--", False), ("cp4:eps=----", False)])
def test_elliptic_genus_is_rigid_exactly_on_spin_examples(name, spin):
    fpd = BUILTINS[name]
    cf = cf_series(fpd, catalog("elliptic", 2 + fpd.n - 1), 2)
    assert cf.conner_floyd_ok()
    assert cf.rigid() == spin
    if spin:
        assert cf.genus_value().is_zero()


@pytest.mark.parametrize("name", ["cp2:eps=--", "cp3:eps=---", "s6",
                                  "flag3"])
@pytest.mark.parametrize("index", [0, 1])
def test_a_flipped_sign_breaks_conner_floyd_and_the_index_count(name, index):
    fpd = BUILTINS[name]
    flipped = _raw(fpd).flip_one(index)
    for genus in (_t2(fpd.n), catalog("elliptic", fpd.n)):
        assert not cf_series(flipped, genus, 0).conner_floyd_ok()
    with pytest.raises(ConnerFloydViolation):
        genus_value(flipped, _t2(fpd.n))
    assert _index_count(flipped) != genus_value(fpd, _t2(fpd.n))
