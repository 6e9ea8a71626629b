"""Genera of quasitoric pairs from the face ring, an oracle that shares no
code with localization.

The rational cohomology of a quasitoric manifold is the face ring
Q[v_1..v_m] modulo the non-face monomials and the n linear forms
sum_j lambda_ij v_j (Davis-Januszkiewicz 1991).  The omniorientation
splits the stable tangent bundle into line bundles with first Chern
classes v_1..v_m, so a genus with a_+(x) = x / b(x) is
<prod_i a_+(v_i), [M]>, and a vertex x = F_i1 ^ ... ^ F_in gives
<v_i1 ... v_in, [M]> = sign(x) (Buchstaber-Panov-Ray 2007).
"""

import itertools
import math
from fractions import Fraction

import pytest

from toricgenera.algebra import Poly
from toricgenera.fgl import (
    CATALOG_NAMES,
    catalog,
    genus_from_chern_numbers,
    partitions,
)
from toricgenera.localize import genus_value
from toricgenera.quasitoric import (
    FixedPointData,
    product_pair,
    signs_and_weights,
    simplex_pair,
    square_pair,
)


def _leibniz(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]]
                                                for i in range(n))
    return total


def _inverse(rows):
    """The inverse of an invertible square matrix, by Gauss-Jordan
    elimination over Fraction."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for k in range(n):
        r = next(r for r in range(k, n) if m[r][k])
        m[k], m[r] = m[r], m[k]
        m[k] = [x / m[k][k] for x in m[k]]
        for i in range(n):
            if i != k:
                m[i] = [a - m[i][k] * b for a, b in zip(m[i], m[k])]
    return [row[n:] for row in m]


class FaceRing:
    """Evaluation of degree-n monomials of the face ring on [M]."""

    def __init__(self, pair):
        P, lam = pair.polytope, pair.lam.entries
        self.n, self.m = P.n, P.m
        self.sign, self.rewrite = {}, {}
        for v in P.vertices:
            x = frozenset(v)
            lam_x = [[row[i - 1] for i in v] for row in lam]
            det = _leibniz(lam_x) * _leibniz(P.normal_columns(v))
            self.sign[x] = (det > 0) - (det < 0)
            # Lambda_x v_x + Lambda_rest v_rest = 0 rewrites each v_i,
            # i in x, through the v_j with j not in x
            inv = _inverse(lam_x)
            self.rewrite[x] = {
                i: {j: -sum(inv[a][r] * lam[r][j - 1] for r in range(P.n))
                    for j in range(1, P.m + 1) if j not in x}
                for a, i in enumerate(v)}
        self._memo = {}

    def evaluate(self, alpha):
        """<prod_i v_i^alpha_i, [M]> for an exponent vector of degree n."""
        alpha = tuple(alpha)
        if alpha not in self._memo:
            support = {i + 1 for i, a in enumerate(alpha) if a}
            x = next((x for x in self.sign if support <= x), None)
            if x is None:           # not a face
                value = 0
            elif support == x:      # square-free on the vertex x
                value = self.sign[x]
            else:   # a repeated v_i, i in x; the support grows by one
                i = next(i for i in sorted(support) if alpha[i - 1] > 1)
                value = 0
                for j, c in self.rewrite[x][i].items():
                    if c:
                        beta = list(alpha)
                        beta[i - 1] -= 1
                        beta[j - 1] += 1
                        value += c * self.evaluate(beta)
            self._memo[alpha] = value
        return self._memo[alpha]

    def monomials(self):
        """Every exponent vector of degree n in the m face-ring generators."""
        for facets in itertools.combinations_with_replacement(range(self.m),
                                                              self.n):
            alpha = [0] * self.m
            for i in facets:
                alpha[i] += 1
            yield alpha

    def genus(self, spec):
        """<prod_i a_+(v_i), [M]> = sum_alpha prod_i a_(alpha_i) <v^alpha>."""
        a_plus = spec.a_plus()
        total = Poly.zero(spec.ring)
        for alpha in self.monomials():
            value = self.evaluate(alpha)
            if value:
                term = math.prod((a_plus.coefficient((t,)) for t in alpha
                                  if t), start=a_plus.coefficient((0,)))
                total = total + term * value
        return total

    def chern_number(self, omega):
        """<c_omega_1 ... c_omega_k, [M]>, with c_j the j-th elementary
        symmetric polynomial in v_1..v_m."""
        product = {(0,) * self.m: 1}
        for j in omega:
            grown = {}
            for alpha, c in product.items():
                for facets in itertools.combinations(range(self.m), j):
                    beta = list(alpha)
                    for i in facets:
                        beta[i] += 1
                    beta = tuple(beta)
                    grown[beta] = grown.get(beta, 0) + c
            product = grown
        return sum(c * self.evaluate(alpha) for alpha, c in product.items())


def _cp1_cubed():
    cp1 = simplex_pair(1, (-1,))
    return product_pair(product_pair(cp1, cp1), cp1)


_PAIRS = ([simplex_pair(n, eps) for n in range(1, 5)
           for eps in itertools.product((-1, 1), repeat=n)]
          + [square_pair(*p) for p in [(-1, -1, 0, 0), (-1, 1, 2, 0),
                                       (1, -1, 1, 0), (-1, -1, 2, 1),
                                       (1, 1, 0, 1)]]
          + [_cp1_cubed(),
             product_pair(simplex_pair(2, (-1, -1)), simplex_pair(1, (-1,))),
             product_pair(simplex_pair(1, (-1,)), simplex_pair(2, (1, -1)))])


@pytest.mark.parametrize("n", range(1, 5))
def test_chern_numbers_of_complex_projective_space(n):
    # the builtin CP^n is the complex one: c(T) = (1 + u)^(n+1)
    ring = FaceRing(simplex_pair(n, (-1,) * n))
    for omega in partitions(n):
        assert ring.chern_number(omega) == \
            math.prod(math.comb(n + 1, j) for j in omega)


@pytest.mark.parametrize("pair", _PAIRS, ids=[p.name for p in _PAIRS])
def test_face_ring_genus_matches_localization(pair):
    n, ring = pair.polytope.n, FaceRing(pair)
    fpd = signs_and_weights(pair)
    specs = {name: catalog(name, n) for name in CATALOG_NAMES}
    values = {name: ring.genus(spec) for name, spec in specs.items()}
    for name, spec in specs.items():
        assert values[name] == genus_value(fpd, spec), name
        # the torus pass, on an uncertified copy
        assert values[name] == genus_value(
            FixedPointData(fpd.n, fpd.k, fpd.points), spec), name
    # the hurewicz value is sum_omega b^omega c_omega(nu): its coefficients
    # are the normal Chern numbers, which give every genus
    hurewicz = values["hurewicz"]
    chern = {omega: dict(hurewicz.sorted_terms()).get(
        tuple(omega.count(j) for j in range(1, n + 1)), Fraction(0))
        for omega in partitions(n)}
    assert all(c.denominator == 1 for c in chern.values())
    for name, spec in specs.items():
        assert genus_from_chern_numbers(spec, n, chern) == values[name], name
