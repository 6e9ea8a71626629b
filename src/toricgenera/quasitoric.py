"""Combinatorial quasitoric pairs (P, Lambda) and their fixed-point data.

A pair is a simple polytope given by facet/vertex incidence (plus inward
facet normals) together with a refined n x m characteristic matrix; signs
and weight vectors of the torus fixed points are extracted from vertex
minors.  Everything is exact; the eliminations run over the integers.

The minors are found by walking the edges of P: two vertices that share
n - 1 facets differ in one column, so every vertex follows from a
neighbour by one exact Cramer pivot, O(n^2) per vertex instead of an
O(n^3) elimination (see ``_vertex_minors``).  The walk starts at the
initial vertex F1...Fn, whose minor is the identity for a refined
Lambda and for the builtins' normals, and so needs no elimination; any
other initial minor, and each part of the vertex graph the walk cannot
reach, is seeded by one fraction-free Bareiss elimination.

The builtins (``simplex_pair``, ``square_pair``) are built as they are,
through the ``_trusted`` constructors, with int normals; every other
pair, from JSON or a library caller, passes the validating constructors,
whose normals are Fractions.  Validation checks every pair in full.
"""

from __future__ import annotations

import json
from itertools import chain, product
from math import gcd, lcm
from operator import mul

from toricgenera.algebra import _as_int, _as_rational


class InvalidPairError(ValueError):
    """A quasitoric pair violating its defining conditions."""


def _bareiss(rows):
    """(det A, adj A) of a square integer matrix, exactly, by fraction-free
    Gauss-Jordan elimination (Bareiss 1968) on [A | I].

    After step k every entry is a (k+1)-minor of the permuted [A | I], so
    each division by the previous pivot is exact, and the last pivot is
    det A up to the sign of the permutations; the 0 x 0 matrix gives
    (1, []).  Pivoting over rows and columns keeps every pivot but the
    last non-zero; if none is left before the last step, A has rank
    <= n - 2 and adj A = 0.  For det A = +-1, A^-1 = det A * adj A.
    """
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(rows)]
    cols = list(range(n))   # column k of the eliminated A is A's cols[k]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next(((r, c) for c in range(k, n) for r in range(k, n)
                      if m[r][c]), None)
        if pivot is None:
            if k < n - 1:
                return 0, [[0] * n for _ in range(n)]
            pivot = (k, k)
        r, c = pivot
        if r != k:
            m[k], m[r] = m[r], m[k]
            sign = -sign
        if c != k:
            for row in m:
                row[k], row[c] = row[c], row[k]
            cols[k], cols[c] = cols[c], cols[k]
            sign = -sign
        p, pivot_row = m[k][k], m[k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(p * a - f * b) // prev
                        for a, b in zip(m[i], pivot_row)]
        prev = p
    adj = [None] * n
    for k in range(n):
        adj[cols[k]] = [sign * x for x in m[k][n:]]
    return sign * prev, adj


def _ridge_map(vertices):
    """{ridge: [(vertex index, position of its n-th facet)]}: the n - 1
    facets each listed vertex keeps when one facet is dropped, with the
    vertices on it, in order of first appearance."""
    ridges = {}
    for a, v in enumerate(vertices):
        for pos in range(len(v)):
            ridges.setdefault(v[:pos] + v[pos + 1:], []).append((a, pos))
    return ridges


def _vertex_minors(columns, vertices, edges, start):
    """(det, adj) of the minor on the columns of every vertex, exactly.

    ``columns`` are the m integer columns (facet i is ``columns[i - 1]``),
    ``vertices`` the sorted n-tuples of facets, ``edges`` lists per vertex
    the (position, ridge) of each of its ridges (see ``_eliminate``), and
    ``start`` is the index of the initial vertex F1...Fn, or None.  Two
    vertices sharing n - 1 facets are neighbours (an edge of P).  The walk
    starts at ``start``, whose minor, when it is the identity I, is its
    own (1, I); any other seed minor, and one vertex of each part of the
    graph the walk has not reached, is eliminated by ``_bareiss``.  The
    rest follow along edges by Cramer's rule.
    For y = x - {i} + {j}, with i at position ``pos`` of x and
    det_x != 0, set c = adj_x lambda_j: then det_y = c_pos, row ``pos`` of
    adj_y is that of adj_x, and every other row l is
    (c_pos adj_x[l] - c_l adj_x[pos]) / det_x, an exact division.  Moving
    j from ``pos`` to its sorted place ``at`` in y multiplies both by
    (-1)^(pos - at).  A singular minor passes nothing on, so a vertex
    reached only through one becomes a seed of its own.
    """
    out = [None] * len(vertices)
    seeds = range(len(vertices))
    if start is not None:
        seeds = chain((start,), seeds)
    for seed in seeds:
        if out[seed] is not None:
            continue
        minor = [list(columns[f - 1]) for f in vertices[seed]]
        identity = [[int(r == c) for c in range(len(minor))]
                    for r in range(len(minor))]
        if seed == start and minor == identity:
            out[seed] = 1, identity
        else:
            out[seed] = _bareiss(list(zip(*minor)))
        todo = [seed]
        while todo:
            a = todo.pop()
            det, adj = out[a]
            if not det:
                continue
            for pos, ridge in edges[a]:
                for b, at in ridge:
                    if out[b] is None:
                        out[b] = _pivot(det, adj, pos, at,
                                        columns[vertices[b][at] - 1])
                        todo.append(b)
    return out


def _pivot(det, adj, pos, at, col):
    """(det, adj) after the column at ``pos`` is replaced by ``col`` and
    moved to ``at``; ``_vertex_minors`` gives the rule."""
    c = [sum(map(mul, row, col)) for row in adj]
    c_pos, top = c[pos], adj[pos]
    rows = [top if l == pos else
            [(c_pos * p - c_l * q) // det for p, q in zip(row, top)]
            for l, (row, c_l) in enumerate(zip(adj, c))]
    rows.insert(at, rows.pop(pos))
    if (pos - at) % 2:
        return -c_pos, [[-p for p in row] for row in rows]
    return c_pos, rows


class Polytope:
    """A simple polytope: facet count, vertex/facet incidence, normals.

    ``vertices`` lists the n-element facet-index subsets (1-based);
    ``normals`` is an optional n x m matrix of exact rationals whose i-th
    column is the inward normal of facet i: Fractions from the
    constructor, ints from the builtins' ``_trusted``.  When no normals
    are known, ``orientations`` may give the surrogate sign of det N(P)_x
    per vertex (the normals in increasing facet order against the global
    orientation).  Both at once are refused: they are two sources of the
    same signs.
    """

    def __init__(self, n, m, vertices, normals=None, orientations=None):
        if normals is not None and orientations is not None:
            raise ValueError("a polytope takes normals or orientations, "
                             "not both")
        n, m = _as_int(n, "n"), _as_int(m, "m")
        self.n, self.m = n, m
        self.vertices = [tuple(sorted(_as_int(i, "facet index in vertex %r", v)
                                      for i in v))
                         for v in vertices]
        if not self.vertices:
            raise ValueError("a polytope needs at least one vertex")
        seen = set()
        for v in self.vertices:
            if len(set(v)) != n:
                raise ValueError("vertex %r does not have %d distinct facets" % (v, n))
            if any(i < 1 or i > m for i in v):
                raise ValueError("facet index out of range in vertex %r" % (v,))
            if v in seen:
                raise ValueError("duplicate vertex %r" % (v,))
            seen.add(v)
        if normals is not None:
            normals = [[_as_rational(x, "normal entry at row %d, column %d",
                                     r + 1, c + 1)
                         for c, x in enumerate(row)]
                        for r, row in enumerate(normals)]
            if len(normals) != n or any(len(row) != m for row in normals):
                raise ValueError("normals must be an n x m matrix")
        self.normals = normals
        if orientations is not None:
            orientations = [_as_int(s, "orientation") for s in orientations]
            if len(orientations) != len(self.vertices) or \
                    any(s not in (1, -1) for s in orientations):
                raise ValueError("orientations must give +-1 per vertex")
        self.orientations = orientations

    @classmethod
    def _trusted(cls, n, m, vertices, normals):
        """A polytope built as is, without the checks of ``__init__``:
        ``vertices`` are distinct sorted n-tuples of facets in 1..m and
        ``normals`` an n x m int matrix, as the builtins give them."""
        self = object.__new__(cls)
        self.n, self.m = n, m
        self.vertices = vertices
        self.normals = normals
        self.orientations = None
        return self

    def normal_columns(self, facets):
        if self.normals is None:
            raise ValueError("polytope carries no normals")
        return [[self.normals[r][f - 1] for f in facets] for r in range(self.n)]

    def __repr__(self):
        return "Polytope(n=%d, m=%d, %d vertices)" % (self.n, self.m,
                                                      len(self.vertices))


class CharMatrix:
    """An n x m integer characteristic matrix (columns index facets)."""

    def __init__(self, entries):
        self.entries = [
            [_as_int(x, "characteristic matrix entry at row %d, column %d",
                     r + 1, c + 1) for c, x in enumerate(row)]
            for r, row in enumerate(entries)]
        self.n = len(self.entries)
        self.m = len(self.entries[0]) if self.entries else 0
        if any(len(row) != self.m for row in self.entries):
            raise ValueError("ragged characteristic matrix")

    @classmethod
    def _trusted(cls, entries):
        """A matrix built as is, without the checks of ``__init__``:
        ``entries`` is a list of equally long int rows."""
        self = object.__new__(cls)
        self.entries = entries
        self.n = len(entries)
        self.m = len(entries[0]) if entries else 0
        return self

    def minor(self, facets):
        return [[self.entries[r][f - 1] for f in facets] for r in range(self.n)]

    def is_refined(self):
        if self.m < self.n:
            return False
        for i in range(self.n):
            for j in range(self.n):
                if self.entries[i][j] != (1 if i == j else 0):
                    return False
        return True

    def column_sums(self):
        return [sum(self.entries[r][c] for r in range(self.n))
                for c in range(self.m)]

    def __repr__(self):
        return "CharMatrix(%r)" % (self.entries,)


class QuasitoricPair:
    """An oriented simple polytope with a characteristic matrix."""

    def __init__(self, polytope, lam, name="pair"):
        if lam.n != polytope.n or lam.m != polytope.m:
            raise ValueError("characteristic matrix shape does not match polytope")
        self.polytope = polytope
        self.lam = lam
        self.name = name

    def __repr__(self):
        return "QuasitoricPair(%r)" % (self.name,)


class FixedPoint:
    __slots__ = ("label", "sign", "weights")

    def __init__(self, label, sign, weights):
        sign = _as_int(sign, "sign at %r", label)
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.label = label
        self.sign = sign
        self.weights = [tuple(_as_int(x, "weight entry at %r", label)
                              for x in w) for w in weights]
        for w in self.weights:
            if not any(w):
                raise ValueError("zero weight vector at %r" % (label,))

    @classmethod
    def _trusted(cls, label, sign, weights):
        """A point built as is, without the checks of ``__init__``: the
        sign is +-1 and ``weights`` is a fresh list of non-zero int tuples,
        as the weights a valid pair or a generic circle yields."""
        self = object.__new__(cls)
        self.label = label
        self.sign = sign
        self.weights = weights
        return self

    def __repr__(self):
        return "FixedPoint(%r, %+d, %r)" % (self.label, self.sign, self.weights)


class FixedPointData:
    """Signs and integer weight vectors of isolated fixed points.

    ``certified`` is True only for data whose localized sum should be a
    power series: ``signs_and_weights`` of a validated pair sets it, and
    ``flipped`` keeps it (negating every sign negates the series).  No
    other constructor, subset, restriction or input format carries it.
    Validation checks the edge rule, so a validated pair meets the
    Conner-Floyd relations by theorem; the evaluation that trusts the
    mark still looks for a pole, and hands one to the torus pass.
    """

    def __init__(self, n, k, points):
        self.n = n
        self.k = k
        self.points = list(points)
        self.certified = False
        for pt in self.points:
            if len(pt.weights) != n:
                raise ValueError("point %r needs %d weight vectors" % (pt.label, n))
            if any(len(w) != k for w in pt.weights):
                raise ValueError("weight length mismatch at %r" % (pt.label,))

    def flipped(self):
        out = FixedPointData(self.n, self.k, [
            FixedPoint(p.label, -p.sign, p.weights) for p in self.points])
        out.certified = self.certified
        return out

    def flip_one(self, index):
        pts = [FixedPoint(p.label, -p.sign if i == index else p.sign, p.weights)
               for i, p in enumerate(self.points)]
        return FixedPointData(self.n, self.k, pts)

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return "FixedPointData(n=%d, k=%d, %d points)" % (
            self.n, self.k, len(self.points))


# ---------------------------------------------------------------------------
# validation, refinement and extraction
# ---------------------------------------------------------------------------

class ValidationReport:
    def __init__(self, problems):
        self.problems = list(problems)

    @property
    def ok(self):
        return not self.problems

    def __iter__(self):
        return iter(self.problems)

    def __repr__(self):
        return "ValidationReport(ok)" if self.ok else \
            "ValidationReport(%s)" % "; ".join(self.problems)


def _eliminate(pair):
    """The problems ``validate_pair`` reports, with (det, adj) of every
    vertex minor and the vertex signs: of det N(P)_x (+1, -1 or 0) with
    normals, else the given orientations, else None.  In a simple polytope each ridge of a vertex
    is an edge, which has two vertices: a ridge on one listed vertex, or
    on more than two, is a vertex list that is not the polytope's.

    The vertex signs (the normals' or the given orientations) must obey
    the edge rule.  For the edge R from x = R + {i}, i at position a of
    x, to y = R + {j}, j at position b of y, the edge direction e pairs
    positively with n_i and negatively with n_j, and det [N_R | v] is a
    non-zero multiple of e . v; so sign det N_y = -(-1)^(a - b) sign
    det N_x.  This is also the condition under which the poles of the
    two points along their common weight cancel, so a pair that meets it
    on every edge meets the Conner-Floyd relations."""
    problems = []
    P, lam = pair.polytope, pair.lam
    if not lam.is_refined():
        problems.append("matrix is not refined (first n columns != identity)")
    try:
        start = P.vertices.index(tuple(range(1, P.n + 1)))
    except ValueError:
        start = None
        problems.append("initial vertex F1...Fn is missing")
    ridges = _ridge_map(P.vertices)
    edges = [[] for _ in P.vertices]  # per vertex: (position, its ridge)
    for ridge, on in ridges.items():
        if len(on) != 2:
            problems.append("ridge %r lies on %d of the listed vertices, "
                            "not 2" % (ridge, len(on)))
        for a, pos in on:
            edges[a].append((pos, on))
    minors = _vertex_minors(list(zip(*lam.entries)), P.vertices, edges,
                            start)
    for v, (det, _adj) in zip(P.vertices, minors):
        if abs(det) != 1:
            problems.append("vertex %r has minor determinant %s" % (v, det))
    signs = P.orientations
    if P.normals is not None:
        # each column times the positive lcm of its denominators: integral,
        # and every det N(P)_x keeps its sign
        columns = []
        for col in zip(*P.normals):
            s = lcm(*(x.denominator for x in col))
            columns.append([x.numerator * (s // x.denominator) for x in col])
        signs = [(det > 0) - (det < 0) for det, _adj
                 in _vertex_minors(columns, P.vertices, edges, start)]
        for v, sign in zip(P.vertices, signs):
            if not sign:
                problems.append("vertex %r has dependent normals" % (v,))
    if signs is not None:
        for on in ridges.values():
            if len(on) == 2:
                (x, a), (y, b) = on
                if signs[x] * signs[y] * (-1) ** (a - b) == 1:
                    problems.append("the orientations of vertices %r and %r "
                                    "disagree along their edge"
                                    % (P.vertices[x], P.vertices[y]))
    return problems, minors, signs


def validate_pair(pair):
    """Check refinement, the initial vertex, that every ridge lies on two
    listed vertices, unimodularity of every vertex minor, and the vertex
    signs along every edge; violations are collected, not raised."""
    return ValidationReport(_eliminate(pair)[0])


def refine(polytope, raw):
    """Left-multiply by the inverse of the initial-vertex minor so the
    first n columns become the identity."""
    lam = raw if isinstance(raw, CharMatrix) else CharMatrix(raw)
    if lam.n != polytope.n or lam.m != polytope.m:
        raise ValueError("characteristic matrix shape does not match polytope")
    initial = tuple(range(1, polytope.n + 1))
    det, adj = _bareiss(lam.minor(initial))
    if abs(det) != 1:
        raise InvalidPairError(
            "leading minor has determinant %s; cannot refine" % det)
    L = [[det * x for x in row] for row in adj]
    entries = [[sum(L[i][t] * lam.entries[t][j] for t in range(lam.n))
                for j in range(lam.m)] for i in range(lam.n)]
    return CharMatrix(entries)


def signs_and_weights(pair):
    """Fixed-point data of a valid pair: per vertex, the weights are the
    columns of the inverse-transposed vertex minor and the sign is
    sign(det Lambda_x) * sign(det N(P)_x)."""
    problems, minors, orientations = _eliminate(pair)
    if problems:
        raise InvalidPairError("; ".join(problems))
    P = pair.polytope
    if orientations is None:
        raise ValueError("signs need facet normals or vertex orientations")
    points = []
    for v, (det, adj), det_n in zip(P.vertices, minors, orientations):
        # W^t Lambda_x = I, so the columns of W are the rows of
        # Lambda_x^-1 = det * adj, integral since det = +-1
        weights = [tuple(row) if det == 1 else tuple(-x for x in row)
                   for row in adj]
        label = "x" + ",".join(str(i) for i in v)
        points.append(FixedPoint._trusted(
            label, 1 if det * det_n > 0 else -1, weights))
    fpd = FixedPointData(P.n, P.n, points)
    fpd.certified = True  # a valid pair meets the Conner-Floyd relations
    return fpd


def special_check(lam):
    """True iff every column of the characteristic matrix sums to 1."""
    return all(s == 1 for s in lam.column_sums())


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def simplex_pair(n, eps, name=None):
    """CP^n with the omniorientation twisted by eps (entries +-1)."""
    n = _as_int(n, "n")
    eps = tuple(_as_int(e, "eps entry") for e in eps)
    if len(eps) != n or any(e not in (1, -1) for e in eps):
        raise InvalidPairError("eps must be a length-%d vector of +-1" % n)
    m = n + 1
    all_facets = set(range(1, m + 1))
    vertices = [tuple(range(1, n + 1))]
    for k in range(1, n + 1):
        vertices.append(tuple(sorted(all_facets - {k})))
    normals = [[1 if r == c else 0 for c in range(n)] + [-1] for r in range(n)]
    entries = [[1 if r == c else 0 for c in range(n)] + [eps[r]]
               for r in range(n)]
    name = name or ("cp%d:eps=%s" % (n, "".join("+" if e > 0 else "-" for e in eps)))
    return QuasitoricPair(Polytope._trusted(n, m, vertices, normals),
                          CharMatrix._trusted(entries), name)


def square_pair(e1, e2, d1, d2, name=None):
    """The 4-dimensional family over the combinatorial square."""
    e1, e2, d1, d2 = (_as_int(x, "square parameter") for x in (e1, e2, d1, d2))
    if e1 not in (1, -1) or e2 not in (1, -1) or abs(e1 * e2 - d1 * d2) != 1:
        raise InvalidPairError(
            "need eps = +-1 and eps1 eps2 - delta1 delta2 = +-1")
    vertices = [(1, 2), (2, 3), (3, 4), (1, 4)]
    normals = [[1, 0, -1, 0], [0, 1, 0, -1]]
    entries = [[1, 0, e1, d2], [0, 1, d1, e2]]
    name = name or ("square:eps=%d,%d:delta=%d,%d" % (e1, e2, d1, d2))
    return QuasitoricPair(Polytope._trusted(2, 4, vertices, normals),
                          CharMatrix._trusted(entries), name)


def product_pair(p, q, name=None):
    """Product of two pairs: block-diagonal data with the columns
    reordered so the result is again refined.  Unless both factors carry
    normals it carries orientations, o_p(vp) o_q(vq) times the sign of the
    permutation that sorts the facets of vp followed by those of vq."""
    P, Q = p.polytope, q.polytope
    n, m = P.n + Q.n, P.m + Q.m

    def map_p(i):
        return i if i <= P.n else i + Q.n

    def map_q(j):
        return P.n + j if j <= Q.n else P.m + j

    vertices, parities = [], []
    for vp in P.vertices:
        for vq in Q.vertices:
            a, b = [map_p(i) for i in vp], [map_q(j) for j in vq]
            vertices.append(tuple(sorted(a + b)))
            parities.append(sum(x > y for x in a for y in b) % 2)
    normals = orientations = None
    if P.normals is not None and Q.normals is not None:
        normals = [[0] * m for _ in range(n)]
    else:
        sp, sq = (_eliminate(x)[2] for x in (p, q))
        if sp is not None and sq is not None:
            orientations = [s * t * (-1) ** odd for (s, t), odd
                            in zip(product(sp, sq), parities)]
            if not all(orientations):  # a factor's normal sign is 0
                raise InvalidPairError("; ".join(
                    "vertex %r has dependent normals" % (v,)
                    for v, o in zip(vertices, orientations) if not o))
    entries = [[0] * m for _ in range(n)]
    for X, lam, top, place in ((P, p.lam, 0, map_p), (Q, q.lam, P.n, map_q)):
        for r in range(X.n):
            for c in range(X.m):
                entries[top + r][place(c + 1) - 1] = lam.entries[r][c]
                if normals is not None:
                    normals[top + r][place(c + 1) - 1] = X.normals[r][c]
    name = name or ("%s x %s" % (p.name, q.name))
    return QuasitoricPair(Polytope(n, m, vertices, normals, orientations),
                          CharMatrix(entries), name)


def generic_direction(fpd):
    """The direction (1, q, q^2, ..., q^(k-1)) with the smallest q >= 2
    that pairs to a non-zero value with every weight.

    q = 2W + 1, with W the largest |weight entry|, always qualifies:
    balanced base-q digits are unique, so a non-zero weight never pairs
    to 0.  Where the Conner-Floyd relations hold, every generic direction
    gives the same genus; the smallest q keeps the restricted weights
    small.
    """
    weights = {w for pt in fpd.points for w in pt.weights}
    q = 2
    while True:
        nu = tuple(q ** i for i in range(fpd.k))
        if all(sum(wi * ni for wi, ni in zip(w, nu)) for w in weights):
            return nu
        q += 1


def restrict_to_subcircle(fpd, nu):
    """Weights of the subcircle with primitive direction nu; generic only."""
    nu = tuple(_as_int(x, "direction entry") for x in nu)
    if len(nu) != fpd.k:
        raise ValueError("direction length must equal the torus rank")
    if gcd(*nu) != 1:
        raise ValueError("direction must be primitive")
    points = []
    for pt in fpd.points:
        weights = []
        for w in pt.weights:
            val = sum(wi * ni for wi, ni in zip(w, nu))
            if val == 0:
                raise ValueError(
                    "direction %r is not generic: weight %r at %r pairs to 0"
                    % (nu, w, pt.label))
            weights.append((val,))
        points.append(FixedPoint._trusted(pt.label, pt.sign, weights))
    return FixedPointData(fpd.n, 1, points)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def pair_to_json_obj(pair):
    return {
        "type": "quasitoric",
        "name": pair.name,
        "polytope": {
            "n": pair.polytope.n,
            "m": pair.polytope.m,
            "vertices": [list(v) for v in pair.polytope.vertices],
            "normals": None if pair.polytope.normals is None else
            [[str(x) for x in row] for row in pair.polytope.normals],
            **({"orientations": list(pair.polytope.orientations)}
               if pair.polytope.orientations is not None else {}),
        },
        "lambda": [list(row) for row in pair.lam.entries],
    }


def fpd_to_json_obj(fpd):
    return {
        "type": "fixed_points",
        "n": fpd.n,
        "k": fpd.k,
        "points": [{"label": p.label, "sign": p.sign,
                    "weights": [list(w) for w in p.weights]}
                   for p in fpd.points],
    }


def from_json_obj(obj):
    """Parse either manifold schema; raises ValueError with a located
    message on malformed input."""
    if not isinstance(obj, dict):
        raise ValueError("manifold JSON must be an object")
    kind = obj.get("type")
    if kind == "quasitoric":
        try:
            poly = obj["polytope"]
            if not isinstance(poly, dict):
                raise ValueError("malformed quasitoric object: "
                                 "polytope must be an object")
            polytope = Polytope(poly["n"], poly["m"], poly["vertices"],
                                poly.get("normals"), poly.get("orientations"))
            lam = CharMatrix(obj["lambda"])
        except (KeyError, TypeError) as exc:
            raise ValueError("malformed quasitoric object: %s" % exc) from exc
        if not lam.is_refined():
            lam = refine(polytope, lam)
        return QuasitoricPair(polytope, lam, obj.get("name", "pair"))
    if kind == "fixed_points":
        try:
            n, k, points = obj["n"], obj["k"], obj["points"]
            if _as_int(n, "n") < 0 or _as_int(k, "k") < 0:
                raise ValueError("n and k must be >= 0")
            if not isinstance(points, list) or not all(
                    isinstance(p, dict) and isinstance(p["weights"], list)
                    and all(isinstance(w, list) for w in p["weights"])
                    for p in points):
                raise ValueError("points must be a list of objects whose "
                                 "weights are lists of lists")
            points = [FixedPoint(p.get("label", "x%d" % i), p["sign"], p["weights"])
                      for i, p in enumerate(points)]
            return FixedPointData(n, k, points)
        except (KeyError, TypeError) as exc:
            raise ValueError("malformed fixed_points object: %s" % exc) from exc
    raise ValueError("unknown manifold type %r" % kind)


def load_manifold(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError("invalid JSON in %s: line %d column %d"
                             % (path, exc.lineno, exc.colno)) from exc
    return from_json_obj(obj)
