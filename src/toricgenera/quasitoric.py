"""Combinatorial quasitoric pairs (P, Lambda) and their fixed-point data.

A pair is a simple polytope given by facet/vertex incidence (plus inward
facet normals) together with a refined n x m characteristic matrix; signs
and weight vectors of the torus fixed points are extracted from vertex
minors.  Everything is exact integer/rational arithmetic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm, prod

from toricgenera.algebra import _as_int, _as_rational


class InvalidPairError(ValueError):
    """A quasitoric pair violating its defining conditions."""


def _bareiss(rows):
    """(det A, adj A) of a square int or Fraction matrix, exactly, by
    fraction-free Gauss-Jordan elimination (Bareiss 1968) on [A | I].

    Row r is first scaled by the lcm s_r of its denominators, so B = SA
    is integral; det A = det B / det S and adj A = adj B S / det S.
    After step k every entry is a (k+1)-minor of the permuted [B | I],
    so each division by the previous pivot is exact.  Pivoting over rows
    and columns keeps every pivot but the last non-zero; if none is left
    before the last step, A has rank <= n - 2 and adj A = 0.  For
    det A = +-1, A^-1 = det A * adj A.
    """
    n = len(rows)
    scales = [lcm(*(x.denominator for x in row)) for row in rows]
    m = [[x.numerator * (s // x.denominator) for x in row] +
         [int(i == j) for j in range(n)]
         for i, (row, s) in enumerate(zip(rows, scales))]
    cols = list(range(n))   # column k of the eliminated B is B's cols[k]
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
    det_s = prod(scales)
    if det_s == 1:
        return sign * m[n - 1][n - 1], adj
    return (Fraction(sign * m[n - 1][n - 1], det_s),
            [[Fraction(x * s, det_s) for x, s in zip(row, scales)]
             for row in adj])


class Polytope:
    """A simple polytope: facet count, vertex/facet incidence, normals.

    ``vertices`` lists the n-element facet-index subsets (1-based);
    ``normals`` is an optional n x m matrix of exact rationals whose i-th
    column is the inward normal of facet i.  When no normals are known,
    ``orientations`` may give the surrogate sign of det N(P)_x per vertex
    (the normals in increasing facet order against the global orientation).
    """

    def __init__(self, n, m, vertices, normals=None, orientations=None):
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

    def __repr__(self):
        return "FixedPoint(%r, %+d, %r)" % (self.label, self.sign, self.weights)


class FixedPointData:
    """Signs and integer weight vectors of isolated fixed points."""

    def __init__(self, n, k, points):
        self.n = n
        self.k = k
        self.points = list(points)
        for pt in self.points:
            if len(pt.weights) != n:
                raise ValueError("point %r needs %d weight vectors" % (pt.label, n))
            if any(len(w) != k for w in pt.weights):
                raise ValueError("weight length mismatch at %r" % (pt.label,))

    def flipped(self):
        return FixedPointData(self.n, self.k, [
            FixedPoint(p.label, -p.sign, p.weights) for p in self.points])

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
    vertex minor and det N(P)_x per vertex (None without normals)."""
    problems = []
    P, lam = pair.polytope, pair.lam
    if not lam.is_refined():
        problems.append("matrix is not refined (first n columns != identity)")
    initial = tuple(range(1, P.n + 1))
    if initial not in P.vertices:
        problems.append("initial vertex F1...Fn is missing")
    minors = [_bareiss(lam.minor(v)) for v in P.vertices]
    for v, (det, _adj) in zip(P.vertices, minors):
        if abs(det) != 1:
            problems.append("vertex %r has minor determinant %s" % (v, det))
    normal_dets = None
    if P.normals is not None:
        normal_dets = [_bareiss(P.normal_columns(v))[0] for v in P.vertices]
        for v, det in zip(P.vertices, normal_dets):
            if det == 0:
                problems.append("vertex %r has dependent normals" % (v,))
    return problems, minors, normal_dets


def validate_pair(pair):
    """Check refinement, the initial vertex, and unimodularity of every
    vertex minor; violations are collected, not raised."""
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
    problems, minors, normal_dets = _eliminate(pair)
    if problems:
        raise InvalidPairError("; ".join(problems))
    P = pair.polytope
    orientations = P.orientations if normal_dets is None else \
        [1 if det > 0 else -1 for det in normal_dets]
    if orientations is None:
        raise ValueError("signs need facet normals or vertex orientations")
    points = []
    for v, (det, adj), det_n in zip(P.vertices, minors, orientations):
        # W^t Lambda_x = I, so the columns of W are the rows of
        # Lambda_x^-1 = det * adj, integral since det = +-1
        weights = [tuple(det * x for x in row) for row in adj]
        label = "x" + ",".join(str(i) for i in v)
        points.append(FixedPoint(label, 1 if det * det_n > 0 else -1, weights))
    return FixedPointData(P.n, P.n, points)


def special_check(lam):
    """True iff every column of the characteristic matrix sums to 1."""
    return all(s == 1 for s in lam.column_sums())


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def simplex_pair(n, eps, name=None):
    """CP^n with the omniorientation twisted by eps (entries +-1)."""
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
    return QuasitoricPair(Polytope(n, m, vertices, normals),
                          CharMatrix(entries), name)


def square_pair(e1, e2, d1, d2, name=None):
    """The 4-dimensional family over the combinatorial square."""
    if e1 not in (1, -1) or e2 not in (1, -1) or abs(e1 * e2 - d1 * d2) != 1:
        raise InvalidPairError(
            "need eps = +-1 and eps1 eps2 - delta1 delta2 = +-1")
    vertices = [(1, 2), (2, 3), (3, 4), (1, 4)]
    normals = [[1, 0, -1, 0], [0, 1, 0, -1]]
    entries = [[1, 0, e1, d2], [0, 1, d1, e2]]
    name = name or ("square:eps=%d,%d:delta=%d,%d" % (e1, e2, d1, d2))
    return QuasitoricPair(Polytope(2, 4, vertices, normals),
                          CharMatrix(entries), name)


def product_pair(p, q, name=None):
    """Product of two pairs: block-diagonal data with the columns
    reordered so the result is again refined."""
    P, Q = p.polytope, q.polytope
    n, m = P.n + Q.n, P.m + Q.m

    def map_p(i):
        return i if i <= P.n else i + Q.n

    def map_q(j):
        return P.n + j if j <= Q.n else P.m + j

    vertices = []
    for vp in P.vertices:
        for vq in Q.vertices:
            vertices.append(tuple(sorted([map_p(i) for i in vp] +
                                         [map_q(j) for j in vq])))
    normals = [[Fraction(0)] * m for _ in range(n)]
    entries = [[0] * m for _ in range(n)]
    for r in range(P.n):
        for c in range(P.m):
            normals[r][map_p(c + 1) - 1] = P.normals[r][c]
            entries[r][map_p(c + 1) - 1] = p.lam.entries[r][c]
    for r in range(Q.n):
        for c in range(Q.m):
            normals[P.n + r][map_q(c + 1) - 1] = Q.normals[r][c]
            entries[P.n + r][map_q(c + 1) - 1] = q.lam.entries[r][c]
    name = name or ("%s x %s" % (p.name, q.name))
    return QuasitoricPair(Polytope(n, m, vertices, normals),
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
        points.append(FixedPoint(pt.label, pt.sign, weights))
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
