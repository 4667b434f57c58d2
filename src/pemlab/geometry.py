"""Exact rational plane geometry: types and pure predicates.

Everything here is exact host arithmetic; no simulator cores are involved.
The machine-level pipeline charges its memory traffic separately and calls
these kernels for the mathematics, so every geometric decision is exact and
bit-reproducible — there are no epsilon tolerances anywhere.

Number rule: a coefficient stays a Python ``int`` when it is integral (see
:func:`coeff`) and is a :class:`fractions.Fraction` only otherwise.  A
vertex is kept in its vertex form ``(X, Y, D)``: integers with ``D > 0``,
no common factor, and ``(x, y) = (X/D, Y/D)``, so equal points have equal
forms.  The intersector scales each plane to integers first, so its
vertices, the chain cleanup, the clip and :class:`HullChain` all run on
``int``s; a predicate is a sign test on cross-multiplied products and
divides nothing.  Directions are compared by half-plane class and the sign
of a cross product, never by a rational angle key.  A ``Fraction`` is built
only where a caller reads a value: :attr:`HullChain.vertices`, the
:class:`Point2` results of the public wrappers, and the dual points, filter
scores and slab boundaries of :mod:`pemlab.hull`.

Conventions: a half-plane ``(a, b, c)`` admits the points with
``a*x + b*y <= c``; hull chains are counterclockwise and strictly convex
(no repeated or collinear vertices) after :func:`canonical_chain`.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from typing import NamedTuple

from pemlab.machine import MachineFault

__all__ = [
    "GeometryError",
    "HullChain",
    "Point2",
    "canonical_chain",
    "coeff",
    "cross",
    "frac",
    "intersect_halfplanes_ordered",
    "plane_word",
    "unbounded_directions",
]


class GeometryError(MachineFault):
    """A geometric precondition does not hold (unbounded, infeasible, ...)."""


def frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def coeff(v) -> int | Fraction:
    """An exact coefficient in its cheapest form: an ``int`` stays an
    ``int``, an integral ``Fraction`` becomes its numerator, and any other
    value goes through :func:`frac`."""
    if type(v) is int:
        return v
    v = frac(v)
    return v.numerator if v.denominator == 1 else v


class Point2(NamedTuple):
    """A point; compares lexicographically like the tuple it is.

    Points are stored values, so both coordinates are ``Fraction``s.
    """

    x: Fraction
    y: Fraction


def plane_word(w) -> tuple:
    """The first three entries of ``w`` as exact coefficients ``(a, b, c)``
    in a plain tuple (the form a plane takes in machine memory)."""
    a, b, c = coeff(w[0]), coeff(w[1]), coeff(w[2])
    if a == 0 and b == 0:
        raise GeometryError("half-plane normal must be nonzero")
    return (a, b, c)


def _int_plane(h) -> tuple:
    """The exact plane ``h`` scaled by the lcm of its denominators: the
    same half-plane with ``int`` coefficients."""
    a, b, c = h
    if type(a) is int and type(b) is int and type(c) is int:
        return (a, b, c)
    s = math.lcm(a.denominator, b.denominator, c.denominator)
    return (a.numerator * (s // a.denominator),
            b.numerator * (s // b.denominator),
            c.numerator * (s // c.denominator))


# ------------------------------------------------------------- vertex forms


def _vertex_form(p) -> tuple:
    """The point ``p`` as ``(X, Y, D)`` with ``D > 0``, no common factor
    and ``(x, y) = (X/D, Y/D)``, all integers."""
    x, y = p[0], p[1]
    if type(x) is int and type(y) is int:
        return (x, y, 1)
    x, y = frac(x), frac(y)
    dx, dy = x.denominator, y.denominator
    d = math.lcm(dx, dy)
    return (x.numerator * (d // dx), y.numerator * (d // dy), d)


def _reduced(X: int, Y: int, D: int) -> tuple:
    """``(X, Y, D)``, ``D > 0``, divided by the gcd: a vertex form."""
    g = math.gcd(X, Y, D)
    return (X // g, Y // g, D // g) if g > 1 else (X, Y, D)


def _point(v) -> Point2:
    """The stored point of the vertex form ``v``."""
    return Point2(Fraction(v[0], v[2]), Fraction(v[1], v[2]))


def _orient(p, q, r) -> int:
    """A number with the sign of the turn p->q->r of three vertex forms.

    It is the 3x3 determinant of the rows ``(X, Y, D)``, which is the
    turn's signed area times ``Dp * Dq * Dr > 0``.
    """
    X1, Y1, D1 = p
    X2, Y2, D2 = q
    X3, Y3, D3 = r
    return (X1 * (Y2 * D3 - D2 * Y3) - Y1 * (X2 * D3 - D2 * X3)
            + D1 * (X2 * Y3 - Y2 * X3))


def _lex_less(p, q) -> bool:
    """Is the point of form ``p`` lexicographically before that of ``q``?"""
    xp, xq = p[0] * q[2], q[0] * p[2]
    if xp != xq:
        return xp < xq
    return p[1] * q[2] < q[1] * p[2]


def cross(o: Point2, p: Point2, q: Point2):
    """Signed area of the turn o->p->q; positive means counterclockwise."""
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def _dedupe(forms) -> list:
    """The cycle ``forms`` with repeats of a neighbouring vertex dropped."""
    out: list = []
    for v in forms:
        if not out or out[-1] != v:
            out.append(v)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def _canonical_forms(forms) -> tuple:
    """Clean a ccw cycle of vertex forms: dedupe, drop collinear vertices,
    start at the lexicographically smallest vertex."""
    out = _dedupe(forms)
    changed = True
    while changed and len(out) > 2:
        changed = False
        keep = []
        m = len(out)
        for i in range(m):
            if _orient(out[i - 1], out[i], out[(i + 1) % m]) != 0:
                keep.append(out[i])
            else:
                changed = True
        out = keep
    if not out:
        return ()
    start = 0
    for i in range(1, len(out)):
        if _lex_less(out[i], out[start]):
            start = i
    return tuple(out[start:] + out[:start])


def canonical_chain(vertices) -> tuple:
    """Rotate/clean a ccw vertex cycle: dedupe, drop collinear, start at the
    lexicographically smallest vertex.  Returns :class:`Point2` values."""
    forms = _canonical_forms([_vertex_form(p) for p in vertices])
    return tuple(_point(v) for v in forms)


def _clip_forms(forms, h) -> list:
    """Clip a convex ccw cycle of vertex forms by one ``int`` half-plane.

    One Sutherland-Hodgman step keeping points with ``a*x + b*y <= c``;
    boundary points count as inside.  With ``F = a*X + b*Y - c*D``, which
    has the sign of ``a*x + b*y - c``, an edge ``P -> Q`` whose ends lie
    strictly on opposite sides crosses the boundary at ``Fq*P - Fp*Q``
    (sign-normalized to ``D > 0`` and gcd-reduced).  The output may repeat
    or have collinear vertices (clean with :func:`_canonical_forms`); it is
    empty when nothing survives.
    """
    a, b, c = h
    f = [a * X + b * Y - c * D for X, Y, D in forms]
    k = len(forms)
    out: list = []
    for i in range(k):
        j = (i + 1) % k
        p, fp, fq = forms[i], f[i], f[j]
        if fp <= 0:
            out.append(p)
        if (fp < 0 < fq) or (fq < 0 < fp):
            q = forms[j]
            s = 1 if fq > 0 else -1
            out.append(_reduced(s * (fq * p[0] - fp * q[0]),
                                s * (fq * p[1] - fp * q[1]),
                                s * (fq * p[2] - fp * q[2])))
    return out


# ----------------------------------------------------------------- directions


def _direction(x, y) -> tuple:
    """The primitive integer vector along the nonzero ``int``/``Fraction``
    vector ``(x, y)``: equal directions give equal vectors at any scale."""
    if type(x) is not int or type(y) is not int:
        s = math.lcm(x.denominator, y.denominator)
        x = x.numerator * (s // x.denominator)
        y = y.numerator * (s // y.denominator)
    g = math.gcd(x, y)
    if g == 0:
        raise GeometryError("zero direction has no angle")
    return (x // g, y // g)


def _turn_cmp(u, w):
    """Negative when ``w`` lies strictly left of ``u``, zero when the two
    are parallel: minus the cross product ``u x w``."""
    return u[1] * w[0] - u[0] * w[1]


_BY_TURN = cmp_to_key(_turn_cmp)


def _ccw_sorted(vecs) -> list:
    """Nonzero vectors in counterclockwise order from ``(1, 0)``, exactly.

    By angular class first: the east axis, the open upper half-plane, the
    west axis, the open lower half-plane.  Within a class the angles span
    less than pi, so ``w`` comes after ``u`` iff it lies strictly left of
    ``u``, and the sign of a cross product orders them.  Vectors pointing
    the same way keep their input order.
    """
    classes: tuple = ([], [], [], [])
    for v in vecs:
        x, y = v
        classes[1 if y > 0 else 3 if y < 0 else 0 if x > 0 else 2].append(v)
    out: list = []
    for members in classes:
        out += sorted(members, key=_BY_TURN)
    return out


def unbounded_directions(planes) -> bool:
    """True when the intersection admits an unbounded (recession) direction.

    The intersection is bounded iff the constraint normals positively span
    the plane: every counterclockwise gap between consecutive normal
    directions must be strictly less than pi.  A gap of pi or more leaves a
    direction d with n . d <= 0 for every normal n, along which feasible
    points can escape to infinity.  Coefficients are ``int`` or
    ``Fraction``.
    """
    vecs = _ccw_sorted({_direction(h[0], h[1]) for h in planes})
    m = len(vecs)
    if m < 3:
        return True
    for i in range(m):
        u = vecs[i]
        w = vecs[(i + 1) % m]
        # ccw gap from u to w is < pi iff w lies strictly left of u
        if u[0] * w[1] - u[1] * w[0] <= 0:
            return True
    return False


# ----------------------------------------------------------------- intersector


def _meet(h, g) -> tuple | None:
    """Boundary-line intersection as ``(X, Y, D)`` with ``D = |det| > 0``
    (not reduced), or None if parallel.

    The form is integral when the coefficients are.
    """
    ha, hb, hc = h
    ga, gb, gc = g
    det = ha * gb - ga * hb
    if det == 0:
        return None
    X = hc * gb - gc * hb
    Y = ha * gc - ga * hc
    return (X, Y, det) if det > 0 else (-X, -Y, -det)


def _tighter(h, g) -> bool:
    """For same-direction constraints: is ``h`` at least as restrictive?

    With proportional normals the comparison is c_h/|n_h| <= c_g/|n_g|;
    any shared nonzero component works as the positive scale.
    """
    ha, hb, hc = h
    ga, gb, gc = g
    sh, sg = (abs(ha), abs(ga)) if ha != 0 else (abs(hb), abs(gb))
    return hc * sg <= gc * sh


def _vertex(h1, h2) -> tuple:
    v = _meet(h1, h2)
    if v is None:
        raise GeometryError("adjacent boundary constraints are parallel")
    return v


def _violates(h1, h2, h) -> bool:
    X, Y, D = _vertex(h1, h2)
    return h[0] * X + h[1] * Y > h[2] * D


def _reach(planes) -> int:
    """A bound on ``|x|`` and ``|y|`` where any two boundary lines of the
    ``int`` planes meet.

    Cramer's rule gives a coordinate of a meet as a 2x2 minor of the
    coefficients over ``|det| >= 1``, so ``2 * max|c| * max(|a|, |b|)``
    bounds both.
    """
    top_ab = max([1] + [max(abs(a), abs(b)) for a, b, _ in planes])
    top_c = max([1] + [abs(c) for _, _, c in planes])
    return 2 * top_ab * top_c


def _intersect_forms(planes) -> tuple:
    """Deque half-plane intersection: ccw vertex forms in O(m log m).

    ``planes`` are normalized, as :func:`plane_word` gives them; every
    plane is scaled to ``int`` coefficients (:func:`_int_plane`), so
    the sweep, its vertices and their cleanup run on integers.  Constraints
    are sorted by boundary direction and swept once, keeping the active
    envelope in a deque.  Four axis-aligned box constraints are mixed in so
    that no two angularly adjacent constraints are exactly opposite (an
    axis direction always separates a direction from its antipode), which
    guarantees every needed vertex exists.  If a box constraint survives to
    the final envelope the box was too small and the sweep repeats with the
    width squared.  Once the width exceeds :func:`_reach`, every vertex of a
    nonempty bounded region lies strictly inside the box, so a box
    constraint that still survives means the region is empty.  Returns the
    canonical chain (see :func:`_canonical_forms`); raises when the region
    is unbounded, empty or has no interior.
    """
    planes = [_int_plane(h) for h in planes]
    if unbounded_directions(planes):
        raise GeometryError("half-plane intersection is unbounded")
    width = 2 ** 20
    while True:
        box = ((1, 0, width), (-1, 0, width), (0, 1, width), (0, -1, width))
        best: dict = {}
        for h in planes + list(box):
            k = _direction(-h[1], h[0])
            g = best.get(k)
            if g is None or _tighter(h, g):
                best[k] = h
        dq: deque = deque()
        for k in _ccw_sorted(best):
            h = best[k]
            while len(dq) >= 2 and _violates(dq[-2], dq[-1], h):
                dq.pop()
            while len(dq) >= 2 and _violates(dq[0], dq[1], h):
                dq.popleft()
            dq.append(h)
        while len(dq) >= 3 and _violates(dq[-2], dq[-1], dq[0]):
            dq.pop()
        while len(dq) >= 3 and _violates(dq[0], dq[1], dq[-1]):
            dq.popleft()
        if len(dq) < 3:
            raise GeometryError("half-plane intersection has no interior")
        boxset = set(box) - set(planes)
        if any(h in boxset for h in dq):
            if width > _reach(planes):
                raise GeometryError("half-plane intersection is empty")
            width = width * width
            continue
        chain = _canonical_forms([_reduced(*_vertex(dq[i - 1], dq[i]))
                                  for i in range(len(dq))])
        if len(chain) < 3:
            raise GeometryError("half-plane intersection has no interior")
        return chain


def intersect_halfplanes_ordered(planes) -> tuple:
    """The ccw vertices of a bounded half-plane intersection as
    :class:`Point2` values, from the lexicographically smallest.  Takes raw
    planes: each goes through :func:`plane_word`, which rejects a zero
    normal, and :func:`_intersect_forms` does the work."""
    return tuple(_point(v) for v in _intersect_forms(map(plane_word, planes)))


@dataclass(frozen=True)
class HullChain:
    """A counterclockwise, strictly convex, closed vertex cycle.

    The chain is its vertex forms: ``int_vertices`` holds each vertex as
    :func:`_vertex_form` gives it, so the predicates that test against the
    chain and the clips that build the next one run on ``int``s.
    ``vertices`` holds the same points as :class:`Point2` values, built
    from the forms when ``vertices`` is first read and never before.
    """

    int_vertices: tuple

    @cached_property
    def vertices(self) -> tuple:
        return tuple(_point(v) for v in self.int_vertices)

    def is_convex_ccw(self) -> bool:
        v = self.int_vertices
        m = len(v)
        if m < 3:
            return m > 0
        return all(_orient(v[i - 1], v[i], v[(i + 1) % m]) > 0
                   for i in range(m))
