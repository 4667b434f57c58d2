"""Exact rational plane geometry: types and pure predicates.

Everything here is exact host arithmetic; no simulator cores are involved.
The machine-level pipeline charges its memory traffic separately and calls
these kernels for the mathematics, so every geometric decision is exact and
bit-reproducible — there are no epsilon tolerances anywhere.

Number rule: a coefficient stays a Python ``int`` when it is integral (see
:func:`coeff`) and is a :class:`fractions.Fraction` only otherwise.  A
predicate is a sign test on cross-multiplied products, so it divides
nothing and, on integral coefficients, runs on ``int``s alone; a point is
tested in its vertex form ``(X, Y, D)`` with ``D > 0`` and
``(x, y) = (X/D, Y/D)``, integers whenever the coefficients that made it
are.  A ``Fraction`` is built, once, only for a value that is stored or
returned: vertices, dual points, filter scores and slab boundaries.

Conventions: a half-plane ``(a, b, c)`` admits the points with
``a*x + b*y <= c``; hull chains are counterclockwise and strictly convex
(no repeated or collinear vertices) after :func:`canonical_chain`.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from pemlab.machine import MachineFault

__all__ = [
    "GeometryError",
    "HalfPlane",
    "HullChain",
    "Point2",
    "angle_key",
    "canonical_chain",
    "clip_chain",
    "coeff",
    "cross",
    "frac",
    "halfplane",
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


class HalfPlane(NamedTuple):
    """The constraint ``a*x + b*y <= c`` with ``(a, b) != (0, 0)``.

    Each coefficient is an ``int`` when integral, else a ``Fraction``.
    """

    a: int | Fraction
    b: int | Fraction
    c: int | Fraction


def plane_word(w) -> tuple:
    """The first three entries of ``w`` as exact coefficients ``(a, b, c)``
    in a plain tuple (the form a plane takes in machine memory)."""
    a, b, c = coeff(w[0]), coeff(w[1]), coeff(w[2])
    if a == 0 and b == 0:
        raise GeometryError("half-plane normal must be nonzero")
    return (a, b, c)


def halfplane(a, b, c) -> HalfPlane:
    return HalfPlane._make(plane_word((a, b, c)))


def _vertex_form(p) -> tuple:
    """The point ``p`` as ``(X, Y, D)`` with ``D > 0`` and
    ``(x, y) = (X/D, Y/D)``, all integers."""
    x, y = frac(p[0]), frac(p[1])
    dx, dy = x.denominator, y.denominator
    d = math.lcm(dx, dy)
    return (x.numerator * (d // dx), y.numerator * (d // dy), d)


def _meet(h: HalfPlane, g: HalfPlane) -> tuple | None:
    """Boundary-line intersection in vertex form, or None if parallel.

    ``D`` is ``|det|``; the form is integral when the coefficients are.
    """
    det = h.a * g.b - g.a * h.b
    if det == 0:
        return None
    X = h.c * g.b - g.c * h.b
    Y = h.a * g.c - g.a * h.c
    return (X, Y, det) if det > 0 else (-X, -Y, -det)


def _point(v) -> Point2:
    """The stored point of the vertex form ``v``."""
    return Point2(Fraction(v[0], v[2]), Fraction(v[1], v[2]))


def cross(o: Point2, p: Point2, q: Point2) -> Fraction:
    """Signed area of the turn o->p->q; positive means counterclockwise."""
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def angle_key(v) -> tuple:
    """Sort key ordering nonzero vectors counterclockwise from (1, 0).

    Exact: four angular classes (east axis, upper half, west axis, lower
    half); within an open half-plane the counterclockwise angle increases
    with -x/y, so the key is a pair of rationals with no magnitude limits.
    """
    x, y = v[0], v[1]
    if x == 0 and y == 0:
        raise GeometryError("zero direction has no angle")
    if y == 0:
        return (0 if x > 0 else 2, Fraction(0))
    if type(x) is not int or type(y) is not int:
        x, y = frac(x), frac(y)
    return (1 if y > 0 else 3, Fraction(-x, y))


def unbounded_directions(planes) -> bool:
    """True when the intersection admits an unbounded (recession) direction.

    The intersection is bounded iff the constraint normals positively span
    the plane: every counterclockwise gap between consecutive normal
    directions must be strictly less than pi.  A gap of pi or more leaves a
    direction d with n . d <= 0 for every normal n, along which feasible
    points can escape to infinity.
    """
    seen = {}
    for h in planes:
        seen.setdefault(angle_key((h.a, h.b)), (h.a, h.b))
    vecs = [v for _, v in sorted(seen.items())]
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


def canonical_chain(vertices) -> tuple:
    """Rotate/clean a ccw vertex cycle: dedupe, drop collinear, start at the
    lexicographically smallest vertex."""
    pts = [Point2(frac(p[0]), frac(p[1])) for p in vertices]
    out = []
    for p in pts:
        if not out or out[-1] != p:
            out.append(p)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    changed = True
    while changed and len(out) > 2:
        changed = False
        keep = []
        m = len(out)
        for i in range(m):
            if cross(out[i - 1], out[i], out[(i + 1) % m]) != 0:
                keep.append(out[i])
            else:
                changed = True
        out = keep
    if not out:
        return tuple()
    start = min(range(len(out)), key=lambda i: out[i])
    return tuple(out[start:] + out[:start])


def clip_chain(vertices, h: HalfPlane) -> list:
    """Clip a convex ccw vertex cycle by one half-plane, exactly.

    One Sutherland-Hodgman step keeping points with ``a*x + b*y <= c``;
    boundary points count as inside.  The output cycle may contain
    duplicate or collinear points (clean with :func:`canonical_chain`);
    it is empty when nothing survives.
    """
    pts = [Point2(frac(p[0]), frac(p[1])) for p in vertices]
    k = len(pts)
    out: list = []
    for i in range(k):
        p, q = pts[i], pts[(i + 1) % k]
        fp = h.a * p.x + h.b * p.y - h.c
        fq = h.a * q.x + h.b * q.y - h.c
        if fp <= 0:
            out.append(p)
        if (fp < 0 < fq) or (fq < 0 < fp):
            t = fp / (fp - fq)
            out.append(Point2(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y)))
    return out


def _tighter(h: HalfPlane, g: HalfPlane) -> bool:
    """For same-direction constraints: is ``h`` at least as restrictive?

    With proportional normals the comparison is c_h/|n_h| <= c_g/|n_g|;
    any shared nonzero component works as the positive scale.
    """
    sh, sg = (abs(h.a), abs(g.a)) if h.a != 0 else (abs(h.b), abs(g.b))
    return h.c * sg <= g.c * sh


def _vertex(h1: HalfPlane, h2: HalfPlane) -> tuple:
    v = _meet(h1, h2)
    if v is None:
        raise GeometryError("adjacent boundary constraints are parallel")
    return v


def _violates(h1: HalfPlane, h2: HalfPlane, h: HalfPlane) -> bool:
    X, Y, D = _vertex(h1, h2)
    return h.a * X + h.b * Y > h.c * D


def _reach(planes) -> int:
    """A bound on ``|x|`` and ``|y|`` where any two boundary lines meet.

    With each plane scaled to integers, Cramer's rule gives a coordinate of
    a meet as a 2x2 minor of the coefficients over ``|det| >= 1``, so
    ``2 * max|c| * max(|a|, |b|)`` bounds both.
    """
    top_ab = top_c = 1
    for h in planes:
        a, b, c = h
        if type(a) is not int or type(b) is not int or type(c) is not int:
            s = math.lcm(frac(a).denominator, frac(b).denominator,
                         frac(c).denominator)
            a, b, c = int(a * s), int(b * s), int(c * s)
        top_ab = max(top_ab, abs(a), abs(b))
        top_c = max(top_c, abs(c))
    return 2 * top_ab * top_c


def intersect_halfplanes_ordered(planes) -> tuple:
    """Deque half-plane intersection: ccw vertices in O(m log m).

    Constraints are sorted by boundary direction and swept once, keeping the
    active envelope in a deque.  Four axis-aligned box constraints are mixed
    in so that no two angularly adjacent constraints are exactly opposite
    (an axis direction always separates a direction from its antipode),
    which guarantees every needed vertex exists.  If a box constraint
    survives to the final envelope the box was too small and the sweep
    repeats with the width squared.  Once the width exceeds :func:`_reach`,
    every vertex of a nonempty bounded region lies strictly inside the box,
    so a box constraint that still survives means the region is empty.
    Raises when the region is unbounded, empty or has no interior.
    """
    planes = [halfplane(*h) for h in planes]
    if unbounded_directions(planes):
        raise GeometryError("half-plane intersection is unbounded")
    width = 2 ** 20
    while True:
        box = (
            HalfPlane(1, 0, width),
            HalfPlane(-1, 0, width),
            HalfPlane(0, 1, width),
            HalfPlane(0, -1, width),
        )
        best: dict = {}
        for h in list(planes) + list(box):
            k = angle_key((-h.b, h.a))
            g = best.get(k)
            if g is None or _tighter(h, g):
                best[k] = h
        dq: deque = deque()
        for k in sorted(best):
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
        verts = [_point(_vertex(dq[i - 1], dq[i])) for i in range(len(dq))]
        chain = canonical_chain(verts)
        if len(chain) < 3:
            raise GeometryError("half-plane intersection has no interior")
        return chain


@dataclass(frozen=True)
class HullChain:
    """A counterclockwise, strictly convex, closed vertex cycle.

    ``int_vertices`` holds each vertex in :func:`_vertex_form`, computed once
    per chain for the cross-multiplied predicates that test against it.
    """

    vertices: tuple
    int_vertices: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        verts = tuple(Point2(frac(p[0]), frac(p[1])) for p in self.vertices)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "int_vertices",
                           tuple(_vertex_form(v) for v in verts))

    def is_convex_ccw(self) -> bool:
        v = self.vertices
        m = len(v)
        if m < 3:
            return m > 0
        return all(cross(v[i - 1], v[i], v[(i + 1) % m]) > 0 for i in range(m))
