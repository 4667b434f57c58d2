"""Independent reference implementations used to check the library.

Each oracle is deliberately naive — a different algorithm written
directly from the defining property — so agreement with the library is
evidence rather than circularity.  All arithmetic is exact: the clipping
oracle and ``gift_wrap`` keep ``int`` values as ``int`` (integer products
are exact too, and ``3 == Fraction(3)`` with equal hashes, so their results
compare the same) and build a ``Fraction`` only for a non-integral input or
a clip's crossing point.  None of these functions import library geometry
code.
"""
from fractions import Fraction


def _frac(v):
    return v if isinstance(v, Fraction) else Fraction(v)


def _exact(v):
    """``v`` itself when it is an ``int``, else ``v`` as a ``Fraction``."""
    return v if isinstance(v, int) else _frac(v)


def clip_once(poly, a, b, c):
    """One convex-polygon/half-plane clip keeping ``a*x + b*y <= c``.

    ``poly`` is a cycle of ``(x, y)`` pairs; boundary points count as
    inside; crossings are cut exactly.  Returns the clipped cycle,
    possibly with duplicate or collinear points, empty when nothing
    survives.
    """
    a, b, c = _exact(a), _exact(b), _exact(c)
    pts = [(_exact(x), _exact(y)) for x, y in poly]
    out = []
    k = len(pts)
    for i in range(k):
        (px, py), (qx, qy) = pts[i], pts[(i + 1) % k]
        fp = a * px + b * py - c
        fq = a * qx + b * qy - c
        if fp <= 0:
            out.append((px, py))
        if (fp < 0 < fq) or (fq < 0 < fp):
            t = Fraction(fp, fp - fq)
            out.append((px + t * (qx - px), py + t * (qy - py)))
    return out


def strip_collinear(poly):
    """Corner vertices of a convex cycle: drop duplicates and
    edge-interior (collinear) points, preserving order."""
    out = []
    for p in poly:
        if not out or out[-1] != p:
            out.append(p)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    changed = True
    while changed and len(out) > 2:
        changed = False
        nxt = []
        m = len(out)
        for i in range(m):
            (ox, oy), (px, py), (qx, qy) = out[i - 1], out[i], out[(i + 1) % m]
            turn = (px - ox) * (qy - oy) - (py - oy) * (qx - ox)
            if turn != 0:
                nxt.append(out[i])
            else:
                changed = True
        out = nxt
    return out


def hull_vertices_by_clipping(planes):
    """Vertex set of a bounded intersection of half-planes ``a*x+b*y<=c``.

    Starts from a huge axis-aligned box and clips by every constraint in
    turn.  If any surviving vertex still touches the box the box was too
    small, and the whole run repeats with the width squared (a bounded
    region has finitely large vertices, so this terminates).  Returns a
    frozenset of exact ``(x, y)`` corner vertices; empty when the
    intersection is empty.  The caller must ensure the intersection is
    bounded.
    """
    width = 2 ** 20
    while True:
        poly = [(-width, -width), (width, -width), (width, width),
                (-width, width)]
        for a, b, c in planes:
            poly = clip_once(poly, a, b, c)
            if not poly:
                return frozenset()
        if all(abs(x) < width and abs(y) < width for x, y in poly):
            return frozenset(strip_collinear(poly))
        width = width * width


def gift_wrap(points):
    """Extreme points of a planar point multiset, by gift wrapping.

    Walks the hull from the lexicographically smallest point, always
    advancing to the candidate with no other point on its outer side and
    taking the farthest among collinear candidates, so edge-interior
    points never appear.  Returns a frozenset of ``(x, y)`` corners;
    degenerate inputs (single point, collinear set) yield their
    extremes.
    """
    uniq = sorted({(_exact(x), _exact(y)) for x, y in points})
    if len(uniq) <= 2:
        return frozenset(uniq)
    start = uniq[0]
    hull = [start]
    cur = start
    while True:
        nxt = None
        for cand in uniq:
            if cand == cur:
                continue
            if nxt is None:
                nxt = cand
                continue
            turn = ((nxt[0] - cur[0]) * (cand[1] - cur[1])
                    - (nxt[1] - cur[1]) * (cand[0] - cur[0]))
            if turn > 0:
                nxt = cand
            elif turn == 0:
                dn = (nxt[0] - cur[0]) ** 2 + (nxt[1] - cur[1]) ** 2
                dc = (cand[0] - cur[0]) ** 2 + (cand[1] - cur[1]) ** 2
                if dc > dn:
                    nxt = cand
        if nxt == start:
            break
        hull.append(nxt)
        cur = nxt
    return frozenset(hull)


def maxima_points(points):
    """Sorted multiset of points not strictly dominated in both axes."""
    pts = [(_frac(x), _frac(y)) for x, y in points]
    return sorted(p for p in pts
                  if not any(q[0] > p[0] and q[1] > p[1] for q in pts))


def maxima_one_strict(points):
    """Sorted multiset of points that no point dominates with both
    components at least as large and one strictly larger (ties survive)."""
    pts = [(_frac(x), _frac(y)) for x, y in points]
    return sorted(p for p in pts
                  if not any(q[0] >= p[0] and q[1] >= p[1] and q != p
                             for q in pts))
