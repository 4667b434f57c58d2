"""Exact-geometry kernels checked against independent oracles.

The oracle self-checks come first with hand-computed values; library
routines are then compared case-by-case and across randomized inputs.
Everything is Fraction arithmetic, so equality assertions are exact.
"""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    clip_once,
    gift_wrap,
    hull_vertices_by_clipping,
    strip_collinear,
)
from pemlab.geometry import (
    GeometryError,
    HullChain,
    Point2,
    _meet,
    _point,
    angle_key,
    canonical_chain,
    clip_chain,
    cross,
    frac,
    halfplane,
    intersect_halfplanes_ordered,
    unbounded_directions,
)

F = Fraction


def rand_planes(rng, m, n=64):
    """Random half-planes with a strictly interior origin, plus an axis
    box so the intersection is always bounded."""
    planes = []
    for _ in range(m):
        a = rng.randrange(-30, 31)
        b = rng.randrange(-30, 31)
        if a == 0 and b == 0:
            a = 1
        planes.append((a, b, rng.randrange(1, 4 * n)))
    for a, b in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        planes.append((a, b, rng.randrange(n, 2 * n)))
    return planes


def wrapped_chain(pts):
    """The gift-wrap oracle's vertices as a ccw cycle from the smallest.

    Ordered by angle around the vertex centroid, which is strictly inside
    once there are three or more vertices.
    """
    verts = sorted(gift_wrap(pts))
    if len(verts) >= 3:
        cx = F(sum(v[0] for v in verts), len(verts))
        cy = F(sum(v[1] for v in verts), len(verts))
        verts.sort(key=lambda v: angle_key((v[0] - cx, v[1] - cy)))
        k = verts.index(min(verts))
        verts = verts[k:] + verts[:k]
    return tuple(Point2(frac(x), frac(y)) for x, y in verts)


# ---------------------------------------------------------------- oracles


def test_oracle_clip_once_square():
    sq = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert clip_once(sq, 1, 0, F(1, 2)) == [
        (F(0), F(0)), (F(1, 2), F(0)), (F(1, 2), F(1)), (F(0), F(1))]
    assert clip_once(sq, 1, 0, -1) == []
    assert clip_once(sq, 1, 0, 5) == [(F(0), F(0)), (F(1), F(0)),
                                      (F(1), F(1)), (F(0), F(1))]


def test_oracle_clipping_hull_box():
    verts = hull_vertices_by_clipping(
        [(1, 0, 2), (-1, 0, 0), (0, 1, 3), (0, -1, 0)])
    assert verts == {(F(0), F(0)), (F(2), F(0)), (F(2), F(3)), (F(0), F(3))}


def test_oracle_clipping_hull_grows_box():
    big = 2 ** 30  # beyond the oracle's 2**20 starting box
    verts = hull_vertices_by_clipping([(1, 0, big), (0, 1, big), (-1, -1, 0)])
    assert verts == {(F(big), F(big)), (F(big), F(-big)), (F(-big), F(big))}


def test_oracle_clipping_hull_empty():
    assert hull_vertices_by_clipping([(1, 0, 0), (-1, 0, -1)]) == frozenset()


def test_oracle_gift_wrap_corners_only():
    pts = [(0, 0), (4, 0), (4, 4), (0, 4), (2, 0), (1, 1), (0, 0), (4, 4)]
    assert gift_wrap(pts) == {(F(0), F(0)), (F(4), F(0)),
                              (F(4), F(4)), (F(0), F(4))}
    assert gift_wrap([(7, 9)]) == {(F(7), F(9))}
    assert gift_wrap([(0, 0), (1, 1), (2, 2), (3, 3)]) == {
        (F(0), F(0)), (F(3), F(3))}


def test_oracle_strip_collinear():
    assert strip_collinear([(0, 0), (1, 0), (2, 0), (2, 2), (0, 0)]) == [
        (0, 0), (2, 0), (2, 2)]


# ------------------------------------------------------------- predicates


def test_cross_and_dominates():
    assert cross((0, 0), (1, 0), (0, 1)) == 1
    assert cross((0, 0), (0, 1), (1, 0)) == -1
    assert cross((0, 0), (2, 2), (3, 3)) == 0


def test_halfplane_rejects_zero_normal():
    with pytest.raises(GeometryError):
        halfplane(0, 0, 1)


def test_meet_point():
    h = halfplane(1, 0, 2)
    g = halfplane(0, 1, 3)
    got = _point(_meet(h, g))
    assert got == Point2(F(2), F(3))
    assert type(got.x) is F and type(got.y) is F
    assert _meet(h, halfplane(2, 0, 5)) is None
    assert _point(_meet(halfplane(1, 1, 4), halfplane(1, -1, 0))) == \
        Point2(F(2), F(2))


# -------------------------------------------------------------- angle_key


def test_angle_key_pinned_cycle():
    ccw = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1),
           (-2, 1), (-1, 0), (-2, -1), (-1, -1), (-1, -2), (0, -1),
           (1, -2), (1, -1), (2, -1)]
    keys = [angle_key(v) for v in ccw]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert angle_key((5, 0)) == angle_key((1, 0))  # scale invariant
    with pytest.raises(GeometryError):
        angle_key((0, 0))


def test_angle_key_matches_atan2_order():
    rng = random.Random(7)
    seen = {}
    for _ in range(300):
        x, y = rng.randrange(-9, 10), rng.randrange(-9, 10)
        if x == 0 and y == 0:
            continue
        g = math.gcd(abs(x), abs(y))
        seen[(x // g, y // g)] = (x, y)
    vecs = list(seen.values())
    by_key = sorted(vecs, key=angle_key)
    by_atan = sorted(vecs, key=lambda v: math.atan2(v[1], v[0]) % math.tau)
    assert by_key == by_atan


# -------------------------------------------------- chain cleanup / clip


def test_canonical_chain_pinned():
    raw = [(2, 2), (0, 2), (0, 0), (1, 0), (1, 0), (2, 0), (2, 2)]
    assert canonical_chain(raw) == (
        Point2(F(0), F(0)), Point2(F(2), F(0)),
        Point2(F(2), F(2)), Point2(F(0), F(2)))
    assert canonical_chain([(1, 1), (1, 1)]) == (Point2(F(1), F(1)),)
    assert canonical_chain([]) == ()


def test_canonical_chain_idempotent_random():
    rng = random.Random(11)
    for _ in range(25):
        pts = [(rng.randrange(-40, 40), rng.randrange(-40, 40))
               for _ in range(rng.randrange(3, 30))]
        chain = wrapped_chain(pts)
        assert canonical_chain(chain) == chain


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
             min_size=3, max_size=16),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9),
              st.integers(-60, 60)).filter(lambda h: (h[0], h[1]) != (0, 0)),
)
def test_clip_chain_matches_oracle(pts, h):
    chain = wrapped_chain(pts)
    if len(chain) < 3:
        return
    got = clip_chain(chain, halfplane(*h))
    want = clip_once(chain, *h)
    assert [(p.x, p.y) for p in got] == want
    for p in got:  # every output point satisfies the constraint
        assert h[0] * p.x + h[1] * p.y <= h[2]


def test_clip_chain_pinned():
    sq = [(0, 0), (4, 0), (4, 4), (0, 4)]
    assert clip_chain(sq, halfplane(1, 0, -1)) == []
    kept = clip_chain(sq, halfplane(1, 1, 4))
    assert canonical_chain(kept) == (
        Point2(F(0), F(0)), Point2(F(4), F(0)), Point2(F(0), F(4)))


# --------------------------------------------------- half-plane envelopes


def test_unbounded_directions_pinned():
    tri = [halfplane(1, 0, 1), halfplane(0, 1, 1), halfplane(-1, -1, 1)]
    assert not unbounded_directions(tri)
    assert unbounded_directions(tri[:2])
    strip = [halfplane(1, 0, 1), halfplane(-1, 0, 1), halfplane(0, 1, 1)]
    assert unbounded_directions(strip)  # a gap of exactly pi
    box = [halfplane(1, 0, 1), halfplane(-1, 0, 1),
           halfplane(0, 1, 1), halfplane(0, -1, 1)]
    assert not unbounded_directions(box)


def test_intersect_halfplanes_square():
    box = [(1, 0, 2), (-1, 0, 0), (0, 1, 3), (0, -1, 0)]
    want = (Point2(F(0), F(0)), Point2(F(2), F(0)),
            Point2(F(2), F(3)), Point2(F(0), F(3)))
    assert intersect_halfplanes_ordered(box) == want


def test_intersect_halfplanes_errors():
    for planes in (
        [(1, 0, 1), (0, 1, 1)],                            # unbounded
        [(1, 0, 0), (-1, 0, -1), (0, 1, 1), (0, -1, 1)],   # empty
        # empty, and the box stays on the envelope at every width
        [(1, -4, 2), (-2, 2, 0), (2, -4, -2), (0, 4, -4)],
        [(1, 0, 0), (-1, 0, 0), (0, 1, 1), (0, -1, 1)],    # a segment
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)],    # a point
        [(1, 1, 0), (-1, 1, 0), (0, -1, 0)],               # three through a point
    ):
        with pytest.raises(GeometryError):
            intersect_halfplanes_ordered(planes)


def test_intersect_halfplanes_beyond_starting_box():
    big = 2 ** 30  # forces the ordered sweep to regrow its box
    planes = [(1, 0, big), (0, 1, big), (-1, -1, 0)]
    want = hull_vertices_by_clipping(planes)
    assert set(intersect_halfplanes_ordered(planes)) == want


def test_intersect_halfplanes_random_agreement():
    rng = random.Random(5)
    for t in range(40):
        planes = rand_planes(rng, rng.randrange(1, 25))
        want = hull_vertices_by_clipping(planes)
        got = intersect_halfplanes_ordered(planes)
        assert set(got) == want
        assert HullChain(got).is_convex_ccw() and got[0] == min(got)


def test_hull_chain_validation():
    assert HullChain([(0, 0), (1, 0), (0, 1)]).is_convex_ccw()
    assert not HullChain([(0, 0), (0, 1), (1, 0)]).is_convex_ccw()  # cw
    assert not HullChain([(0, 0), (1, 0), (2, 0)]).is_convex_ccw()
    assert frac(F(1, 3)) == F(1, 3)
    assert frac(4) == F(4)
