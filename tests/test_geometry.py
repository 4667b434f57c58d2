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
    angle_key,
    canonical_chain,
    clip_chain,
    convex_hull_points,
    cross,
    feasible,
    frac,
    halfplane,
    intersect_halfplanes,
    intersect_halfplanes_ordered,
    line_intersect,
    point2,
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
    assert cross(point2(0, 0), point2(1, 0), point2(0, 1)) == 1
    assert cross(point2(0, 0), point2(0, 1), point2(1, 0)) == -1
    assert cross(point2(0, 0), point2(2, 2), point2(3, 3)) == 0


def test_halfplane_rejects_zero_normal():
    with pytest.raises(GeometryError):
        halfplane(0, 0, 1)


def test_line_intersect():
    h = halfplane(1, 0, 2)
    g = halfplane(0, 1, 3)
    assert line_intersect(h, g) == Point2(F(2), F(3))
    assert line_intersect(h, halfplane(2, 0, 5)) is None
    assert line_intersect(halfplane(1, 1, 4), halfplane(1, -1, 0)) == \
        Point2(F(2), F(2))


def test_feasible_strict_and_weak():
    planes = [halfplane(1, 0, 1), halfplane(0, 1, 1)]
    assert feasible((1, 0), planes)
    assert not feasible((1, 0), planes, strict=True)
    assert feasible((0, 0), planes, strict=True)
    assert not feasible((2, 0), planes)


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
        chain = convex_hull_points(pts)
        assert canonical_chain(chain) == tuple(chain)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
             min_size=3, max_size=16),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9),
              st.integers(-60, 60)).filter(lambda h: (h[0], h[1]) != (0, 0)),
)
def test_clip_chain_matches_oracle(pts, h):
    chain = convex_hull_points(pts)
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


# ------------------------------------------------------------ point hulls


def test_convex_hull_points_vs_gift_wrap():
    rng = random.Random(23)
    for t in range(60):
        kind = t % 3
        if kind == 0:
            pts = [(rng.randrange(-50, 50), rng.randrange(-50, 50))
                   for _ in range(rng.randrange(1, 40))]
        elif kind == 1:  # small grid: many collinear and duplicate points
            pts = [(rng.randrange(0, 4), rng.randrange(0, 4))
                   for _ in range(rng.randrange(1, 25))]
        else:  # clustered with repeats
            base = [(rng.randrange(-9, 9), rng.randrange(-9, 9))
                    for _ in range(rng.randrange(1, 8))]
            pts = [rng.choice(base) for _ in range(rng.randrange(1, 20))]
        chain = convex_hull_points(pts)
        assert set(chain) == gift_wrap(pts)
        if len(chain) >= 3:
            assert HullChain(chain).is_convex_ccw()
        if chain:
            assert chain[0] == min(chain)


def test_convex_hull_points_degenerate():
    assert convex_hull_points([(3, 1), (3, 1)]) == (Point2(F(3), F(1)),)
    assert convex_hull_points([(0, 0), (2, 2), (1, 1)]) == (
        Point2(F(0), F(0)), Point2(F(2), F(2)))


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
    assert intersect_halfplanes(box) == want
    assert intersect_halfplanes_ordered(box) == want


def test_intersect_halfplanes_errors():
    with pytest.raises(GeometryError):
        intersect_halfplanes([(1, 0, 1), (0, 1, 1)])  # unbounded
    with pytest.raises(GeometryError):
        intersect_halfplanes_ordered([(1, 0, 1), (0, 1, 1)])
    empty = [(1, 0, 0), (-1, 0, -1), (0, 1, 1), (0, -1, 1)]
    with pytest.raises(GeometryError):
        intersect_halfplanes(empty)
    with pytest.raises(GeometryError):
        intersect_halfplanes_ordered(empty)


def test_intersect_halfplanes_beyond_starting_box():
    big = 2 ** 30  # forces the ordered sweep to regrow its box
    planes = [(1, 0, big), (0, 1, big), (-1, -1, 0)]
    want = hull_vertices_by_clipping(planes)
    assert set(intersect_halfplanes_ordered(planes)) == want
    assert set(intersect_halfplanes(planes)) == want


def test_intersect_halfplanes_random_agreement():
    rng = random.Random(5)
    for t in range(40):
        planes = rand_planes(rng, rng.randrange(1, 25))
        want = hull_vertices_by_clipping(planes)
        got_brute = intersect_halfplanes(planes)
        got_ordered = intersect_halfplanes_ordered(planes)
        assert tuple(got_brute) == tuple(got_ordered)
        assert set(got_brute) == want


def test_hull_chain_validation():
    assert HullChain([(0, 0), (1, 0), (0, 1)]).is_convex_ccw()
    assert not HullChain([(0, 0), (0, 1), (1, 0)]).is_convex_ccw()  # cw
    assert not HullChain([(0, 0), (1, 0), (2, 0)]).is_convex_ccw()
    assert frac(F(1, 3)) == F(1, 3)
    assert frac(4) == F(4)
