"""Exact-geometry kernels checked against independent oracles.

The oracle self-checks come first with hand-computed values; library
routines are then compared case-by-case and across randomized inputs.
Everything is exact integer or Fraction arithmetic, so equality assertions
are exact.
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
    _ccw_sorted,
    _clip_forms,
    _direction,
    _int_plane,
    _intersect_forms,
    _meet,
    _point,
    _vertex_form,
    canonical_chain,
    cross,
    frac,
    intersect_halfplanes_ordered,
    plane_word,
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
        around = _ccw_sorted([(v[0] - cx, v[1] - cy) for v in verts])
        verts = [(x + cx, y + cy) for x, y in around]
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
        plane_word((0, 0, 1))
    box = [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]
    with pytest.raises(GeometryError, match="nonzero"):
        intersect_halfplanes_ordered(box + [(0, F(0), 1)])


def test_meet_point():
    h = plane_word((1, 0, 2))
    g = plane_word((0, 1, 3))
    got = _point(_meet(h, g))
    assert got == Point2(F(2), F(3))
    assert type(got.x) is F and type(got.y) is F
    assert _meet(h, plane_word((2, 0, 5))) is None
    assert _point(_meet(plane_word((1, 1, 4)), plane_word((1, -1, 0)))) == \
        Point2(F(2), F(2))


# ------------------------------------------------------- direction order


def test_ccw_order_pinned_cycle():
    ccw = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1),
           (-2, 1), (-1, 0), (-2, -1), (-1, -1), (-1, -2), (0, -1),
           (1, -2), (1, -1), (2, -1)]
    assert _ccw_sorted(reversed(ccw)) == ccw
    rng = random.Random(3)
    for _ in range(20):
        assert _ccw_sorted(rng.sample(ccw, len(ccw))) == ccw
    for i, u in enumerate(ccw):
        for w in ccw[i + 1:]:
            assert _ccw_sorted([w, u]) == [u, w]
    # same direction: a tie, in input order
    assert _ccw_sorted([(5, 0), (1, 1), (1, 0)]) == [(5, 0), (1, 0), (1, 1)]
    assert _ccw_sorted([(-2, -2), (-1, -1)]) == [(-2, -2), (-1, -1)]
    # scale invariant, also across int and Fraction coefficients
    assert _direction(5, 0) == _direction(F(1, 3), 0) == (1, 0)
    assert _direction(F(-4, 3), F(2)) == _direction(-6, 9) == (-2, 3)
    with pytest.raises(GeometryError):
        _direction(0, 0)


def test_ccw_order_matches_atan2_order():
    rng = random.Random(7)
    seen = {}
    for _ in range(300):
        x, y = rng.randrange(-9, 10), rng.randrange(-9, 10)
        if x == 0 and y == 0:
            continue
        g = math.gcd(abs(x), abs(y))
        seen[(x // g, y // g)] = (x, y)
    vecs = list(seen.values())
    by_key = _ccw_sorted(vecs)
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
def test_clip_forms_matches_oracle(pts, h):
    chain = wrapped_chain(pts)
    if len(chain) < 3:
        return
    got = _clip_forms([_vertex_form(p) for p in chain], h)
    want = clip_once(chain, *h)
    assert got == [_vertex_form(p) for p in want]
    for X, Y, D in got:  # every output point satisfies the constraint
        assert h[0] * X + h[1] * Y <= h[2] * D


def test_clip_forms_pinned():
    sq = [(0, 0, 1), (4, 0, 1), (4, 4, 1), (0, 4, 1)]
    assert _clip_forms(sq, (1, 0, -1)) == []
    # corners on the boundary are kept once, and no crossing is added
    assert _clip_forms(sq, (1, 1, 4)) == [(0, 0, 1), (4, 0, 1), (0, 4, 1)]
    # crossings are gcd-reduced forms with D > 0, whichever end is inside
    assert _clip_forms(sq, (2, 0, 3)) == [
        (0, 0, 1), (3, 0, 2), (3, 8, 2), (0, 4, 1)]
    assert _clip_forms(sq, (-2, 0, -3)) == [
        (3, 0, 2), (4, 0, 1), (4, 4, 1), (3, 8, 2)]
    assert _int_plane(plane_word((F(2, 3), F(1, 2), 1))) == (4, 3, 6)


# --------------------------------------------------- half-plane envelopes


def test_unbounded_directions_pinned():
    tri = [plane_word(w) for w in ((1, 0, 1), (0, 1, 1), (-1, -1, 1))]
    assert not unbounded_directions(tri)
    assert unbounded_directions(tri[:2])
    strip = [plane_word(w) for w in ((1, 0, 1), (-1, 0, 1), (0, 1, 1))]
    assert unbounded_directions(strip)  # a gap of exactly pi
    box = [plane_word(w)
           for w in ((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1))]
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
        chain = HullChain(_intersect_forms([plane_word(h) for h in planes]))
        assert chain.vertices == got
        assert chain.is_convex_ccw() and got[0] == min(got)


def chain_of(points):
    return HullChain(tuple(_vertex_form(p) for p in points))


def test_hull_chain_validation():
    assert chain_of([(0, 0), (1, 0), (0, 1)]).is_convex_ccw()
    assert not chain_of([(0, 0), (0, 1), (1, 0)]).is_convex_ccw()  # cw
    assert not chain_of([(0, 0), (1, 0), (2, 0)]).is_convex_ccw()
    assert chain_of([(F(1, 2), 3), (1, F(-4, 6))]) == HullChain(
        ((1, 6, 2), (3, -2, 3)))
    assert chain_of([(F(1, 2), 3)]).vertices == (Point2(F(1, 2), F(3)),)
    assert frac(F(1, 3)) == F(1, 3)
    assert frac(4) == F(4)
