"""Cross-multiplied hull predicates against the Fraction formulas they
replace.

Each predicate in ``pemlab.geometry`` and ``pemlab.hull`` that decides a
sign on integer products is compared here with the direct rational
formula: divide first, then compare.  The integer vertex forms are checked
the same way: the direction order against an exact angle key and atan2,
the form clip and the form cleanup against the oracles' Fraction clip and
collinear strip.  Coefficients are drawn as ``int``, as integral
``Fraction`` and as non-integral ``Fraction``; points are placed exactly
on lines and vertices, where the ``<=``/``>=`` boundary semantics must not
move.
"""
import math
import random
import sys
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import clip_once, hull_vertices_by_clipping, strip_collinear
from pemlab.geometry import (
    GeometryError,
    HullChain,
    Point2,
    _canonical_forms,
    _ccw_sorted,
    _clip_forms,
    _direction,
    _int_plane,
    _intersect_forms,
    _meet,
    _point,
    _vertex_form,
    _violates,
    canonical_chain,
    intersect_halfplanes_ordered,
    plane_word,
    unbounded_directions,
)
from pemlab.hull import (
    _dual_pick,
    _filtered,
    _region,
    _score,
    _sector_interval,
    _slab_splitters,
    dualize,
    hull_main,
    preprocess_arrangement,
)
from pemlab.machine import Machine, MachineConfig, MachineFault
from pemlab.primitives import load_seq

F = Fraction

coef = st.one_of(
    st.integers(-40, 40),
    st.integers(-40, 40).map(F),
    st.fractions(min_value=-40, max_value=40, max_denominator=9),
)
plane = st.tuples(coef, coef, coef).filter(lambda w: w[0] != 0 or w[1] != 0)
positive = st.one_of(
    st.integers(1, 40),
    st.fractions(min_value=F(1, 9), max_value=40, max_denominator=9),
)


def machine(p=2):
    return Machine(MachineConfig(p=p, M=256, B=8, seed=0))


# ------------------------------------------------- the Fraction formulas


def ref_point(h, g):
    (a1, b1, c1), (a2, b2, c2) = [map(F, w) for w in (h, g)]
    det = a1 * b2 - a2 * b1
    if det == 0:
        return None
    return ((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det)


def ref_side(w, pt):
    """``a*x + b*y - c`` at ``pt``, in Fractions."""
    return F(w[0]) * pt[0] + F(w[1]) * pt[1] - F(w[2])


def ref_dual_pick(i, s):
    def pick(u, v):
        du, dv = F(u[i]) / F(u[2]), F(v[i]) / F(v[2])
        return u if (du >= dv if s > 0 else du <= dv) else v
    return pick


def ref_sector_interval(word, verts):
    a, b, c = map(F, word)
    t = len(verts)
    flags = [a * v.x + b * v.y >= c for v in verts]
    if not any(flags):
        return None
    if all(flags):
        return (0, t - 1)
    starts = [j for j in range(t) if flags[j] and not flags[j - 1]]
    if len(starts) != 1:
        raise MachineFault("vertex flags of a convex chain must be one arc")
    lo = hi = starts[0]
    while flags[(hi + 1) % t]:
        hi = (hi + 1) % t
    return ((lo - 1) % t, hi)


def ref_band(lines, a, b, c):
    """The slab binary search with the line height divided out."""
    ux, uy = F(a) / F(c), F(b) / F(c)
    lo, hi = 0, len(lines)
    while lo < hi:
        mid = (lo + hi) // 2
        _, X, Y, D = lines[mid]
        nx, ny = F(X, D), F(Y, D)
        if (1 - nx * ux) / ny <= uy:
            lo = mid + 1
        else:
            hi = mid
    return lo


def ref_angle_key(v):
    """Counterclockwise angle from ``(1, 0)`` as an exact key: angular
    class, then ``-x/y``, which grows with the angle inside an open
    half-plane."""
    x, y = F(v[0]), F(v[1])
    if y == 0:
        return (0 if x > 0 else 2, F(0))
    return (1 if y > 0 else 3, -x / y)


def ref_unbounded(planes):
    """Normals deduped and sorted by ``ref_angle_key``; unbounded iff some
    counterclockwise gap is at least pi."""
    seen = {}
    for a, b, _ in planes:
        seen.setdefault(ref_angle_key((a, b)), (F(a), F(b)))
    vecs = [v for _, v in sorted(seen.items())]
    m = len(vecs)
    return m < 3 or any(
        vecs[i][0] * vecs[(i + 1) % m][1] - vecs[i][1] * vecs[(i + 1) % m][0]
        <= 0 for i in range(m))


# Half an ulp past the largest finite float: from here on a quotient
# rounds to an infinity.
FLOAT_EDGE = F(sys.float_info.max) + F(2) ** 970


def ref_float(q):
    """The float nearest ``q``, saturated to an infinity past the range."""
    if abs(q) >= FLOAT_EDGE:
        return math.inf if q > 0 else -math.inf
    return float(q)


def sign(x):
    return (x > 0) - (x < 0)


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (GeometryError, MachineFault) as exc:
        return ("raise", type(exc))


# ---------------------------------------------------------- strategies


@st.composite
def chains(draw):
    """A convex chain around the origin with non-integral vertices."""
    planes = draw(st.lists(st.tuples(coef, coef, positive)
                           .filter(lambda w: w[0] != 0 or w[1] != 0),
                           min_size=0, max_size=6))
    box = [(1, 0, draw(positive)), (-1, 0, draw(positive)),
           (0, 1, draw(positive)), (0, -1, draw(positive))]
    return HullChain(_intersect_forms([plane_word(h) for h in planes + box]))


@st.composite
def through(draw, pt):
    """A plane whose boundary passes exactly through ``pt``."""
    a, b = draw(coef), draw(coef)
    assume(a != 0 or b != 0)
    return (a, b, a * pt[0] + b * pt[1])


vec = st.tuples(coef, coef).filter(lambda v: v != (0, 0))
AXES = [(1, 0), (0, 1), (-1, 0), (0, -1)]


@st.composite
def direction_pairs(draw):
    """Two nonzero vectors; the second is often the first at another
    scale, its antipode, or an axis direction."""
    u = draw(vec)
    k = draw(positive)
    kind = draw(st.sampled_from(["any", "scaled", "antiparallel", "axis"]))
    if kind == "scaled":
        return u, (u[0] * k, u[1] * k)
    if kind == "antiparallel":
        return u, (-u[0] * k, -u[1] * k)
    if kind == "axis":
        e = draw(st.sampled_from(AXES))
        return u, (e[0] * k, e[1] * k)
    return u, draw(vec)


@st.composite
def messy_cycles(draw):
    """A chain's vertices with repeats and edge-interior points added,
    rotated to start anywhere."""
    pts = list(draw(chains()).vertices)
    out = []
    for i, p in enumerate(pts):
        q = pts[(i + 1) % len(pts)]
        out.extend([p] * draw(st.integers(1, 3)))
        if draw(st.booleans()):
            t = draw(st.fractions(min_value=F(1, 10), max_value=F(9, 10),
                                  max_denominator=10))
            out.append((p.x + t * (q.x - p.x), p.y + t * (q.y - p.y)))
    k = draw(st.integers(0, len(out) - 1))
    return out[k:] + out[:k]


@st.composite
def vertex_and_plane(draw):
    h1, h2 = draw(plane), draw(plane)
    pt = ref_point(h1, h2)
    assume(pt is not None)
    h = draw(st.one_of(plane, through(pt)))
    return h1, h2, h


# ------------------------------------------------------ geometry kernels


@settings(max_examples=300, deadline=None)
@given(vertex_and_plane())
@example(((1, 0, 2), (0, 1, 3), (1, 1, 5)))      # det > 0, on the vertex
@example(((0, 1, 3), (1, 0, 2), (1, 1, 5)))      # det < 0, on the vertex
@example(((0, 1, 3), (1, 0, 2), (1, 1, 4)))      # det < 0, outside
@example(((F(1, 2), 0, 1), (0, F(-1, 3), 1), (F(2, 3), F(-1, 2), F(5, 2))))
def test_violates_and_meet_match_fraction_formula(case):
    h1, h2, h = case
    H1, H2, H = plane_word(h1), plane_word(h2), plane_word(h)
    pt = ref_point(h1, h2)
    assert _violates(H1, H2, H) == (ref_side(h, pt) > 0)
    got = _point(_meet(H1, H2))
    assert got == pt
    assert type(got.x) is F and type(got.y) is F


def test_parallel_lines_have_no_vertex():
    h, g = plane_word((1, 2, 3)), plane_word((F(2), 4, 1))
    assert _meet(h, g) is None
    with pytest.raises(GeometryError):
        _violates(h, g, plane_word((1, 0, 1)))


def test_halfplane_keeps_integral_coefficients_as_int():
    h = plane_word((F(6, 2), 4, F(1, 2)))
    assert tuple(map(type, h)) == (int, int, F)
    assert h == (3, 4, F(1, 2))


# ------------------------------------------------------ vertex forms


@settings(max_examples=400, deadline=None)
@given(direction_pairs())
@example(((3, 0), (F(1, 2), 0)))                # one axis, two scales
@example(((3, 0), (-1, 0)))                     # antiparallel axes
@example(((F(2, 3), F(-4, 3)), (-1, 2)))        # antiparallel, mixed types
@example(((1, 1), (F(7), 7)))                   # integral Fraction
def test_direction_order_matches_angle_reference(pair):
    u, w = pair
    du, dw = _direction(*u), _direction(*w)
    assert all(type(x) is int for x in du + dw)
    assert math.gcd(*du) == 1 and math.gcd(*dw) == 1
    ku, kw = ref_angle_key(u), ref_angle_key(w)
    want = (ku > kw) - (ku < kw)
    for a, b in ((du, dw), (u, w)):
        if want == 0:  # a tie keeps the input order
            assert _ccw_sorted([a, b]) == [a, b]
            assert _ccw_sorted([b, a]) == [b, a]
        else:
            first, second = (a, b) if want < 0 else (b, a)
            assert _ccw_sorted([a, b]) == [first, second]
            assert _ccw_sorted([b, a]) == [first, second]
    assert (du == dw) == (want == 0)
    au = math.atan2(float(u[1]), float(u[0])) % math.tau
    aw = math.atan2(float(w[1]), float(w[0])) % math.tau
    if abs(au - aw) > 1e-9:
        assert want == sign(au - aw)


@settings(max_examples=200, deadline=None)
@given(st.lists(vec, max_size=12))
def test_direction_sort_matches_angle_reference(vecs):
    assert _ccw_sorted(vecs) == sorted(vecs, key=ref_angle_key)
    dirs = [_direction(*v) for v in vecs]
    assert _ccw_sorted(dirs) == sorted(dirs, key=ref_angle_key)


@settings(max_examples=200, deadline=None)
@given(st.lists(plane, min_size=1, max_size=8))
def test_unbounded_directions_matches_angle_reference(planes):
    assert unbounded_directions(planes) == ref_unbounded(planes)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coef, coef, positive)
                .filter(lambda w: w[0] != 0 or w[1] != 0),
                min_size=0, max_size=7), st.tuples(positive, positive))
def test_intersector_matches_clipping_oracle(planes, size):
    planes = planes + [(1, 0, size[0]), (-1, 0, size[1]),
                       (0, 1, size[1]), (0, -1, size[0])]
    got = intersect_halfplanes_ordered(planes)
    assert set(got) == hull_vertices_by_clipping(planes)
    assert _intersect_forms([plane_word(h) for h in planes]) == \
        tuple(_vertex_form(p) for p in got)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_clip_forms_matches_oracle_clip(data):
    chain = data.draw(chains())
    verts = chain.vertices
    j = data.draw(st.integers(0, len(verts) - 1))
    h = data.draw(st.one_of(plane, through(verts[j]), through((0, 0))))
    got = _clip_forms(chain.int_vertices, _int_plane(plane_word(h)))
    want = clip_once(verts, *h)
    assert got == [_vertex_form(p) for p in want]
    assert all(D > 0 and math.gcd(X, Y, D) == 1 for X, Y, D in got)


@settings(max_examples=200, deadline=None)
@given(messy_cycles())
def test_canonical_forms_match_oracle_strip(cycle):
    corners = strip_collinear([(F(x), F(y)) for x, y in cycle])
    k = corners.index(min(corners))
    want = corners[k:] + corners[:k]
    got = _canonical_forms([_vertex_form(p) for p in cycle])
    assert got == tuple(_vertex_form(p) for p in want)
    assert canonical_chain(cycle) == tuple(Point2(*p) for p in want)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_int_vertices_are_vertex_forms_of_vertices(data):
    chain = data.draw(chains())
    assert len(chain.int_vertices) == len(chain.vertices)
    for i, v in enumerate(chain.vertices):
        assert chain.int_vertices[i] == _vertex_form(v)
        assert type(v.x) is F and type(v.y) is F
    assert chain == HullChain(tuple(_vertex_form(v) for v in chain.vertices))


def test_hull_main_chain_forms_match_vertices():
    """A run that polls, routes, recurses and stitches."""
    rng = random.Random(4)
    planes = []
    for _ in range(196):  # nearly tangent to a circle: many vertices
        a, b = rng.randrange(-50, 51) or 1, rng.randrange(-50, 51)
        r = math.isqrt(100 * (a * a + b * b)) + rng.randrange(3)
        planes.append((a, b, r))
    for a, b in AXES:
        planes.append((a, b, 11))
    m = Machine(MachineConfig(p=4, M=1024, B=8, seed=3))
    chain, written = hull_main(m, load_seq(m, planes), m.cores, stream=1)
    assert set(chain.vertices) == hull_vertices_by_clipping(planes)
    assert chain.int_vertices == tuple(_vertex_form(v)
                                       for v in chain.vertices)
    assert m.snapshot_memory(written.region) == list(chain.vertices)
    assert chain.is_convex_ccw()


# -------------------------------------------------------- hull predicates


@settings(max_examples=300, deadline=None)
@given(plane, plane, st.integers(-3, 3).filter(bool), st.booleans())
@example((1, 2, 3), (2, 4, 6), 1, False)         # same dual point: tie
@example((1, 2, 3), (-1, 5, -3), 1, False)       # tie in x, c of both signs
@example((1, 2, -3), (2, 1, 5), -1, True)
def test_dual_pick_matches_fraction_formula(u, v, k, tie):
    assume(u[2] != 0 and v[2] != 0)
    if tie:
        v = (k * u[0], v[1], k * u[2])          # same a/c, other b
    for i, s in ((0, 1), (0, -1), (1, 1), (1, -1)):
        assert _dual_pick(i, s)(u, v) is ref_dual_pick(i, s)(u, v)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sector_interval_and_score_match_fraction_formula(data):
    chain = data.draw(chains())
    verts, ints = chain.vertices, chain.int_vertices
    assert all(D > 0 and F(X, D) == v.x and F(Y, D) == v.y
               for v, (X, Y, D) in zip(verts, ints))
    j = data.draw(st.integers(0, len(verts) - 1))
    word = data.draw(st.one_of(plane, through(verts[j])))
    assert outcome(_sector_interval, word, ints) == \
        outcome(ref_sector_interval, word, verts)
    assume(word[2] != 0)
    got = _score(ints[j], ints[(j + 1) % len(ints)], word)
    p1, p2 = verts[j], verts[(j + 1) % len(verts)]
    a, b, c = map(F, word)
    exact = ((a * p1.x + b * p1.y) / c, (a * p2.x + b * p2.y) / c)
    assert tuple(q for _, q in got[:2]) + got[2:] == exact + (a, b, c)
    assert all(type(q) is F and f == ref_float(q) for f, q in got[:2])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_slab_band_matches_fraction_formula(data):
    """``_region`` against a slab table built here: its band is the slab
    binary search's, and its flags are those of a point strictly inside
    that band at the same x."""
    chain = data.draw(chains())
    ints = chain.int_vertices
    m = machine(p=1)
    xs = preprocess_arrangement(m, chain, m.cores[0])
    s = data.draw(st.integers(0, len(xs)))
    lo = xs[s - 1] if s > 0 else (xs[0] - 2 if xs else F(-1))
    hi = xs[s] if s < len(xs) else (xs[-1] + 2 if xs else F(1))
    # The slab's non-vertical dual lines bottom to top as (y, X, Y, D),
    # ordered by height at the slab's middle; no two cross inside the slab.
    mid = (lo + hi) / 2
    lines = sorted(((D - X * mid) / Y, X, Y, D) for X, Y, D in ints if Y != 0)
    assume(lines)
    # The chain surrounds the origin, so some line has Y < 0.
    assert any(Y < 0 for _, _, Y, _ in lines)
    # A dual point strictly inside slab s.
    t = data.draw(st.fractions(min_value=F(1, 20), max_value=F(19, 20),
                               max_denominator=20))
    ux = lo + t * (hi - lo)
    on = data.draw(st.integers(-1, len(lines) - 1))
    if on >= 0:                                  # exactly on a line
        _, X, Y, D = lines[on]
        uy = (D - X * ux) / Y
    else:
        uy = data.draw(st.fractions(min_value=-50, max_value=50,
                                    max_denominator=12))
    # The plane (a, b, c) with dual point (ux, uy), c > 0, scaled by a
    # positive factor that may leave it non-integral.
    c = F(math.lcm(ux.denominator, uy.denominator)) * data.draw(positive)
    a, b = ux * c, uy * c
    a, b, c = plane_word((a, b, c))
    band, flags = _region(ints, a, b, c)
    assert band == ref_band(lines, a, b, c)
    for line in lines:
        assert _region([line[1:]], a, b, c)[0] == ref_band([line], a, b, c)
    # A point strictly inside that band at x = ux, on no line, and its
    # flags.
    ys = [(D - X * ux) / Y for _, X, Y, D in lines]
    if band == 0:
        vy = ys[0] - 1
    elif band == len(ys):
        vy = ys[-1] + 1
    else:
        vy = (ys[band - 1] + ys[band]) / 2
    assert flags == [ux * X + vy * Y >= D for X, Y, D in ints]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(coef, coef, positive)
                .filter(lambda w: w[0] != 0 or w[1] != 0),
                min_size=1, max_size=12))
def test_dualize_matches_fraction_formula(words):
    words = [plane_word(w) for w in words]  # hull_main's normalized words
    m = machine()
    out = dualize(m, load_seq(m, words), m.cores)
    got = m.snapshot_memory(out)
    want = [(F(a) / F(c), F(b) / F(c), a, b, c) for a, b, c in words]
    assert [(w[0][1], w[1][1], *w[2:]) for w in got] == want
    assert all(type(q) is F and f == ref_float(q)
               for w in got for f, q in w[:2])


# ------------------------------------------------- filtered sort keys


@st.composite
def key_pool(draw):
    """Fractions rich in float ties: small ones, ones nudged by ``2**-60``,
    quotients past the float range and at its edge, and underflowing ones."""
    base = draw(st.lists(st.one_of(
        st.fractions(min_value=-50, max_value=50, max_denominator=50),
        st.builds(F, st.integers(-10**400, 10**400), st.integers(1, 10**6)),
        st.builds(F, st.integers(-10**6, 10**6), st.integers(10**330, 10**400)),
        st.sampled_from([FLOAT_EDGE, -FLOAT_EDGE, FLOAT_EDGE - F(1, 2**60),
                         F(sys.float_info.max)]),
    ), min_size=1, max_size=6))
    nudge = st.sampled_from([0, F(1, 2**60), -F(1, 2**60)])
    return base + [q + draw(nudge) for q in base]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_filtered_keys_order_as_the_exact_keys(data):
    """Sorting and ``bisect_left`` over dual-shaped words and slab
    splitters give the same permutation and positions with each
    ``Fraction`` ``q`` as ``(float(q), q)`` as with ``q`` alone."""
    pool = data.draw(key_pool())
    assert all(_filtered(q) == (ref_float(q), q) for q in pool)
    q = st.sampled_from(pool)
    words = data.draw(st.lists(st.tuples(q, q, st.integers(-2, 2)),
                               min_size=1, max_size=12))
    keyed = [(_filtered(x), _filtered(y), k) for x, y, k in words]
    order = sorted(range(len(words)), key=words.__getitem__)
    assert sorted(range(len(words)), key=keyed.__getitem__) == order
    # Splitters drawn from the words, as a sample sort draws them.
    picks = sorted(data.draw(st.lists(st.sampled_from(order), max_size=4)),
                   key=words.__getitem__)
    assert ([bisect_left([keyed[i] for i in picks], w) for w in keyed]
            == [bisect_left([words[i] for i in picks], w) for w in words])
    # The slab splitters of locate_points.
    xs = sorted(set(data.draw(st.lists(q, max_size=4))))
    slabs = [(x, inf) for x in xs for inf in (-math.inf, math.inf)]
    keyed_slabs = _slab_splitters(xs)
    assert list(keyed_slabs) == sorted(keyed_slabs)
    assert ([bisect_left(keyed_slabs, w) for w in keyed]
            == [bisect_left(slabs, w) for w in words])


def good_planes(count):
    """``count`` planes around the origin (c > 0) with a bounded box."""
    planes = [(1, 0, 50), (-1, 0, 50), (0, 1, 50), (0, -1, 50)]
    k = 1
    while len(planes) < count:
        planes.append((k % 17 - 8 or 1, k % 13 - 6, 40 + k % 29))
        k += 1
    return planes


def test_hull_main_saturates_quotients_past_the_float_range():
    """Dual points and scores of these planes overflow a float; their keys
    saturate and the chain stays exact."""
    big = 10**400
    planes = good_planes(120) + [
        (big, 1, 1), (-big, 7, 3), (1, big, 2), (3, -big, 5),
        (1, 1, big), (big + 1, 0, big), (2, 5, 3 * big), (-big, -big, 1)]
    m = Machine(MachineConfig(p=4, M=1024, B=8, seed=0))
    chain, _ = hull_main(m, load_seq(m, planes), m.cores, stream=1)
    assert chain.vertices == canonical_chain(
        intersect_halfplanes_ordered(planes))
