"""Half-plane intersection and point hulls against independent oracles.

End-to-end runs are compared with the box-clipping oracle (plane
intersections) and the gift-wrapping oracle (point hulls) for exact
vertex-set equality.  The internal routing stages are checked against
direct re-derivations: vertex-flag arcs for sector routing and
region-equality for the dominance filter.
"""
import random
from fractions import Fraction

import pytest

from oracles import (
    gift_wrap,
    hull_vertices_by_clipping,
    maxima_one_strict,
    maxima_points,
)
from pemlab.geometry import (
    GeometryError,
    HullChain,
    Point2,
    _intersect_forms,
    canonical_chain,
    intersect_halfplanes_ordered,
)
from pemlab.hull import (
    _DEPTH_CAP,
    HullStats,
    _candidate_count,
    _Ctx,
    _group_bound,
    _hull_base,
    _hull_rec,
    _poll_count,
    _polling_sample,
    _sample_size,
    _sweep_survivors,
    convex_hull_2d,
    expand_by_sector,
    filter_sector,
    find_sectors,
    hull_main,
    maxima_par,
)
from pemlab.bench import instance
from pemlab.machine import Machine, MachineConfig, MachineFault, MemRegion
from pemlab.primitives import KeySeq, _streams, load_seq

F = Fraction


def make(p=4, M=1024, B=8, seed=0):
    return Machine(MachineConfig(p=p, M=M, B=B, seed=seed))


def bounded_instance(rng, m, n=None):
    """Random half-planes with the origin strictly interior and an axis
    box so the intersection is bounded with nonempty interior."""
    n = n if n is not None else max(8, m)
    planes = []
    for _ in range(max(0, m - 4)):
        a = rng.randrange(-2000, 2001)
        b = rng.randrange(-2000, 2001)
        if a == 0 and b == 0:
            a = 1
        planes.append((a, b, rng.randrange(1, 4 * n)))
    for a, b in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        planes.append((a, b, rng.randrange(n, 2 * n)))
    rng.shuffle(planes)
    return planes


def hull_ctx(m, planes, stream=0):
    """The context ``hull_main`` builds for ``planes`` on all of ``m``'s
    cores; the stages take these int planes as normalized words."""
    return _Ctx(m, HullStats(), N=len(planes), P=len(m.cores),
                next_stream=_streams(stream))


def chain_vertex_set(chain: HullChain):
    return {(v.x, v.y) for v in chain.vertices}


# ----------------------------------------------------- sampling arithmetic


class TestSamplingArithmetic:
    def test_pinned_arithmetic(self):
        assert _sample_size(4096) == 2      # ceil(4096**(1/32))
        assert _sample_size(2 ** 64) == 4   # ceil(2**2)
        assert _poll_count(4096) == 16      # floor wins at small m
        assert _poll_count(2 ** 30) == 2 ** 30 // 30 ** 4
        assert _group_bound(1024) == pytest.approx(
            2.0 * 1024 ** (31 / 32) * 10.0)
        assert _candidate_count(4096) == 12


# -------------------------------------------------------------- hull_main


class TestHullMain:
    def test_pinned_box(self):
        m = make()
        planes = [(1, 0, 2), (-1, 0, 2), (0, 1, 3), (0, -1, 1)]
        chain, written = hull_main(m, load_seq(m, planes), m.cores)
        assert chain.vertices == (
            Point2(F(-2), F(-1)), Point2(F(2), F(-1)),
            Point2(F(2), F(3)), Point2(F(-2), F(3)))
        assert m.snapshot_memory(written) == [(-2, -1), (2, -1), (2, 3), (-2, 3)]
        assert chain.is_convex_ccw()

    def test_pinned_triangle_with_redundant(self):
        m = make(p=2)
        planes = [(0, -1, 1), (1, 1, 4), (-1, 1, 4),
                  (0, -1, 5), (1, 1, 9), (0, 1, 100)]  # three redundant
        chain, _ = hull_main(m, load_seq(m, planes), m.cores)
        assert chain_vertex_set(chain) == {
            (F(-5), F(-1)), (F(5), F(-1)), (F(0), F(4))}

    def test_matches_clipping_oracle_random(self):
        shapes = [(2, 256, 8), (4, 1024, 8), (4, 4096, 64), (8, 512, 16)]
        for t in range(16):
            rng = random.Random(1000 + t)
            size = rng.randrange(8, 500)
            p, M, B = shapes[t % len(shapes)]
            m = make(p=p, M=M, B=B, seed=t)
            planes = bounded_instance(rng, size)
            chain, _ = hull_main(m, load_seq(m, planes), m.cores, stream=t)
            assert chain_vertex_set(chain) == \
                hull_vertices_by_clipping(planes), (t, size)
            assert chain.is_convex_ccw()

    def test_duplicate_heavy(self):
        rng = random.Random(77)
        base = bounded_instance(rng, 12)
        planes = [rng.choice(base) for _ in range(120)] + base
        m = make(p=4, seed=3)
        chain, _ = hull_main(m, load_seq(m, planes), m.cores)
        assert chain_vertex_set(chain) == hull_vertices_by_clipping(planes)

    def test_single_core(self):
        rng = random.Random(5)
        planes = bounded_instance(rng, 40)
        m = make(p=1)
        chain, _ = hull_main(m, load_seq(m, planes), m.cores)
        assert chain_vertex_set(chain) == hull_vertices_by_clipping(planes)

    def test_rejects_unbounded(self):
        m = make()
        planes = [(1, 0, 5), (0, 1, 5), (1, 1, 7)]
        with pytest.raises(GeometryError):
            hull_main(m, load_seq(m, planes), m.cores)

    def test_rejects_infeasible_origin(self):
        m = make()
        planes = [(1, 0, 2), (-1, 0, 0), (0, 1, 2), (0, -1, 2)]
        with pytest.raises(GeometryError):
            hull_main(m, load_seq(m, planes), m.cores)

    def test_rejects_tiny_input(self):
        m = make()
        with pytest.raises(GeometryError):
            hull_main(m, load_seq(m, [(1, 0, 1), (-1, 0, 1)]), m.cores)

    def test_deterministic_across_runs(self):
        rng = random.Random(31)
        planes = bounded_instance(rng, 200)
        results = []
        for _ in range(2):
            m = make(p=4, M=512, B=8, seed=42)
            chain, _ = hull_main(m, load_seq(m, planes), m.cores, stream=3)
            led = m.ledger()
            results.append((chain.vertices, led.ops, led.cache_misses,
                            led.block_misses, led.rounds))
        assert results[0] == results[1]

    @pytest.mark.parametrize("form", [F, float], ids=["fraction", "float"])
    def test_input_form_does_not_reach_the_stages(self, form):
        # hull_main's one charged pass writes every plane as its exact
        # plane_word and every later stage reads only those words, so the
        # same planes given as int, integral Fraction or float triples run
        # identically: costs, caches, every word written, chain and stats.
        planes = instance("hull", 600, 3)

        def run(words):
            m = make(p=4, M=256, B=8, seed=0)
            seq = load_seq(m, words)
            stats = HullStats()
            chain, written = hull_main(m, seq, m.cores, stats=stats)
            image = m.snapshot_memory(MemRegion(seq.region.end, m._sh._limit - seq.region.end))
            return (m.ledger(), m.cache_state(), [repr(w) for w in image],
                    chain.int_vertices, m.snapshot_memory(written),
                    m.diagnostics, stats)

        assert run([tuple(map(form, w)) for w in planes]) == run(planes)

    def test_stats_rounds_respect_group_bound(self):
        rng = random.Random(55)
        planes = bounded_instance(rng, 1 << 10)
        m = make(p=4, M=4096, B=64, seed=9)
        stats = HullStats()
        hull_main(m, load_seq(m, planes), m.cores, stats=stats)
        assert stats.polls >= 1
        assert stats.accepted == len(stats.rounds) >= 1
        for r in stats.rounds:
            assert r["largest_group"] <= r["group_bound"]
            assert r["sectors"] >= 1

    def test_depth_cap_finishes_sequentially(self):
        # At the depth cap a problem above the grain neither polls nor
        # splits: one core clips it in one round, with one diagnostic.
        planes = bounded_instance(random.Random(3), 300)
        m = make(p=4, seed=6)
        ctx = hull_ctx(m, planes)
        chain = _hull_rec(ctx, load_seq(m, planes), m.cores, depth=_DEPTH_CAP)
        assert m.diagnostics == [
            "hull: depth cap 12 reached at m=300; finishing sequentially"]
        assert (ctx.stats.fallbacks, ctx.stats.polls) == (1, 0)
        led = m.ledger()
        assert (led.per_core_ops, led.per_core_cache_misses,
                led.per_core_block_misses, led.rounds) == (
            (3000, 0, 0, 0), (38, 0, 0, 0), (0, 0, 0, 0), 1)
        assert chain.vertices == canonical_chain(
            intersect_halfplanes_ordered(planes))


class TestHalfplaneBrute:
    def test_matches_oracle(self):
        # The polling sample's clip, charged as a brute-force m**2 pass.
        rng = random.Random(2)
        planes = bounded_instance(rng, 15)
        m = make(p=1)
        chain = _hull_base(m, load_seq(m, planes), m.cores[0], len(planes))
        assert chain_vertex_set(chain) == hull_vertices_by_clipping(planes)
        assert m.ledger().ops >= 15 * 15  # quadratic work is charged


# --------------------------------------------------------- sector routing


def expected_sector_sets(planes, verts):
    """Independent routing rule: plane (a, b, c) reaches sector j when a
    flagged vertex (a*vx + b*vy >= c) is one of sector j's two corners."""
    t = len(verts)
    out = []
    for a, b, c in planes:
        secs = set()
        for v in range(t):
            if a * verts[v].x + b * verts[v].y >= c:
                secs.add((v - 1) % t)
                secs.add(v)
        out.append(frozenset(secs) if secs else None)
    return out


def interval_to_set(interval, t):
    if interval is None:
        return None
    lo, hi = interval
    return frozenset((lo + i) % t for i in range((hi - lo) % t + 1))


SAMPLE_PLANES = [(1, 0, 4), (-1, 0, 4), (0, 1, 4), (0, -1, 4), (1, 1, 6)]


class TestSectorRouting:
    def test_intervals_match_flag_arcs(self):
        chain = HullChain(_intersect_forms(SAMPLE_PLANES))
        t = len(chain.vertices)
        rng = random.Random(13)
        planes = bounded_instance(rng, 120, n=16)
        # add planes passing exactly through sample vertices (flag ties)
        for v in list(chain.vertices)[:3]:
            num = v.x.denominator * v.y.denominator
            a, b = v.y.denominator, v.x.denominator
            planes.append((int(a * 2), int(b * 3),
                           int(2 * a * v.x + 3 * b * v.y)))
        planes = [pl for pl in planes
                  if pl[2] > 0]  # dualization needs c > 0
        m = make(p=4, seed=8)
        groups = find_sectors(hull_ctx(m, planes), load_seq(m, planes), chain,
                              m.cores)
        got = {}
        covered = 0
        for sl, interval in groups:
            covered += sl.n
            for w in m.snapshot_memory(sl):
                key = (w[-3], w[-2], w[-1])
                got.setdefault(key, []).append(interval_to_set(interval, t))
        assert covered == len(planes)
        want = {}
        exp = expected_sector_sets([(F(a), F(b), F(c)) for a, b, c in planes],
                                   chain.vertices)
        for pl, secs in zip(planes, exp):
            want.setdefault((F(pl[0]), F(pl[1]), F(pl[2])), []).append(secs)
        assert set(got) == set(want)
        for key in want:
            assert sorted(got[key], key=repr) == sorted(want[key], key=repr)

    def test_planes_through_lower_vertices_pinned(self):
        """Planes through the sample vertices (4, -4) and (-4, -4), whose
        dual lines have Y < 0, lie on those lines and land in the band
        above; each takes that band's interval, which leaves out a sector
        the plane touches only at the vertex."""
        chain = HullChain(_intersect_forms(SAMPLE_PLANES))
        planes = [(2, 1, 4), (1, -1, 8), (3, 1, 8), (1, -2, 12), (-1, -3, 8),
                  (-1, -1, 8), (-2, -1, 12), (1, -3, 8), (-3, 1, 8),
                  (1, 2, 9), (-2, 3, 10), (3, -1, 11), (-1, 4, 13),
                  (2, 2, 17), (5, 1, 19), (-4, -1, 15), (1, 5, 21),
                  (-3, -2, 14), (2, -5, 23)]
        m = make(p=4, seed=8)
        groups = find_sectors(hull_ctx(m, planes), load_seq(m, planes), chain,
                              m.cores)
        got = [(iv, [tuple(w[-3:]) for w in m.snapshot_memory(sl)])
               for sl, iv in groups]
        assert got == [
            ((4, 0), [(-4, -1, 15)]),
            ((3, 4), [(-3, 1, 8)]),
            ((4, 0), [(-3, -2, 14), (-1, -3, 8)]),
            (None, [(-2, -1, 12), (-1, -1, 8)]),
            ((3, 4), [(-2, 3, 10)]),
            ((2, 4), [(-1, 4, 13)]),
            ((2, 3), [(1, 5, 21)]),
            ((0, 1), [(1, -2, 12)]),
            ((0, 1), [(1, -3, 8), (2, -5, 23)]),
            (None, [(1, -1, 8), (2, 2, 17)]),
            ((2, 3), [(1, 2, 9)]),
            ((0, 1), [(3, -1, 11)]),
            ((1, 2), [(5, 1, 19)]),
            ((1, 3), [(2, 1, 4), (3, 1, 8)]),
        ]
        led = m.ledger()
        assert (led.ops, led.cache_misses, led.block_misses,
                led.rounds) == (775, 50, 17, 17)

    def test_expand_by_sector_buckets(self):
        chain = HullChain(_intersect_forms(SAMPLE_PLANES))
        t = len(chain.vertices)
        rng = random.Random(29)
        planes = [pl for pl in bounded_instance(rng, 60, n=16)]
        m = make(p=4, seed=8)
        groups = find_sectors(hull_ctx(m, planes), load_seq(m, planes), chain,
                              m.cores)
        copies = expand_by_sector(m, groups, t, m.cores)
        exp = expected_sector_sets([(F(a), F(b), F(c)) for a, b, c in planes],
                                   chain.vertices)
        want_buckets = [[] for _ in range(t)]
        for pl, secs in zip(planes, exp):
            for j in secs or ():
                want_buckets[j].append((F(pl[0]), F(pl[1]), F(pl[2])))
        assert sum(copies.sizes) == sum(len(bk) for bk in want_buckets)
        for j, bucket in enumerate(copies.buckets()):
            got = sorted(m.snapshot_memory(bucket))
            assert got == sorted(want_buckets[j]), j

    def test_polling_sample_is_bounded_subset(self):
        rng = random.Random(3)
        planes = bounded_instance(rng, 300)
        m = make(p=4, seed=6)
        ctx = hull_ctx(m, planes, stream=2)
        res = _polling_sample(ctx, load_seq(m, planes), m.cores)
        assert res is not None
        chain, words = res
        assert len(chain.vertices) >= 3 and chain.is_convex_ccw()
        pool = {(F(a), F(b), F(c)) for a, b, c in planes}
        assert all((w[0], w[1], w[2]) in pool for w in words)
        assert ctx.stats.polls >= 1


# -------------------------------------------------------- dominance filter


class TestFilterSector:
    def test_region_within_wedge_is_preserved(self):
        chain = HullChain(_intersect_forms(SAMPLE_PLANES))
        t = len(chain.vertices)
        rng = random.Random(17)
        planes = bounded_instance(rng, 80, n=16)
        m = make(p=4, seed=4)
        groups = find_sectors(hull_ctx(m, planes), load_seq(m, planes), chain,
                              m.cores)
        copies = expand_by_sector(m, groups, t, m.cores)
        checked = 0
        for j, view in enumerate(copies.buckets()):
            bucket = m.snapshot_memory(view)
            if not bucket:
                continue
            seq = load_seq(m, bucket)
            survivors, host = filter_sector(m, seq, j, chain, m.cores,
                                            stream=j)
            got = m.snapshot_memory(survivors)
            assert got == list(host)
            assert len(got) <= len(bucket)
            inset = {tuple(w) for w in bucket}
            assert all(tuple(w) in inset for w in got)
            # dropping dominated planes must not change the region inside
            # the wedge: clip both sets to the sector and compare exactly
            lo = chain.vertices[j]
            hi = chain.vertices[(j + 1) % t]
            wedge = [(lo.y, -lo.x, 0), (-hi.y, hi.x, 0),
                     (lo.x + hi.x, lo.y + hi.y, 10 ** 9)]
            full = hull_vertices_by_clipping([tuple(w) for w in bucket]
                                             + wedge)
            kept = hull_vertices_by_clipping([tuple(w) for w in got] + wedge)
            assert full == kept, j
            checked += 1
        assert checked >= 3

    def test_empty_sector(self):
        chain = HullChain(_intersect_forms(SAMPLE_PLANES))
        m = make()
        seq = KeySeq(m.alloc(0), 0)
        survivors, host = filter_sector(m, seq, 0, chain, m.cores)
        assert survivors.n == 0 and host == []


# ------------------------------------------------------------ point hulls


class TestConvexHull2d:
    def test_pinned_square_with_clutter(self):
        m = make()
        pts = [(0, 0), (4, 0), (4, 4), (0, 4), (2, 0), (2, 2),
               (0, 0), (4, 4), (1, 3)]
        chain, written = convex_hull_2d(m, load_seq(m, pts), m.cores)
        assert chain.vertices == (
            Point2(F(0), F(0)), Point2(F(4), F(0)),
            Point2(F(4), F(4)), Point2(F(0), F(4)))
        assert m.snapshot_memory(written) == [(0, 0), (4, 0), (4, 4), (0, 4)]

    def test_matches_gift_wrap_random(self):
        shapes = [(2, 256, 8), (4, 1024, 8), (8, 512, 16)]
        one_core = (1, 256, 8)
        cases = []  # (points, machine shape)
        for t in range(14):
            rng = random.Random(2000 + t)
            kind = t % 4
            size = rng.randrange(6, 320)
            if kind == 0:
                pts = [(rng.randrange(-800, 800), rng.randrange(-800, 800))
                       for _ in range(size)]
            elif kind == 1:  # dense grid: collinear runs and duplicates
                pts = [(rng.randrange(0, 7), rng.randrange(0, 7))
                       for _ in range(size)]
            elif kind == 2:  # clustered repeats
                base = [(rng.randrange(-50, 50), rng.randrange(-50, 50))
                        for _ in range(10)]
                pts = [rng.choice(base) for _ in range(size)]
            else:  # points on a parabola: every point extreme
                pts = [(x, x * x) for x in range(-size // 2, size // 2)]
            cases.append((pts, shapes[t % len(shapes)]))
        rng = random.Random(2014)
        for t in range(4):  # non-integral coordinates
            pts = [(F(rng.randrange(-300, 300), rng.randrange(1, 12)),
                    F(rng.randrange(-300, 300), rng.randrange(1, 12)))
                   for _ in range(rng.randrange(6, 120))]
            cases.append((pts, one_core if t % 2 else shapes[t % 3]))
        for t in range(3):  # collinear and not vertical, with repeats
            xs = [rng.randrange(-60, 60) for _ in range(rng.randrange(2, 40))]
            pts = [(F(x, 3), F(-2 * x, 3) + 5) for x in xs] if t else \
                [(x, 3 * x - 7) for x in xs + xs[:3]]
            cases.append((pts, one_core if t == 1 else shapes[t]))
        # o = (pmin + pmax + apex) / 3 = (1, 1) is itself an input point
        for shape in (shapes[1], one_core):
            cases.append(([(0, 0), (3, 0), (0, 3), (1, 1), (1, 1)], shape))
        for t, (pts, (p, M, B)) in enumerate(cases):
            m = make(p=p, M=M, B=B, seed=t)
            chain, _ = convex_hull_2d(m, load_seq(m, pts), m.cores, stream=t)
            assert chain_vertex_set(chain) == gift_wrap(pts), t
            if len(chain.vertices) >= 3:
                assert chain.is_convex_ccw()
            assert chain.vertices[0] == min(chain.vertices)

    def test_pinned_cost_of_demo_instance(self):
        # demos/hull_walkthrough.py's point front end; a change of these
        # counts is a change of the algorithm, not of its speed
        rng = random.Random(11)
        pts = [(rng.randrange(-5000, 5000), rng.randrange(-5000, 5000))
               for _ in range(600)]
        m = make(p=4, M=1024, B=16, seed=11)
        chain, _ = convex_hull_2d(m, load_seq(m, pts), m.cores, stream=11)
        led = m.ledger()
        assert len(chain.vertices) == 23
        assert (led.ops, led.cache_misses, led.block_misses, led.rounds) == \
            (70073, 1839, 80, 446)

    def test_degenerate_inputs(self):
        m = make()
        chain, _ = convex_hull_2d(m, load_seq(m, [(3, 1)] * 5), m.cores)
        assert chain.vertices == (Point2(F(3), F(1)),)
        m = make()
        chain, _ = convex_hull_2d(
            m, load_seq(m, [(1, 1), (5, 5), (3, 3), (1, 1)]), m.cores)
        assert chain.vertices == (Point2(F(1), F(1)), Point2(F(5), F(5)))
        m = make()
        chain, _ = convex_hull_2d(
            m, load_seq(m, [(2, 9), (2, -3), (2, 4)]), m.cores)
        assert chain.vertices == (Point2(F(2), F(-3)), Point2(F(2), F(9)))

    def test_rejects_empty(self):
        m = make()
        with pytest.raises(MachineFault):
            convex_hull_2d(m, KeySeq(m.alloc(0), 0), m.cores)

    def test_deterministic_across_runs(self):
        rng = random.Random(8)
        pts = [(rng.randrange(-99, 99), rng.randrange(-99, 99))
               for _ in range(150)]
        runs = []
        for _ in range(2):
            m = make(p=4, seed=11)
            chain, _ = convex_hull_2d(m, load_seq(m, pts), m.cores, stream=5)
            led = m.ledger()
            runs.append((chain.vertices, led.ops, led.cache_misses,
                         led.block_misses))
        assert runs[0] == runs[1]


# ---------------------------------------------------------------- maxima


class TestMaxima:
    def test_pinned(self):
        pts = [(0, 3), (1, 1), (2, 2), (3, 0), (2, 2)]
        m = make(p=1)
        got = m.snapshot_memory(maxima_par(m, load_seq(m, pts), m.cores))
        assert got == maxima_points(pts)

    def test_seq_equals_par_equals_oracle(self):
        # "seq" is the same routine on a one-core machine.
        for t in range(8):
            rng = random.Random(300 + t)
            size = rng.randrange(1, 160)
            span = rng.choice([5, 40, 1000])
            pts = [(rng.randrange(-span, span), rng.randrange(-span, span))
                   for _ in range(size)]
            m1 = make(p=1, seed=t)
            got_seq = m1.snapshot_memory(maxima_par(m1, load_seq(m1, pts), m1.cores, stream=t))
            m2 = make(p=4, seed=t)
            got_par = m2.snapshot_memory(maxima_par(m2, load_seq(m2, pts), m2.cores, stream=t))
            want = maxima_points(pts)
            assert got_seq == want, t
            assert got_par == want, t

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("rule, oracle", [
        ("one_strict", maxima_one_strict), ("strict_both", maxima_points)])
    def test_sweep_survivors_match_oracle(self, p, rule, oracle):
        # Few distinct x, so chunk boundaries split blocks of equal x.
        for t in range(10):
            rng = random.Random(500 + t)
            pts = sorted((rng.randrange(6), rng.randrange(6))
                         for _ in range(rng.randrange(1, 40)))
            m = make(p=p, seed=t)
            seq, host = _sweep_survivors(m, load_seq(m, pts), m.cores, rule,
                                         emit=lambda w: w)
            assert m.snapshot_memory(seq) == host == oracle(pts), t

    @pytest.mark.parametrize("rule, ledger, kept", [
        ("one_strict", ((35, 26, 30), (8, 4, 5), (0, 0, 0), 3), 4),
        ("strict_both", ((35, 32, 32), (8, 6, 6), (0, 0, 1), 3), 12),
    ])
    def test_sweep_survivors_pinned(self, rule, ledger, kept):
        # Three chunks of six; the block x = 2 starts in the first chunk,
        # fills the second and ends in the third, so the first chunk's carry
        # takes its y = 7 from the third.
        pts = [(0, 5), (1, 1), (1, 4), (2, 0), (2, 1), (2, 2),
               (2, 3), (2, 3), (2, 4), (2, 4), (2, 5), (2, 6),
               (2, 7), (3, 2), (3, 2), (3, 3), (4, 1), (5, 0)]
        m = make(p=3, M=64, B=4)
        seq = load_seq(m, pts)
        # The sweep's first allocation is its 2g = 6 block-spaced slots.
        base = m.alloc(0).base
        _, host = _sweep_survivors(m, seq, m.cores, rule, emit=lambda w: w)
        led = m.ledger()
        assert (led.per_core_ops, led.per_core_cache_misses,
                led.per_core_block_misses, led.rounds) == ledger
        # Three summaries, then the carries of chunks 0, 1 and 2.
        assert m.snapshot_memory(MemRegion(base, 6 * 4))[::4] == [
            (0, 5, 4), (2, 6, None), (2, 7, 3),
            (2, 7, 3), (2, 7, 3), None]
        assert len(host) == kept

    def test_empty(self):
        m = make()
        assert maxima_par(m, KeySeq(m.alloc(0), 0), m.cores[:1]).n == 0
        assert maxima_par(m, KeySeq(m.alloc(0), 0), m.cores).n == 0
