"""Parallel 2-D half-plane intersection and convex hulls on the cache machine.

The driver :func:`hull_main` intersects ``m`` half-planes whose common
interior contains the origin.  Each round samples a few planes, computes
their intersection into a small polygon, polls random planes to estimate how
the rest spread over the polygon's angular sectors, and accepts a sample
whose estimated spread is balanced.  Every plane is then routed to the
sectors whose triangle (origin, two adjacent sample vertices) it can
actually cut, the per-sector groups are pruned by an exact dominance rule,
and the sectors recurse independently.  The final chain is stitched per
sector and is exact, with no epsilon anywhere.  :func:`convex_hull_2d`
reaches the same driver by polar duality: it maps the points to half-planes
about an interior point, runs one intersection and reads the hull's vertices
off the chain's edges.  :func:`maxima_par` gives the dominance maxima of a
point set by one sort and one sweep.  These three are the public entries.

:func:`hull_main` alone checks and normalizes plane input.  Every stage
after it takes its words as they are: ``(a, b, c)`` as
:func:`~pemlab.geometry.plane_word` gives it, a nonzero normal and
``c > 0``.

There is one configuration.  The sampling exponent is fixed at ``1/32``;
it and the other bounds of a round (poll size, copy budget, recursion
floor and depth) are the private constants below, and the sorts use the
default :class:`~pemlab.sorting.SortPlan`.

Numbers follow the rule of :mod:`pemlab.geometry`: plane coefficients stay
``int`` when integral, every per-plane decision (dual extremes, sector
flags, slab bands) is a sign test on cross-multiplied products against a
chain's integer vertex forms, the base case, the sector clips and the
stitch build chains of those forms, and a ``Fraction`` is built only for a
dual point, a filter score, a slab boundary or a vertex that a caller
reads.  The point front ends keep integral coordinates as ``int``.

Every ``Fraction`` that words are sorted or partitioned by is stored as the
filtered pair ``(float(q), q)`` (:func:`_filtered`).  ``float`` of a
``Fraction`` is its correctly rounded ``int / int`` quotient, and rounding
is monotone, so a strict float order is the rational order and only float
ties reach the ``Fraction``: the pairs order exactly as the rationals do
(the exact-arithmetic filter of Brönnimann, Burnikel and Pion, and of
Shewchuk).

Machine conventions: a half-plane ``a*x + b*y <= c`` is one memory word,
stored as the tuple ``(a, b, c)``; points are ``(x, y)`` words.  Cores are
charged for every pass over plane or point data; the small per-round
summaries that drive control flow (sample chains, bucket sizes, slab
boundaries, region intervals) are treated as host metadata, exactly like
splitter keys in the partition routines.  Sector sub-problems execute one
after another on the same physical cores; the ledger's critical path
treats phase-sequential siblings the same as concurrent ones.

Sector routing rests on three exact facts.  First, a plane with dual point
``u = (a/c, b/c)`` can remove area from the triangle of sector ``j`` iff
``u . P >= 1`` for one of the sector's sample vertices ``P``, because the
origin always satisfies ``u . O = 0 < 1``.  The flagged vertices of a
convex chain form one circular arc, so each plane maps to one circular
sector interval.  Planes are grouped by region of the chain's dual-line
arrangement, and no table of regions is built: inside a slab a plane's
band is the number of dual lines at or below its dual point, and every
plane of one band has the same flags, so both are read off the plane's
own vertex products (:func:`_region`).  Second, inside the wedge of
sector ``j`` every point is ``alpha * P_j + beta * P_{j+1}`` with
nonnegative coefficients, so a plane whose two vertex products
``(s1, s2)`` are componentwise dominated (both at least as large, one
strictly) by another plane's is redundant there and can be dropped.
Third, each sub-problem keeps the full sample, so it stays bounded with
the origin strictly interior, and clipping its result to the sector wedge
reproduces the true intersection inside that wedge.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import accumulate

from pemlab.geometry import (
    GeometryError,
    HullChain,
    _canonical_forms,
    _clip_forms,
    _dedupe,
    _intersect_forms,
    _reduced,
    _vertex_form,
    coeff,
    cross,
    plane_word,
    unbounded_directions,
)
from pemlab.machine import MachineFault
from pemlab.merge import BucketedRun
from pemlab.partition import PartitionTask, partition_main, partition_seq
from pemlab.primitives import (
    KeySeq,
    _check_cores,
    _check_stream,
    _map_pass,
    _scan_words,
    _slot,
    _streams,
    _write_words,
    compact,
    parallel_for,
    sample_k_of_n_seq,
    spaced_slots,
)
from pemlab.primitives import _reduce as _reduce_words
from pemlab.sorting import sample_sort

__all__ = [
    "HullStats",
    "convex_hull_2d",
    "hull_main",
    "maxima_par",
]


# --------------------------------------------------------------------------
# constants, statistics, context


# Inverse of the sampling exponent: a candidate sample holds
# ``ceil(m**(1/_EPS_INV))`` planes plus the four dual-extreme planes.
_EPS_INV = 32
# A round may write at most ``_EXPANSION * m`` plane copies.
_EXPANSION = 4
# Smallest poll, for sizes where ``m / log(m)**4`` collapses to nothing.
_POLL_FLOOR = 16
# Fresh polls after a round in which no candidate is accepted.
_REPOLLS = 1
# Smallest parallel sub-problem: at most ``max(N / P, _BASE_FLOOR)`` planes
# are clipped on one core, whatever N/P is.
_BASE_FLOOR = 32
# Recursion depth at which a sub-problem finishes sequentially.
_DEPTH_CAP = 12


def _sample_size(m: int) -> int:
    return max(1, math.ceil(m ** (1.0 / _EPS_INV)))


def _candidate_count(m: int) -> int:
    return max(1, round(math.log2(max(2, m))))


def _poll_count(m: int) -> int:
    ilog = max(1, m.bit_length() - 1)
    return min(m, max(_POLL_FLOOR, m // ilog**4))


def _group_bound(m: int) -> float:
    """Largest sector group an accepted round may keep."""
    eps = 1.0 / _EPS_INV
    return 2.0 * (m ** (1.0 - eps)) * max(1.0, math.log2(max(2, m)))


@dataclass
class HullStats:
    """Observed behaviour of the sampling rounds of one driver run."""

    polls: int = 0
    accepted: int = 0
    repolls: int = 0
    fallbacks: int = 0
    rounds: list = field(default_factory=list)

    def record_round(self, m: int, sectors: int, largest: int, bound: float,
                     copies: int) -> None:
        self.accepted += 1
        self.rounds.append({
            "m": m,
            "sectors": sectors,
            "largest_group": largest,
            "group_bound": bound,
            "copies": copies,
        })


@dataclass
class _Ctx:
    machine: object
    stats: HullStats
    N: int
    P: int
    next_stream: object

    @property
    def grain(self) -> int:
        return max(self.N // self.P, _BASE_FLOOR)


# --------------------------------------------------------------------------
# sequential building blocks


def _hull_base(machine, planes: KeySeq, core, tick: int) -> HullChain:
    """Sequential base case: one core reads the normalized planes, is
    charged ``tick`` per plane, and clips them all in sorted order.  Raises
    :class:`GeometryError` when the intersection is unbounded, empty or has
    no interior."""
    words = _scan_words(machine, planes, core, tick=tick)
    return HullChain(_intersect_forms(words))


# --------------------------------------------------------------------------
# sampling and polling


def _dual_extremes(machine, planes: KeySeq, cores) -> list:
    """The four planes extreme in dual coordinates ``(a/c, b/c)``."""
    return [_reduce_words(machine, planes, cores, _dual_pick(i, s))
            for i, s in ((0, 1), (0, -1), (1, 1), (1, -1))]


def _dual_pick(i: int, s: int):
    """Reduction step keeping the word with the larger (``s = 1``) or
    smaller (``s = -1``) dual coordinate ``w[i]/w[2]``; ties keep ``u``.

    ``u[i]/u[2] - v[i]/v[2]`` has the sign of ``u[i]*v[2] - v[i]*u[2]``,
    flipped when ``u[2]`` and ``v[2]`` differ in sign.
    """

    def pick(u, v):
        d = u[i] * v[2] - v[i] * u[2]
        return u if (d if (u[2] > 0) == (v[2] > 0) else -d) * s >= 0 else v

    return pick


def _sector_interval(word, verts) -> tuple | None:
    """Circular sector interval ``(lo, hi)`` the plane can cut, or None.

    ``verts`` is the chain's ``int_vertices``.  Vertex ``j`` is flagged when
    ``u . P_j >= 1`` (with ``u = (a/c, b/c)``, ``c > 0``), evaluated
    cross-multiplied as ``a*X + b*Y >= c*D`` so nothing divides; the
    interval is the :func:`_arc` of the flags.
    """
    a, b, c = word
    return _arc([a * X + b * Y >= c * D for X, Y, D in verts])


def _arc(flags) -> tuple | None:
    """The sectors a convex chain's vertex ``flags`` let a plane touch.

    The flags of a convex chain form one circular arc ``[lo..hi]``; the
    plane can touch exactly the sectors ``lo - 1 .. hi``.  No flags means
    the plane misses every sector triangle; all flags means it cuts
    everywhere.
    """
    t = len(flags)
    if not any(flags):
        return None
    if all(flags):
        return (0, t - 1)
    starts = [j for j in range(t) if flags[j] and not flags[j - 1]]
    if len(starts) != 1:
        raise MachineFault("vertex flags of a convex chain must be one arc")
    lo = starts[0]
    hi = lo
    while flags[(hi + 1) % t]:
        hi = (hi + 1) % t
    return ((lo - 1) % t, hi)


def _interval_sectors(interval, t: int) -> list:
    lo, hi = interval
    span = (hi - lo) % t + 1
    return [(lo + i) % t for i in range(span)]


def _polling_sample(ctx: _Ctx, planes: KeySeq, cores):
    """Clip ``_candidate_count(m)`` random samples, each with the four
    dual-extreme planes, and poll random planes to estimate each bounded
    candidate's sector copies and largest group; the candidate with the
    fewest estimated copies within ``_EXPANSION * m`` and
    ``_group_bound(m)`` wins, after one re-poll if none qualifies.  Returns
    ``(chain, sample_words)``, or ``None``."""
    machine = ctx.machine
    m = planes.n
    s = _sample_size(m)
    k = _candidate_count(m)
    q = _poll_count(m)
    extremes = _dual_extremes(machine, planes, cores)

    candidates = []
    for i in range(k):
        core = cores[i % len(cores)]
        drawn = sample_k_of_n_seq(machine, planes, s, core,
                                  stream=ctx.next_stream())
        sample_words = list(dict.fromkeys(_scan_words(machine, drawn, core)
                                          + extremes))
        sample_seq = _write_words(machine, sample_words, core)
        try:
            chain = _hull_base(machine, sample_seq, core,
                               max(1, sample_seq.n))
        except GeometryError:
            continue
        candidates.append((chain, sample_words))

    bound = _group_bound(m)
    for attempt in range(1 + _REPOLLS):
        if attempt:
            ctx.stats.repolls += 1
        best = None
        for ci, (chain, sample_words) in enumerate(candidates):
            core = cores[ci % len(cores)]
            polled = sample_k_of_n_seq(machine, planes, q, core,
                                       stream=ctx.next_stream())
            ctx.stats.polls += 1
            t = len(chain.int_vertices)
            per_sector = [0] * t
            copies = 0
            for w in _scan_words(machine, polled, core, tick=max(1, t)):
                iv = _sector_interval(w, chain.int_vertices)
                if iv is None:
                    continue
                hit = _interval_sectors(iv, t)
                copies += len(hit)
                for sec in hit:
                    per_sector[sec] += 1
            scale = m / q
            est_total = copies * scale
            est_group = max(per_sector) * scale
            if est_group <= bound and est_total <= _EXPANSION * m:
                if best is None or est_total < best[0]:
                    best = (est_total, chain, sample_words)
        if best is not None:
            return best[1], best[2]
    return None


# --------------------------------------------------------------------------
# sector location: dual arrangement of the sample chain


def _filtered(q: Fraction) -> tuple:
    """``q`` as the sort key ``(float(q), q)``; a quotient past the float
    range saturates to an infinity of its sign."""
    try:
        return (q.numerator / q.denominator, q)
    except OverflowError:
        return (math.inf if q > 0 else -math.inf, q)


def dualize(machine, planes: KeySeq, cores) -> KeySeq:
    """Map each of :func:`hull_main`'s normalized plane words (``c > 0``)
    to ``(x, y, a, b, c)``: its dual point ``(a/c, b/c)`` plus the
    coefficients, so later passes never chase references.  Each coordinate
    is the filtered pair ``(float(q), q)`` of its exact ``Fraction``
    ``q``."""

    def to_dual(w):
        a, b, c = w
        return (_filtered(Fraction(a, c)), _filtered(Fraction(b, c)), a, b, c)

    return _map_pass(machine, planes, cores, to_dual, tick=2)


def preprocess_arrangement(machine, chain: HullChain, core) -> tuple:
    """The sorted slab boundaries ``xs`` of the chain's dual arrangement.

    The chain's vertices ``(X, Y, D)`` are the dual lines ``X*x + Y*y = D``.
    ``xs`` holds every pairwise intersection x plus the x of each vertical
    line; slab ``s`` is the open interval between ``xs[s-1]`` and ``xs[s]``,
    and no two lines cross inside it.  The boundaries are host metadata
    (like splitter keys).  One core is charged for the slab table without
    building it: the work of intersecting all line pairs and of probing one
    sample point per region with all ``t`` lines, where each of the
    ``len(xs) + 1`` slabs holds the same ``z`` non-vertical lines and so
    ``z + 1`` regions.
    """
    verts = chain.int_vertices
    t = len(verts)
    xs_set = set()
    for j in range(t):
        Xj, Yj, Dj = verts[j]
        if Yj == 0:
            xs_set.add(Fraction(Dj, Xj))
        for i in range(j + 1, t):
            Xi, Yi, Di = verts[i]
            det = Xj * Yi - Xi * Yj
            if det == 0:
                continue
            xs_set.add(Fraction(Yi * Dj - Yj * Di, det))
    xs = tuple(sorted(xs_set))
    z = sum(1 for _, Y, _ in verts if Y != 0)
    regions = (len(xs) + 1) * (z + 1)
    machine.run_rounds({core.idx: lambda c: c.tick(max(1, t * t + regions * t))})
    return xs


def _partition_by(ctx: _Ctx, seq: KeySeq, splitters, cores):
    """Partition ``seq`` around splitters, falling back to the sequential
    routine when the square-splitter precondition fails.  The root
    problem's ``ctx.N`` and ``ctx.P`` fix every partition's sequential
    threshold (see :class:`~pemlab.partition.PartitionTask`)."""
    z = len(splitters)
    if len(cores) == 1 or z * z > seq.n:
        return partition_seq(ctx.machine, seq, tuple(splitters), cores[0])
    task = PartitionTask(seq, tuple(splitters), N=ctx.N, P=ctx.P)
    return partition_main(ctx.machine, task, cores)


def locate_points(ctx: _Ctx, duals: KeySeq, chain: HullChain, xs, cores) -> list:
    """Group dual points by arrangement region; returns ``(slice, interval)``
    pairs covering all of ``duals``.

    Points are first partitioned into slab buckets by the boundaries ``xs``
    of :func:`preprocess_arrangement` (boundary x values get their own
    degenerate buckets via ``(x, -inf)`` / ``(x, +inf)`` splitter pairs).
    Within a slab, band membership is not monotone in the point order, so
    each point is tagged with its band by :func:`_region` and the bucket is
    then partitioned by that integer tag.  The host records the
    :func:`_arc` of the first flags it sees in each band as the band's
    interval: every point of a band has the same flags, so that is the
    interval of the whole region.  Boundary-bucket points are classified
    directly against the chain instead.
    """
    machine = ctx.machine
    verts = chain.int_vertices
    z = sum(1 for _, Y, _ in verts if Y != 0)
    groups: list = []
    xrun = _partition_by(ctx, duals, _slab_splitters(xs), cores)
    for b, bucket in enumerate(xrun.buckets()):
        if bucket.n == 0:
            continue
        if b % 2 == 1:
            groups.extend(_classify_direct(machine, bucket, verts, cores[0]))
            continue
        intervals: dict = {}

        def tag(w, intervals=intervals):
            band, flags = _region(verts, w[2], w[3], w[4])
            if band not in intervals:
                intervals[band] = _arc(flags)
            return (band, w[2], w[3], w[4])

        tagged = _map_pass(machine, bucket, cores, tag,
                           tick=1 + max(1, z.bit_length()))
        brun = _partition_by(ctx, tagged,
                             tuple((k,) for k in range(1, z + 1)), cores)
        for band, group in enumerate(brun.buckets()):
            if group.n:
                groups.append((group, intervals[band]))
    return groups


def _slab_splitters(xs) -> tuple:
    """The splitters ``(x, -inf)``, ``(x, +inf)`` of each slab boundary
    ``x``, keyed like dual words: ``x`` as its filtered pair and each
    infinity as a pair too, so it still compares with a dual ``y`` pair
    that has saturated to an infinity."""
    out: list = []
    for x in map(_filtered, xs):
        out.append((x, (-math.inf, -math.inf)))
        out.append((x, (math.inf, math.inf)))
    return tuple(out)


def _region(verts, a, b, c) -> tuple:
    """``(band, flags)`` of the dual point of the plane ``(a, b, c)``,
    ``c > 0``, in the arrangement of the chain ``verts``' dual lines.

    With ``d = a*X + b*Y - c*D`` and ``D > 0``, the line ``(X, Y, D)`` lies
    at or below ``u = (a/c, b/c)`` iff ``d >= 0`` when ``Y > 0``, and iff
    ``d <= 0`` when ``Y < 0``; ``band`` counts those lines, which inside an
    open slab (no two lines cross there) is the point's band.  A point
    exactly on a line thus lands in the band above it.  ``flags`` are the
    vertex flags ``d >= 0`` of :func:`_sector_interval`, except that a
    point on a ``Y < 0`` line is not flagged there: above that line the
    band's interior points have ``d < 0``, so every point of a band gets
    the same flags.  Either interval is exact for a point on a line,
    because touching a triangle only at a vertex removes no area.
    """
    band = 0
    flags = []
    for X, Y, D in verts:
        d = a * X + b * Y - c * D
        if Y > 0:
            band += d >= 0
        elif Y < 0:
            band += d <= 0
        flags.append(d > 0 if Y < 0 else d >= 0)
    return band, flags


def _classify_direct(machine, bucket: KeySeq, verts, core) -> list:
    """Classify slab-boundary points one by one against the chain vertices
    ``verts`` and regroup them by interval."""
    words = _scan_words(machine, bucket, core, tick=max(1, len(verts)))
    by_interval: dict = {}
    for w in words:
        iv = _sector_interval((w[2], w[3], w[4]), verts)
        by_interval.setdefault(iv, []).append(w)
    out = []
    for iv, ws in sorted(by_interval.items(),
                         key=lambda kv: (-1, -1) if kv[0] is None else kv[0]):
        seq = _write_words(machine, ws, core)
        out.append((seq, iv))
    return out


def find_sectors(ctx: _Ctx, planes: KeySeq, chain: HullChain, cores) -> list:
    """Route each of :func:`hull_main`'s normalized plane words to its
    sector interval against ``chain``.

    Composition of :func:`dualize`, :func:`preprocess_arrangement` (the
    slab boundaries) and :func:`locate_points`, which reads each plane's
    region and interval off its vertex flags; returns ``(dual slice,
    interval)`` groups.
    """
    duals = dualize(ctx.machine, planes, cores)
    xs = preprocess_arrangement(ctx.machine, chain, cores[0])
    return locate_points(ctx, duals, chain, xs, cores)


# --------------------------------------------------------------------------
# expansion and per-sector filtering


def expand_by_sector(machine, groups, sector_count: int, cores) -> BucketedRun:
    """Write one plane copy per (plane, sector-in-interval), sector-major.

    Group words end with the plane coefficients ``(a, b, c)`` whatever tag
    or dual prefix they carry; only those three words are copied.  Group
    sizes and intervals are host metadata, so all destination offsets are
    precomputed and each core fills one contiguous destination range; reads
    chase the scattered source groups.  Groups with interval ``None`` are
    redundant planes and are dropped here.
    """
    incidences: list = [[] for _ in range(sector_count)]
    for seq, iv in groups:
        if iv is None:
            continue
        for s in _interval_sectors(iv, sector_count):
            incidences[s].append(seq)
    sizes = [sum(sq.n for sq in sector) for sector in incidences]
    total = sum(sizes)
    dst = machine.alloc(total)

    slots = []
    pos = 0
    for sector in incidences:
        for sq in sector:
            slots.append((pos, sq))
            pos += sq.n

    def body(core, ci, lo, hi):
        for dpos, sq in slots:
            if dpos + sq.n <= lo or dpos >= hi:
                continue
            i0, i1 = max(lo, dpos), min(hi, dpos + sq.n)
            core.copy_run(sq, i0 - dpos, i1 - dpos, dst, i0, lambda w: w[-3:])
            core.tick(i1 - i0)

    parallel_for(machine, total, cores, body)
    return BucketedRun(KeySeq(dst, total), tuple(sizes))


def _sweep_survivors(machine, seq: KeySeq, cores, rule: str, emit) -> tuple:
    """Right-to-left dominance sweep over a non-empty ``(x, y, ...)``-sorted
    sequence.

    ``rule`` selects the dominance convention: ``"one_strict"`` drops a word
    when another has both components at least as large and one strictly
    larger (so exact ties all survive); ``"strict_both"`` drops only on two
    strict inequalities.  Each chunk publishes the end state of
    :func:`_staircase` run on it alone as its summary in a block-spaced
    slot.  One core reads the summaries and writes each chunk's carry, the
    state of the sweep over everything to its right; the host computes the
    carries and each chunk's survivors in the same right-to-left pass.  A
    second pass re-reads each chunk and writes its survivors packed.
    Returns ``(KeySeq, host_words)`` of ``emit(word)`` survivors.
    """
    n = seq.n
    g = min(len(cores), n)
    slots = spaced_slots(machine, 2 * g)
    chunks: list = [None] * g

    def read(core, ci, lo, hi):
        chunks[ci] = core.read_run(seq, lo, hi)
        core.tick(hi - lo)
        core.write(slots, _slot(machine, ci), _staircase(chunks[ci], None, rule)[1])

    parallel_for(machine, n, cores, read)

    survivors_per_chunk: list = [None] * g

    def fold(core):
        for ci in range(g):
            core.read(slots, _slot(machine, ci))
        core.tick(g)
        tail = None
        for ci in range(g - 1, -1, -1):
            core.write(slots, _slot(machine, g + ci), tail)
            survivors_per_chunk[ci], tail = _staircase(chunks[ci], tail, rule)

    machine.run_rounds({cores[0].idx: fold})

    sizes = [len(k) for k in survivors_per_chunk]
    total = sum(sizes)
    dst = machine.alloc(total)
    offs = list(accumulate(sizes, initial=0))

    def write(core, ci, lo, hi):
        keep_idx = set(survivors_per_chunk[ci])
        core.read(slots, _slot(machine, g + ci))
        out = offs[ci]
        for i in range(lo, hi):
            v = core.read(seq, i)
            core.tick(1)
            if i - lo in keep_idx:
                core.write(dst, out, emit(v))
                out += 1

    parallel_for(machine, n, cores, write)
    host = []
    for ci in range(g):
        for i in survivors_per_chunk[ci]:
            host.append(emit(chunks[ci][i]))
    return KeySeq(dst, total), host


def _max_none(*vals):
    best = None
    for v in vals:
        if v is not None and (best is None or v > best):
            best = v
    return best


def _staircase(vals, tail, rule) -> tuple:
    """Sweep one sorted chunk right to left: ``(keep, state)``.

    ``keep`` lists the local indices of the survivors.  A state is
    ``(x_now, at_x, above)``: the smallest ``x`` swept, the largest ``y``
    at that ``x`` and the largest ``y`` at greater ``x`` (``None`` where
    nothing was seen).  ``tail`` is the state of the sweep over everything
    to the chunk's right, or None, and seeds the pass; the returned state
    covers the chunk and its tail.  Within equal ``x`` the chunk is sorted
    by ``y``, so under ``one_strict`` a word matches its block's maximum
    exactly when it is at least every ``y`` already seen at its ``x``.
    """
    x_now, at_x, above = tail if tail is not None else (None, None, None)
    keep: list = []
    for i in range(len(vals) - 1, -1, -1):
        x, y = vals[i][0], vals[i][1]
        if x != x_now:
            x_now, at_x, above = x, None, _max_none(at_x, above)
        if rule == "strict_both":
            ok = above is None or y >= above
        else:
            ok = ((at_x is None or y >= at_x)
                  and (above is None or y > above))
        if ok:
            keep.append(i)
        if at_x is None or y > at_x:
            at_x = y
    keep.reverse()
    return keep, (x_now, at_x, above)


def _score(v1, v2, w) -> tuple:
    """The normalized plane word ``w`` (``c > 0``) as ``(u . P1, u . P2,
    a, b, c)`` for the sector vertices ``P1``, ``P2`` given in vertex form;
    each product is the filtered pair ``(float(q), q)`` of its exact
    ``Fraction`` ``q``."""
    a, b, c = w
    (X1, Y1, D1), (X2, Y2, D2) = v1, v2
    return (_filtered(Fraction(a * X1 + b * Y1, c * D1)),
            _filtered(Fraction(a * X2 + b * Y2, c * D2)), a, b, c)


def filter_sector(machine, sector_planes: KeySeq, j: int, chain: HullChain,
                  cores, stream: int = 0):
    """Drop the planes of sector ``j`` that another plane makes redundant.

    Each plane maps to its pair of scaled vertex products
    ``(u . P_j, u . P_{j+1})``; inside the sector wedge a plane whose pair
    is componentwise at least another's (strictly in one slot) can never cut
    deeper, so only the staircase of undominated pairs survives.  Ties keep
    every copy.  The pairs are sorted with the regular sorter and pruned by
    the chunked dominance sweep.  ``sector_planes`` are :func:`hull_main`'s
    normalized words.  Returns ``(survivors, host_words)``.
    """
    verts = chain.int_vertices
    score = partial(_score, verts[j], verts[(j + 1) % len(verts)])
    if sector_planes.n == 0:
        return KeySeq(machine.alloc(0), 0), []
    scored = _map_pass(machine, sector_planes, cores, score, tick=4)
    ordered = sample_sort(machine, scored, cores, stream=stream)
    return _sweep_survivors(machine, ordered, cores, "one_strict",
                            emit=lambda w: (w[2], w[3], w[4]))


# --------------------------------------------------------------------------
# recursion driver


def _sector_bands(sizes, cores) -> list:
    """Map a logical budget of ``2p`` core shares onto physical cores.

    Sector ``j`` receives shares proportional to its group size (at least
    one), laid out cyclically over the physical cores; sectors execute one
    after another, so overlapping bands only share cores across phases.
    """
    p = len(cores)
    total = sum(sizes)
    budget = 2 * p
    shares = []
    for sz in sizes:
        quota = (sz * budget) // total if total else 1
        shares.append(max(1, quota))
    bands = []
    off = 0
    for sh in shares:
        bands.append([cores[(off + i) % p] for i in range(min(sh, p))])
        off += sh
    return bands


def _hull_rec(ctx: _Ctx, planes: KeySeq, cores, depth: int) -> HullChain:
    machine = ctx.machine
    m = planes.n
    tick = max(1, m.bit_length())
    if len(cores) == 1 or m <= ctx.grain:
        return _hull_base(machine, planes, cores[0], tick)
    if depth >= _DEPTH_CAP:
        machine.diagnostics.append(
            f"hull: depth cap {_DEPTH_CAP} reached at m={m}; "
            "finishing sequentially")
        ctx.stats.fallbacks += 1
        return _hull_base(machine, planes, cores[0], tick)

    picked = _polling_sample(ctx, planes, cores)
    if picked is None:
        machine.diagnostics.append(
            f"hull: no polling candidate accepted at m={m}; "
            "finishing sequentially")
        ctx.stats.fallbacks += 1
        return _hull_base(machine, planes, cores[0], tick)
    chain, sample_words = picked
    t = len(chain.int_vertices)

    groups = find_sectors(ctx, planes, chain, cores)
    copies = expand_by_sector(machine, groups, t, cores)
    realized = max(copies.sizes)
    ctx.stats.record_round(m, t, realized, _group_bound(m), copies.seq.n)
    if copies.seq.n > _EXPANSION * m:
        machine.diagnostics.append(
            f"hull: {copies.seq.n} copies exceed the budget "
            f"{_EXPANSION}*{m} at m={m}")

    bands = _sector_bands(copies.sizes, cores)
    sub_chains = []
    for j, (band, sector) in enumerate(zip(bands, copies.buckets())):
        survivors, host = filter_sector(machine, sector, j, chain, band,
                                        stream=ctx.next_stream())
        seen = set(host)
        extras = [w for w in sample_words if w not in seen]
        extras_seq = _write_words(machine, extras, band[0])
        sub = compact(machine, [survivors, extras_seq], band)
        sub_chains.append(_hull_rec(ctx, sub, band, depth + 1))
    return _stitch(machine, chain, sub_chains, cores[0])


def _stitch(machine, chain: HullChain, sub_chains, core) -> HullChain:
    """Clip each sector's sub-chain to its wedge and join the boundary arcs.

    Inside its wedge every sub-chain bounds exactly the true region, so
    clipping the sub-polygon to the wedge and dropping the apex leaves the
    true boundary arc between the two rays.  Consecutive arcs share their
    ray-crossing endpoints; the final cleanup merges them and removes
    crossing points that are not real corners.  Everything runs on vertex
    forms: the wedge of sector ``j`` is cut by the planes ``(Y, -X, 0)`` of
    its two rays, scaled by ``D > 0``, and its apex is the form ``(0, 0, 1)``.
    """
    verts = chain.int_vertices
    t = len(verts)
    total = sum(len(sc.int_vertices) for sc in sub_chains)

    machine.run_rounds({core.idx: lambda c: c.tick(max(1, 4 * total))})

    apex = (0, 0, 1)
    out: list = []
    for j in range(t):
        (Xl, Yl, _), (Xh, Yh, _) = verts[j], verts[(j + 1) % t]
        poly = sub_chains[j].int_vertices
        for h in ((Yl, -Xl, 0), (-Yh, Xh, 0)):
            poly = _clip_forms(poly, h)
        cleaned = _dedupe(poly)
        if apex not in cleaned:
            raise MachineFault("sector clip lost the wedge apex")
        k = cleaned.index(apex)
        out.extend(cleaned[k + 1:] + cleaned[:k])
    result = HullChain(_canonical_forms(out))
    if not result.is_convex_ccw():
        raise MachineFault("stitched sector chains are not convex")
    return result


def hull_main(machine, planes: KeySeq, cores, stats: HullStats | None = None,
              stream: int = 0):
    """Intersect half-planes into their exact convex chain.

    The origin must lie strictly inside every half-plane (``c > 0``).  One
    charged pass normalizes the planes (:func:`~pemlab.geometry.plane_word`);
    an uncharged host snapshot of them checks ``c > 0`` and boundedness
    (:func:`~pemlab.geometry.unbounded_directions`); the recursive sampling
    driver runs on the normalized words, and the vertices are written back
    to machine memory.  Returns ``(HullChain, KeySeq)``.
    """
    _check_cores(cores)
    m = planes.n
    if m < 3:
        raise GeometryError("at least three half-planes are required")
    ctx = _Ctx(machine, stats if stats is not None else HullStats(), N=m,
               P=len(cores), next_stream=_streams(stream))
    normalized = _map_pass(machine, planes, cores, plane_word, tick=3)
    host = machine.snapshot_memory(normalized)
    if any(w[2] <= 0 for w in host):
        raise GeometryError("the origin must satisfy every half-plane "
                            "strictly (c > 0)")
    if unbounded_directions(host):
        raise GeometryError("half-plane intersection is unbounded")

    final = _hull_rec(ctx, normalized, cores, depth=0)
    written = _write_words(machine, list(final.vertices), cores[0])
    return final, written


# --------------------------------------------------------------------------
# point sets: hulls by duality and dominance maxima


def convex_hull_2d(machine, points: KeySeq, cores, stream: int = 0):
    """Exact convex hull of a point set via one polar intersection.

    Three reductions find the lexicographic extremes ``pmin``, ``pmax`` and
    the apex farthest from their chord.  If the apex is on the chord every
    point is, and the hull is the segment ``pmin``-``pmax`` (one vertex when
    they coincide).  Otherwise ``o = S/3``, ``S = pmin + pmax + apex``, is
    strictly inside the hull, and each point ``q`` maps to the plane
    ``(3q - S) . u <= 3`` (a point equal to ``o`` is interior and takes
    ``pmin``'s plane).  Their intersection is the hull's polar about ``o``:
    each chain edge lies on the line of one hull vertex, in the same
    counterclockwise order, and the edge ``a*x + b*y = 3`` decodes back to
    ``((a + Sx)/3, (b + Sy)/3)``.  Returns ``(HullChain, KeySeq)`` with the
    chain counterclockwise from its lexicographically smallest vertex.
    """
    n = points.n
    if n == 0:
        raise MachineFault("cannot hull an empty point set")
    _check_cores(cores)
    _check_stream(stream)
    norm = _map_pass(machine, points, cores,
                     lambda w: (coeff(w[0]), coeff(w[1])), tick=1)
    pmin = _reduce_words(machine, norm, cores,
                         lambda u, v: u if u <= v else v)
    pmax = _reduce_words(machine, norm, cores,
                         lambda u, v: u if u >= v else v)

    def far(u, v):
        du, dv = abs(cross(pmin, pmax, u)), abs(cross(pmin, pmax, v))
        return u if du >= dv else v

    apex = _reduce_words(machine, norm, cores, far)
    if cross(pmin, pmax, apex) == 0:
        forms = [_vertex_form(pmin), _vertex_form(pmax)]
    else:
        sx, sy = pmin[0] + pmax[0] + apex[0], pmin[1] + pmax[1] + apex[1]
        fallback = (3 * pmin[0] - sx, 3 * pmin[1] - sy)

        def to_plane(w):
            a, b = 3 * w[0] - sx, 3 * w[1] - sy
            if a == 0 and b == 0:
                a, b = fallback
            return (coeff(a), coeff(b), 3)

        planes = _map_pass(machine, norm, cores, to_plane, tick=1)
        polar, _ = hull_main(machine, planes, cores, stream=stream)
        forms = _decode_polar(polar.int_vertices, _vertex_form((sx, sy)))
    final = HullChain(_canonical_forms(forms))
    if not final.is_convex_ccw():
        raise MachineFault("hull assembly produced a non-convex chain")
    return final, _write_words(machine, list(final.vertices), cores[0])


def _decode_polar(verts, s) -> list:
    """The point of each edge of the polar chain ``verts``, as vertex forms.

    The edge from ``(X1, Y1, D1)`` to ``(X2, Y2, D2)`` lies on the line
    ``l1*x + l2*y + l3 = 0`` with ``(l1, l2, l3)`` their cross product, so
    ``a = -3*l1/l3`` and ``b = -3*l2/l3``; with ``S = (SX/SD, SY/SD)`` its
    point is ``(SX*l3 - 3*SD*l1, SY*l3 - 3*SD*l2) / (3*SD*l3)``.  The
    charged ``hull_main`` passes have already paid for the chain; this is an
    ``O(h)`` host loop over its ``h`` vertices.
    """
    SX, SY, SD = s
    out = []
    for i in range(len(verts)):
        X1, Y1, D1 = verts[i]
        X2, Y2, D2 = verts[(i + 1) % len(verts)]
        l1, l2, l3 = Y1 * D2 - D1 * Y2, D1 * X2 - X1 * D2, X1 * Y2 - Y1 * X2
        k = 1 if l3 > 0 else -1
        out.append(_reduced(k * (SX * l3 - 3 * SD * l1),
                            k * (SY * l3 - 3 * SD * l2), k * 3 * SD * l3))
    return out


def maxima_par(machine, points: KeySeq, cores, stream: int = 0) -> KeySeq:
    """Parallel dominance maxima: regular sort, then the chunked sweep."""
    _check_stream(stream)
    if points.n == 0:
        return KeySeq(machine.alloc(0), 0)
    norm = _map_pass(machine, points, cores,
                     lambda w: (coeff(w[0]), coeff(w[1])), tick=1)
    ordered = sample_sort(machine, norm, cores, stream=stream)
    seq, _ = _sweep_survivors(machine, ordered, cores, "strict_both",
                              emit=lambda w: w)
    return seq
