"""Parallel building blocks executed on the simulated multicore machine.

Every routine here charges its memory traffic through :class:`~pemlab.machine.Core`
handles, so ledgers reflect the access pattern of the stated algorithm:
chunked folds with tree combines, an infix-layout prefix tree, recursive
matrix transposition, slice-per-core compaction, quadratic rank sorting,
and splitter sampling by oversampled chunks.

Work is split into per-core chunks of about ``n/p`` items with the remainder
on the last core; :func:`parallel_for` runs one such step.  Cross-core
partial values always live in block-spaced slots so that reduction rounds
never incur block misses.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial, reduce
from itertools import count
from math import isqrt

from pemlab.machine import MachineFault, MemRegion

__all__ = [
    "KeySeq",
    "load_seq",
    "chunk_bounds",
    "parallel_for",
    "prefix_sum",
    "transpose",
    "compact",
    "brute_sort",
    "sample_splitters",
    "sample_k_of_n_seq",
]

_NONE = object()


@dataclass(frozen=True)
class KeySeq:
    """A sequence of ``n`` totally ordered words at the front of a region;
    ``n`` is an ``int`` (not a ``bool``) in ``0..region.len``."""

    region: MemRegion
    n: int

    def __post_init__(self) -> None:
        if type(self.n) is not int:
            raise MachineFault(f"KeySeq length must be an int; got {self.n!r}")
        if self.n < 0 or self.n > self.region.len:
            raise MachineFault("KeySeq length exceeds its region")


def load_seq(machine, words) -> KeySeq:
    """Install ``words`` in a fresh region of ``max(1, len(words))`` words
    without charging any cost, as a key sequence of ``len(words)``."""
    region = machine.alloc(max(1, len(words)))
    machine.load(region, words)
    return KeySeq(region, len(words))


def chunk_bounds(n: int, p: int) -> list:
    """Split ``n`` items into ``p`` chunks of ``n // p``, remainder on the last."""
    if p < 1:
        raise MachineFault("need at least one chunk")
    q = n // p
    bounds = []
    for c in range(p):
        lo = c * q
        hi = (c + 1) * q if c < p - 1 else n
        bounds.append((lo, hi))
    return bounds


def _check_cores(cores) -> None:
    """Fault on an empty core list or one that names a core twice.  A step
    keys its programs by core id, so a repeated core would drop a chunk."""
    if not cores:
        raise MachineFault("need at least one core")
    if len({core.idx for core in cores}) < len(cores):
        raise MachineFault(f"core list {[core.idx for core in cores]} repeats a core")


def parallel_for(machine, n: int, cores, body) -> None:
    """One step over ``range(n)``: ``body(core, ci, lo, hi)`` on each core.

    The items are cut by :func:`chunk_bounds` into ``g = min(len(cores), n)``
    chunks and chunk ``ci`` runs on ``cores[ci]``.  ``body`` is a machine
    program: a plain function takes one round, a generator one round per
    ``yield`` plus one.  It loops over its own chunk, so a step costs one
    Python call per core, not per item.  ``n == 0`` runs no round.  The
    cores must be distinct and at least one.
    """
    _check_cores(cores)
    if n == 0:
        return
    g = min(len(cores), n)
    machine.run_rounds({
        cores[ci].idx: lambda core, ci=ci, lo=lo, hi=hi: body(core, ci, lo, hi)
        for ci, (lo, hi) in enumerate(chunk_bounds(n, g))
    })


def _check_stream(stream) -> None:
    """Fault unless ``stream`` is a non-negative ``int`` and not a ``bool``,
    the rule :meth:`~pemlab.machine.Machine.rng` holds every key part to."""
    if not isinstance(stream, int) or isinstance(stream, bool) or stream < 0:
        raise MachineFault(f"stream must be a non-negative int; got {stream!r}")


def _streams(base: int):
    """A recursion's stream counter: its ``k``-th call returns stream
    ``(base << 20) | k``.  ``base`` is checked now, not at the first draw."""
    _check_stream(base)
    return ((base << 20) | k for k in count()).__next__


def _subseq(seq: KeySeq, lo: int, hi: int) -> KeySeq:
    """Items ``[lo, hi)`` of ``seq`` as a view on the same memory."""
    return KeySeq(MemRegion(seq.region.base + lo, hi - lo), hi - lo)


def _scan_words(machine, seq: KeySeq, core, tick: int = 1) -> list:
    """Read every word of ``seq`` on one core; returns the host values."""
    vals: list = []

    def prog(c):
        vals.extend(c.read_run(seq, 0, seq.n))
        c.tick(tick * seq.n)

    machine.run_rounds({core.idx: prog})
    return vals


def _host_sort(core, src, n: int, dst, at: int = 0, fn=None) -> list:
    """The modelled one-core sort, a host cost: read words ``[0, n)`` of
    ``src`` as one run, host-sort them, charge ``n * max(1, n.bit_length())``
    ops, and write each sorted word (or ``fn`` of it, which must not touch
    the machine) to ``dst`` from word ``at``.  Returns the sorted words."""
    vals = core.read_run(src, 0, n)
    vals.sort()
    core.tick(n * max(1, n.bit_length()))
    core.write_run(dst, at, vals if fn is None else list(map(fn, vals)))
    return vals


def _search(core, seq, n: int, x) -> int:
    """``bisect_right`` of ``x`` in words ``[0, n)`` of a sorted sequence,
    charged one read and one op per word it probes."""

    def probe(i):
        core.tick(1)
        return core.read(seq, i)

    return bisect_right(range(n), x, key=probe)


def _write_words(machine, words, core) -> KeySeq:
    """Write host words into a fresh region on one core."""
    n = len(words)
    dst = machine.alloc(n)

    def prog(c):
        c.write_run(dst, 0, words)

    if n:
        machine.run_rounds({core.idx: prog})
    return KeySeq(dst, n)


def spaced_slots(machine, count: int) -> MemRegion:
    """A region holding ``count`` words, one per cache block."""
    return machine.alloc(count * machine.config.B)


def _slot(machine, i: int) -> int:
    """Index of slot ``i`` of a :func:`spaced_slots` region."""
    return i * machine.config.B


def _reduce(machine, a: KeySeq, cores, combine):
    """Fold ``a`` with ``combine``: per-core chunk folds into block-spaced
    slots, then a halving reduction tree over the slots that leaves the
    result in slot 0.  The tree's first round has each core re-read and
    rewrite its own slot, and is charged."""
    if a.n == 0:
        raise MachineFault("reduction over an empty sequence")
    g = min(len(cores), a.n)
    slots = spaced_slots(machine, g)
    levels = [1 << k for k in range((g - 1).bit_length())]

    def fold(core, ci, lo, hi):
        acc = reduce(combine, core.read_run(a, lo, hi))
        core.tick(hi - lo)
        core.write(slots, _slot(machine, ci), acc)

    def tree(core, ci, lo, hi):
        acc = core.read(slots, _slot(machine, ci))
        core.tick(1)
        core.write(slots, _slot(machine, ci), acc)
        yield
        for step in levels:
            if ci % (2 * step) == 0 and ci + step < g:
                other = core.read(slots, _slot(machine, ci + step))
                acc = combine(acc, other)
                core.tick(1)
                core.write(slots, _slot(machine, ci), acc)
            yield

    parallel_for(machine, a.n, cores, fold)
    parallel_for(machine, g, cores[:g], tree)
    return machine.snapshot_memory(slots)[0]


def prefix_sum(machine, a: KeySeq, cores) -> KeySeq:
    """Inclusive prefix sum: ``R[i] = A[0] + ... + A[i]``.

    Phase one folds each core's block-aligned chunk bottom-up, storing every
    left-subtree value in an infix-laid tree array ``S``; a logarithmic
    cross-core round sequence fills the top ``p - 1`` tree nodes.  Phase two
    pushes carries down again, writing ``R``.  Chunks, tree nodes, and the
    block-spaced partial slots never share a written cache block, so the
    routine incurs no block misses once chunks hold at least one block.
    """
    _check_cores(cores)
    n = a.n
    if n == 0:
        return KeySeq(machine.alloc(0), 0)
    B = machine.config.B
    g = max(1, len(cores))
    chunk = -(-n // (g * B)) * B
    g = -(-n // chunk)
    sreg = machine.alloc(n)
    rreg = machine.alloc(n)
    aux = spaced_slots(machine, g)
    levels = [1 << k for k in range((g - 1).bit_length())]

    def phase1(core, i, size):
        if size == 1:
            return core.read(a, i)
        half = size // 2
        left = phase1(core, i, half)
        core.write(sreg, i + half, left)
        right = phase1(core, i + half, size - half)
        core.tick(1)
        return left + right

    def phase2(core, i, size, carry):
        if size == 1:
            v = core.read(a, i)
            if carry is not _NONE:
                v = carry + v
                core.tick(1)
            core.write(rreg, i, v)
            return
        half = size // 2
        left = core.read(sreg, i + half)
        phase2(core, i, half, carry)
        if carry is _NONE:
            down = left
        else:
            down = carry + left
            core.tick(1)
        phase2(core, i + half, size - half, down)

    def prog(core, ci):
        lo = ci * chunk
        hi = min(n, lo + chunk)
        total = phase1(core, lo, hi - lo)
        core.write(aux, _slot(machine, ci), total)
        yield
        acc = total
        for step in levels:
            if ci % (2 * step) == 0 and ci + step < g:
                other = core.read(aux, _slot(machine, ci + step))
                core.write(sreg, (ci + step) * chunk, acc)
                acc = acc + other
                core.tick(1)
                core.write(aux, _slot(machine, ci), acc)
            yield
        carry = _NONE
        for step in reversed(levels):
            group = (ci // (2 * step)) * (2 * step)
            mid = group + step
            if mid <= ci:
                left = core.read(sreg, mid * chunk)
                if carry is _NONE:
                    carry = left
                else:
                    carry = carry + left
                    core.tick(1)
        phase2(core, lo, hi - lo, carry)

    machine.run_rounds({cores[ci].idx: partial(prog, ci=ci) for ci in range(g)})
    return KeySeq(rreg, n)


def transpose(machine, a: KeySeq, m: int, n: int, cores) -> KeySeq:
    """Transpose a row-major ``m x n`` matrix into an ``n x m`` one.

    Recursively halves the column range while ``n > m/4`` and the row range
    otherwise, first to split the matrix over cores and then, within one
    core, down to constant-size tiles moved element by element.  When
    ``m < B`` the rule hands every core a column-contiguous band whose
    destination words are consecutive.  ``m`` and ``n`` are ``int``s (not
    ``bool``s) of at least 0, checked before anything is allocated.
    """
    _check_cores(cores)
    if any(type(d) is not int or d < 0 for d in (m, n)):
        raise MachineFault(f"matrix dimensions must be non-negative ints; got {m!r} x {n!r}")
    if m * n != a.n:
        raise MachineFault("matrix shape disagrees with sequence length")
    dst = machine.alloc(m * n)
    if m * n == 0:
        return KeySeq(dst, 0)

    def halves(i0, i1, j0, j1):
        rows, cols = i1 - i0, j1 - j0
        if 4 * cols > rows and cols > 1:
            jm = j0 + cols // 2
            return (i0, i1, j0, jm), (i0, i1, jm, j1)
        im = i0 + rows // 2
        return (i0, im, j0, j1), (im, i1, j0, j1)

    def split(i0, i1, j0, j1, group):
        group = group[: max(1, (i1 - i0) * (j1 - j0))]
        if len(group) == 1:
            return [(group[0], i0, i1, j0, j1)]
        c1 = len(group) // 2
        first, second = halves(i0, i1, j0, j1)
        return split(*first, group[:c1]) + split(*second, group[c1:])

    def tile_moves(core, i0, i1, j0, j1):
        if (i1 - i0) * (j1 - j0) <= 32:
            for i in range(i0, i1):
                for j in range(j0, j1):
                    v = core.read(a, i * n + j)
                    core.write(dst, j * m + i, v)
            return
        for block in halves(i0, i1, j0, j1):
            tile_moves(core, *block)

    jobs = split(0, m, 0, n, list(range(min(len(cores), m * n))))
    machine.run_rounds({cores[ci].idx: partial(tile_moves, i0=i0, i1=i1, j0=j0, j1=j1)
                        for ci, i0, i1, j0, j1 in jobs})
    return KeySeq(dst, m * n)


def compact(machine, parts, cores, dest: MemRegion | None = None, fn=None,
            tick: int = 0) -> KeySeq:
    """Concatenate key sequences; each core writes one contiguous slice.

    ``parts`` is a list of :class:`KeySeq`.  Each word is written as
    ``fn(word)`` (``fn`` defaults to the identity, and must not touch the
    machine), and each core is charged ``tick`` ops per word it copies;
    ``tick`` is an ``int >= 0``, not a ``bool``, checked before anything is
    allocated or run.  Output slices are disjoint and in-order, so writes
    incur no block misses once a slice spans at least one block.
    """
    if type(tick) is not int or tick < 0:
        raise MachineFault(f"tick count must be a non-negative int; got {tick!r}")
    _check_cores(cores)
    total = sum(part.n for part in parts)
    dst = dest if dest is not None else machine.alloc(total)
    if dst.len < total:
        raise MachineFault("destination region too small")
    if total == 0:
        return KeySeq(dst, 0)
    starts = [0]
    for part in parts:
        starts.append(starts[-1] + part.n)

    def body(core, ci, lo, hi):
        k = bisect_right(starts, lo) - 1
        item = lo
        while item < hi:
            off = item - starts[k]
            take = min(hi, starts[k + 1]) - item
            if take > 0:
                core.copy_run(parts[k], off, off + take, dst, item, fn)
                item += take
            k += 1
        core.tick(tick * (hi - lo))

    parallel_for(machine, total, cores, body)
    return KeySeq(dst, total)


def _stable_ranks(row: list) -> list:
    """Rank of each word of ``row`` in a stable sort of it: the words
    smaller than it plus its equals at earlier positions."""
    ranks = [0] * len(row)
    for r, j in enumerate(sorted(range(len(row)), key=row.__getitem__)):
        ranks[j] = r
    return ranks


def brute_sort(machine, a: KeySeq, cores) -> KeySeq:
    """Sort by all-pairs ranking: ``O(n^2/p)`` ops and no comparisons saved.

    Every core ranks its share of keys against the whole sequence (ties
    break by position), scatters key ``i`` to slot ``n * rank_i`` of an
    ``n^2``-word scratch in ``n/p`` single-write rounds, and one core
    gathers the ranks back into a contiguous result.
    """
    _check_cores(cores)
    n = a.n
    dst = machine.alloc(n)
    if n == 0:
        return KeySeq(dst, 0)
    scratch = machine.alloc(n * n)
    phases = -(-n // min(len(cores), n))

    def body(core, ci, lo, hi):
        mine = []
        ranks = None
        for i in range(lo, hi):
            ki = core.read(a, i)
            row = core.read_run(a, 0, n)
            if ranks is None:
                ranks = _stable_ranks(row)  # every row of this core is the same
            core.tick(n)
            mine.append((ranks[i], ki))
        yield
        for phase in range(phases):
            for r, ki in mine:
                if r % phases == phase:
                    core.write(scratch, n * r, ki)
            yield
        if ci == 0:
            for r in range(n):
                core.write(dst, r, core.read(scratch, n * r))

    parallel_for(machine, n, cores, body)
    return KeySeq(dst, n)


def sample_splitters(machine, a: KeySeq, z: int, cores, stream: int = 0) -> tuple:
    """Draw ``z`` sorted splitters by oversampled chunk sampling.

    One random key is read from each of ``m = max(isqrt(n), z)`` chunks, the
    sample is brute-sorted, and every ``(m // z)``-th element is written to
    a ``z``-word region on one core.  Returns the splitters as a sorted
    tuple; raises unless ``1 <= z <= n``.
    """
    _check_cores(cores)
    _check_stream(stream)
    n = a.n
    if not 1 <= z <= n:
        raise MachineFault(f"need 1 <= z <= n splitters; got z={z} for n={n}")
    m_star = max(isqrt(n), z)
    step = m_star // z
    chunks = chunk_bounds(n, m_star)
    star = machine.alloc(m_star)

    def body(core, ci, lo, hi):
        rng = machine.rng(11, stream, ci)
        for k in range(lo, hi):
            clo, chi = chunks[k]
            off = rng.integers(chi - clo)
            core.write(star, k, core.read(a, clo + off))

    parallel_for(machine, m_star, cores, body)
    sorted_star = brute_sort(machine, KeySeq(star, m_star), cores[:m_star])
    sreg = machine.alloc(z)

    def select(core):
        for j in range(1, z + 1):
            core.write(sreg, j - 1, core.read(sorted_star, step * j - 1))

    machine.run_rounds({cores[0].idx: select})
    return tuple(machine.snapshot_memory(sreg))


def sample_k_of_n_seq(machine, a: KeySeq, k: int, core, stream: int = 0) -> KeySeq:
    """Draw ``k`` keys with replacement on one core via sorted random ranks.

    Three rounds: the ranks are drawn and saved, sorted, and consumed by
    one scan of the input up to the largest rank.  The scan reads each
    rank as a word, reads the source as one run from where it stopped up
    to a new rank, and writes the last word read as a word, so the pass
    costs ``O(n + k log k)`` ops.
    """
    _check_stream(stream)
    n = a.n
    if n == 0 or k == 0:
        return KeySeq(machine.alloc(0), 0)
    rng = machine.rng(12, stream, core.idx)
    ranks_reg = machine.alloc(k)
    out = machine.alloc(k)

    def prog(c):
        c.write_run(ranks_reg, 0, rng.integers(n, size=k))
        yield
        _host_sort(c, ranks_reg, k, ranks_reg)
        yield
        pos = 0
        for j in range(k):
            r = c.read(ranks_reg, j)
            if r >= pos:
                value = c.read_run(a, pos, r + 1)[-1]
                pos = r + 1
            c.write(out, j, value)

    machine.run_rounds({core.idx: prog})
    return KeySeq(out, k)
