"""Distribution of keys into buckets around sorted splitters.

The bucket rule sends key ``k`` to bucket ``i`` when
``splitter[i-1] < k <= splitter[i]``; ``z`` splitters induce ``z + 1``
buckets whose last member holds keys above every splitter.  The two public
entries trade ops for parallelism:

* :func:`partition_seq` sorts on one core and scans keys against splitters.
* :func:`partition_main` recurses two levels per step: every
  ``ceil(sqrt(z))``-th splitter first forms coarse buckets from recursively
  partitioned ``sqrt(n)``-chunks, then each coarse bucket is refined by its
  interior splitters with cores assigned in proportion to bucket size.

Two internal stages serve a short trailing chunk of that recursion:
:func:`_partition_quadratic` rank-sorts and binary-searches one boundary
per splitter, and :func:`_partition_sqrt` cuts the keys into ``sqrt(n)``
chunks, runs the quadratic stage per chunk, and merges the bucketed runs.

Single-core subproblems distribute by counting instead of sorting; this
keeps the per-level work linear in ``n log z``.  Chunk jobs feeding a merge
write in one pass into fixed-width bucket columns and hand the merge
explicit segment starts, while the top-level sequential base packs its
output contiguously with a counting pass first.

Splitters are any sorted sequence of keys, such as the tuple that
:func:`~pemlab.primitives.sample_splitters` returns; the two entries reject
an unsorted one, and the stages below them trust their caller.  No routine
here reads the cache size M or the block size B; only the merges they call
lay out their size tables by B.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import isqrt

from pemlab.machine import MachineFault, MemRegion
from pemlab.merge import BucketedRun, merge_bucketed
from pemlab.primitives import KeySeq, _subseq, brute_sort, chunk_bounds, compact, parallel_for

__all__ = ["PartitionTask", "partition_main", "partition_seq"]


def _splitter_keys(splitters) -> tuple:
    keys = tuple(splitters)
    if any(keys[i] > keys[i + 1] for i in range(len(keys) - 1)):
        raise MachineFault("splitters must be sorted")
    return keys


@dataclass(frozen=True)
class PartitionTask:
    """A partition problem pinned to its root size ``N`` and core count ``P``.

    ``N`` and ``P`` stay fixed down the recursion so that the sequential
    threshold ``N/P`` is a property of the root problem, not of any
    subproblem.
    """

    input: KeySeq
    splitters: tuple
    N: int
    P: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "splitters", _splitter_keys(self.splitters))
        if self.N < 1 or self.P < 1:
            raise MachineFault("root size and core count must be positive")
        z = len(self.splitters)
        if z * z > self.input.n and self.input.n > 0:
            raise MachineFault(f"need z <= sqrt(n); got z={z} for n={self.input.n}")

    @property
    def z(self) -> int:
        return len(self.splitters)

    @property
    def grain(self) -> int:
        """Largest subproblem distributed on one core: ``max(N/P, 64)``."""
        return max(self.N // self.P, 64)


def _core_band(cores, lo: int, hi: int, total: int):
    """The cores serving ``[lo, hi)`` of ``total``: a proportional slice of
    at least one core."""
    g = len(cores)
    band_lo = lo * g // total
    return cores[band_lo : max(band_lo + 1, hi * g // total)]


def _cut(machine, srt: KeySeq, keys) -> BucketedRun:
    """The sorted run ``srt`` cut at ``keys``; the host bisects its words."""
    host = machine.snapshot_memory(srt)
    bounds = [bisect_right(host, s) for s in keys]
    return BucketedRun(srt, tuple(hi - lo for lo, hi in zip([0] + bounds, bounds + [srt.n])))


def partition_seq(machine, a: KeySeq, splitters, core) -> BucketedRun:
    """Sort on one core, then scan the sorted keys against the splitters."""
    keys = _splitter_keys(splitters)
    z = len(keys)
    n = a.n
    out = machine.alloc(n)
    if n == 0:
        return BucketedRun(KeySeq(out, 0), (0,) * (z + 1))

    def prog(c):
        vals = c.read_run(a, 0, n)
        vals.sort()
        c.tick(n * max(1, n.bit_length()))
        c.write_run(out, 0, vals)
        # Scan ``out`` back against the splitters; the host bisects below.
        c.read_run(out, 0, n)
        c.tick(n)

    machine.run_rounds({core.idx: prog})
    return _cut(machine, KeySeq(out, n), keys)


def _distribute_seq(machine, a: KeySeq, keys: tuple, core, dest: MemRegion | None = None) -> BucketedRun:
    """Two counting passes on one core: tally buckets, then place each key.

    Keys keep their input order inside every bucket, and the per-key cost is
    one binary-search tick plus two reads and a write.
    """
    z = len(keys)
    n = a.n
    dst = dest if dest is not None else machine.alloc(n)
    counts = [0] * (z + 1)
    probe = max(1, (z + 1).bit_length())

    def prog(c):
        for v in c.read_run(a, 0, n):
            counts[bisect_left(keys, v)] += 1
        c.tick(probe * n)
        cursors = [0] + list(accumulate(counts))[:-1]

        def place(v):
            b = bisect_left(keys, v)
            cursors[b] += 1
            return cursors[b] - 1

        c.route_run(a, 0, n, dst, place)
        c.tick(probe * n)

    machine.run_rounds({core.idx: prog})
    return BucketedRun(KeySeq(dst, n), tuple(counts))


def _distribute_columns(machine, a: KeySeq, keys: tuple, core) -> BucketedRun:
    """One counting pass on one core into fixed-width bucket columns.

    Bucket ``b`` occupies the slot ``[b*n, b*n + size_b)`` of a
    ``(z+1)*n``-word region; the run records explicit segment starts instead
    of packing, so a later merge can gather the columns without a second
    pass over the keys.
    """
    z = len(keys)
    n = a.n
    region = machine.alloc((z + 1) * n)
    counts = [0] * (z + 1)
    probe = max(1, (z + 1).bit_length())

    def place(v):
        b = bisect_left(keys, v)
        counts[b] += 1
        return b * n + counts[b] - 1

    def prog(c):
        c.route_run(a, 0, n, region, place)
        c.tick(probe * n)

    machine.run_rounds({core.idx: prog})
    return BucketedRun(KeySeq(region, n), tuple(counts), starts=tuple(b * n for b in range(z + 1)))


def _partition_quadratic(machine, a: KeySeq, keys, cores) -> BucketedRun:
    """Rank-sort, then one core per splitter binary-searches its boundary."""
    n = a.n
    srt = brute_sort(machine, a, cores)

    def search(core, ci, lo, hi):
        for j in range(lo, hi):
            left, right = 0, n
            while left < right:
                mid = (left + right) // 2
                v = core.read(srt, mid)
                core.tick(1)
                if v <= keys[j]:
                    left = mid + 1
                else:
                    right = mid

    parallel_for(machine, len(keys), cores, search)
    return _cut(machine, srt, keys)


def _partition_sqrt(machine, a: KeySeq, keys, cores) -> BucketedRun:
    """Quadratic-partition ``sqrt(n)`` chunks, then merge the bucketed runs."""
    n = a.n
    # ``n // isqrt(n)`` chunks of ``isqrt(n)`` keys, the remainder on the last.
    ranges = chunk_bounds(n, n // isqrt(n))
    runs = [_partition_quadratic(machine, _subseq(a, lo, hi), keys,
                                 _core_band(cores, i, i + 1, len(ranges)))
            for i, (lo, hi) in enumerate(ranges)]
    return merge_bucketed(machine, runs, cores)


def partition_main(machine, task: PartitionTask, cores) -> BucketedRun:
    """Two-level recursive partition; see the module docstring for the plan."""
    a = task.input
    keys = task.splitters
    n, z = a.n, task.z
    if n == 0:
        return BucketedRun(KeySeq(machine.alloc(0), 0), (0,) * (z + 1))
    if z == 0:
        out = compact(machine, [a], cores)
        return BucketedRun(out, (n,))
    if n <= task.grain or len(cores) == 1:
        return _distribute_seq(machine, a, keys, cores[0])
    if z <= 2:
        return _chunked(machine, a, keys, task, cores, refine=False)

    k = isqrt(z)
    if k * k < z:
        k += 1
    coarse_pos = list(range(k - 1, z, k))
    coarse_keys = tuple(keys[i] for i in coarse_pos)
    coarse = _chunked(machine, a, coarse_keys, task, cores, refine=False)

    interior = []
    prev = -1
    for pos in coarse_pos:
        interior.append(keys[prev + 1 : pos])
        prev = pos
    interior.append(keys[prev + 1 :])

    dest = machine.alloc(n)
    starts = [0] + list(accumulate(coarse.sizes))
    sizes: list = []
    for b, inner in enumerate(interior):
        lo, hi = starts[b], starts[b + 1]
        if hi == lo:
            sizes.extend([0] * (len(inner) + 1))
            continue
        band = _core_band(cores, lo, hi, n)
        part = _subseq(coarse.seq, lo, hi)
        sub_dest = MemRegion(dest.base + lo, hi - lo)
        if not inner:
            compact(machine, [part], band, dest=sub_dest)
            sizes.append(hi - lo)
            continue
        if hi - lo <= task.grain or len(band) == 1:
            fine = _distribute_seq(machine, part, inner, band[0], dest=sub_dest)
        else:
            fine = _chunked(machine, part, inner, task, band, refine=True, dest=sub_dest)
        sizes.extend(fine.sizes)
    return BucketedRun(KeySeq(dest, n), tuple(sizes))


def _chunked(machine, seq: KeySeq, keys: tuple, task: PartitionTask, cores, refine: bool, dest=None) -> BucketedRun:
    """Partition ``seq`` by cutting it into root-scale chunks.

    Full chunks recurse through :func:`partition_main`; when refining a
    coarse bucket the trailing short chunk goes through
    :func:`_partition_sqrt` on a sliver of the cores.  The per-chunk runs are
    merged into one bucketed output.
    """
    n = seq.n
    c_len = max(2, isqrt(task.input.n))
    full = n // c_len
    rem = n % c_len
    ranges = []
    short_range = None
    if full == 0:
        short_range = (0, n)
    elif refine:
        ranges = [(i * c_len, (i + 1) * c_len) for i in range(full)]
        if rem:
            short_range = (full * c_len, n)
    else:
        ranges = [(i * c_len, (i + 1) * c_len) for i in range(full - 1)]
        ranges.append(((full - 1) * c_len, n))

    total = len(ranges) + (1 if short_range else 0)
    runs = []
    for i, (lo, hi) in enumerate(ranges):
        band = _core_band(cores, i, i + 1, total)
        if hi - lo <= task.grain or len(band) == 1:
            runs.append(_distribute_columns(machine, _subseq(seq, lo, hi), keys, band[0]))
        else:
            sub = PartitionTask(_subseq(seq, lo, hi), keys, task.N, task.P)
            runs.append(partition_main(machine, sub, band))
    if short_range is not None:
        lo, hi = short_range
        band = cores[: max(1, len(cores) // max(1, isqrt(c_len)))]
        runs.append(_partition_sqrt(machine, _subseq(seq, lo, hi), keys, band))
    return merge_bucketed(machine, runs, cores, dest=dest)
