"""Merging of bucketed runs on the simulated machine.

A *bucketed run* is a key sequence cut into ``t`` consecutive buckets by a
shared splitter set.  Merging ``x`` such runs concatenates, for every bucket
index, the ``x`` corresponding segments in run order, producing one run whose
buckets are the column sums.  The size table is transposed to bucket-major
order and prefix-summed on the machine; every core then locates its slice of
the output by a charged binary search over the summed table and copies whole
items into one contiguous destination slice.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import accumulate

from pemlab.machine import MachineFault, MemRegion
from pemlab.primitives import KeySeq, _check_cores, _subseq, prefix_sum, transpose

__all__ = ["BucketedRun", "merge_bucketed", "plan_cuts"]


@dataclass(frozen=True)
class BucketedRun:
    """Items stored bucket-by-bucket with per-bucket counts.

    Buckets are packed back to back unless ``starts`` gives an explicit item
    offset per bucket (used by one-pass distribution into fixed-width column
    slots, where bucket ``j`` begins at slot ``j * width``).
    """

    seq: KeySeq
    sizes: tuple
    starts: tuple | None = None

    def __post_init__(self) -> None:
        if sum(self.sizes) != self.seq.n:
            raise MachineFault("bucket sizes disagree with item count")
        if any(s < 0 for s in self.sizes):
            raise MachineFault("bucket sizes must be non-negative")
        if self.starts is not None:
            if len(self.starts) != len(self.sizes):
                raise MachineFault("bucket starts disagree with bucket count")
            for j in range(len(self.sizes) - 1):
                if self.starts[j] + self.sizes[j] > self.starts[j + 1]:
                    raise MachineFault("bucket segments overlap")

    def buckets(self) -> list:
        """Each bucket, in order, as a key sequence viewing ``seq``'s memory."""
        starts = self.starts if self.starts is not None else accumulate(self.sizes, initial=0)
        return [_subseq(self.seq, lo, lo + size) for lo, size in zip(starts, self.sizes)]


def plan_cuts(ends: list, p: int, y: int) -> list:
    """Slice ``y`` output items at ``floor(c*y/p)`` over segments with the
    given inclusive end offsets.

    Returns, per core, a list of ``(segment, from, to)`` triples in segment-
    local item coordinates.  Cuts landing exactly on a segment end start the
    next core at the following segment, so empty segments are never touched
    and the total number of (core, segment) incidences is at most
    ``len(ends) + 2p``.
    """
    plans = []
    for c in range(p):
        lo = c * y // p
        hi = (c + 1) * y // p
        segs = []
        k = bisect_right(ends, lo)
        pos = lo
        while pos < hi:
            if ends[k] <= pos:
                k += 1
                continue
            seg_start = ends[k - 1] if k else 0
            take_hi = min(hi, ends[k]) - seg_start
            segs.append((k, pos - seg_start, take_hi))
            pos = seg_start + take_hi
            k += 1
        plans.append(segs)
    return plans


def merge_bucketed(machine, runs, cores, dest: MemRegion | None = None) -> BucketedRun:
    """Merge ``x`` bucketed runs into one, into ``dest`` when given."""
    _check_cores(cores)
    if not runs:
        raise MachineFault("nothing to merge")
    x = len(runs)
    t = len(runs[0].sizes)
    if any(len(r.sizes) != t for r in runs):
        raise MachineFault("runs must share one bucket count")
    y = sum(r.seq.n for r in runs)
    dst = dest if dest is not None else machine.alloc(y)
    if dst.len < y:
        raise MachineFault("destination region too small")
    col_sums = tuple(sum(r.sizes[j] for r in runs) for j in range(t))
    if y == 0:
        return BucketedRun(KeySeq(dst, 0), col_sums)

    B = machine.config.B
    entries = x * t
    mat = machine.alloc(entries)
    writers = max(1, min(len(cores), -(-entries // B)))

    def write_sizes(core, ci):
        lo = ci * B
        hi = min(entries, lo + B) if ci < writers - 1 else entries
        core.write_run(mat, lo, [runs[k // t].sizes[k % t] for k in range(lo, hi)])

    machine.run_rounds({cores[ci].idx: partial(write_sizes, ci=ci) for ci in range(writers)})
    mat_t = transpose(machine, KeySeq(mat, entries), x, t, cores[:writers])
    ends_seq = prefix_sum(machine, mat_t, cores)
    ends = [int(v) for v in machine.snapshot_memory(ends_seq)]

    p = min(len(cores), y)
    plans = plan_cuts(ends, p, y)
    views = [r.buckets() for r in runs]

    def copy(core, ci):
        out_lo = ci * y // p
        lo_i, hi_i = 0, entries
        while lo_i < hi_i:
            mid = (lo_i + hi_i) // 2
            v = core.read(ends_seq, mid)
            core.tick(1)
            if v > out_lo:
                hi_i = mid
            else:
                lo_i = mid + 1
        out = out_lo
        for k, a_lo, a_hi in plans[ci]:
            core.read(ends_seq, k)
            j, i = divmod(k, x)
            core.copy_run(views[i][j], a_lo, a_hi, dst, out)
            out += a_hi - a_lo

    machine.run_rounds({cores[ci].idx: partial(copy, ci=ci) for ci in range(p)})
    return BucketedRun(KeySeq(dst, y), col_sums)
