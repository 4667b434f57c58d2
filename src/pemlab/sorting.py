"""Randomized parallel sample sort on the simulated machine.

The recursion has two arms.  A subproblem of at most ``M**2`` keys at the
per-core grain ``N/P`` — or holding only one core — is a modelled leaf,
which may be up to ``M`` caches' worth: a single core reads it,
host-sorts it and writes it back, charged one read sweep, one write sweep
and ``n log n`` ticks however many caches it spans.  That charge is
:func:`~pemlab.primitives._host_sort`, the one modelled sort, which
``partition_seq`` and the sampler's rank sort also call.  Any other subproblem
is one distribute-and-recurse branch: it samples splitters, distributes
its keys into buckets, and recurses on each bucket with its cores handed
out in proportion to bucket size.  On one core — the grain's single core,
or a bucket's — the keys go in one counting pass into bucket columns, and
every bucket recurses on that core; on many, through the chunked parallel
partitioner.

Two details keep the measured costs aligned with the intended shape:

* Keys are wrapped as ``(key, offset)`` pairs before the first distribution
  so every comparison sees distinct values; splitter quality therefore
  survives duplicate-heavy inputs, and leaves strip the wrapper as they
  write.  Inputs small enough to be a single leaf skip the wrapper.
* Leaves write their sorted keys straight into the caller-visible output
  slice located by the accepted bucket sizes, so concatenating bucket
  results costs nothing beyond the write each leaf already pays for.

Every distribution round is judged against the quality threshold
``tau(n)``: a round whose largest bucket exceeds it is discarded and
redrawn with fresh splitters, up to ``_RETRY_CAP`` times; like the hull's
redraw budget, the cap is a constant.  Exhausting it records a diagnostic
and keeps the final round rather than failing.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import isqrt
from operator import itemgetter

from pemlab.machine import MachineFault, MemRegion
from pemlab.partition import PartitionTask, _distribute_columns, partition_main
from pemlab.primitives import (KeySeq, _check_cores, _host_sort, _streams, parallel_for,
                               sample_splitters)

__all__ = ["SortPlan", "SortStats", "sample_sort"]

# Smallest leaf size: a run this short is never sampled, whatever N/P is.
_SEQ_FLOOR = 32
# Redraws of one distribution round before its last draw is kept.
_RETRY_CAP = 20


@dataclass(frozen=True)
class SortPlan:
    """The one tuning knob of the sample-sort recursion.

    ``x`` is the sampling exponent, an ``int`` (never a ``bool``) of at
    least 4: a subproblem of ``n`` keys is cut around ``z = ceil(n**(1/x))``
    splitters, and a round is accepted only if its largest bucket is at
    most ``tau(n)``.
    """

    x: int = 32

    def __post_init__(self) -> None:
        if not isinstance(self.x, int) or isinstance(self.x, bool):
            raise MachineFault(f"x must be an int; got {self.x!r}")
        if self.x < 4:
            raise MachineFault("sampling exponent x must be >= 4")

    def splitter_count(self, n: int) -> int:
        """Smallest ``z`` with ``z**x >= n``: the splitters drawn per round."""
        z = 1
        while z**self.x < n:
            z += 1
        return z

    def tau(self, n: int) -> float:
        """Largest acceptable bucket: ``(1 + t**(-1/6)) * n**(1 - 1/x)``.

        ``t`` is the oversampling ratio ``max(sqrt(n), z) / z`` realized by
        the splitter draw.
        """
        if n <= 1:
            return float(n)
        z = self.splitter_count(n)
        t = max(isqrt(n), z) / z
        return (1.0 + t ** (-1.0 / 6.0)) * n ** (1.0 - 1.0 / self.x)


@dataclass
class SortStats:
    """Counters accumulated across one sort call tree.

    ``rounds`` counts sample-and-distribute rounds and ``resamples`` the
    rounds discarded for a bucket above threshold.
    """

    rounds: int = 0
    resamples: int = 0


@dataclass
class _Ctx:
    plan: SortPlan
    N: int
    P: int
    cap: int
    stats: SortStats
    next_stream: object


def sample_sort(machine, a: KeySeq, cores, plan: SortPlan | None = None,
                stats: SortStats | None = None, stream: int = 0) -> KeySeq:
    """Sort ``a`` into a fresh region using the given cores.

    Returns the sorted sequence; pass ``stats`` to observe distribution
    round counts.  Runs below ``M * p`` keys are legal but get a
    diagnostic, since the cost bounds assume at least one cacheful per
    core.
    """
    plan = plan if plan is not None else SortPlan()
    stats = stats if stats is not None else SortStats()
    _check_cores(cores)
    next_stream = _streams(stream)
    n = a.n
    out = machine.alloc(n)
    cfg = machine.config
    if n < cfg.M * len(cores):
        machine.diagnostics.append(
            f"sample_sort: n={n} below cost precondition M*p={cfg.M * len(cores)}"
        )
    if n == 0:
        return KeySeq(out, 0)
    cap = max(_SEQ_FLOOR, cfg.M * cfg.M)
    ctx = _Ctx(plan=plan, N=n, P=len(cores), cap=cap,
               stats=stats, next_stream=next_stream)
    if len(cores) == 1 and n <= cap:
        machine.run_rounds({cores[0].idx: lambda c: _host_sort(c, a, n, out)})
        return KeySeq(out, n)
    tagged = _tag_keys(machine, a, cores)
    _sort_rec(machine, tagged, list(cores), out, 0, ctx)
    return KeySeq(out, n)


def _tag_keys(machine, a: KeySeq, cores) -> KeySeq:
    """Wrap every key as ``(key, offset)`` so all values are distinct."""
    reg = machine.alloc(a.n)

    def body(core, ci, lo, hi):
        offsets = count(lo)
        core.copy_run(a, lo, hi, reg, lo, lambda v: (v, next(offsets)))

    parallel_for(machine, a.n, cores, body)
    return KeySeq(reg, a.n)


def _sort_rec(machine, seq: KeySeq, cores, out: MemRegion, off: int, ctx: _Ctx) -> None:
    n = seq.n
    if n == 0:
        return
    at_grain = len(cores) == 1 or n <= max(ctx.N // ctx.P, _SEQ_FLOOR)
    if at_grain and n <= ctx.cap:
        # A leaf strips the ``(key, offset)`` wrapper as it writes.
        machine.run_rounds({cores[0].idx: lambda c: _host_sort(c, seq, n, out, off, itemgetter(0))})
    else:
        _branch(machine, seq, cores[:1] if at_grain else cores, out, off, ctx)


def _partition_round(machine, seq: KeySeq, cores, ctx: _Ctx, distribute):
    """Sample splitters and distribute, redrawing while the largest bucket
    exceeds ``tau(n)``; the final round is kept either way."""
    plan, stats = ctx.plan, ctx.stats
    n = seq.n
    tau = plan.tau(n)
    run = None
    for attempt in range(_RETRY_CAP + 1):
        keys = sample_splitters(machine, seq, plan.splitter_count(n), cores,
                                stream=ctx.next_stream())
        run = distribute(keys)
        stats.rounds += 1
        if max(run.sizes) <= tau:
            return run
        stats.resamples += 1
    machine.diagnostics.append(
        f"sample_sort: retry cap {_RETRY_CAP} exhausted at n={n}; keeping the last round"
    )
    return run


def _branch(machine, seq: KeySeq, cores, out: MemRegion, off: int, ctx: _Ctx) -> None:
    """Sample, distribute and recurse on every bucket with a band of
    ``cores``; one core distributes into bucket columns and keeps every
    bucket, since its single share leaves the other buckets on it too."""
    p = len(cores)

    def distribute(keys):
        if p == 1:
            return _distribute_columns(machine, seq, keys, cores[0])
        task = PartitionTask(seq, keys, N=seq.n, P=p)
        return partition_main(machine, task, cores)

    run = _partition_round(machine, seq, cores, ctx, distribute)
    shares = _core_shares(run.sizes, p, ctx.N // ctx.P)
    at = 0
    sub_off = off
    for share, view in zip(shares, run.buckets()):
        if share:
            band = cores[at : at + share]
            at += share
        else:
            band = [cores[min(at, p - 1)]]
        _sort_rec(machine, view, band, out, sub_off, ctx)
        sub_off += view.n


def _core_shares(sizes, p: int, grain: int) -> list:
    """Cores per bucket: proportional quotas, largest-remainder rounding.

    A bucket above the sequential grain that rounding starves takes one
    core from the widest allocation when that allocation holds more than
    one.  When none does, the bucket keeps zero shares, and
    :func:`_branch` runs it on a core that another bucket's band holds.
    """
    n = sum(sizes)
    quotas = [p * s / n for s in sizes]
    shares = [int(q) for q in quotas]
    # ``left`` is the sum of the quotas' fractional parts, each below one
    # and non-zero only for a non-empty bucket, so the loop hands out every
    # core.
    left = p - sum(shares)
    order = sorted(
        range(len(sizes)),
        key=lambda b: (quotas[b] - shares[b], sizes[b]),
        reverse=True,
    )
    for b in order:
        if left == 0:
            break
        if sizes[b] > 0:
            shares[b] += 1
            left -= 1
    for b, s in enumerate(sizes):
        if s > grain and shares[b] == 0:
            donor = max(range(len(sizes)), key=lambda d: shares[d])
            if shares[donor] > 1:
                shares[donor] -= 1
                shares[b] = 1
    return shares
