"""Processor-oblivious core estimation, id assignment, and prefix sums.

Anonymous cores discover how many of them are running and assign
themselves unique dense ids using only shared memory and private
randomness.  Every core registers in a random slot of an ``n / log n``
array with one atomic increment; the first registrant of each occupied
slot walks left one slot per round until it meets another registration,
and the single walker that falls off the left end is elected leader.
The leader walks right summing slot counts until it has seen ``log n``
registrants at location ``beta``, which yields the estimate
``p_hat ~ slots * log n / beta``; when the walk exhausts the array the
registrant total *is* the exact core count.  Slots then group into
blocks of ``slots * log n / p_hat``; block leaders (elected the same
way within their block) assign local ranks by scanning their block,
and the global leader turns per-block totals into dense id offsets.
A block scan reads its block as runs that stop at each registered slot
(``read_run`` with ``stop=bool``), so it charges exactly the word loop
that reads every slot and writes each registered slot's offset.

Each step of an election walk is still charged as one round, so the
leftmost-walker argument is literal.  No walker writes, so each election
phase is read-only (``run_reads``) and each walk runs as one paced run
(``Core.walk``) that charges per block what the one-slot-per-round loop
charges.  The count walk writes in its last round and stays a word loop.
Every value later phases need (the estimate, the block size, rank offsets)
is written to shared words by the core that computed it and read back by
each participant, so the communication is charged to the ledger; the host
only mirrors what the leaders wrote.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from pemlab.machine import MachineFault
from pemlab.primitives import (KeySeq, _check_cores, _check_stream, chunk_bounds, prefix_sum,
                               spaced_slots)

__all__ = [
    "IdAssignment",
    "estimate_processors",
    "oblivious_prefix",
]


@dataclass(frozen=True)
class IdAssignment:
    """Outcome of the anonymous core-count estimation.

    ``ids[k]`` is the two-part id of the ``k``-th participating core:
    ``(block, rank)``, the slot-array block it registered in (the high
    bits) and its rank within that block (the low bits).  ``dense_ids``
    flatten those to ``block offset + rank``; they are a permutation of
    ``range(total)``, so mapping dense id ``k`` to the ``k``-th chunk of
    an array yields disjoint, covering ownership.  ``estimated_p`` is
    exact whenever the counting walk saw the whole slot array
    (``saturated``); otherwise it stops at slot ``beta`` having counted
    ``count_target`` registrants.
    """

    estimated_p: int
    beta: int
    count_target: int
    slots: int
    block_slots: int
    saturated: bool
    ids: tuple
    dense_ids: tuple
    write_block_misses: int = 0

    def __post_init__(self):
        if self.estimated_p < 1:
            raise MachineFault("estimated core count must be positive")
        if sorted(self.dense_ids) != list(range(len(self.dense_ids))):
            raise MachineFault("dense ids are not a permutation")

    @property
    def total(self) -> int:
        return len(self.dense_ids)

    def owned_ranges(self, n: int) -> tuple:
        """Disjoint ``(lo, hi)`` chunks of ``[0, n)``, one per dense id."""
        return tuple(chunk_bounds(n, self.total))


def _count_target(n: int) -> int:
    return max(2, int(n).bit_length() - 1)


def estimate_processors(machine, n: int, cores,
                        stream: int = 0) -> IdAssignment:
    """Estimate the anonymous core count and assign two-part ids.

    ``n`` is the problem size; the estimation runs in its first
    ``n / log n`` locations so the whole procedure stays within the
    ``O(n / p)`` budget of a prefix computation.  Requires at most that
    many cores.  The estimate is exact when the cores number fewer than
    ``log n``; otherwise it is correct within a constant factor with
    high probability, and ids are unique in every trial because slot
    collisions serialize through an atomic counter.
    """
    cores = tuple(cores)
    _check_cores(cores)
    _check_stream(stream)
    p = len(cores)
    if n < 2:
        raise MachineFault("slot array needs at least two locations")
    target = _count_target(n)
    slots_n = max(1, n // target)
    if p > slots_n:
        raise MachineFault(
            f"{p} cores exceed the {slots_n}-slot estimation array")

    slots = machine.alloc(slots_n)
    offs = machine.alloc(slots_n)
    header = spaced_slots(machine, 1)

    my_slot = [0] * p
    my_rank = [0] * p

    misses_before = machine.ledger().block_misses

    def register(core, ci):
        rng = machine.rng(17, stream, core.idx)
        s = rng.integers(slots_n)
        my_slot[ci] = s
        my_rank[ci] = core.fetch_add(slots, s, 1)

    machine.run_rounds({cores[ci].idx: partial(register, ci=ci) for ci in range(p)})
    write_misses = machine.ledger().block_misses - misses_before

    def walk(core, ci, floor, won):
        """Election walk: read one slot per round leftward from ``ci``'s
        slot down to ``floor``; ``ci`` joins ``won`` a round after the last
        if all are empty."""
        seen = core.walk(slots, floor, my_slot[ci], bool)
        if seen:
            if seen[-1]:
                return
            yield
        won.append(ci)

    leader: list = []
    machine.run_reads({cores[ci].idx: partial(walk, ci=ci, floor=0, won=leader)
                       for ci in range(p) if my_rank[ci] == 0})
    if len(leader) != 1:
        raise MachineFault("leftward election did not produce one leader")

    est: dict = {}

    def count_prog(core):
        read = core.read
        total = 0
        beta = slots_n
        for i in range(slots_n):
            total += read(slots, i)
            if total >= target:
                beta = i + 1
                break
            yield
        saturated = total < target
        if saturated:
            p_hat = max(1, total)
        else:
            p_hat = max(1, (target * slots_n + beta // 2) // beta)
        block = max(1, min(slots_n, (target * slots_n) // p_hat))
        est.update(saturated=saturated, p_hat=p_hat, block=block, beta=beta)
        core.write(header, 0, (p_hat, beta, block))
        core.tick(4)

    machine.run_rounds({cores[leader[0]].idx: count_prog})

    b = est["block"]
    nblocks = -(-slots_n // b)
    summaries = machine.alloc(nblocks)
    gsum = machine.alloc(nblocks)
    block_leaders: list = []

    def block_walk(core, ci):
        core.read(header, 0)
        return walk(core, ci, (my_slot[ci] // b) * b, block_leaders)

    machine.run_reads({cores[ci].idx: partial(block_walk, ci=ci)
                       for ci in range(p) if my_rank[ci] == 0})

    def block_scan(core, ci):
        """Read the block's slots as runs that end at a registered slot, and
        write each such slot's offset before reading on."""
        mb = my_slot[ci] // b
        pos, end = mb * b, min((mb + 1) * b, slots_n)
        running = 0
        while pos < end:
            run = core.read_run(slots, pos, end, stop=bool)
            pos += len(run)
            if run[-1]:
                core.write(offs, pos - 1, running)
                running += run[-1]
        core.write(summaries, mb, running)

    machine.run_rounds({cores[ci].idx: partial(block_scan, ci=ci)
                        for ci in block_leaders})

    grand = {}

    def gsum_prog(core):
        running = 0

        def carry(v):
            """The total before summary ``v``, which it then adds."""
            nonlocal running
            prior, running = running, running + v
            return prior

        core.copy_run(summaries, 0, nblocks, gsum, 0, carry)
        grand["total"] = running

    machine.run_rounds({cores[leader[0]].idx: gsum_prog})
    if grand["total"] != p:
        raise MachineFault("block totals do not account for every core")

    ids = [None] * p
    dense = [None] * p

    def derive(core, ci):
        hv = core.read(header, 0)
        mb = my_slot[ci] // hv[2]
        slot_off = core.read(offs, my_slot[ci])
        block_off = core.read(gsum, mb)
        rank = slot_off + my_rank[ci]
        ids[ci] = (mb, rank)
        dense[ci] = block_off + rank
        core.tick(2)

    machine.run_rounds({cores[ci].idx: partial(derive, ci=ci) for ci in range(p)})
    return IdAssignment(
        estimated_p=est["p_hat"],
        beta=est["beta"],
        count_target=target,
        slots=slots_n,
        block_slots=b,
        saturated=est["saturated"],
        ids=tuple(ids),
        dense_ids=tuple(dense),
        write_block_misses=write_misses,
    )


def oblivious_prefix(machine, a: KeySeq, cores,
                     stream: int = 0) -> KeySeq:
    """Inclusive prefix sums without knowing the core count in advance.

    Runs the id estimation, gives dense id ``k`` the ``k``-th chunk of
    the input, sums chunks sequentially, combines the per-chunk totals
    with the regular prefix routine, and rewrites each chunk with its
    carry.  The output equals :func:`pemlab.primitives.prefix_sum` for
    any hidden core count; when the cores outnumber the estimation
    slots the routine falls back to a single-core prefix and logs the
    event.
    """
    cores = tuple(cores)
    _check_cores(cores)
    _check_stream(stream)
    n = a.n
    if n == 0:
        return KeySeq(machine.alloc(0), 0)
    slots_n = max(1, n // _count_target(n)) if n >= 2 else 0
    if len(cores) == 1 or len(cores) > slots_n:
        if len(cores) > 1:
            machine.diagnostics.append(
                f"procalloc: {len(cores)} cores exceed the {slots_n}-slot "
                "estimation array; single-core prefix fallback")
        return prefix_sum(machine, a, cores[:1])

    est = estimate_processors(machine, n, cores, stream=stream)
    owners = est.owned_ranges(n)
    partials = machine.alloc(est.total)
    out = machine.alloc(n)

    def chunk_sum(core, k):
        lo, hi = owners[k]
        acc = sum(core.read_run(a, lo, hi))
        core.tick(hi - lo)
        core.write(partials, k, acc)

    machine.run_rounds({core.idx: partial(chunk_sum, k=k)
                        for core, k in zip(cores, est.dense_ids)})
    pref = prefix_sum(machine, KeySeq(partials, est.total), cores)

    def emit(core, k):
        acc = core.read(pref, k - 1) if k else 0
        lo, hi = owners[k]

        def running(v):
            nonlocal acc
            acc += v
            return acc

        core.copy_run(a, lo, hi, out, lo, running)
        core.tick(hi - lo)

    machine.run_rounds({core.idx: partial(emit, k=k)
                        for core, k in zip(cores, est.dense_ids)})
    return KeySeq(out, n)
