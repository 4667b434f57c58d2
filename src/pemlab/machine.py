"""Deterministic simulator of a private-cache multicore machine.

``p`` cores, each with an ``M``-word fully associative LRU cache, share a
word-addressed memory that moves in aligned ``B``-word blocks.  Programs are
per-core functions of a :class:`Core` handle, executed in lockstep rounds.
A plain function is a one-round program; a program that needs several
rounds is a generator, and each ``yield`` is a global barrier::

    def fill(core):                      # one round
        core.write(region, core.idx, core.idx)

    def pass_right(core):                # two rounds
        core.write(region, core.idx, core.idx)
        yield
        core.read(region, 1 - core.idx)

    machine.run_rounds({0: fill, 1: pass_right})

Most steps cut their input into one chunk per core;
:func:`pemlab.primitives.parallel_for` writes that step.

Every access names a region (or a key sequence, through its region) and
word indices within it, words and runs alike.  An index outside its region,
or a region outside the allocation, raises :class:`MachineFault` before the
access charges anything.  Trace rows and diagnostics give absolute
addresses.

Cost rules
----------
* A read or write of a word whose block is not resident charges one cache
  miss and makes the block resident (evicting LRU blocks past ``M/B``).
* Within one round, if ``k`` cores write words of the same block, the
  ``i``-th writer in core-id order is charged ``i - 1`` block misses
  (``k*(k-1)/2`` total, the cost of migrating the block between writers).
* Within one round, each core that reads a block some other core writes in
  that round is charged one block miss (the forced re-read).
* At the end of a round every written block is invalidated everywhere
  except in the cache of its last writer.

Reads observe the memory state at the start of the round, except that a
core sees its own writes and ``fetch_add`` results from the current round.
Writes commit at the barrier in core-id order.  Two cores writing the same
address in one round, or one core writing an address another core
``fetch_add``s, is a data race: it is recorded as a diagnostic, never
resolved silently.  ``fetch_add`` is the sanctioned read-modify-write for
shared counters; it serialises in core-id order within the round, commits
after the plain writes, and pays the same block-miss charges as a write.
Within one core, plain writes and ``fetch_add`` on one address take effect
in program order.

Runs of words
-------------
``read_run``, ``write_run``, ``copy_run`` and ``route_run`` stand for word
loops of ``read``, ``write``, read-write (a two-stream copy) and
read-route-write (a scatter) over consecutive words of one region.  They
charge exactly what those loops charge — ops, both miss kinds, the round's
reader and writer sets, holders, LRU order, memory and diagnostics — and
return the same values, at a cost per block rather than per word.

Once per run, not once per word or block: the bounds of each stream are
checked against its region and the allocation, every route is taken and
every destination checked, the run checks whether another core already
wrote one of its destination words this round, the core's own pending
writes are read, and ``ops``, the round's address owners and the write
buffer are updated.  A run that faults therefore raises before it charges
anything: a span past its region's end, a route that raises, or a routed
destination outside its region leaves the whole run uncharged, where the
word loop would have charged the words before the fault.

Per piece, a stretch of the loop in which no stream crosses a block
boundary, a run touches the piece's blocks and adds them to the round's
reader and writer sets.  The replay is exact because inside a piece the
loop only re-touches the same few blocks.  If they number at most ``M/B``,
every eviction in the piece hits a block outside it, so touching them once
in first-touch order and then moving them to MRU in last-touch order
leaves the cache as the loop does.  A copy piece touches its source block,
then its destination block.  A ``route_run`` piece (the words of one source
block) may scatter to more than ``M/B`` blocks; it is then replayed word by
word inside an otherwise batched run.

A whole run falls back to its own word loop, with the same results, when
the machine keeps a trace (so the rows stay the same) or when another core
has already written one of its destination words this round (so every word
reports its own race).  A copy also falls back when one block fills the
cache (``M == B``) or when its two spans share a block (a read could see
an earlier write of the copy).  Reads see the core's pending writes,
including those of the same run; ``fn`` and ``route`` are called once per
word, in order, and must not touch the machine.
"""
from __future__ import annotations

import csv
from collections import OrderedDict
from dataclasses import dataclass
from types import GeneratorType

import numpy as np

__all__ = [
    "MachineFault",
    "MachineConfig",
    "MemRegion",
    "CostLedger",
    "CacheState",
    "Core",
    "Machine",
]


class MachineFault(Exception):
    """Invalid configuration, address, or program behaviour."""


@dataclass(frozen=True)
class MachineConfig:
    """Machine shape (core count, cache words, block words) and the seed of
    every random stream the machine hands out."""

    p: int
    M: int
    B: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.p < 1:
            raise MachineFault("p must be >= 1")
        if self.B < 1:
            raise MachineFault("B must be >= 1")
        if self.M < self.B:
            raise MachineFault("M must be >= B")
        if self.M % self.B != 0:
            raise MachineFault("M must be a multiple of B")
        if self.seed < 0:
            raise MachineFault("seed must be >= 0")


@dataclass(frozen=True)
class MemRegion:
    """A block-aligned window of shared memory: words [base, base+len)."""

    base: int
    len: int

    @property
    def end(self) -> int:
        return self.base + self.len


@dataclass(frozen=True)
class CostLedger:
    """Per-core cost counters plus the round count.

    ``critical_path`` is the largest per-core sum of operations and misses
    of both kinds; ``op_critical_path`` counts operations alone.  Aggregate
    counters are sums over cores.
    """

    per_core_ops: tuple
    per_core_cache_misses: tuple
    per_core_block_misses: tuple
    rounds: int

    @property
    def ops(self) -> int:
        return sum(self.per_core_ops)

    @property
    def cache_misses(self) -> int:
        return sum(self.per_core_cache_misses)

    @property
    def block_misses(self) -> int:
        return sum(self.per_core_block_misses)

    @property
    def misses(self) -> int:
        return self.cache_misses + self.block_misses

    @property
    def critical_path(self) -> int:
        return max(
            o + c + b
            for o, c, b in zip(
                self.per_core_ops,
                self.per_core_cache_misses,
                self.per_core_block_misses,
            )
        )

    @property
    def op_critical_path(self) -> int:
        return max(self.per_core_ops)


@dataclass(frozen=True)
class CacheState:
    """Resident blocks per core (LRU -> MRU) and holder cores per block."""

    resident: tuple
    holders: dict


_END = object()  # what ``next`` returns for an ended program


class Core:
    """Handle through which a program touches memory and charges ops."""

    __slots__ = (
        "idx",
        "_m",
        "ops",
        "cache_misses",
        "block_misses",
        "_cache",
        "_wbuf",
    )

    def __init__(self, idx: int, machine: "Machine") -> None:
        self.idx = idx
        self._m = machine
        self.ops = 0
        self.cache_misses = 0
        self.block_misses = 0
        self._cache: OrderedDict = OrderedDict()
        self._wbuf: dict = {}

    def _miss(self, block: int) -> None:
        """Charge a cache miss and make non-resident ``block`` resident.  A
        hit makes no call: each access moves a cached block to MRU itself."""
        cache = self._cache
        self.cache_misses += 1
        cache[block] = None
        m = self._m
        holders = m._holders
        held = holders.get(block)
        if held is None:
            holders[block] = {self.idx}
        else:
            held.add(self.idx)
        if len(cache) > m._cache_blocks:
            evicted, _ = cache.popitem(last=False)
            m._holders[evicted].discard(self.idx)

    def read(self, src, i: int):
        """Read word ``i`` of a region (or key sequence).  Charges one op,
        plus a cache miss if non-resident."""
        m = self._m
        region = src if type(src) is MemRegion else src.region
        addr = region.base + i
        if not (0 <= i < region.len and 0 <= addr < m._limit):
            raise MachineFault(f"read of word {i} of region [{region.base}, {region.end}) out of bounds")
        self.ops += 1
        block = addr // m._B
        cache = self._cache
        hit = block in cache
        if hit:
            cache.move_to_end(block)
        else:
            self._miss(block)
        readers = m._round_readers.get(block)
        if readers is None:
            m._round_readers[block] = {self.idx}
        else:
            readers.add(self.idx)
        if m._trace is not None:
            m._trace.append((m._round, self.idx, "read", addr, "hit" if hit else "cache_miss"))
        return self._wbuf.get(addr, m._mem[addr])

    def write(self, dst, i: int, value) -> None:
        """Write word ``i`` of a region (or key sequence), visible to other
        cores after the barrier."""
        m = self._m
        region = dst if type(dst) is MemRegion else dst.region
        addr = region.base + i
        if not (0 <= i < region.len and 0 <= addr < m._limit):
            raise MachineFault(f"write to word {i} of region [{region.base}, {region.end}) out of bounds")
        self.ops += 1
        block = addr // m._B
        cache = self._cache
        hit = block in cache
        if hit:
            cache.move_to_end(block)
        else:
            self._miss(block)
        writers = m._round_writers.get(block)
        if writers is None:
            m._round_writers[block] = {self.idx}
        else:
            writers.add(self.idx)
        first = m._round_addr_writer.setdefault(addr, self.idx)
        if first != self.idx:
            m.diagnostics.append(
                f"data race: cores {first} and {self.idx} wrote address {addr} in round {m._round}"
            )
        self._wbuf[addr] = value
        if m._trace is not None:
            m._trace.append((m._round, self.idx, "write", addr, "hit" if hit else "cache_miss"))

    def fetch_add(self, dst, i: int, delta=1):
        """Atomically add ``delta`` to word ``i`` of a region (or key
        sequence); returns the prior value.

        Serialises in core-id order within the round, so concurrent counter
        updates are well defined (and still pay same-block write charges).
        """
        m = self._m
        region = dst if type(dst) is MemRegion else dst.region
        addr = region.base + i
        if not (0 <= i < region.len and 0 <= addr < m._limit):
            raise MachineFault(f"fetch_add on word {i} of region [{region.base}, {region.end}) out of bounds")
        self.ops += 1
        block = addr // m._B
        cache = self._cache
        hit = block in cache
        if hit:
            cache.move_to_end(block)
        else:
            self._miss(block)
        m._round_writers.setdefault(block, set()).add(self.idx)
        m._round_adders.setdefault(addr, set()).add(self.idx)
        atomics = m._round_atomics
        wbuf = self._wbuf
        # The core's own earlier write or sum to this address comes first
        # in program order; its reads see the new sum.
        prior = wbuf[addr] if addr in wbuf else atomics.get(addr, m._mem[addr])
        atomics[addr] = wbuf[addr] = prior + delta
        if m._trace is not None:
            m._trace.append((m._round, self.idx, "fetch_add", addr, "hit" if hit else "cache_miss"))
        return prior

    # -- runs of words: the word loops above, charged once per block -------

    def read_run(self, src, lo: int, hi: int) -> list:
        """Read words ``[lo, hi)`` of a region (or key sequence) in order.

        Returns and charges exactly what
        ``[self.read(src, i) for i in range(lo, hi)]`` would.
        """
        a0, a1 = self._span(src, lo, hi, "read_run")
        m = self._m
        if m._trace is not None:
            return [self.read(src, i) for i in range(lo, hi)]
        if a0 == a1:
            return []
        idx = self.idx
        cache = self._cache
        readers = m._round_readers
        for block in range(a0 // m._B, (a1 - 1) // m._B + 1):
            if block in cache:
                cache.move_to_end(block)
            else:
                self._miss(block)
            readers.setdefault(block, set()).add(idx)
        self.ops += a1 - a0
        return self._values(a0, a1)

    def write_run(self, region, lo: int, values) -> None:
        """Write ``values`` to words ``lo, lo + 1, ...`` of a region in order.

        Charges exactly what ``self.write(region, lo + k, v)`` for each
        ``(k, v)`` would.
        """
        a0, a1 = self._span(region, lo, lo + len(values), "write_run")
        if a0 == a1:
            return
        m = self._m
        addrs = range(a0, a1)
        blocks = range(a0 // m._B, (a1 - 1) // m._B + 1)
        if m._trace is not None or self._clashes(blocks, addrs):
            for i, v in enumerate(values, lo):
                self.write(region, i, v)
            return
        idx = self.idx
        cache = self._cache
        writers = m._round_writers
        for block in blocks:
            if block in cache:
                cache.move_to_end(block)
            else:
                self._miss(block)
            writers.setdefault(block, set()).add(idx)
        self.ops += a1 - a0
        m._round_addr_writer.update(dict.fromkeys(addrs, idx))
        self._wbuf.update(zip(addrs, values))

    def copy_run(self, src, lo: int, hi: int, dst, at: int, fn=None) -> None:
        """Copy words ``[lo, hi)`` of a region (or key sequence) to words
        ``at, at + 1, ...`` of ``dst``, one word at a time in order.

        Charges exactly what ``self.write(dst, at + k, fn(self.read(src,
        lo + k)))`` for each ``k`` would.  ``fn``
        defaults to the identity; it is called once per word, in order, and
        must not touch the machine.
        """
        s0, s1 = self._span(src, lo, hi, "copy_run")
        d0, d1 = self._span(dst, at, at + hi - lo, "copy_run")
        if s0 == s1:
            return
        m = self._m
        B = m._B
        src_blocks = range(s0 // B, (s1 - 1) // B + 1)
        dst_blocks = range(d0 // B, (d1 - 1) // B + 1)
        dst_addrs = range(d0, d1)
        if (m._trace is not None or m._cache_blocks == 1
                or (src_blocks[0] <= dst_blocks[-1] and dst_blocks[0] <= src_blocks[-1])
                or self._clashes(dst_blocks, dst_addrs)):
            for k in range(hi - lo):
                v = self.read(src, lo + k)
                self.write(dst, at + k, v if fn is None else fn(v))
            return
        vals = self._values(s0, s1)
        words = vals if fn is None else list(map(fn, vals))
        # A piece ends where either stream crosses a block boundary; inside
        # it the loop alternates between its source and destination block.
        cache = self._cache
        s, d = s0, d0
        while s < s1:
            for block in (s // B, d // B):
                if block in cache:
                    cache.move_to_end(block)
                else:
                    self._miss(block)
            step = min(B - s % B, B - d % B)
            s += step
            d += step
        idx = self.idx
        readers = m._round_readers
        for block in src_blocks:
            readers.setdefault(block, set()).add(idx)
        writers = m._round_writers
        for block in dst_blocks:
            writers.setdefault(block, set()).add(idx)
        self.ops += 2 * (s1 - s0)
        m._round_addr_writer.update(dict.fromkeys(dst_addrs, idx))
        self._wbuf.update(zip(dst_addrs, words))

    def route_run(self, src, lo: int, hi: int, route) -> None:
        """Move words ``[lo, hi)`` of a region (or key sequence) one by one.

        For each word ``v`` in order: read it, take ``(dst_region,
        dst_index, word) = route(v)`` and write ``word`` at word
        ``dst_index`` of ``dst_region``.  Charges exactly what that word loop
        would.  ``route`` is called once per word, in order; it must not
        touch the machine.

        Every route is taken first, from the values the word loop would
        read.  A piece here is the stretch of the run whose source words
        share one block; it is replayed by touching its blocks in
        first-touch order and then moving them to MRU in last-touch order,
        or word by word when it touches more than ``M/B`` blocks.
        """
        a0, a1 = self._span(src, lo, hi, "route_run")
        if a0 == a1:
            return
        m = self._m
        B = m._B
        n = a1 - a0
        vals = self._values(a0, a1)
        limit = m._limit
        dsts = []
        words = []
        for k in range(n):
            region, i, word = route(vals[k])
            d = region.base + i
            if not (0 <= i < region.len and 0 <= d < limit):
                raise MachineFault(f"route_run destination {i} outside region of length {region.len}")
            dsts.append(d)
            words.append(word)
            if k < d - a0 < n:
                vals[d - a0] = word  # a later read of this run sees it
        dst_blocks = [d // B for d in dsts]
        if m._trace is not None or self._clashes(set(dst_blocks), dsts):
            # The routed destinations are absolute and already checked.
            whole = MemRegion(0, limit)
            for i, d, word in zip(range(lo, hi), dsts, words):
                self.read(src, i)
                self.write(whole, d, word)
            return
        idx = self.idx
        cache = self._cache
        miss = self._miss
        readers = m._round_readers
        cap = m._cache_blocks
        k = 0
        for src_block in range(a0 // B, (a1 - 1) // B + 1):
            stop = min(n, (src_block + 1) * B - a0)
            piece = dst_blocks[k:stop]
            k = stop
            readers.setdefault(src_block, set()).add(idx)
            touched = dict.fromkeys([src_block, *piece])
            if len(touched) > cap:
                for block in piece:
                    for b in (src_block, block):
                        if b in cache:
                            cache.move_to_end(b)
                        else:
                            miss(b)
                continue
            for block in touched:
                if block in cache:
                    cache.move_to_end(block)
                else:
                    miss(block)
            # Last touches, oldest first: other destination blocks, then the
            # source block (read just before the piece's final write), then
            # the block of that final write.
            latest = list(dict.fromkeys(reversed(piece)))
            for block in reversed(latest):
                cache.move_to_end(block)
            cache.move_to_end(src_block)
            cache.move_to_end(latest[0])
        writers = m._round_writers
        for block in set(dst_blocks):
            writers.setdefault(block, set()).add(idx)
        self.ops += 2 * n
        m._round_addr_writer.update(dict.fromkeys(dsts, idx))
        self._wbuf.update(zip(dsts, words))

    def _span(self, src, lo: int, hi: int, what: str) -> tuple:
        """Addresses ``[a0, a1)`` of words ``[lo, hi)`` of ``src``'s region,
        checked once against the region and the allocation, as a word
        access checks its word."""
        region = src if type(src) is MemRegion else src.region
        if not 0 <= lo <= hi <= region.len:
            raise MachineFault(f"{what} [{lo}, {hi}) outside region of length {region.len}")
        a0, a1 = region.base + lo, region.base + hi
        if lo < hi and not (0 <= a0 and a1 <= self._m._limit):
            raise MachineFault(f"{what} of unallocated addresses [{a0}, {a1})")
        return a0, a1

    def _values(self, a0: int, a1: int) -> list:
        """Words ``[a0, a1)`` (``a0 < a1``) as this core reads them now: the
        memory of the round's start under the core's own pending writes."""
        m = self._m
        vals = m._mem[a0:a1]
        wbuf = self._wbuf
        if wbuf:
            idx = self.idx
            writers = m._round_writers
            if any(idx in writers.get(b, ()) for b in range(a0 // m._B, (a1 - 1) // m._B + 1)):
                vals = list(map(wbuf.get, range(a0, a1), vals))
        return vals

    def _clashes(self, blocks, addrs) -> bool:
        """Whether another core wrote one of ``addrs`` this round, so that
        every word must report its own race."""
        idx = self.idx
        writers = self._m._round_writers
        for block in blocks:
            seen = writers.get(block)
            if seen and (len(seen) > 1 or idx not in seen):
                owner = self._m._round_addr_writer
                return any(owner.get(a, idx) != idx for a in addrs)
        return False

    def tick(self, n: int = 1) -> None:
        """Charge ``n`` compute operations with no memory traffic."""
        self.ops += n


class Machine:
    """Shared memory, per-core caches, and the lockstep round executor."""

    def __init__(self, config: MachineConfig, trace: bool = False) -> None:
        self.config = config
        self.cores = tuple(Core(i, self) for i in range(config.p))
        self.diagnostics: list = []
        self._B = config.B
        self._cache_blocks = config.M // config.B
        self._mem: list = []
        self._limit = 0
        self._holders: dict = {}
        self._rounds = 0
        self._round = 0
        self._round_readers: dict = {}
        self._round_writers: dict = {}
        self._round_addr_writer: dict = {}
        self._round_adders: dict = {}
        self._round_atomics: dict = {}
        self._trace = [] if trace else None

    # -- memory management -------------------------------------------------

    def alloc(self, length: int) -> MemRegion:
        """Allocate a zeroed, block-aligned region of ``length`` words."""
        if length < 0:
            raise MachineFault("allocation length must be >= 0")
        B = self._B
        base = -(-self._limit // B) * B
        new_limit = base + length
        self._mem.extend([0] * (new_limit - len(self._mem)))
        self._limit = new_limit
        return MemRegion(base, length)

    def load(self, region: MemRegion, values) -> None:
        """Install input data into a region's first words without charging
        any cost.  Bounds-checked: more values than the region holds, or a
        region outside the allocation, raises :class:`MachineFault`."""
        values = list(values)
        if len(values) > region.len:
            raise MachineFault("load exceeds region length")
        if not (0 <= region.base and region.end <= self._limit):
            raise MachineFault("load outside allocated memory")
        self._mem[region.base : region.base + len(values)] = values

    def snapshot_memory(self, region: MemRegion) -> list:
        """Return a copy of a region's words without charging any cost.
        Bounds-checked: a region outside the allocation raises
        :class:`MachineFault`."""
        if not (0 <= region.base and region.end <= self._limit):
            raise MachineFault("snapshot outside allocated memory")
        return self._mem[region.base : region.end]

    # -- execution ---------------------------------------------------------

    def run_rounds(self, programs) -> None:
        """Run per-core programs to completion in lockstep rounds.

        ``programs`` maps core ids to functions of one argument (the
        :class:`Core` handle); a list pairs with cores ``0..len-1``.  Each
        program is called at its turn in round 0, in core-id order.  A call
        that returns a generator continues at every following round until
        the generator is exhausted, so each ``yield`` is a global barrier;
        any other return value completes a one-round program.  Returns
        ``None``; :meth:`ledger` gives the cumulative costs.
        """
        if not isinstance(programs, dict):
            programs = dict(enumerate(programs))
        order = sorted(programs)
        for idx in order:
            if not 0 <= idx < self.config.p:
                raise MachineFault(f"no core {idx} on a {self.config.p}-core machine")
        if not order:
            return
        self._round = self._rounds
        alive = []
        for idx in order:
            gen = programs[idx](self.cores[idx])
            if isinstance(gen, GeneratorType):
                alive.append(gen)
                next(gen, None)
        finished = True  # round 0 may have ended some or all of them
        while True:
            self._settle_round()
            self._rounds += 1
            if finished:
                # Only a round in which a generator ended rebuilds the list;
                # an ended generator has no frame.  Core-id order is kept.
                alive = [gen for gen in alive if gen.gi_frame is not None]
                if not alive:
                    return
            self._round = self._rounds
            finished = False
            for gen in alive:
                if next(gen, _END) is _END:
                    finished = True

    def _settle_round(self) -> None:
        writers_by_block = self._round_writers
        if not writers_by_block:
            # Every write, fetch_add and writing run adds its block here
            # before it buffers anything.  So no core wrote or added this
            # round: no buffer to commit, no race, no block to invalidate.
            self._round_readers.clear()
            return
        mem = self._mem
        # Commit buffered writes in core-id order: on a same-address race the
        # highest core id lands last, matching the writer arrival order.
        # A plain loop: CPython's list store beats mapping ``__setitem__``.
        for core in self.cores:
            wbuf = core._wbuf
            if wbuf:
                for addr, value in wbuf.items():
                    mem[addr] = value
                wbuf.clear()
        if self._round_atomics:
            for addr, value in self._round_atomics.items():
                writer = self._round_addr_writer.get(addr)
                if writer is not None and self._round_adders[addr] == {writer}:
                    # One core wrote and added: its buffer, committed above,
                    # holds whichever of the two came last.
                    continue
                # The sum overwrites a plain write from any other core.
                mem[addr] = value
                if writer is not None:
                    self.diagnostics.append(
                        f"data race: core {writer} wrote address {addr} that cores "
                        f"{sorted(self._round_adders[addr])} fetch_added in round {self._round}"
                    )
            self._round_atomics.clear()
            self._round_adders.clear()
        trace = self._trace
        readers_by_block = self._round_readers
        holders_by_block = self._holders
        # Only the trace rows depend on the order of the blocks.
        for block in writers_by_block if trace is None else sorted(writers_by_block):
            writer_set = writers_by_block[block]
            readers = readers_by_block.get(block)
            holders = holders_by_block[block]
            if (len(writer_set) == 1 and holders <= writer_set
                    and (not readers or readers <= writer_set)):
                continue  # one writer, and no other core read or holds it
            writers = sorted(writer_set)
            for order, idx in enumerate(writers):
                if order:
                    self.cores[idx].block_misses += order
                    if trace is not None:
                        trace.append((self._round, idx, "migrate", block * self._B, "block_miss"))
            if readers:
                for idx in sorted(readers - writer_set):
                    self.cores[idx].block_misses += 1
                    if trace is not None:
                        trace.append((self._round, idx, "reread", block * self._B, "block_miss"))
            # Invalidate everywhere but the last writer's cache.
            keeper = writers[-1]
            if holders:
                for idx in sorted(holders):
                    if idx != keeper:
                        self.cores[idx]._cache.pop(block, None)
                holders.intersection_update({keeper})
        self._round_readers.clear()
        self._round_writers.clear()
        self._round_addr_writer.clear()

    # -- inspection --------------------------------------------------------

    def ledger(self) -> CostLedger:
        return CostLedger(
            per_core_ops=tuple(c.ops for c in self.cores),
            per_core_cache_misses=tuple(c.cache_misses for c in self.cores),
            per_core_block_misses=tuple(c.block_misses for c in self.cores),
            rounds=self._rounds,
        )

    def cache_state(self) -> CacheState:
        resident = tuple(tuple(c._cache.keys()) for c in self.cores)
        holders = {b: sorted(h) for b, h in self._holders.items() if h}
        return CacheState(resident=resident, holders=holders)

    def rng(self, *stream: int) -> np.random.Generator:
        """Counter-based Philox generator for a named integer stream."""
        seq = np.random.SeedSequence(entropy=self.config.seed, spawn_key=tuple(stream))
        return np.random.Generator(np.random.Philox(seed=seq))

    def export_trace(self, path) -> None:
        """Write the access trace as CSV (round, core, op, addr, miss_kind)."""
        if self._trace is None:
            raise MachineFault("machine was created without trace=True")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "core", "op", "addr", "miss_kind"])
            writer.writerows(self._trace)
