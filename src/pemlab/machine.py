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
word indices within it, words and runs alike.  An index that is not an
``int`` (a ``bool`` is not) or lies outside its region, or a region outside
the allocation, raises :class:`MachineFault` before the access charges
anything.  Trace rows and diagnostics give absolute addresses.

Cost rules
----------
* A read or write of a word whose block is not resident charges one cache
  miss and makes the block resident (evicting LRU blocks past ``M/B``); a
  hit charges no miss and moves its block to MRU.  Every access, word or
  run, applies this rule in one place, ``Core._touch``; a scatter's piece
  replay (below) only reorders blocks it has touched.
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
resolved silently.  The barrier records each race once per address and
core.  ``fetch_add`` is the sanctioned read-modify-write for shared
counters; it serialises in core-id order within the round, commits after
the plain writes, and pays the same block-miss charges as a write.  Within
one core, plain writes and ``fetch_add`` on one address take effect in
program order.

Runs of words
-------------
``read_run``, ``write_run``, ``copy_run`` and ``route_run`` stand for word
loops of ``read``, ``write``, read-write (a two-stream copy) and
read-place-write (a scatter into one region) over consecutive words of one
region.  A ``read_run`` given ``stop`` stands for the read loop that breaks
after the first word ``v`` for which ``stop(v)`` is true.  They charge
exactly what those loops charge — ops, both miss kinds, the core's read and
write sets, LRU order, memory and diagnostics — and return the same values,
at a cost per block rather than per word.  A run never writes the span it
reads: a copy onto an overlapping span, or a scatter into a region that
overlaps its source span, raises :class:`MachineFault`.

Once per run, not once per word or block: the bounds of each stream are
checked against its region and the allocation, every word is placed and
every index checked, the words up to a stop are found, the core's own
pending writes are read, and ``ops``, the write buffer and the core's read
and write sets are updated.  A run that faults therefore raises before it
charges anything: a span past its region's end, a ``place`` or ``stop``
that raises or an index outside its destination leaves the whole run
uncharged, where the word loop would have charged the words before the
fault.

Per piece, a stretch of the loop in which no stream crosses a block
boundary, a run touches the piece's blocks.  The replay is exact because
inside a piece the loop only re-touches the same few blocks.  If they number
at most ``M/B``, every eviction in the piece hits a block outside it, so
touching them once in first-touch order and then moving them to MRU in
last-touch order leaves the cache as the loop does.  A copy piece touches its source block,
then its destination block.  A scatter piece (the words of one source
block) may scatter to more than ``M/B`` blocks; it is then replayed word by
word inside an otherwise batched run.

A copy goes through the scatter replay, to consecutive words, when one
block fills the cache (``M == B``) or when its two spans share a block.
Reads see the core's pending writes; ``fn`` and ``place`` are called once
per word, in order, and ``stop`` once per word up to its first true value;
none of them may touch the machine.

Running ahead
-------------
While no other core writes, a barrier settles nothing for a core that its
own program does not decide: it commits only that core's writes, charges
it no migration or re-read, and leaves every block it wrote in its cache.
Such a core runs ahead: its program is driven to its end from the current
round, a round in which it wrote nothing is only counted (its read set is
kept), and a round in which it wrote is settled.  ``run_rounds`` runs a
call of one program, and the last program of a call left running, that
way.  ``Machine.run_reads`` runs each of its programs that way in turn from
the phase's first round, and a write faults: the caller declares the phase
read-only, as a generator cannot be rolled back.  The phase counts the
rounds of its longest program, and its trace rows are sorted by round and
core, the order lockstep rounds give.

A core that runs ahead may ``walk``: the loop that reads the words a
``range`` of step 1 or -1 names, in its order and one per round, until
``stop`` is true of one.  It reads and charges as ``read_run`` does, once
per block in walk order, and moves the round on by one per word after the
first; each ``fetch`` row gets the round of the word that missed.

Trace
-----
A machine made with ``trace=True`` records one row ``(round, core, op,
addr, miss_kind)`` per charged miss, where the miss is charged, so a run
and its word loop give the same rows.  ``addr`` is the block's first word;
``op`` is ``fetch`` (a cache miss), ``migrate`` (one row per block miss a
writer pays) or ``reread``.  The barrier's rows go in block order.

Host memory
-----------
The memory image only grows: ``alloc`` never frees and reuses no address.
The caches are the only record of which core holds which block.  Each core
keeps its own records of the round, and the barrier clears those of the
cores that ran.  No core refers back to its machine, so a dropped machine is
freed at once, by reference counting.
"""
from __future__ import annotations

import csv
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, count, repeat
from operator import itemgetter
from types import GeneratorType

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
    every random stream the machine hands out; each is an ``int``, never a
    ``bool``."""

    p: int
    M: int
    B: int
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("p", "M", "B", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise MachineFault(f"{name} must be an int; got {value!r}")
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
    """Resident blocks per core (LRU -> MRU) and, read off those caches,
    the sorted ids of the cores that cache each resident block."""

    resident: tuple
    holders: dict


_END = object()  # what ``next`` returns for an ended program


def _rounds(core, program):
    """Call ``program`` on ``core`` and resume a generator it returns to its
    end: one step per round of the program but its last."""
    gen = program(core)
    if isinstance(gen, GeneratorType):
        yield from gen


class _Shared:
    """What a machine's cores share: shape, memory, the count of settled
    rounds (so the index of the round that runs), the round's sums, the
    trace and the core that runs ahead, if one does; never the machine
    itself, so no cycle holds it."""

    __slots__ = ("_B", "_cache_blocks", "_mem", "_limit", "_round", "_round_atomics", "_trace",
                 "_ahead")

    def __init__(self, config: MachineConfig, trace: bool) -> None:
        self._B, self._cache_blocks = config.B, config.M // config.B
        self._mem: list = []
        self._limit = 0
        self._round = 0
        self._round_atomics: dict = {}  # address -> running fetch_add sum
        self._trace = [] if trace else None
        self._ahead = None


class Core:
    """Handle through which a program touches memory and charges ops.

    A core keeps its own records of the current round, which the barrier
    reads and clears: its pending writes (``_wbuf``), the blocks it read
    (``_reads``) and wrote or added to (``_writes``), and, per address it
    added to, whether it also plain-wrote that address (``_adds``).
    """

    __slots__ = ("idx", "_sh", "ops", "cache_misses", "block_misses", "_cache", "_wbuf",
                 "_reads", "_writes", "_adds")

    def __init__(self, idx: int, shared: "_Shared") -> None:
        self.idx = idx
        self._sh = shared
        self.ops = 0
        self.cache_misses = 0
        self.block_misses = 0
        self._cache: OrderedDict = OrderedDict()
        self._wbuf: dict = {}
        self._reads: set = set()
        self._writes: set = set()
        self._adds: dict = {}

    def _touch(self, block: int) -> None:
        """Touch ``block`` under LRU: a resident block moves to MRU; any
        other is a cache miss, charged with a ``fetch`` row if traced, made
        resident, and the LRU block past ``M/B`` is evicted."""
        cache = self._cache
        if block in cache:
            cache.move_to_end(block)
            return
        self.cache_misses += 1
        cache[block] = None
        sh = self._sh
        if sh._trace is not None:
            sh._trace.append((sh._round, self.idx, "fetch", block * sh._B, "cache_miss"))
        if len(cache) > sh._cache_blocks:
            cache.popitem(last=False)

    def _access(self, src, i: int, what: str, blocks: set) -> int:
        """Address of word ``i`` of a region (or key sequence), charged one
        op, touched and added to ``blocks``.  ``i`` is checked for type,
        then against the region and the allocation, before any charge."""
        sh = self._sh
        region = src if type(src) is MemRegion else src.region
        if type(i) is not int or not (0 <= i < region.len and 0 <= region.base + i < sh._limit):
            raise MachineFault(f"{what} bad index {i!r} of region [{region.base}, {region.end})")
        addr = region.base + i
        self.ops += 1
        block = addr // sh._B
        self._touch(block)
        blocks.add(block)
        return addr

    def read(self, src, i: int):
        """Read word ``i`` of a region (or key sequence).  Charges one op,
        plus a cache miss if non-resident."""
        addr = self._access(src, i, "read of", self._reads)
        return self._wbuf.get(addr, self._sh._mem[addr])

    def write(self, dst, i: int, value) -> None:
        """Write word ``i`` of a region (or key sequence), visible to other
        cores after the barrier."""
        addr = self._access(dst, i, "write to", self._writes)
        if addr in self._adds:
            self._adds[addr] = True
        self._wbuf[addr] = value

    def fetch_add(self, dst, i: int, delta=1):
        """Atomically add ``delta`` to word ``i`` of a region (or key
        sequence); returns the prior value.

        Serialises in core-id order within the round, so concurrent counter
        updates are well defined (and still pay same-block write charges).
        """
        sh = self._sh
        addr = self._access(dst, i, "fetch_add on", self._writes)
        atomics = sh._round_atomics
        wbuf = self._wbuf
        self._adds.setdefault(addr, addr in wbuf)  # did a plain write come first?
        # The core's own earlier write or sum to this address comes first
        # in program order; its reads see the new sum.
        prior = wbuf[addr] if addr in wbuf else atomics.get(addr, sh._mem[addr])
        atomics[addr] = wbuf[addr] = prior + delta
        return prior

    # -- runs of words: the word loops above, charged once per block -------

    def read_run(self, src, lo: int, hi: int, stop=None) -> list:
        """Read words ``[lo, hi)`` of a region (or key sequence) in order,
        ending after the first word ``v`` for which ``stop(v)`` is true.

        Returns and charges exactly what the word loop that reads word
        ``i``, appends it, and breaks if ``stop`` is given and true of it
        would.  ``stop`` is called once per word, in order, up to its first
        true value, before the run charges anything; it must not touch the
        machine.
        """
        a0, a1 = self._span(src, lo, hi, "read_run")
        if a0 == a1:
            return []
        vals = self._values(a0, a1)
        if stop is not None:
            # ``compress`` pulls one ``stop`` value per word and returns at
            # the first true one, so no later word is tested.
            k = next(compress(count(1), map(stop, vals)), None)
            if k is not None:
                del vals[k:]
                a1 = a0 + k
        B = self._sh._B
        blocks = range(a0 // B, (a1 - 1) // B + 1)
        for block in blocks:
            self._touch(block)
        self._reads.update(blocks)
        self.ops += a1 - a0
        return vals

    def walk(self, src, words: range, stop) -> list:
        """Read the words of a region (or key sequence) that ``words``, a
        ``range`` of step 1 or -1, names, in its order and one per round,
        ending after the first word ``v`` for which ``stop(v)`` is true.
        Only a core that runs ahead may walk (see the module docstring).

        Returns the words read, in that order, and charges exactly what the
        word loop that reads a word, breaks if ``stop`` is true of it and
        otherwise yields would, each ``fetch`` row at the round of the word
        that missed.  The walk ends in the round of its last word, an empty
        walk in the round it starts.  Words are read, and ``stop`` called,
        as in :meth:`read_run`.
        """
        sh = self._sh
        if sh._ahead is not self:
            raise MachineFault("walk by a core that does not run ahead")
        if type(words) is not range or words.step not in (1, -1):
            raise MachineFault(f"walk needs a range of step 1 or -1; got {words!r}")
        step = words.step
        lo, hi = (words.start, words.stop) if step == 1 else (words.stop + 1, words.start + 1)
        a0, a1 = self._span(src, lo, hi, "walk")
        if a0 == a1:
            return []
        addrs = range(a0, a1) if step == 1 else range(a1 - 1, a0 - 1, -1)
        seen = map(sh._mem.__getitem__, addrs)
        if self._wbuf:
            seen = map(self._wbuf.get, addrs, seen)
        # The words are looked up one at a time up to the stop: an election
        # walk's span runs down to slot 0.
        k = next(compress(count(1), map(stop, seen)), len(addrs))
        first, last = addrs[0], addrs[k - 1]
        vals = self._values(min(first, last), max(first, last) + 1)
        if step == -1:
            vals.reverse()
        B = sh._B
        start = sh._round
        blocks = range(first // B, last // B + step, step)
        for block in blocks:
            # The block's first word walked is the one that may miss.
            edge = block * B if step == 1 else block * B + B - 1
            sh._round = start + max(0, (edge - first) * step)
            self._touch(block)
        self._reads.update(blocks)
        self.ops += k
        sh._round = start + k - 1
        return vals

    def write_run(self, region, lo: int, values) -> None:
        """Write ``values`` to words ``lo, lo + 1, ...`` of a region in order.

        Charges exactly what ``self.write(region, lo + k, v)`` for each
        ``(k, v)`` would.
        """
        a0, a1 = self._span(region, lo, None, "write_run", len(values))
        if a0 == a1:
            return
        B = self._sh._B
        blocks = range(a0 // B, (a1 - 1) // B + 1)
        for block in blocks:
            self._touch(block)
        self._writes.update(blocks)
        self.ops += a1 - a0
        self._buffer(range(a0, a1), values)

    def copy_run(self, src, lo: int, hi: int, dst, at: int, fn=None) -> None:
        """Copy words ``[lo, hi)`` of a region (or key sequence) to words
        ``at, at + 1, ...`` of ``dst``, one word at a time in order.

        Charges exactly what ``self.write(dst, at + k, fn(self.read(src,
        lo + k)))`` for each ``k`` would.  ``fn`` defaults to the identity;
        it is called once per word, in order, and must not touch the
        machine.  The two spans must not overlap.
        """
        s0, s1 = self._span(src, lo, hi, "copy_run")
        d0, d1 = self._span(dst, at, None, "copy_run", hi - lo)
        if s0 == s1:
            return
        if s0 < d1 and d0 < s1:
            raise MachineFault(f"copy_run of [{s0}, {s1}) onto overlapping [{d0}, {d1})")
        vals = self._values(s0, s1)
        words = vals if fn is None else list(map(fn, vals))
        sh = self._sh
        B = sh._B
        src_blocks = range(s0 // B, (s1 - 1) // B + 1)
        dst_blocks = range(d0 // B, (d1 - 1) // B + 1)
        if (sh._cache_blocks == 1
                or (src_blocks[0] <= dst_blocks[-1] and dst_blocks[0] <= src_blocks[-1])):
            self._scatter(s0, s1, range(d0, d1), words)
            return
        # A piece ends where either stream crosses a block boundary; inside
        # it the loop alternates between its source and destination block.
        touch = self._touch
        s, d = s0, d0
        while s < s1:
            touch(s // B)
            touch(d // B)
            step = min(B - s % B, B - d % B)
            s += step
            d += step
        self._reads.update(src_blocks)
        self._writes.update(dst_blocks)
        self.ops += 2 * (s1 - s0)
        self._buffer(range(d0, d1), words)

    def route_run(self, src, lo: int, hi: int, dst, place) -> None:
        """Scatter words ``[lo, hi)`` of a region (or key sequence) into
        ``dst``, a region (or key sequence) apart from them.

        For each word ``v`` in order: read it and write it at word
        ``place(v)`` of ``dst``.  Charges exactly what that word loop would.
        ``place`` is called once per word, in order, from the values the
        word loop would read, before the run charges anything; it must not
        touch the machine.
        """
        a0, a1 = self._span(src, lo, hi, "route_run")
        region = dst if type(dst) is MemRegion else dst.region
        d0, d1 = self._span(region, 0, region.len, "route_run")
        if a0 == a1:
            return
        if a0 < d1 and d0 < a1:
            raise MachineFault(f"route_run of [{a0}, {a1}) into overlapping region [{d0}, {d1})")
        words = self._values(a0, a1)
        index = list(map(place, words))
        if set(map(type, index)) != {int} or min(index) < 0 or max(index) >= region.len:
            raise MachineFault(f"route_run index outside range({region.len}) or not an int")
        self._scatter(a0, a1, [d0 + i for i in index], words)

    def _scatter(self, a0: int, a1: int, dsts, words) -> None:
        """Charge and buffer the word loop that reads addresses ``[a0, a1)``
        (``a0 < a1``) in order and writes ``words[k]`` at address
        ``dsts[k]``, none of which it reads; one piece per source block."""
        sh = self._sh
        B = sh._B
        n = a1 - a0
        src_blocks = range(a0 // B, (a1 - 1) // B + 1)
        dst_blocks = [d // B for d in dsts]
        cache = self._cache
        touch = self._touch
        cap = sh._cache_blocks
        k = 0
        for src_block in src_blocks:
            stop = min(n, (src_block + 1) * B - a0)
            piece = dst_blocks[k:stop]
            k = stop
            touched = dict.fromkeys([src_block, *piece])
            if len(touched) > cap:
                for block in piece:
                    touch(src_block)
                    touch(block)
                continue
            for block in touched:
                touch(block)
            # Last touches, oldest first: other destination blocks, then the
            # source block (read just before the piece's final write), then
            # the block of that final write.
            latest = list(dict.fromkeys(reversed(piece)))
            for block in reversed(latest):
                cache.move_to_end(block)
            cache.move_to_end(src_block)
            cache.move_to_end(latest[0])
        self._reads.update(src_blocks)
        self._writes.update(dst_blocks)
        self.ops += 2 * n
        self._buffer(dsts, words)

    def _span(self, src, lo: int, hi, what: str, n=None) -> tuple:
        """Addresses ``[a0, a1)`` of words ``[lo, hi)`` of ``src``'s region,
        or of ``[lo, lo + n)`` given a count ``n``, checked once against the
        region and the allocation, as a word access checks its word; ``lo``
        is checked to be an ``int`` before ``lo + n`` is formed."""
        region = src if type(src) is MemRegion else src.region
        if n is not None and type(lo) is int:
            hi = lo + n
        if type(lo) is not int or type(hi) is not int or not 0 <= lo <= hi <= region.len:
            raise MachineFault(f"{what} [{lo!r}, {hi!r}) is not an int span within [0, {region.len}]")
        a0, a1 = region.base + lo, region.base + hi
        if lo < hi and not (0 <= a0 and a1 <= self._sh._limit):
            raise MachineFault(f"{what} of unallocated addresses [{a0}, {a1})")
        return a0, a1

    def _values(self, a0: int, a1: int) -> list:
        """Words ``[a0, a1)`` (``a0 < a1``) as this core reads them now: the
        memory of the round's start under the core's own pending writes."""
        sh = self._sh
        vals = sh._mem[a0:a1]
        wbuf = self._wbuf
        if wbuf and not self._writes.isdisjoint(range(a0 // sh._B, (a1 - 1) // sh._B + 1)):
            vals = list(map(wbuf.get, range(a0, a1), vals))
        return vals

    def _buffer(self, addrs, words) -> None:
        """Buffer a run's writes, flagging those to addresses this core added
        to this round, as ``write`` does."""
        adds = self._adds
        if adds:
            adds.update(dict.fromkeys(adds.keys() & addrs, True))
        self._wbuf.update(zip(addrs, words))

    def tick(self, n: int = 1) -> None:
        """Charge ``n`` compute operations (an ``int >= 0``, not a ``bool``)."""
        if type(n) is not int or n < 0:
            raise MachineFault(f"tick count must be a non-negative int; got {n!r}")
        self.ops += n


class Machine:
    """Shared memory, per-core caches, and the lockstep round executor."""

    def __init__(self, config: MachineConfig, trace: bool = False) -> None:
        self.config = config
        self._sh = _Shared(config, trace)
        self.cores = tuple(Core(i, self._sh) for i in range(config.p))
        self.diagnostics: list = []

    # -- memory management -------------------------------------------------

    def alloc(self, length: int) -> MemRegion:
        """Allocate a zeroed, block-aligned region of ``length`` words (an
        ``int >= 0``, not a ``bool``)."""
        if type(length) is not int or length < 0:
            raise MachineFault(f"allocation length must be a non-negative int; got {length!r}")
        sh = self._sh
        base = -(-sh._limit // sh._B) * sh._B
        new_limit = base + length
        sh._mem.extend(repeat(0, new_limit - len(sh._mem)))
        sh._limit = new_limit
        return MemRegion(base, length)

    def load(self, region: MemRegion, values) -> None:
        """Install input data into a region's first words without charging
        any cost.  Bounds-checked: a region outside the allocation or of
        negative length, checked first, or more values than the region holds
        raises :class:`MachineFault`."""
        if not 0 <= region.base <= region.end <= self._sh._limit:
            raise MachineFault("load outside allocated memory")
        values = list(values)
        if len(values) > region.len:
            raise MachineFault("load exceeds region length")
        self._sh._mem[region.base : region.base + len(values)] = values

    def snapshot_memory(self, src) -> list:
        """Return a copy of a region's words, or of a key sequence's ``n``
        words, without charging any cost.  Bounds-checked: a region outside
        the allocation or of negative length raises :class:`MachineFault`."""
        if type(src) is MemRegion:
            region, n = src, src.len
        else:
            region, n = src.region, src.n
        if not 0 <= region.base <= region.end <= self._sh._limit:
            raise MachineFault("snapshot outside allocated memory")
        return self._sh._mem[region.base : region.base + n]

    # -- execution ---------------------------------------------------------

    def run_rounds(self, programs) -> None:
        """Run per-core programs to completion in lockstep rounds.

        ``programs`` maps core ids to functions of one argument (the
        :class:`Core` handle); a list pairs with cores ``0..len-1``.  Each
        program is called at its turn in round 0, in core-id order.  A call
        that returns a generator continues at every following round until
        the generator is exhausted, so each ``yield`` is a global barrier;
        any other return value completes a one-round program.  Each barrier
        settles the cores that ran in its round.  Returns ``None``;
        :meth:`ledger` gives the cumulative costs.  A call of one program,
        and the last program left running, runs ahead (see the module
        docstring).
        """
        alive = [(core, _rounds(core, program)) for core, program in self._schedule(programs)]
        ran = [core for core, _ in alive]
        sh = self._sh
        try:
            while len(alive) > 1:
                finished = wrote = False
                for core, gen in alive:
                    if next(gen, _END) is _END:
                        finished = True
                    if core._writes:
                        wrote = True
                if wrote:
                    self._settle_round(ran)
                else:
                    # Every write, fetch_add and writing run records its
                    # block before it buffers anything: with no writer there
                    # is no buffer to commit, no race, no block to invalidate.
                    for core in ran:
                        core._reads.clear()
                sh._round += 1
                if finished:
                    # Only a round in which a program ended rebuilds the
                    # lists; an ended generator has no frame.  Order is kept.
                    alive = [(core, gen) for core, gen in alive if gen.gi_frame is not None]
                    ran = [core for core, _ in alive]
            if alive:
                self._run_ahead(*alive[0])
        except BaseException:
            self._drop_round()
            raise

    def run_reads(self, programs) -> None:
        """Run per-core programs that only read, each ahead to its end in
        turn, in core-id order and from the current round (see the module
        docstring).  Takes what :meth:`run_rounds` takes and charges what it
        would.

        A program that wrote, added or ran a writing run raises
        :class:`MachineFault` at the end of that round; then, as when a
        program raises, nothing commits, no pending record stays and the
        round counter is restored, and the charges made stay.
        """
        schedule = self._schedule(programs)
        sh = self._sh
        start = end = sh._round
        trace = sh._trace
        mark = len(trace) if trace is not None else 0
        try:
            for core, program in schedule:
                sh._round = start
                self._run_ahead(core, _rounds(core, program), read_only=True)
                end = max(end, sh._round)
            sh._round = end
        except BaseException:
            sh._round = start
            self._drop_round()
            raise
        finally:
            if trace is not None:
                trace[mark:] = sorted(trace[mark:], key=itemgetter(0, 1))

    def _run_ahead(self, core, rounds, read_only=False) -> None:
        """Drive ``core``'s program alone from the current round to its end;
        each step of ``rounds`` runs one of its rounds but the last.  A round
        in which the core wrote is settled, or faults if ``read_only``; any
        other round is only counted, and the core keeps its read set."""
        sh = self._sh
        sh._ahead = core
        for _ in chain(rounds, (None,)):
            if core._writes:
                if read_only:
                    raise MachineFault(f"core {core.idx} wrote in a read-only phase")
                self._settle_round((core,))
            sh._round += 1
        core._reads.clear()
        sh._ahead = None

    def _drop_round(self) -> None:
        """A program raised: its round commits nothing and is not counted,
        no core runs ahead, and the charges already made stay."""
        for core in self.cores:
            for pending in (core._wbuf, core._reads, core._writes, core._adds):
                pending.clear()
        self._sh._round_atomics.clear()
        self._sh._ahead = None

    def _schedule(self, programs) -> list:
        """``(core, program)`` pairs in core-id order from a dict of core
        ids, or a list pairing with cores ``0..len-1``.  An id that is not an
        ``int`` (a ``bool`` is not) naming a core raises
        :class:`MachineFault` before any program runs."""
        if not isinstance(programs, dict):
            programs = dict(enumerate(programs))
        p = self.config.p
        for idx in programs:
            if type(idx) is not int or not 0 <= idx < p:
                raise MachineFault(f"no core {idx!r} on a {p}-core machine")
        return [(self.cores[idx], programs[idx]) for idx in sorted(programs)]

    def _settle_round(self, ran) -> None:
        """Charge and commit the round of the cores in ``ran`` (in id order)
        from their records (one wrote); stale copies leave every core's cache."""
        sh = self._sh
        trace = sh._trace
        B, rnd = sh._B, sh._round
        # ``last`` maps each written block to its highest-id writer; a block
        # in ``shared`` has more than one writer.
        last, shared = {}, set()
        for core in ran:
            for block in core._writes:
                if block in last:
                    shared.add(block)
                last[block] = core
        rows = []
        # A race needs a block two cores wrote.  An address's first writer is
        # the lowest-id core that plain-wrote it, as programs run in core-id
        # order; a core that added to it plain-wrote it only if flagged.
        first, races = {}, []
        for block in shared:
            span = range(block * B, (block + 1) * B)
            order = 0
            for core in ran:
                if block not in core._writes:
                    continue
                idx, adds = core.idx, core._adds
                if order:
                    core.block_misses += order
                    if trace is not None:
                        rows.extend(repeat((block, 0, idx), order))
                order += 1
                for addr in core._wbuf.keys() & span:
                    if adds.get(addr, True):
                        owner = first.setdefault(addr, idx)
                        if owner != idx:
                            races.append((idx, addr, owner))
        for core in ran:
            reread = (core._reads & last.keys()) - core._writes
            core.block_misses += len(reread)
            if trace is not None:
                rows.extend((block, 1, core.idx) for block in reread)
            core._reads.clear()
            core._writes.clear()
        if trace is not None:
            # The barrier's rows go in block order, migrations first, each
            # kind in core-id order.
            trace.extend((rnd, idx, "reread" if kind else "migrate", block * B, "block_miss")
                         for block, kind, idx in sorted(rows))
        if races:
            self.diagnostics.extend(
                f"data race: cores {owner} and {idx} wrote address {addr} in round {rnd}"
                for idx, addr, owner in sorted(races))
        mem = sh._mem
        # One pass over the cores in id order: each drops the written blocks
        # it caches whose last writer is another core, then commits its
        # buffer, so on a same-address race the highest id lands last.  A
        # plain loop: CPython's list store beats mapping ``__setitem__``.
        for core in self.cores:
            cache = core._cache
            for block in cache.keys() & last.keys():
                if last[block] is not core:
                    del cache[block]
            wbuf = core._wbuf
            if wbuf:
                for addr, value in wbuf.items():
                    mem[addr] = value
                wbuf.clear()
        atomics = sh._round_atomics
        if atomics:
            for addr, value in atomics.items():
                adders = [core for core in ran if addr in core._adds]
                # An address in a block with one writer was not scanned: its
                # first writer is the adder that plain-wrote it, if any.
                writer = first.get(addr, next((c.idx for c in adders if c._adds[addr]), None))
                if writer is not None:
                    ids = [core.idx for core in adders]
                    if ids == [writer]:
                        # One core wrote and added: its buffer, committed
                        # above, holds whichever of the two came last.
                        continue
                    self.diagnostics.append(
                        f"data race: core {writer} wrote address {addr} that cores "
                        f"{ids} fetch_added in round {rnd}")
                # The sum overwrites a plain write from any other core.
                mem[addr] = value
            atomics.clear()
            for core in ran:
                core._adds.clear()

    # -- inspection --------------------------------------------------------

    def ledger(self) -> CostLedger:
        return CostLedger(
            per_core_ops=tuple(c.ops for c in self.cores),
            per_core_cache_misses=tuple(c.cache_misses for c in self.cores),
            per_core_block_misses=tuple(c.block_misses for c in self.cores),
            rounds=self._sh._round,
        )

    def cache_state(self) -> CacheState:
        """Each core's resident blocks and the holders derived from them."""
        resident = tuple(tuple(c._cache.keys()) for c in self.cores)
        holders: dict = {}
        for idx, blocks in enumerate(resident):
            for block in blocks:
                holders.setdefault(block, []).append(idx)
        return CacheState(resident=resident, holders=holders)

    def rng(self, *stream: int) -> _Philox:
        """Counter-based Philox stream for a key of non-negative ints.

        Its ``integers(high, size=None)`` draws are those of numpy's
        ``Generator(Philox(SeedSequence(entropy=seed, spawn_key=stream)))
        .integers(0, high, size)``, bit for bit, as Python ints.  Any other
        key part, a ``high`` that is not an ``int`` in ``1..2**63`` or a
        ``size`` that is not ``None`` or an ``int >= 0`` raises
        :class:`MachineFault`, and a refused draw leaves the stream as it
        was.
        """
        for part in stream:
            if not isinstance(part, int) or isinstance(part, bool) or part < 0:
                raise MachineFault(
                    f"stream key parts must be non-negative ints; got {stream!r}")
        return _Philox(_philox_key(self.config.seed, stream))

    def export_trace(self, path) -> None:
        """Write the trace as CSV, one row per charged miss under the header
        ``round,core,op,addr,miss_kind``; untraced, raise :class:`MachineFault`."""
        if self._sh._trace is None:
            raise MachineFault("machine was created without trace=True")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "core", "op", "addr", "miss_kind"])
            writer.writerows(self._sh._trace)


# -- random streams ----------------------------------------------------------
#
# A private re-implementation of numpy's SeedSequence (pool of four 32-bit
# words), Philox4x64-10 (Salmon et al., SC 2011) and Lemire's bounded draw
# (TOMACS 2019), so that the machine needs only the standard library and its
# streams stay those numpy would give.

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# SeedSequence's hash constants run through fixed sequences: the entropy
# mix's constant starts at _HASH_INIT and is multiplied by _HASH_MULT at each
# hash, and the state words take _STATE_HASH in turn.
_HASH_INIT, _HASH_MULT = 0x43B0D7E5, 0x931E8875
_STATE_HASH = tuple(0x8B51F9DD * pow(0x58F38DED, k, 1 << 32) & _M32
                    for k in range(5))
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_INT64_LIMIT = 1 << 63


def _words32(n: int) -> list:
    """Little-endian 32-bit words of ``n >= 0``; ``[0]`` for zero."""
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


def _hashmix(value: int, h: int) -> tuple:
    """SeedSequence's hash of a 32-bit word under hash constant ``h``;
    returns the hash and the next constant."""
    h_next = h * _HASH_MULT & _M32
    value = (value ^ h) * h_next & _M32
    return value ^ value >> 16, h_next


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def _absorb(pool: list, words, h: int) -> int:
    """Mix each word into every pool word, from hash constant ``h`` on;
    returns the next constant."""
    for w in words:
        for dst in range(4):
            v, h = _hashmix(w, h)
            pool[dst] = _mix(pool[dst], v)
    return h


@lru_cache(maxsize=64)
def _seed_pool(seed: int) -> tuple:
    """SeedSequence's pool after the seed's words, zero-padded to four, and
    the next hash constant.  numpy pads only before a spawn key, but
    without one it fills the pool with the same hashes of zero."""
    words = _words32(seed)
    words += [0] * (4 - len(words))
    h = _HASH_INIT
    pool = []
    for w in words[:4]:
        v, h = _hashmix(w, h)
        pool.append(v)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], v)
    h = _absorb(pool, words[4:], h)
    return tuple(pool), h


def _philox_key(seed: int, stream) -> tuple:
    """The two 64-bit words of ``SeedSequence(seed, spawn_key=stream)
    .generate_state(2, uint64)``, numpy's Philox key."""
    pool, h = _seed_pool(seed)
    pool = list(pool)
    _absorb(pool, [w for part in stream for w in _words32(part)], h)
    state = []
    for k in range(4):
        v = (pool[k] ^ _STATE_HASH[k]) * _STATE_HASH[k + 1] & _M32
        state.append(v ^ v >> 16)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


class _Philox:
    """A Philox4x64-10 stream: 64-bit draws from a four-word block buffer,
    the counter bumped before each block, and 32-bit draws taking the low
    half of a 64-bit draw, then its high half."""

    __slots__ = ("_key", "_ctr", "_buf", "_pos", "_half")

    def __init__(self, key: tuple) -> None:
        self._key = key
        self._ctr = 0
        self._buf = ()
        self._pos = 4
        self._half = None

    def _next64(self) -> int:
        if self._pos == 4:
            # The counter's upper three words stay zero for any stream
            # shorter than 2**64 blocks.
            self._ctr += 1
            c0, c1, c2, c3 = self._ctr, 0, 0, 0
            k0, k1 = self._key
            for _ in range(10):
                p0 = _PHILOX_M0 * c0
                p1 = _PHILOX_M1 * c2
                c0, c1, c2, c3 = (p1 >> 64 ^ c1 ^ k0, p1 & _M64,
                                  p0 >> 64 ^ c3 ^ k1, p0 & _M64)
                k0 = (k0 + _PHILOX_W0) & _M64
                k1 = (k1 + _PHILOX_W1) & _M64
            self._buf = (c0, c1, c2, c3)
            self._pos = 0
        self._pos += 1
        return self._buf[self._pos - 1]

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _M32

    def integers(self, high: int, size=None):
        """One draw from ``range(high)``, or a list of ``size`` draws; both
        are ``int``s, not ``bool``s, checked before anything is drawn."""
        if type(high) is not int or not 0 < high <= _INT64_LIMIT:
            raise MachineFault(f"need an int 1 <= high <= 2**63; got {high!r}")
        if size is None:
            return self._bounded(high)
        if type(size) is not int or size < 0:
            raise MachineFault(f"size must be a non-negative int; got {size!r}")
        return [self._bounded(high) for _ in range(size)]

    def _bounded(self, n: int) -> int:
        """Lemire's draw from ``range(n)``: 32-bit words below ``2**32``,
        a raw word at ``2**32``, 64-bit words above; no draw for ``n == 1``."""
        if n == 1:
            return 0
        if n < 1 << 32:
            draw, bits = self._next32, 32
        elif n == 1 << 32:
            return self._next32()
        else:
            draw, bits = self._next64, 64
        mask = (1 << bits) - 1
        m = draw() * n
        if m & mask < n:
            threshold = (mask + 1) % n
            while m & mask < threshold:
                m = draw() * n
        return m >> bits
