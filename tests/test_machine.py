import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pemlab.machine import CostLedger, Machine, MachineConfig, MachineFault, MemRegion
from pemlab.primitives import KeySeq
from pemlab.procalloc import estimate_processors


def scan_program(region, out=None):
    def prog(core):
        total = 0
        for i in range(region.len):
            total += core.read(region, i)
        if out is not None:
            out.append(total)
        return
        yield  # pragma: no cover

    return prog


class TestConfig:
    def test_rejects_bad_shapes(self):
        with pytest.raises(MachineFault):
            MachineConfig(p=0, M=8, B=8)
        with pytest.raises(MachineFault):
            MachineConfig(p=1, M=4, B=8)
        with pytest.raises(MachineFault):
            MachineConfig(p=1, M=12, B=8)
        with pytest.raises(MachineFault):
            MachineConfig(p=1, M=8, B=0)
        with pytest.raises(MachineFault, match="seed must be >= 0"):
            MachineConfig(p=1, M=8, B=8, seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("p", True), ("M", 64.0), ("B", 8.0), ("seed", 1.5)])
    def test_rejects_non_integers(self, field, value):
        shape = dict(p=1, M=64, B=8, seed=0)
        shape[field] = value
        with pytest.raises(MachineFault, match=f"{field} must be an int"):
            MachineConfig(**shape)


class TestRandomStreams:
    """``Machine.rng`` draws what numpy's
    ``Generator(Philox(SeedSequence(seed, spawn_key=key))).integers(0, high,
    size)`` draws, as Python ints."""

    def test_pinned_draws_of_the_production_call_shapes(self, make_machine):
        m = make_machine(seed=7)
        # procalloc.register: one slot per stream.
        assert m.rng(17, 3, 5).integers(1000) == 635
        # sample_splitters: one offset per chunk from a core's stream.
        rng = m.rng(11, 0, 2)
        assert [rng.integers(h) for h in (100, 100, 101, 99, 100)] == [
            97, 77, 14, 57, 16]
        # sample_k_of_n_seq: k ranks in one call.
        assert m.rng(12, 1, 0).integers(50, size=8) == [
            24, 7, 15, 41, 26, 41, 10, 48]

    def test_pinned_draws_of_wide_ranges(self, make_machine):
        rng = make_machine(seed=2**40 + 3).rng(9)
        assert [rng.integers(h) for h in (2**32, 2**40, 2**32 - 1, 2**63)] == [
            4044720622, 953691912275, 3075543777, 5921733473174349298]

    def test_a_range_of_one_draws_nothing(self, make_machine):
        m = make_machine(seed=7)
        rng = m.rng(12, 1, 0)
        assert rng.integers(1) == 0
        assert rng.integers(1, size=3) == [0, 0, 0]
        assert rng.integers(50, size=8) == m.rng(12, 1, 0).integers(50, size=8)

    @pytest.mark.parametrize("stream", [-1, 2.5, True, None])
    def test_bad_key_parts_rejected(self, make_machine, stream):
        m = make_machine(p=2)
        with pytest.raises(MachineFault, match="non-negative ints"):
            m.rng(11, stream, 0)
        # estimate_processors checks its stream at entry, before it draws.
        with pytest.raises(MachineFault, match="stream must be a non-negative int"):
            estimate_processors(m, 1024, m.cores, stream=stream)

    @pytest.mark.parametrize("high", [0, -3, 2**63 + 1])
    def test_empty_or_too_wide_range_rejected(self, make_machine, high):
        rng = make_machine().rng(0)
        with pytest.raises(MachineFault, match="1 <= high <= 2\\*\\*63"):
            rng.integers(high)
        with pytest.raises(MachineFault):
            rng.integers(high, size=2)

    @pytest.mark.parametrize("high, size", [(5.0, None), (True, None), (10, -1), (10, True),
                                            (10, 2.0)])
    def test_a_bad_high_or_size_faults_before_drawing(self, make_machine, high, size):
        m = make_machine(seed=7)
        rng = m.rng(12, 1, 0)
        with pytest.raises(MachineFault):
            rng.integers(high, size)
        assert rng.integers(50) == m.rng(12, 1, 0).integers(50)

    @pytest.fixture(scope="class")
    def np_random(self):
        return pytest.importorskip("numpy").random

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**160),
           key=st.lists(st.integers(0, 2**64), max_size=4),
           draws=st.lists(st.tuples(
               st.one_of(st.sampled_from([1, 2, 2**32 - 1, 2**32, 2**32 + 1,
                                          2**63]),
                         st.integers(1, 2**63)),
               st.one_of(st.none(), st.integers(0, 40))),
               min_size=1, max_size=4))
    def test_matches_numpy(self, np_random, seed, key, draws):
        ours = Machine(MachineConfig(p=1, M=8, B=8, seed=seed)).rng(*key)
        seq = np_random.SeedSequence(seed, spawn_key=tuple(key))
        theirs = np_random.Generator(np_random.Philox(seq))
        for high, size in draws:
            assert ours.integers(high, size) == theirs.integers(
                0, high, size=size).tolist()



class TestMemory:
    def test_fresh_region_reads_zero(self, make_machine):
        m = make_machine(B=8)
        region = m.alloc(16)
        assert m.snapshot_memory(region) == [0] * 16

    def test_snapshot_of_a_key_sequence_is_its_words(self, make_machine):
        m = make_machine(B=8)
        region = m.alloc(8)
        m.load(region, range(8))
        assert m.snapshot_memory(KeySeq(region, 3)) == [0, 1, 2]
        assert m.snapshot_memory(KeySeq(region, 0)) == []
        with pytest.raises(MachineFault):
            m.snapshot_memory(KeySeq(MemRegion(8, 4), 2))

    @pytest.mark.parametrize("length", [True, 2.5, -1, "3", None])
    def test_alloc_rejects_a_bad_length_before_changing_the_arena(self, make_machine, length):
        m = make_machine(B=8)
        m.alloc(3)
        with pytest.raises(MachineFault):
            m.alloc(length)
        assert (m._sh._limit, len(m._sh._mem)) == (3, 3)
        assert m.alloc(1) == MemRegion(8, 1)

    def test_regions_are_block_aligned(self, make_machine):
        m = make_machine(B=8)
        a = m.alloc(3)
        b = m.alloc(5)
        assert a.base % 8 == 0
        assert b.base % 8 == 0
        assert b.base >= a.end

    @pytest.mark.parametrize("op", ["read", "write", "fetch_add"])
    @pytest.mark.parametrize("where", ["past_its_region", "negative", "past_the_allocation",
                                       "float_index", "fraction_index", "bool_index",
                                       "none_index", "str_index"])
    def test_word_access_outside_its_region_faults_uncharged(self, make_machine, op, where):
        # At B=8, word 9 of r1 and word -1 of r2 are allocated addresses
        # (r2[1] and r1's padding), so only a region check catches them.  A
        # word index is an int, never a float, a Fraction, a bool, None or a
        # str; its type is checked before any arithmetic on it.
        m = make_machine(B=8)
        r1 = m.alloc(3)
        r2 = m.alloc(8)
        m.load(r2, range(8))
        region, i = {"past_its_region": (r1, 9), "negative": (r2, -1),
                     "past_the_allocation": (MemRegion(r2.end, 4), 0),
                     "float_index": (r2, 2.0), "fraction_index": (r2, Fraction(2)),
                     "bool_index": (r2, True), "none_index": (r2, None),
                     "str_index": (r2, "2")}[where]
        args = () if op == "read" else (77,)
        with pytest.raises(MachineFault):
            m.run_rounds([lambda core: getattr(core, op)(region, i, *args)])
        led = m.ledger()
        assert led.ops == 0 and led.cache_misses == 0 and led.block_misses == 0
        assert m.cache_state().resident == ((),)
        assert m.snapshot_memory(r1) == [0] * 3
        assert m.snapshot_memory(r2) == list(range(8))

    def test_bad_index_in_a_round_commits_nothing(self):
        # Core 0's write is charged and then dropped with its round; core 1's
        # float index faults before its write is charged or cached.
        m = Machine(MachineConfig(p=2, M=16, B=4))
        r = m.alloc(8)
        with pytest.raises(MachineFault):
            m.run_rounds({0: lambda c: c.write(r, 0, 11), 1: lambda c: c.write(r, 5.0, 22)})
        assert m.snapshot_memory(r) == [0] * 8
        led = m.ledger()
        assert (led.rounds, led.per_core_ops, led.per_core_cache_misses) == (0, (1, 0), (1, 0))
        assert m.cache_state().resident == ((0,), ())
        _assert_no_round_records(m)

    def test_load_and_snapshot_are_free(self, make_machine):
        m = make_machine()
        region = m.alloc(8)
        m.load(region, [5, 6, 7])
        assert m.snapshot_memory(region)[:3] == [5, 6, 7]
        led = m.ledger()
        assert led.ops == 0 and led.cache_misses == 0 and led.block_misses == 0

    @pytest.mark.parametrize("region", [MemRegion(100, 3), MemRegion(-2, 3), MemRegion(0, 9),
                                        MemRegion(0, -3)],
                             ids=["past_the_allocation", "negative_base", "straddling_the_limit",
                                  "negative_length"])
    def test_load_and_snapshot_outside_the_allocation_fault(self, make_machine, region):
        m = make_machine(B=8)
        own = m.alloc(4)
        with pytest.raises(MachineFault, match="load outside allocated memory"):
            m.load(region, [7, 8, 9])
        with pytest.raises(MachineFault, match="snapshot outside allocated memory"):
            m.snapshot_memory(region)
        assert m.snapshot_memory(own) == [0] * 4
        # The refused words never reach memory, so a fresh region is zeroed.
        assert m.snapshot_memory(m.alloc(4)) == [0] * 4


class TestCacheMisses:
    def test_cold_block_read_then_free_hits(self, make_machine):
        # Cold read of address 0 fetches the block; addresses 1..7 then hit.
        m = make_machine(B=8)
        region = m.alloc(8)
        m.run_rounds([scan_program(region)])
        led = m.ledger()
        assert led.cache_misses == 1
        assert led.ops == 8

    def test_sequential_scan_misses_once_per_block(self, make_machine):
        m = make_machine(B=8, M=64)
        region = m.alloc(64)
        m.run_rounds([scan_program(region)])
        assert m.ledger().cache_misses == 8

    def test_acceptance_scan_10000_words_B64(self, make_machine):
        m = make_machine(B=64, M=4096)
        region = m.alloc(10_000)
        m.run_rounds([scan_program(region)])
        assert m.ledger().cache_misses == 157

    def test_lru_eviction_causes_refetch(self, make_machine):
        # Cache holds M/B = 2 blocks; touching 3 then re-touching the first misses.
        m = make_machine(M=16, B=8)
        region = m.alloc(24)

        def prog(core):
            for i in (0, 8, 16, 0):
                core.read(region, i)
            return
            yield

        m.run_rounds([prog])
        assert m.ledger().cache_misses == 4

    def test_write_allocate(self, make_machine):
        m = make_machine(B=8)
        region = m.alloc(8)

        def prog(core):
            core.write(region, 0, 1)
            core.write(region, 1, 2)
            return
            yield

        m.run_rounds([prog])
        led = m.ledger()
        assert led.cache_misses == 1
        assert led.block_misses == 0
        assert m.snapshot_memory(region)[:2] == [1, 2]

    def test_critical_path_of_single_core_scan(self, make_machine):
        # n ops plus one per fetched block.
        m = make_machine(B=8, M=64)
        region = m.alloc(20)
        m.run_rounds([scan_program(region)])
        led = m.ledger()
        assert led.critical_path == 20 + 3
        assert led.op_critical_path == 20


class TestBlockMisses:
    def test_four_writers_same_block_cost_six(self, make_machine):
        m = make_machine(p=4, B=8)
        region = m.alloc(8)

        def prog_for(i):
            def prog(core):
                core.write(region, i, i)
                return
                yield

            return prog

        m.run_rounds([prog_for(i) for i in range(4)])
        led = m.ledger()
        assert led.block_misses == 6
        assert led.per_core_block_misses == (0, 1, 2, 3)
        # Only the last writer keeps the block.
        assert m.cache_state().holders == {region.base // 8: [3]}

    def test_readers_of_written_block_pay_one_each(self, make_machine):
        m = make_machine(p=4, B=8)
        region = m.alloc(8)

        def reader(core):
            core.read(region, 0)
            return
            yield

        def writer(core):
            core.write(region, 1, 9)
            return
            yield

        m.run_rounds({0: reader, 1: reader, 2: reader, 3: writer})
        led = m.ledger()
        assert led.block_misses == 3
        assert led.per_core_block_misses == (1, 1, 1, 0)

    def test_disjoint_blocks_cost_nothing_extra(self, make_machine):
        m = make_machine(p=4, B=8)
        region = m.alloc(64)

        def prog_for(i):
            def prog(core):
                core.write(region, 8 * i, i)
                return
                yield

            return prog

        m.run_rounds([prog_for(i) for i in range(4)])
        assert m.ledger().block_misses == 0

    def test_written_block_invalidated_elsewhere(self, make_machine):
        m = make_machine(p=2, B=8)
        region = m.alloc(8)

        def holder(core):
            core.read(region, 0)
            yield
            yield
            core.read(region, 0)

        def writer(core):
            yield
            core.write(region, 0, 3)
            yield

        m.run_rounds({0: holder, 1: writer})
        led = m.ledger()
        # Core 0: cold miss, then a fresh miss after the invalidation.
        assert led.per_core_cache_misses[0] == 2

    def test_last_writer_is_sole_holder(self, make_machine):
        m = make_machine(p=2, B=8)
        region = m.alloc(8)

        def holder(core):
            core.read(region, 0)
            yield

        def writer(core):
            yield
            core.write(region, 0, 3)

        m.run_rounds({0: holder, 1: writer})
        state = m.cache_state()
        assert state.holders.get(region.base // 8) == [1]

    def test_lone_writer_charges_a_reader_that_no_longer_holds_the_block(self, make_machine):
        # M == B: core 0 reads block 0, then evicts it by reading block 1,
        # while core 1 alone writes block 0 in the same round.
        m = make_machine(p=2, M=8, B=8)
        region = m.alloc(16)

        def reader(core):
            core.read(region, 0)
            core.read(region, 8)

        def writer(core):
            core.write(region, 1, 5)

        m.run_rounds({0: reader, 1: writer})
        assert m.ledger().per_core_block_misses == (1, 0)
        assert m.cache_state().holders == {0: [1], 1: [0]}

    def test_write_free_round_clears_its_readers(self, make_machine):
        # Round 0 only reads, so its barrier has nothing to commit; it must
        # still forget core 0's read, or core 1's write of the same block in
        # round 1 would charge core 0 a block miss.
        m = make_machine(p=2, M=8, B=2)
        region = m.alloc(2)

        def reader(core):
            core.read(region, 0)
            yield

        def writer(core):
            yield
            core.write(region, 1, 5)

        m.run_rounds({0: reader, 1: writer})
        led = m.ledger()
        assert led.per_core_block_misses == (0, 0)
        assert led.per_core_cache_misses == (1, 1)
        assert m.cache_state().holders == {0: [1]}

    def test_a_write_invalidates_a_core_idle_that_round(self, make_machine):
        # Core 1 caches block 0 in one call and sits out the next, in which
        # core 0 alone writes the block; core 1 must still lose its copy.
        m = make_machine(p=2, M=16, B=4)
        region = m.alloc(4)
        m.run_rounds({1: lambda core: core.read(region, 0)})
        m.run_rounds({0: lambda core: core.write(region, 1, 5)})
        assert m.cache_state().holders == {0: [0]}
        m.run_rounds({1: lambda core: core.read(region, 1)})
        assert m.ledger().per_core_cache_misses == (1, 2)

    def test_settle_trace_rows_follow_block_order(self):
        # Both cores write block 1 before block 0; the barrier's rows still
        # list block 0 first.
        m = Machine(MachineConfig(p=2, M=64, B=8), trace=True)
        region = m.alloc(16)

        def prog(core):
            core.write(region, 8 + core.idx, 1)
            core.write(region, core.idx, 1)

        m.run_rounds([prog, prog])
        migrations = [row for row in m._sh._trace if row[2] == "migrate"]
        assert migrations == [(0, 1, "migrate", 0, "block_miss"),
                              (0, 1, "migrate", 8, "block_miss")]

    def test_same_round_writes_of_one_address_flag_diagnostic(self, make_machine):
        m = make_machine(p=2, B=8)
        region = m.alloc(8)

        def prog(core):
            core.write(region, 0, core.idx)
            return
            yield

        m.run_rounds([prog, prog])
        assert m.diagnostics == ["data race: cores 0 and 1 wrote address 0 in round 0"]
        # Commit order is core-id order, so the higher id lands last.
        assert m.snapshot_memory(region)[0] == 1

    def test_a_race_is_reported_once_per_address_and_core(self, make_machine):
        m = make_machine(p=2, B=8)
        region = m.alloc(8)

        def prog(core):
            core.write(region, 0, 1)
            core.write(region, 0, 2)

        m.run_rounds([prog, prog])
        assert m.diagnostics == ["data race: cores 0 and 1 wrote address 0 in round 0"]
        assert m.snapshot_memory(region)[0] == 2

    def test_races_are_reported_by_core_then_address(self, make_machine):
        # Block 2 is written first, but its race comes last.
        m = make_machine(p=3, B=4)
        region = m.alloc(12)

        def writes(*addrs):
            def prog(core):
                for a in addrs:
                    core.write(region, a, core.idx)

            return prog

        m.run_rounds({0: writes(8), 1: writes(4, 5), 2: writes(5, 4, 8)})
        assert m.diagnostics == ["data race: cores 1 and 2 wrote address 4 in round 0",
                                 "data race: cores 1 and 2 wrote address 5 in round 0",
                                 "data race: cores 0 and 2 wrote address 8 in round 0"]


class TestRoundSemantics:
    def test_reads_observe_round_start_state(self, make_machine):
        m = make_machine(p=2, B=8)
        region = m.alloc(8)
        m.load(region, [10])
        seen = []

        def writer(core):
            core.write(region, 0, 99)
            yield

        def reader(core):
            seen.append(core.read(region, 0))
            yield
            seen.append(core.read(region, 0))

        m.run_rounds({0: writer, 1: reader})
        assert seen == [10, 99]

    def test_core_sees_its_own_round_writes(self, make_machine):
        m = make_machine(B=8)
        region = m.alloc(8)
        seen = []

        def prog(core):
            core.write(region, 0, 42)
            seen.append(core.read(region, 0))
            return
            yield

        m.run_rounds([prog])
        assert seen == [42]

    def test_fetch_add_serialises_in_core_order(self, make_machine):
        m = make_machine(p=4, B=8)
        region = m.alloc(8)
        priors = {}

        def prog(core):
            priors[core.idx] = core.fetch_add(region, 0, 1)
            return
            yield

        m.run_rounds([prog] * 4)
        assert priors == {0: 0, 1: 1, 2: 2, 3: 3}
        assert m.snapshot_memory(region)[0] == 4
        # Same-block concurrent updates still pay migration block misses.
        assert m.ledger().block_misses == 6
        assert not m.diagnostics

    def test_fetch_add_result_visible_to_own_reads(self, make_machine):
        m = make_machine(p=2, B=8)
        region = m.alloc(8)
        seen = {}

        def prog(core):
            core.fetch_add(region, 0, 5)
            seen[core.idx] = core.read(region, 0)
            yield

        m.run_rounds({0: prog})
        # Core 0 sees its +5; core 1 sees its own +5 after core 0's.
        m.run_rounds([prog, prog])
        assert seen == {0: 10, 1: 15}
        assert m.snapshot_memory(region)[0] == 15

    def test_other_cores_do_not_see_fetch_add_before_barrier(self, make_machine):
        m = make_machine(p=2, B=8)
        region = m.alloc(8)
        seen = []

        def adder(core):
            core.fetch_add(region, 0, 5)
            yield

        def reader(core):
            seen.append(core.read(region, 0))
            yield
            seen.append(core.read(region, 0))

        m.run_rounds({0: adder, 1: reader})
        assert seen == [0, 5]

    @pytest.mark.parametrize("writer_core", [0, 1])
    def test_write_against_fetch_add_is_a_race(self, make_machine, writer_core):
        m = make_machine(p=2, B=8)
        region = m.alloc(8)

        def writer(core):
            core.write(region, 0, 100)
            yield

        def adder(core):
            core.fetch_add(region, 0, 5)
            yield

        m.run_rounds({writer_core: writer, 1 - writer_core: adder})
        # Commit order is unchanged: fetch_add results land after writes.
        assert m.snapshot_memory(region)[0] == 5
        assert len(m.diagnostics) == 1
        assert m.diagnostics[0].startswith("data race")

    def test_a_write_before_an_add_races_the_other_adder(self, make_machine):
        m = make_machine(p=2, B=8)
        region = m.alloc(8)

        def wrote_then_added(core):
            core.write(region, 0, 100)
            core.fetch_add(region, 0, 5)

        def added(core):
            core.fetch_add(region, 0, 1)

        m.run_rounds({0: wrote_then_added, 1: added})
        assert m.diagnostics == [
            "data race: core 0 wrote address 0 that cores [0, 1] fetch_added in round 0"]
        assert m.snapshot_memory(region)[0] == 106

    @pytest.mark.parametrize("write", [lambda core, region: core.write(region, 0, 7),
                                       lambda core, region: core.write_run(region, 0, [7])],
                             ids=["write", "write_run"])
    def test_a_write_after_an_add_races_the_other_adder(self, make_machine, write):
        m = make_machine(p=2, B=8)
        region = m.alloc(8)

        def added(core):
            core.fetch_add(region, 0, 5)

        def added_then_wrote(core):
            core.fetch_add(region, 0, 1)
            write(core, region)

        m.run_rounds({0: added, 1: added_then_wrote})
        assert m.diagnostics == [
            "data race: core 1 wrote address 0 that cores [0, 1] fetch_added in round 0"]
        # The sum lands after the plain writes.
        assert m.snapshot_memory(region)[0] == 6

    def test_one_core_writing_and_adding_is_no_race(self, make_machine):
        m = make_machine(p=2, B=8)
        region = m.alloc(8)

        def prog(core):
            core.fetch_add(region, core.idx, 1)
            core.write(region, core.idx, 7)
            yield

        m.run_rounds([prog, prog])
        assert not m.diagnostics

    def test_empty_program_runs_zero_rounds(self, make_machine):
        m = make_machine(p=2)
        assert m.run_rounds([]) is None
        led = m.ledger()
        assert led.ops == 0
        assert led.cache_misses == 0
        assert led.block_misses == 0
        assert led.rounds == 0

    def test_rounds_accumulate_across_runs(self, make_machine):
        m = make_machine(p=2, B=8)
        region = m.alloc(8)

        def prog(core):
            core.write(region, core.idx, 1)
            yield
            core.read(region, core.idx)
            yield

        m.run_rounds([prog, prog])
        first = m.ledger().rounds
        m.run_rounds([prog, prog])
        assert m.ledger().rounds == 2 * first

    def test_a_program_that_raises_leaves_no_pending_round(self, make_machine):
        m = make_machine(p=2, M=16, B=4)
        region = m.alloc(2)

        def faults(core):
            core.write(region, 99, 1)

        with pytest.raises(MachineFault):
            m.run_rounds({0: lambda core: core.write(region, 0, 5), 1: faults})
        _assert_no_round_records(m)
        m.run_rounds({1: lambda core: core.write(region, 0, 7)})
        assert m.snapshot_memory(region) == [7, 0]
        assert m.diagnostics == []
        assert m.ledger().per_core_block_misses == (0, 0)
        # The charges of the aborted round stay; the round is not counted.
        assert m.ledger().per_core_ops == (1, 1)
        assert m.ledger().rounds == 1

    def test_a_lone_program_charges_what_it_charges_beside_an_idle_core(self):
        # Core 2 caches blocks 1 and 2 first.  Core 0 then reads, writes
        # block 1, reads through four write-free rounds (block 2 among
        # them) and writes block 2: its kept read set must charge nothing.
        # Beside core 1, which only yields as often, every round has two
        # programs; alone, core 0 runs the lone-program loop.
        def lone(core, region):
            core.read(region, 0)
            core.write(region, 4, 7)
            yield
            core.read(region, 9)
            yield
            core.read_run(region, 0, 12)
            yield
            yield
            core.read(region, 4)
            yield
            core.write(region, 10, core.read(region, 8) + 1)

        def idle(core):
            for _ in range(5):
                yield

        results = []
        for companion in (False, True):
            m = Machine(MachineConfig(p=3, M=8, B=4), trace=True)
            region = m.alloc(12)
            m.load(region, range(12))
            m.run_rounds({2: lambda core: core.read_run(region, 4, 12)})
            programs = {0: lambda core: lone(core, region)}
            if companion:
                programs[1] = idle
            m.run_rounds(programs)
            _assert_no_round_records(m)
            results.append((m.ledger(), m.cache_state(), m.snapshot_memory(region),
                            list(m.diagnostics), list(m._sh._trace)))
        assert results[0] == results[1]
        led, state, memory, diagnostics, trace = results[0]
        assert led.rounds == 7
        assert led.per_core_block_misses == (0, 0, 0)
        assert memory[4] == 7 and memory[10] == 9
        assert state.holders == {1: [0], 2: [0]}
        assert [row[0] for row in trace if row[1] == 0] == [1, 1, 2, 3, 3, 3]

    def test_a_lone_program_that_raises_commits_nothing(self, make_machine):
        m = make_machine(p=2, M=16, B=4)
        region = m.alloc(8)

        def prog(core):
            core.write(region, 0, 5)
            yield
            core.read(region, 4)
            yield
            core.write(region, 1, 6)
            core.read(region, 5)
            core.read(region, 99)

        with pytest.raises(MachineFault):
            m.run_rounds({1: prog})
        _assert_no_round_records(m)
        assert m.snapshot_memory(region) == [5] + [0] * 7
        assert m.ledger().rounds == 2
        assert m.ledger().per_core_ops == (0, 4)

    def test_trace_export(self, make_machine, tmp_path):
        # One row per charged miss: three writers of block 0 pay 0, 1 and 2
        # migrations, core 3 re-reads it, and a read run over three blocks
        # fetches each once.
        m = Machine(MachineConfig(p=4, M=64, B=8), trace=True)
        region = m.alloc(24)

        def prog(core):
            if core.idx < 3:
                core.write(region, core.idx, 1)
            else:
                core.read(region, 3)
            yield
            if core.idx == 0:
                core.read_run(region, 0, 24)

        m.run_rounds([prog] * 4)
        assert m.ledger() == CostLedger(per_core_ops=(25, 1, 1, 1),
                                        per_core_cache_misses=(4, 1, 1, 1),
                                        per_core_block_misses=(0, 1, 2, 1), rounds=2)
        out = tmp_path / "trace.csv"
        m.export_trace(out)
        assert out.read_text().splitlines() == [
            "round,core,op,addr,miss_kind",
            "0,0,fetch,0,cache_miss",
            "0,1,fetch,0,cache_miss",
            "0,2,fetch,0,cache_miss",
            "0,3,fetch,0,cache_miss",
            "0,1,migrate,0,block_miss",
            "0,2,migrate,0,block_miss",
            "0,2,migrate,0,block_miss",
            "0,3,reread,0,block_miss",
            "1,0,fetch,0,cache_miss",
            "1,0,fetch,8,cache_miss",
            "1,0,fetch,16,cache_miss",
        ]
        with pytest.raises(MachineFault):
            make_machine().export_trace(tmp_path / "untraced.csv")

    @pytest.mark.parametrize("n", [-5, True, 2.0, "3", None])
    def test_tick_rejects_a_bad_count_before_charging(self, make_machine, n):
        m = make_machine()
        with pytest.raises(MachineFault):
            m.run_rounds([lambda c: c.tick(n)])
        assert m.ledger().per_core_ops == (0,)


class TestHostMemory:
    def test_thrash_pins_the_caches_and_the_ledger(self):
        p, M, B = 2, 8, 2
        m = Machine(MachineConfig(p=p, M=M, B=B))
        region = m.alloc(400 * B)

        def thrasher(core):
            for r in range(4):
                if r:
                    yield
                for b in range(100 * r, 100 * r + 100):
                    core.write(region, b * B, core.read(region, b * B + 1) + r)

        def reader(core):
            for r in range(4):
                if r:
                    yield
                for b in range(100 * r, 100 * r + 100, 7):
                    core.read(region, b * B)
                if r:
                    core.read(region, (100 * r - 1) * B)  # written last round

        m.run_rounds({0: thrasher, 1: reader})
        state = m.cache_state()
        assert state.resident == ((396, 397, 398, 399), (299,))
        assert state.holders == {299: [1], 396: [0], 397: [0], 398: [0], 399: [0]}
        assert m.ledger() == CostLedger(per_core_ops=(800, 63), per_core_cache_misses=(400, 63),
                                        per_core_block_misses=(0, 60), rounds=4)

    def test_a_dropped_machine_is_freed_without_the_cyclic_collector(self):
        m = Machine(MachineConfig(p=2, M=8, B=2), trace=True)
        region = m.alloc(8)

        def prog(core):
            core.write(region, 0, core.idx)
            core.fetch_add(region, 4)
            yield
            core.read(region, 4)

        m.run_rounds([prog, prog])
        assert m.diagnostics == ["data race: cores 0 and 1 wrote address 0 in round 0"]
        assert m.snapshot_memory(region)[4] == 2
        ref = weakref.ref(m)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del m
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


def _apply(core, region, ops, log):
    for op, i, val in ops:
        if op == "read":
            log.append((core.idx, core.read(region, i)))
        elif op == "write":
            core.write(region, i, val)
        elif op == "fetch_add":
            log.append((core.idx, core.fetch_add(region, i, val)))
        else:
            core.tick(val)


def _plain_form(region, rounds, log):
    """A one-round program as a plain function, else a generator."""
    if len(rounds) == 1:
        def prog(core):
            _apply(core, region, rounds[0], log)

        return prog
    return _generator_form(region, rounds, log)


def _tail_form(region, rounds, log):
    """The same program with a generator for every round count."""
    if len(rounds) == 1:
        def prog(core):
            _apply(core, region, rounds[0], log)
            return
            yield

        return prog
    return _generator_form(region, rounds, log)


def _generator_form(region, rounds, log):
    def prog(core):
        for k, ops in enumerate(rounds):
            if k:
                yield
            _apply(core, region, ops, log)

    return prog


def _random_mix(rng, p, words):
    mix = {}
    for idx in rng.sample(range(p), rng.randint(1, p)):
        rounds = []
        for _ in range(1 if rng.random() < 0.5 else rng.randint(1, 4)):
            ops = []
            for _ in range(rng.randint(0, 6)):
                op = rng.choice(("read", "read", "write", "fetch_add", "tick"))
                ops.append((op, rng.randrange(words), rng.randint(1, 9)))
            rounds.append(ops)
        mix[idx] = rounds
    return mix


class TestPlainPrograms:
    def test_plain_program_counts_one_round_and_commits(self, make_machine):
        m = make_machine(B=8)
        region = m.alloc(8)

        def prog(core):
            core.write(region, 0, 42)

        m.run_rounds([prog])
        led = m.ledger()
        assert led.rounds == 1
        assert led.ops == 1
        assert m.snapshot_memory(region)[0] == 42

    def test_plain_program_runs_at_its_turn(self, make_machine):
        m = make_machine(p=2, B=8)
        region = m.alloc(8)
        order = []

        def gen(core):
            order.append(("gen", m.ledger().rounds))
            yield
            order.append(("gen", m.ledger().rounds))

        def plain(core):
            order.append(("plain", m.ledger().rounds))

        m.run_rounds({0: gen, 1: plain})
        assert order == [("gen", 0), ("plain", 0), ("gen", 1)]
        assert m.ledger().rounds == 2

    @pytest.mark.parametrize("middle", ["plain", "two_rounds"])
    def test_early_finisher_keeps_core_order(self, make_machine, middle):
        # Core 1 ends before the others; cores 0 and 2 still run in core-id
        # order in round 2, so core 0 writes first and core 2 lands last.
        m = make_machine(p=3, B=8)
        region = m.alloc(8)

        def three_rounds(core):
            yield
            yield
            core.write(region, 0, 10 + core.idx)

        def plain(core):
            core.read(region, 1)

        def two_rounds(core):
            core.read(region, 1)
            yield

        m.run_rounds({0: three_rounds, 1: {"plain": plain, "two_rounds": two_rounds}[middle],
                      2: three_rounds})
        assert m.snapshot_memory(region)[0] == 12
        assert m.diagnostics == ["data race: cores 0 and 2 wrote address 0 in round 2"]
        assert m.ledger().rounds == 3

    def test_unknown_core_rejected_before_any_program_runs(self, make_machine):
        m = make_machine(p=2)
        ran = []
        with pytest.raises(MachineFault):
            m.run_rounds({0: ran.append, 5: ran.append})
        assert ran == []

    @pytest.mark.parametrize("executor", ["run_rounds", "run_reads"])
    @pytest.mark.parametrize("idx", [True, 1.0, -1, 2], ids=["bool", "float", "negative", "past_p"])
    def test_a_core_id_is_an_int_naming_a_core(self, make_machine, executor, idx):
        # ``True == 1`` and ``1.0 == 1``, but neither names core 1.
        m = make_machine(p=2)
        ran = []
        with pytest.raises(MachineFault, match="no core"):
            getattr(m, executor)({0: ran.append, idx: ran.append})
        assert ran == []
        assert m.ledger().rounds == 0

    @pytest.mark.parametrize("seed", range(12))
    def test_plain_and_tail_forms_agree(self, seed):
        rng = random.Random(seed)
        p = rng.randint(1, 4)
        words = 40
        mixes = [_random_mix(rng, p, words) for _ in range(3)]
        results = []
        for form in (_plain_form, _tail_form):
            m = Machine(MachineConfig(p=p, M=16, B=4), trace=True)
            region = m.alloc(words)
            m.load(region, range(words))
            log = []
            for mix in mixes:
                m.run_rounds({idx: form(region, rounds, log) for idx, rounds in mix.items()})
            results.append((m.ledger(), m.cache_state(), m.snapshot_memory(region),
                            list(m.diagnostics), list(m._sh._trace), log))
        assert results[0] == results[1]


class TestFetchAddProgramOrder:
    def test_fetch_add_after_own_write_adds_to_it(self, make_machine):
        m = make_machine(B=8)
        region = m.alloc(8)
        priors = []

        def prog(core):
            core.write(region, 0, 100)
            priors.append(core.fetch_add(region, 0, 5))

        m.run_rounds([prog])
        assert priors == [100]
        assert m.snapshot_memory(region)[0] == 105
        assert not m.diagnostics

    def test_write_after_own_fetch_add_lands_last(self, make_machine):
        m = make_machine(B=8)
        region = m.alloc(8)

        def prog(core):
            core.fetch_add(region, 0, 1)
            core.write(region, 0, 7)

        m.run_rounds([prog])
        assert m.snapshot_memory(region)[0] == 7
        assert not m.diagnostics


# -- runs of words against the word loops they stand for --------------------


def _place_for(dests, log):
    """A placement sending the k-th word to index ``dests[k]``, logging
    what it saw."""
    it = iter(dests)

    def place(v):
        log.append(("place", v))
        return next(it)

    return place


def _fn_for(mapped, log):
    """``None`` (the identity) or a map that logs every word it is given."""
    if not mapped:
        return None

    def fn(v):
        log.append(("fn", v))
        return v * 2 + 1

    return fn


def _stop_for(stops, log):
    """A ``stop`` true of the words in ``stops``, logging every word it is
    given."""
    def stop(v):
        log.append(("stop", v))
        return v in stops

    return stop


def _stop_raising_at_call(k):
    """A ``stop`` false of the first ``k - 1`` words that raises at word ``k``."""
    calls = iter(range(1, k))

    def stop(v):
        if next(calls, None) is None:
            raise MachineFault(f"stop refused word {v!r}")
        return False

    return stop


def _run_op(machine, core, regions, op, log):
    kind = op[0]
    if kind == "read":
        log.append((core.idx, core.read(regions[op[1]], op[2])))
    elif kind == "write":
        core.write(regions[op[1]], op[2], op[3])
    elif kind == "fetch_add":
        log.append((core.idx, core.fetch_add(regions[op[1]], op[2], op[3])))
    elif kind == "tick":
        core.tick(op[1])
    elif kind == "read_run":
        log.append((core.idx, core.read_run(regions[op[1]], op[2], op[3])))
    elif kind == "read_until":
        _, r, lo, hi, stops = op
        log.append((core.idx, core.read_run(regions[r], lo, hi, stop=_stop_for(stops, log))))
    elif kind == "write_run":
        core.write_run(regions[op[1]], op[2], op[3])
    elif kind == "route_run":
        _, r, lo, hi, d, dests = op
        core.route_run(regions[r], lo, hi, regions[d], _place_for(dests, log))
    else:
        _, r, lo, hi, d, at, mapped = op
        core.copy_run(regions[r], lo, hi, regions[d], at, _fn_for(mapped, log))


def _word_op(machine, core, regions, op, log):
    """The same operation as the word loop it stands for."""
    kind = op[0]
    if kind == "read_run":
        region = regions[op[1]]
        log.append((core.idx, [core.read(region, i) for i in range(op[2], op[3])]))
    elif kind == "read_until":
        _, r, lo, hi, stops = op
        stop = _stop_for(stops, log)
        words = []
        for i in range(lo, hi):
            words.append(core.read(regions[r], i))
            if stop(words[-1]):
                break
        log.append((core.idx, words))
    elif kind == "write_run":
        region = regions[op[1]]
        for k, v in enumerate(op[3]):
            core.write(region, op[2] + k, v)
    elif kind == "route_run":
        _, r, lo, hi, d, dests = op
        place = _place_for(dests, log)
        for i in range(lo, hi):
            v = core.read(regions[r], i)
            core.write(regions[d], place(v), v)
    elif kind == "copy":
        _, r, lo, hi, d, at, mapped = op
        fn = _fn_for(mapped, log) or (lambda v: v)
        for k in range(hi - lo):
            v = core.read(regions[r], lo + k)
            core.write(regions[d], at + k, fn(v))
    else:
        _run_op(machine, core, regions, op, log)


def _assert_no_round_records(m):
    """The barrier leaves no per-round record, on the machine, on the state
    its cores share or on any core."""
    records = [k for k in type(m._sh).__slots__ if k.startswith("_round_")]
    assert records
    assert not any(getattr(m._sh, k) for k in records)
    assert not any(v for k, v in vars(m).items() if k.startswith("_round_"))
    for core in m.cores:
        assert not (core._reads or core._writes or core._adds or core._wbuf)


def _assert_trace_itemizes_ledger(m):
    """Each core has one trace row per miss the ledger charges it, of the
    miss's kind."""
    led = m.ledger()
    for kind, charged in (("cache_miss", led.per_core_cache_misses),
                          ("block_miss", led.per_core_block_misses)):
        rows = [row[1] for row in m._sh._trace if row[4] == kind]
        assert tuple(map(rows.count, range(m.config.p))) == charged


def _execute(shape, lengths, steps, apply, trace):
    """Run ``steps`` on fresh regions; a length given as a list of words
    makes a region holding those words."""
    p, M, B = shape
    m = Machine(MachineConfig(p=p, M=M, B=B), trace=trace)
    regions = [m.alloc(n if isinstance(n, int) else len(n)) for n in lengths]
    for k, (n, region) in enumerate(zip(lengths, regions)):
        m.load(region, [100 * k + i for i in range(n)] if isinstance(n, int) else n)
    log = []

    def program(rounds):
        def prog(core):
            for k, ops in enumerate(rounds):
                if k:
                    yield
                for op in ops:
                    apply(m, core, regions, op, log)

        return prog

    for step in steps:
        m.run_rounds({idx: program(rounds) for idx, rounds in step.items()})
        _assert_no_round_records(m)
    if trace:
        _assert_trace_itemizes_ledger(m)
    return (m.ledger(), m.cache_state(), [m.snapshot_memory(r) for r in regions],
            list(m.diagnostics), m._sh._trace, log)


def _assert_runs_match_words(shape, lengths, steps, trace=False):
    runs = _execute(shape, lengths, steps, _run_op, trace)
    words = _execute(shape, lengths, steps, _word_op, trace)
    assert runs == words


@st.composite
def _run_programs(draw):
    B = draw(st.sampled_from((1, 2, 4)))
    M = B * draw(st.sampled_from((1, 2, 3, 5)))
    p = draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(1, 3 * B + 3), min_size=1, max_size=3))

    def span(r):
        lo = draw(st.integers(0, lengths[r]))
        return lo, draw(st.integers(lo, lengths[r]))

    def dest():
        r = draw(st.integers(0, len(lengths) - 1))
        return r, draw(st.integers(0, lengths[r] - 1))

    # A run never writes the span it reads: a scatter needs a second region.
    kinds = ("read", "write", "fetch_add", "tick", "read_run", "read_until", "write_run",
             "copy")
    if len(lengths) > 1:
        kinds += ("route_run",)

    def op():
        kind = draw(st.sampled_from(kinds))
        r = draw(st.integers(0, len(lengths) - 1))
        if kind in ("read", "write", "fetch_add"):
            return (kind, *dest(), draw(st.integers(1, 9)))[: 3 if kind == "read" else 4]
        if kind == "tick":
            return ("tick", draw(st.integers(0, 3)))
        lo, hi = span(r)
        if kind == "read_run":
            return ("read_run", r, lo, hi)
        if kind == "read_until":
            # Words the span was loaded with, or that a write may have left.
            words = [100 * r + i for i in range(lo, hi)] + list(range(-50, 51))
            return ("read_until", r, lo, hi,
                    frozenset(draw(st.lists(st.sampled_from(words), max_size=3))))
        if kind == "write_run":
            vals = draw(st.lists(st.integers(-50, 50), max_size=lengths[r] - lo))
            return ("write_run", r, lo, vals)
        if kind == "route_run":
            d = draw(st.sampled_from([k for k in range(len(lengths)) if k != r]))
            dests = draw(st.lists(st.integers(0, lengths[d] - 1), min_size=hi - lo,
                                  max_size=hi - lo))
            return ("route_run", r, lo, hi, d, dests)
        d = draw(st.integers(0, len(lengths) - 1))
        if d == r:
            # Two spans apart in one region, in either order.
            size = draw(st.integers(0, lengths[r] // 2))
            first = draw(st.integers(0, lengths[r] - 2 * size))
            second = draw(st.integers(first + size, lengths[r] - size))
            lo, at = (first, second) if draw(st.booleans()) else (second, first)
        else:
            size = min(hi - lo, lengths[d])
            at = draw(st.integers(0, lengths[d] - size))
        return ("copy", r, lo, lo + size, d, at, draw(st.booleans()))

    steps = []
    for _ in range(draw(st.integers(1, 3))):
        cores = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=p, unique=True))
        steps.append({
            idx: [[op() for _ in range(draw(st.integers(0, 4)))]
                  for _ in range(draw(st.integers(1, 3)))]
            for idx in cores
        })
    return (p, M, B), lengths, steps, draw(st.booleans())


class TestRuns:
    @settings(max_examples=300, deadline=None)
    @given(_run_programs())
    def test_runs_charge_exactly_the_word_loops(self, program):
        shape, lengths, steps, trace = program
        _assert_runs_match_words(shape, lengths, steps, trace)

    @pytest.mark.parametrize("trace", [False, True])
    def test_one_block_cache(self, trace):
        # M == B: the word loop misses on every access of a two-block copy.
        steps = [{0: [[("copy", 0, 0, 8, 1, 1, False), ("route_run", 1, 0, 4, 0, [7] * 4)]]}]
        _assert_runs_match_words((1, 4, 4), [8, 10], steps, trace)

    def test_trace_rows_interleave(self):
        steps = [{0: [[("copy", 0, 1, 7, 1, 0, True), ("read_run", 1, 0, 6),
                       ("write_run", 0, 2, [5, 6, 7])]],
                  1: [[("route_run", 1, 0, 6, 0, [0, 7, 3, 4, 6, 1])]]}]
        _assert_runs_match_words((2, 8, 4), [8, 9], steps, trace=True)

    def test_route_run_fetches_in_first_touch_order(self):
        # Eight cache blocks and no eviction: the final LRU order is the
        # last-touch order, so only the trace shows that the routed blocks
        # (3, 1, 2 after source block 0) are fetched as the loop meets them.
        steps = [{0: [[("route_run", 0, 0, 4, 1, [8, 0, 4, 8])]]}]
        _assert_runs_match_words((1, 32, 4), [4, 12], steps, trace=True)
        trace = _execute((1, 32, 4), [4, 12], steps, _run_op, True)[4]
        assert trace == [(0, 0, "fetch", addr, "cache_miss") for addr in (0, 12, 4, 8)]

    def test_read_run_sees_own_pending_writes(self):
        steps = [{0: [[("write", 0, 3, 9), ("fetch_add", 0, 5, 4), ("read_run", 0, 0, 8),
                       ("route_run", 0, 2, 7, 1, [0] * 5), ("copy", 0, 3, 6, 1, 4, False)]]}]
        _assert_runs_match_words((1, 16, 4), [8, 8], steps)

    @pytest.mark.parametrize("ops", [
        [("read_until", 0, 1, 12, frozenset({999}))],
        [("read_until", 0, 2, 12, frozenset({2, 9}))],
        [("read_until", 0, 0, 12, frozenset({2, 9}))],
        [("read_until", 0, 1, 12, frozenset({6, 9}))],
        [("write", 0, 5, 0), ("write", 0, 6, 77), ("read_until", 0, 1, 12, frozenset({0, 77}))],
    ], ids=["never", "first_word", "mid_block", "past_a_block_boundary", "own_pending_writes"])
    def test_stopping_read_run(self, ops):
        # B = 4 and region 0 holds 0..11: the run ends after the word that
        # stops it; core 1 then reads the words past it.
        steps = [{0: [ops, [("read_until", 0, 0, 12, frozenset({7}))]],
                  1: [[("read_run", 0, 0, 4)], [("read_until", 0, 3, 12, frozenset({10}))]]}]
        _assert_runs_match_words((2, 8, 4), [12], steps, trace=True)

    def test_destinations_written_by_another_core(self):
        steps = [{0: [[("write", 1, 2, 5), ("write", 1, 9, 6)]],
                  1: [[("write_run", 1, 0, [1, 2, 3, 4]), ("route_run", 0, 0, 4, 1, [9] * 4),
                       ("copy", 0, 0, 4, 1, 8, False)]]}]
        _assert_runs_match_words((2, 16, 4), [4, 12], steps)

    def test_word_replayed_piece_and_batched_piece_write_one_address(self):
        # M/B = 2, B = 4: a piece routing to three blocks is replayed word by
        # word; the other piece of the run is batched.  Both write region 1
        # word 0, and the later word in program order must win.
        spread = [0, 4, 8, 12]
        steps = [{0: [[("route_run", 0, 0, 8, 1, spread + [0] * 4)],
                      [("route_run", 0, 0, 8, 1, [0] * 4 + spread)]]}]
        _assert_runs_match_words((1, 8, 4), [8, 16], steps)

    @pytest.mark.parametrize("mapped", [False, True])
    def test_copy_whose_streams_share_a_block(self, mapped):
        # Spans apart in one region whose streams share block 0, then block 1.
        steps = [{0: [[("copy", 0, 0, 2, 0, 2, mapped)], [("copy", 0, 6, 9, 0, 3, mapped)]]}]
        _assert_runs_match_words((1, 16, 4), [10], steps)

    def test_copy_calls_fn_once_per_word_in_order(self):
        steps = [{0: [[("copy", 0, 1, 7, 1, 3, True), ("copy", 1, 0, 9, 0, 0, True)]]}]
        _assert_runs_match_words((1, 16, 4), [9, 12], steps)
        log = _execute((1, 16, 4), [9, 12], steps, _run_op, False)[-1]
        assert log[:6] == [("fn", v) for v in range(1, 7)]
        assert len(log) == 6 + 9

    def test_runs_past_their_region_fault(self, make_machine):
        m = make_machine(B=4)
        a = m.alloc(6)
        b = m.alloc(6)
        outside = MemRegion(m.alloc(0).base, 4)
        calls = [
            lambda c: c.read_run(a, 0, 7),
            lambda c: c.read_run(a, 3, 2),
            lambda c: c.write_run(a, 4, [1, 2, 3]),
            lambda c: c.route_run(a, 5, 7, b, lambda v: 0),
            lambda c: c.route_run(a, 0, 2, b, lambda v: 6),
            lambda c: c.read_run(outside, 0, 1),
            lambda c: c.copy_run(a, 0, 6, b, 1),
        ]
        for call in calls:
            with pytest.raises(MachineFault):
                m.run_rounds([call])
        # The word loop would fault too, at its first word past the end.
        with pytest.raises(MachineFault):
            m.run_rounds([lambda c: c.read(a, 6)])

    @pytest.mark.parametrize("executor, run", [
        # A run never writes the span it reads.
        ("run_rounds", lambda c, a, b: c.route_run(a, 0, 4, a, lambda v: 4)),
        ("run_rounds",
         lambda c, a, b: c.route_run(KeySeq(MemRegion(a.base + 4, 2), 2), 0, 2, a, lambda v: 0)),
        ("run_rounds", lambda c, a, b: c.copy_run(a, 0, 6, a, 1)),
        ("run_rounds", lambda c, a, b: c.copy_run(a, 1, 7, a, 0)),
        # Every index is an int.
        ("run_rounds", lambda c, a, b: c.read_run(a, 0.0, 4)),
        ("run_rounds", lambda c, a, b: c.read_run(a, 0, Fraction(4))),
        ("run_rounds", lambda c, a, b: c.write_run(a, True, [1, 2])),
        ("run_rounds", lambda c, a, b: c.copy_run(a, 0, 2, b, 2.0)),
        # An offset's type is checked before the run adds a length to it.
        ("run_rounds", lambda c, a, b: c.write_run(a, None, [1, 2])),
        ("run_rounds", lambda c, a, b: c.write_run(a, "0", [1, 2])),
        ("run_rounds", lambda c, a, b: c.copy_run(a, 0, 2, b, None)),
        ("run_rounds", lambda c, a, b: c.copy_run(a, 0, 2, b, "2")),
        ("run_rounds", lambda c, a, b: c.route_run(a, 0, 4, b, lambda v: 1.0)),
        ("run_rounds", lambda c, a, b: c.route_run(a, 0, 4, b, lambda v: Fraction(v))),
        ("run_rounds", lambda c, a, b: c.route_run(a, 0, 4, b, lambda v: True)),
        # A ``stop`` that raises at the sixth word, in the second block.
        ("run_rounds", lambda c, a, b: c.read_run(a, 0, 8, stop=_stop_raising_at_call(6))),
        # A walk runs only on a core that runs ahead, over a range of step 1
        # or -1 within its region, and its ``stop`` is called before it
        # charges.  In a lockstep round of two programs no core runs ahead.
        ("lockstep", lambda c, a, b: c.walk(a, range(7, -1, -1), bool)),
        ("run_reads", lambda c, a, b: c.walk(a, range(8, -1, -1), bool)),
        ("run_reads", lambda c, a, b: c.walk(a, range(7, -1, -1), _stop_raising_at_call(6))),
        ("run_rounds", lambda c, a, b: c.walk(a, range(0, 8, 2), bool)),
        ("run_rounds", lambda c, a, b: c.walk(a, [0, 1], bool)),
        ("run_rounds", lambda c, a, b: c.walk(a, range(9, 9), bool)),
    ], ids=["route_into_own_region", "route_from_a_view_into_its_region",
            "copy_shifted_right", "copy_shifted_left",
            "read_run_float", "read_run_fraction", "write_run_bool", "copy_run_float",
            "write_run_none", "write_run_str", "copy_run_none", "copy_run_str",
            "route_run_float", "route_run_fraction", "route_run_bool", "read_run_stop_raises",
            "walk_outside_run_reads", "walk_past_its_region", "walk_stop_raises",
            "walk_step_two", "walk_list", "empty_walk_past_its_region"])
    def test_refused_run_charges_nothing(self, make_machine, executor, run):
        m = make_machine(p=2, B=4)
        a = m.alloc(8)
        b = m.alloc(8)
        programs = [lambda c: run(c, a, b)]
        if executor == "lockstep":
            executor, programs = "run_rounds", programs + [lambda c: None]
        with pytest.raises(MachineFault):
            getattr(m, executor)(programs)
        assert m.ledger() == CostLedger((0, 0), (0, 0), (0, 0), 0)
        assert m.cache_state().resident == ((), ())

    def test_copy_past_its_destination_charges_nothing(self, make_machine):
        m = make_machine(B=4)
        a = m.alloc(6)
        b = m.alloc(6)
        with pytest.raises(MachineFault):
            m.run_rounds([lambda c: c.copy_run(a, 0, 6, b, 1)])
        assert m.ledger().per_core_ops == (0,)
        assert m.ledger().per_core_cache_misses == (0,)
        assert m.cache_state().resident == ((),)

    @pytest.mark.parametrize("bad", ["raises", "outside"])
    def test_failed_route_leaves_its_run_uncharged(self, make_machine, bad):
        # The fault is at word 5, in the second source block: the whole run
        # stays uncharged, the first block's piece included.
        m = make_machine(B=4)
        a = m.alloc(8)
        b = m.alloc(8)

        def place(v):
            if v == 5:
                if bad == "raises":
                    raise ValueError(v)
                return 8
            return v

        m.load(a, range(8))
        with pytest.raises(ValueError if bad == "raises" else MachineFault):
            m.run_rounds([lambda c: c.route_run(a, 0, 8, b, place)])
        assert m.ledger().per_core_ops == (0,)
        assert m.ledger().per_core_cache_misses == (0,)
        assert m.cache_state().resident == ((),)


# -- read-only phases against the lockstep rounds they stand for -------------


def _walk_words(core, region, words, stop):
    """The word loop ``Core.walk`` stands for: read the words of the range
    ``words`` in its order, one per round, until ``stop`` is true of one."""
    seen = []
    for pos in words:
        if seen:
            yield
        seen.append(core.read(region, pos))
        if stop(seen[-1]):
            break
    return seen


def _walk_run(core, region, words, stop):
    return core.walk(region, words, stop)
    yield  # pragma: no cover


def _reader(ops, region, log, walker):
    """A program of ``("read", i)``, ``("walk", words)``, ``("yield",)``,
    ``("write", i, v)`` and ``("add", i, v)`` steps, logging what each core
    read."""
    def prog(core):
        seen = log.setdefault(core.idx, [])
        for op in ops:
            if op[0] == "yield":
                yield
            elif op[0] == "read":
                seen.append(core.read(region, op[1]))
            elif op[0] == "write":
                core.write(region, op[1], op[2])
            elif op[0] == "add":
                seen.append(core.fetch_add(region, op[1], op[2]))
            else:
                seen.append((yield from walker(core, region, op[1], bool)))

    return prog


def _random_readers(rng, p, n):
    """Read-only programs for a random subset of ``p`` cores over ``n`` words."""
    phase = {}
    for idx in sorted(rng.sample(range(p), rng.randint(1, p))):
        ops = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(("walk", "walk", "read", "yield"))
            if kind == "walk":
                lo = rng.randint(0, n)
                ops.append(("walk", range(rng.randint(lo, n) - 1, lo - 1, -1)))
            elif kind == "read":
                ops.append(("read", rng.randrange(n)))
            else:
                ops.append(("yield",))
        phase[idx] = ops
    return phase


def _beside_partner(program):
    """``program`` and an idle program that runs exactly its rounds when
    given the higher core id, so that every round goes through the
    barrier."""
    done = []

    def main(core):
        yield from program(core)
        done.append(True)

    def partner(core):
        while not done:
            yield

    return main, partner


def _random_lone(rng, p, n):
    """A lone program for one of cores ``0..p-2`` over ``n`` words: walks
    either way, reads, writes and adds."""
    ops = []
    for _ in range(rng.randint(1, 5)):
        kind = rng.choice(("walk", "walk", "read", "write", "add", "yield"))
        if kind == "walk":
            lo = rng.randint(0, n)
            hi = rng.randint(lo, n)
            ops.append(("walk", rng.choice((range(lo, hi), range(hi - 1, lo - 1, -1)))))
        elif kind == "read":
            ops.append(("read", rng.randrange(n)))
        elif kind == "yield":
            ops.append(("yield",))
        else:
            values = (0, 1, 5) if kind == "write" else (1, 3)
            ops.append((kind, rng.randrange(n), rng.choice(values)))
    return rng.randrange(p - 1), ops


def _run_read_phases(p, M, B, words, steps, form, trace=True):
    """Run ``steps`` on a machine whose region holds ``words``: a dict of
    reader ops is a read-only phase, in ``form`` ``"runs"`` through
    ``run_reads`` and walks, else through ``run_rounds`` and word loops; a
    tuple ``(core, ops)`` is a lone program of :func:`_reader` ops, in ``form``
    ``"runs"`` run alone with walks, else as word loops beside an idle
    partner, core ``p - 1``; a list of ``(core, lo, hi, value)`` is a
    lockstep round in which each core reads ``[lo, hi)`` and writes
    ``value`` at ``lo``."""
    m = Machine(MachineConfig(p=p, M=M, B=B), trace=trace)
    m.alloc(3)  # the region starts past block 0
    region = m.alloc(len(words))
    m.load(region, words)
    log = {}
    for step in steps:
        if isinstance(step, dict):
            walker = _walk_run if form == "runs" else _walk_words
            programs = {idx: _reader(ops, region, log, walker) for idx, ops in step.items()}
            (m.run_reads if form == "runs" else m.run_rounds)(programs)
        elif isinstance(step, tuple):
            idx, ops = step
            if form == "runs":
                m.run_rounds({idx: _reader(ops, region, log, _walk_run)})
            else:
                m.run_rounds(dict(zip((idx, p - 1), _beside_partner(
                    _reader(ops, region, log, _walk_words)))))
        else:
            m.run_rounds({idx: (lambda core, lo=lo, hi=hi, v=v: (
                core.read_run(region, lo, hi), core.write(region, lo, v)))
                for idx, lo, hi, v in step})
        _assert_no_round_records(m)
    if trace:
        _assert_trace_itemizes_ledger(m)
    return (m.ledger(), m.cache_state(), m.snapshot_memory(region), list(m.diagnostics),
            m._sh._trace, log)


class TestReadOnlyPhases:
    """``run_reads`` with ``walk`` charges what ``run_rounds`` charges for
    the same programs with word loops: ledger, rounds, LRU order, memory,
    diagnostics, trace rows and the words each core read."""

    @pytest.mark.parametrize("seed", range(48))
    def test_walks_charge_exactly_the_lockstep_word_loops(self, seed):
        rng = random.Random(seed)
        p = (1, 3, 8)[seed % 3]
        M, B = ((4, 1), (8, 2), (16, 4), (64, 8), (8, 8), (32, 4))[seed // 3 % 6]
        n = rng.randint(1, 40)
        density = (0.0, 0.1, 0.3, 1.0)[seed % 4]
        words = [rng.randint(1, 9) if rng.random() < density else 0 for _ in range(n)]
        steps = []
        for _ in range(rng.randint(1, 3)):
            # A lockstep round leaves some blocks resident, some not.
            steps.append([(idx, lo, rng.randint(lo, n), rng.choice((0, 5)))
                          for idx in rng.sample(range(p), rng.randint(1, p))
                          for lo in [rng.randrange(n)]])
            steps.append(_random_readers(rng, p, n))
        trace = seed % 5 != 4
        got = _run_read_phases(p, M, B, words, steps, "runs", trace)
        want = _run_read_phases(p, M, B, words, steps, "words", trace)
        assert got == want

    def test_a_walk_across_resident_and_fetched_blocks(self):
        # B = 4; region words 0..15 sit at addresses 4..19 (blocks 1..4), and
        # only word 0 is nonzero.  Core 0 caches block 2 in round 0; its walk
        # from word 15 then reads one word per round in rounds 1..16,
        # fetching block 4 at word 15, block 3 at word 11 and block 1 at
        # word 3.
        words = [7] + [0] * 15
        steps = [[(0, 4, 8, 0)],
                 {0: [("walk", range(15, -1, -1))], 1: [("yield",), ("walk", range(15, 13, -1))]}]
        got = _run_read_phases(2, 32, 4, words, steps, "runs")
        assert got == _run_read_phases(2, 32, 4, words, steps, "words")
        led, state, _, _, trace, log = got
        assert led.rounds == 1 + 16
        assert led.per_core_ops == (4 + 1 + 16, 2)
        assert state.resident[0] == (4, 3, 2, 1)
        assert [row[0] for row in trace if row[1] == 0] == [0, 1, 5, 13]
        assert [row[:2] for row in trace if row[1] == 1] == [(2, 1)]
        assert log == {0: [[0] * 15 + [7]], 1: [[0, 0]]}

    def test_an_empty_phase_runs_zero_rounds(self, make_machine):
        m = make_machine(p=2)
        m.run_reads({})
        m.run_reads([])
        assert m.ledger() == CostLedger((0, 0), (0, 0), (0, 0), 0)

    @pytest.mark.parametrize("write", [
        lambda core, region: core.write(region, 1, 9),
        lambda core, region: core.fetch_add(region, 1, 9),
        lambda core, region: core.write_run(region, 0, [9, 9]),
        lambda core, region: core.read(region, 99),
    ], ids=["write", "fetch_add", "write_run", "raises"])
    def test_a_writer_in_a_read_only_phase_commits_nothing(self, make_machine, write):
        m = make_machine(p=3, M=16, B=4)
        region = m.alloc(8)
        m.run_rounds({0: lambda core: core.write(region, 0, 5)})

        def writer(core):
            core.walk(region, range(3, -1, -1), bool)
            yield
            write(core, region)
            yield

        with pytest.raises(MachineFault):
            m.run_reads({0: lambda core: core.walk(region, range(7, -1, -1), bool), 1: writer,
                         2: lambda core: core.read(region, 2)})
        _assert_no_round_records(m)
        assert m.snapshot_memory(region) == [5] + [0] * 7
        assert m.ledger().rounds == 1
        assert m.diagnostics == []
        # The phase is over and no core runs ahead: a walk in a lockstep
        # round faults, by the core that ran ahead when the phase faulted too,
        # uncharged and counting no round; then the next round runs.
        led = m.ledger()
        for idx in (0, 1):
            with pytest.raises(MachineFault, match="does not run ahead"):
                m.run_rounds({idx: lambda core: core.walk(region, range(1), bool),
                              2: lambda core: None})
        assert m.ledger() == led
        m.run_rounds({2: lambda core: core.write(region, 3, 6)})
        assert m.snapshot_memory(region) == [5, 0, 0, 6, 0, 0, 0, 0]
        assert m.ledger().rounds == 2


class TestLoneWalks:
    """A lone program of ``run_rounds`` that walks either way, with writes
    and adds before, between and after its walks, charges what the same
    program charges as word loops beside an idle partner core, every round
    through the barrier: ledger, rounds, LRU order, memory, diagnostics,
    trace rows and the words read."""

    @pytest.mark.parametrize("seed", range(48))
    def test_lone_walks_charge_exactly_the_lockstep_word_loops(self, seed):
        rng = random.Random(seed)
        p = (2, 4, 9)[seed % 3]
        M, B = ((4, 1), (8, 2), (16, 4), (64, 8), (8, 8), (32, 4))[seed // 3 % 6]
        n = rng.randint(1, 40)
        density = (0.0, 0.1, 0.3, 1.0)[seed % 4]
        words = [rng.randint(1, 9) if rng.random() < density else 0 for _ in range(n)]
        steps = []
        for _ in range(rng.randint(1, 3)):
            # Other cores, the partner included, cache blocks the lone
            # program then writes.
            steps.append([(idx, lo, rng.randint(lo, n), rng.choice((0, 5)))
                          for idx in rng.sample(range(p), rng.randint(1, p))
                          for lo in [rng.randrange(n)]])
            steps.append(_random_lone(rng, p, n))
        trace = seed % 5 != 4
        got = _run_read_phases(p, M, B, words, steps, "runs", trace)
        want = _run_read_phases(p, M, B, words, steps, "words", trace)
        assert got == want

    def test_walks_after_a_write_and_before_one(self):
        # B = 4; region words 0..15 sit at addresses 4..19 (blocks 1..4), and
        # core 1 caches all four in round 0.  In round 1 core 0 writes word 9
        # and adds 3 to word 1, then walks left from word 11 to the word it
        # added to (rounds 1..11), fetching block 2 at word 7 (round 5), and
        # writes word 0 in the walk's last round.  In round 12 it walks right
        # from word 4 to the end (rounds 12..23), fetching block 4 at word 12
        # (round 20), and adds to word 15 in the walk's last round.
        words = [0] * 16
        ops = [("write", 9, 0), ("add", 1, 3), ("walk", range(11, -1, -1)), ("write", 0, 7),
               ("yield",), ("walk", range(4, 16)), ("add", 15, 1)]
        steps = [[(1, 0, 16, 0)], (0, ops)]
        got = _run_read_phases(3, 32, 4, words, steps, "runs")
        assert got == _run_read_phases(3, 32, 4, words, steps, "words")
        led, state, memory, _, trace, log = got
        assert led.rounds == 24
        assert memory == [7, 3] + [0] * 13 + [1]
        assert log[0] == [0, [0] * 10 + [3], [0] * 12, 0]
        assert [row[:4] for row in trace if row[1] == 0] == [
            (1, 0, "fetch", 12), (1, 0, "fetch", 4), (5, 0, "fetch", 8), (20, 0, "fetch", 16)]
        # Core 0 wrote blocks 1, 3 and 4, so core 1 keeps block 2 alone.
        assert state.resident[1] == (2,)

    def test_a_raising_lone_program_leaves_no_core_ahead(self, make_machine):
        m = make_machine(p=2, B=4)
        region = m.alloc(8)

        def lone(core):
            core.walk(region, range(8), bool)
            yield
            raise ValueError

        with pytest.raises(ValueError):
            m.run_rounds([lone])
        _assert_no_round_records(m)
        led = m.ledger()
        assert led.rounds == 8
        with pytest.raises(MachineFault, match="does not run ahead"):
            m.run_rounds([lambda core: core.walk(region, range(1), bool), lambda core: None])
        assert m.ledger() == led
