import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pemlab.machine import Machine, MachineConfig, MachineFault, MemRegion


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



class TestMemory:
    def test_fresh_region_reads_zero(self, make_machine):
        m = make_machine(B=8)
        region = m.alloc(16)
        assert m.snapshot_memory(region) == [0] * 16

    def test_regions_are_block_aligned(self, make_machine):
        m = make_machine(B=8)
        a = m.alloc(3)
        b = m.alloc(5)
        assert a.base % 8 == 0
        assert b.base % 8 == 0
        assert b.base >= a.end

    @pytest.mark.parametrize("op", ["read", "write", "fetch_add"])
    @pytest.mark.parametrize("where", ["past_its_region", "negative", "past_the_allocation"])
    def test_word_access_outside_its_region_faults_uncharged(self, make_machine, op, where):
        # At B=8, word 9 of r1 and word -1 of r2 are allocated addresses
        # (r2[1] and r1's padding), so only a region check catches them.
        m = make_machine(B=8)
        r1 = m.alloc(3)
        r2 = m.alloc(8)
        m.load(r2, range(8))
        region, i = {"past_its_region": (r1, 9), "negative": (r2, -1),
                     "past_the_allocation": (MemRegion(r2.end, 4), 0)}[where]
        args = () if op == "read" else (77,)
        with pytest.raises(MachineFault):
            m.run_rounds([lambda core: getattr(core, op)(region, i, *args)])
        led = m.ledger()
        assert led.ops == 0 and led.cache_misses == 0 and led.block_misses == 0
        assert m.cache_state().resident == ((),)
        assert m.snapshot_memory(r1) == [0] * 3
        assert m.snapshot_memory(r2) == list(range(8))

    def test_load_and_snapshot_are_free(self, make_machine):
        m = make_machine()
        region = m.alloc(8)
        m.load(region, [5, 6, 7])
        assert m.snapshot_memory(region)[:3] == [5, 6, 7]
        led = m.ledger()
        assert led.ops == 0 and led.cache_misses == 0 and led.block_misses == 0

    @pytest.mark.parametrize("region", [MemRegion(100, 3), MemRegion(-2, 3), MemRegion(0, 9)],
                             ids=["past_the_allocation", "negative_base", "straddling_the_limit"])
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

    def test_settle_trace_rows_follow_block_order(self):
        # Both cores write block 1 before block 0; the barrier's rows still
        # list block 0 first.
        m = Machine(MachineConfig(p=2, M=64, B=8), trace=True)
        region = m.alloc(16)

        def prog(core):
            core.write(region, 8 + core.idx, 1)
            core.write(region, core.idx, 1)

        m.run_rounds([prog, prog])
        migrations = [row for row in m._trace if row[2] == "migrate"]
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
        assert m.diagnostics
        # Commit order is core-id order, so the higher id lands last.
        assert m.snapshot_memory(region)[0] == 1


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

    def test_trace_export(self, make_machine, tmp_path):
        m = Machine(MachineConfig(p=2, M=64, B=8), trace=True)
        region = m.alloc(8)

        def prog(core):
            core.write(region, core.idx, 1)
            return
            yield

        m.run_rounds([prog, prog])
        out = tmp_path / "trace.csv"
        m.export_trace(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "round,core,op,addr,miss_kind"
        assert any("write" in line for line in lines[1:])
        assert any("block_miss" in line for line in lines[1:])


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
                            list(m.diagnostics), list(m._trace), log))
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


def _route_for(regions, dests, log):
    """A route sending the k-th word to ``dests[k]``, logging what it saw."""
    it = iter(dests)

    def route(v):
        log.append(("route", v))
        r, i = next(it)
        return regions[r], i, v + 1000

    return route


def _fn_for(mapped, log):
    """``None`` (the identity) or a map that logs every word it is given."""
    if not mapped:
        return None

    def fn(v):
        log.append(("fn", v))
        return v * 2 + 1

    return fn


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
    elif kind == "write_run":
        core.write_run(regions[op[1]], op[2], op[3])
    elif kind == "route_run":
        core.route_run(regions[op[1]], op[2], op[3], _route_for(regions, op[4], log))
    else:
        _, r, lo, hi, d, at, mapped = op
        core.copy_run(regions[r], lo, hi, regions[d], at, _fn_for(mapped, log))


def _word_op(machine, core, regions, op, log):
    """The same operation as the word loop it stands for."""
    kind = op[0]
    if kind == "read_run":
        region = regions[op[1]]
        log.append((core.idx, [core.read(region, i) for i in range(op[2], op[3])]))
    elif kind == "write_run":
        region = regions[op[1]]
        for k, v in enumerate(op[3]):
            core.write(region, op[2] + k, v)
    elif kind == "route_run":
        src = regions[op[1]]
        route = _route_for(regions, op[4], log)
        for i in range(op[2], op[3]):
            dst, j, word = route(core.read(src, i))
            core.write(dst, j, word)
    elif kind == "copy":
        _, r, lo, hi, d, at, mapped = op
        fn = _fn_for(mapped, log) or (lambda v: v)
        for k in range(hi - lo):
            v = core.read(regions[r], lo + k)
            core.write(regions[d], at + k, fn(v))
    else:
        _run_op(machine, core, regions, op, log)


def _execute(shape, lengths, steps, apply, trace):
    p, M, B = shape
    m = Machine(MachineConfig(p=p, M=M, B=B), trace=trace)
    regions = [m.alloc(n) for n in lengths]
    for k, region in enumerate(regions):
        m.load(region, [100 * k + i for i in range(region.len)])
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
    return (m.ledger(), m.cache_state(), [m.snapshot_memory(r) for r in regions],
            list(m.diagnostics), m._trace, log)


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

    def op():
        kind = draw(st.sampled_from(("read", "write", "fetch_add", "tick", "read_run",
                                     "write_run", "route_run", "copy")))
        r = draw(st.integers(0, len(lengths) - 1))
        if kind in ("read", "write", "fetch_add"):
            return (kind, *dest(), draw(st.integers(1, 9)))[: 3 if kind == "read" else 4]
        if kind == "tick":
            return ("tick", draw(st.integers(0, 3)))
        lo, hi = span(r)
        if kind == "read_run":
            return ("read_run", r, lo, hi)
        if kind == "write_run":
            vals = draw(st.lists(st.integers(-50, 50), max_size=lengths[r] - lo))
            return ("write_run", r, lo, vals)
        if kind == "route_run":
            return ("route_run", r, lo, hi, [dest() for _ in range(hi - lo)])
        d = draw(st.integers(0, len(lengths) - 1))
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
        steps = [{0: [[("copy", 0, 0, 8, 1, 1, False), ("route_run", 1, 0, 4, [(0, 7)] * 4)]]}]
        _assert_runs_match_words((1, 4, 4), [8, 10], steps, trace)

    def test_trace_rows_interleave(self):
        steps = [{0: [[("copy", 0, 1, 7, 1, 0, True), ("read_run", 1, 0, 6),
                       ("write_run", 0, 2, [5, 6, 7])]],
                  1: [[("route_run", 1, 0, 6, [(0, 0), (1, 7), (0, 3), (0, 4), (1, 8), (1, 0)])]]}]
        _assert_runs_match_words((2, 8, 4), [8, 9], steps, trace=True)

    def test_read_run_sees_own_pending_writes(self):
        steps = [{0: [[("write", 0, 3, 9), ("fetch_add", 0, 5, 4), ("read_run", 0, 0, 8),
                       ("route_run", 0, 2, 7, [(1, 0)] * 5), ("copy", 0, 3, 6, 1, 4, False)]]}]
        _assert_runs_match_words((1, 16, 4), [8, 8], steps)

    def test_route_into_its_own_source(self):
        # Word k's destination is word k + 1 of the same block: each later
        # read sees the word just written, and so does its route.
        steps = [{0: [[("route_run", 0, 0, 8, [(0, i + 1) for i in range(7)] + [(0, 0)]),
                       ("copy", 0, 0, 6, 0, 1, True)]]}]
        _assert_runs_match_words((1, 16, 8), [8], steps)

    def test_destinations_written_by_another_core(self):
        steps = [{0: [[("write", 1, 2, 5), ("write", 1, 9, 6)]],
                  1: [[("write_run", 1, 0, [1, 2, 3, 4]), ("route_run", 0, 0, 4, [(1, 9)] * 4),
                       ("copy", 0, 0, 4, 1, 8, False)]]}]
        _assert_runs_match_words((2, 16, 4), [4, 12], steps)

    def test_word_replayed_piece_and_batched_piece_write_one_address(self):
        # M/B = 2, B = 4: a piece routing to three blocks is replayed word by
        # word; the other piece of the run is batched.  Both write region 1
        # word 0, and the later word in program order must win.
        spread = [(1, 0), (1, 4), (1, 8), (1, 12)]
        steps = [{0: [[("route_run", 0, 0, 8, spread + [(1, 0)] * 4)],
                      [("route_run", 0, 0, 8, [(1, 0)] * 4 + spread)]]}]
        _assert_runs_match_words((1, 8, 4), [8, 16], steps)

    def test_route_into_a_later_block_of_its_own_source(self):
        # Word 1 lands in the second source block, which a later piece reads
        # and routes.
        steps = [{0: [[("route_run", 0, 0, 8, [(1, 0), (0, 6), (1, 1), (1, 2),
                                               (1, 3), (1, 4), (1, 5), (0, 7)])]]}]
        _assert_runs_match_words((1, 16, 4), [8, 8], steps)

    @pytest.mark.parametrize("mapped", [False, True])
    def test_copy_whose_streams_share_a_block(self, mapped):
        # An in-place shift right by one reads every word it just wrote.
        steps = [{0: [[("copy", 0, 0, 9, 0, 1, mapped)], [("copy", 0, 2, 10, 0, 1, mapped)]]}]
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
            lambda c: c.route_run(a, 5, 7, lambda v: (b, 0, v)),
            lambda c: c.route_run(a, 0, 2, lambda v: (b, 6, v)),
            lambda c: c.read_run(outside, 0, 1),
            lambda c: c.copy_run(a, 0, 6, b, 1),
        ]
        for call in calls:
            with pytest.raises(MachineFault):
                m.run_rounds([call])
        # The word loop would fault too, at its first word past the end.
        with pytest.raises(MachineFault):
            m.run_rounds([lambda c: c.read(a, 6)])

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

        def route(v):
            if v == 5:
                if bad == "raises":
                    raise ValueError(v)
                return b, 8, v
            return b, v, v

        m.load(a, range(8))
        with pytest.raises(ValueError if bad == "raises" else MachineFault):
            m.run_rounds([lambda c: c.route_run(a, 0, 8, route)])
        assert m.ledger().per_core_ops == (0,)
        assert m.ledger().per_core_cache_misses == (0,)
        assert m.cache_state().resident == ((),)
