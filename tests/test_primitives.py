"""Oracle-checked tests for the parallel building blocks.

Expected values come from independent host-side references: ``max``/``sum``,
``itertools.accumulate``, direct index arithmetic for transposition,
``sorted`` for the quadratic sort, and a replayed generator stream for
sequential sampling.
"""
import math
import operator
import random
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pemlab import Machine, MachineConfig, MachineFault, MemRegion
from pemlab.hull import convex_hull_2d, hull_main, maxima_par
from pemlab.merge import BucketedRun, merge_bucketed
from pemlab.primitives import (
    KeySeq,
    _reduce,
    _stable_ranks,
    brute_sort,
    chunk_bounds,
    compact,
    load_seq,
    parallel_for,
    prefix_sum,
    sample_k_of_n_seq,
    sample_splitters,
    transpose,
)
from pemlab.procalloc import estimate_processors, oblivious_prefix
from pemlab.sorting import SortPlan, sample_sort


class TestChunking:
    def test_chunks_cover_input_with_remainder_last(self):
        assert chunk_bounds(10, 4) == [(0, 2), (2, 4), (4, 6), (6, 10)]
        assert chunk_bounds(3, 3) == [(0, 1), (1, 2), (2, 3)]
        assert chunk_bounds(2, 4) == [(0, 0), (0, 0), (0, 0), (0, 2)]

    def test_load_seq_installs_words_free(self, make_machine):
        m = make_machine()
        seq = load_seq(m, [4, 5, 6])
        assert (seq.n, seq.region.len) == (3, 3)
        assert m.snapshot_memory(seq) == [4, 5, 6]
        empty = load_seq(m, [])
        assert (empty.n, empty.region.len) == (0, 1)
        assert m.ledger().ops == 0

    def test_keyseq_rejects_overlong_length(self):
        m = Machine(MachineConfig(p=1, M=64, B=8))
        reg = m.alloc(8)
        with pytest.raises(MachineFault):
            KeySeq(reg, 9)


class TestParallelFor:
    def test_one_chunk_per_core_in_one_round(self, make_machine):
        m = make_machine(p=4)
        seen = []
        parallel_for(m, 10, m.cores, lambda core, ci, lo, hi: seen.append((core.idx, ci, lo, hi)))
        assert seen == [(0, 0, 0, 2), (1, 1, 2, 4), (2, 2, 4, 6), (3, 3, 6, 10)]
        assert m.ledger().rounds == 1

    def test_fewer_items_than_cores_uses_a_prefix_of_the_cores(self, make_machine):
        m = make_machine(p=4)
        seen = []
        parallel_for(m, 2, m.cores[1:], lambda core, ci, lo, hi: seen.append((core.idx, lo, hi)))
        assert seen == [(1, 0, 1), (2, 1, 2)]

    def test_generator_body_takes_a_round_per_yield(self, make_machine):
        m = make_machine(p=2)

        def body(core, ci, lo, hi):
            core.tick(hi - lo)
            yield
            core.tick(1)

        parallel_for(m, 5, m.cores, body)
        led = m.ledger()
        assert led.rounds == 2
        assert led.per_core_ops == (3, 4)

    def test_empty_range_runs_no_round(self, make_machine):
        m = make_machine(p=2)
        parallel_for(m, 0, m.cores, lambda core, ci, lo, hi: core.tick(1))
        assert m.ledger().rounds == 0
        assert m.ledger().ops == 0


# Every step that takes a core list, called on ``seq`` (40 words) with it.
_CORE_LIST_ENTRIES = {
    "parallel_for": lambda m, seq, cores: parallel_for(
        m, seq.n, cores, lambda core, ci, lo, hi: core.read_run(seq, lo, hi)),
    "prefix_sum": lambda m, seq, cores: prefix_sum(m, seq, cores),
    "compact": lambda m, seq, cores: compact(m, [seq], cores),
    "transpose": lambda m, seq, cores: transpose(m, seq, 5, 8, cores),
    "merge_bucketed": lambda m, seq, cores: merge_bucketed(
        m, [BucketedRun(seq, (20, 20))], cores),
    "sample_sort": lambda m, seq, cores: sample_sort(m, seq, cores),
    "estimate_processors": lambda m, seq, cores: estimate_processors(m, seq.n, cores),
    "oblivious_prefix": lambda m, seq, cores: oblivious_prefix(m, seq, cores),
    "hull_main": lambda m, seq, cores: hull_main(
        m, load_seq(m, [(1, 0, 1), (0, 1, 1), (-1, -1, 1), (1, 1, 3)]), cores),
    "convex_hull_2d": lambda m, seq, cores: convex_hull_2d(
        m, load_seq(m, [(0, 0), (4, 0), (0, 4), (1, 1)]), cores),
}


class TestCoreLists:
    @pytest.mark.parametrize("entry", sorted(_CORE_LIST_ENTRIES))
    @pytest.mark.parametrize("picks, message", [
        pytest.param((0, 0), "repeats a core", id="repeated"),
        pytest.param((0, 0, 1), "repeats a core", id="repeated_among_others"),
        pytest.param((), "at least one core", id="empty"),
    ])
    def test_a_bad_core_list_faults_before_any_charge(self, make_machine, entry, picks, message):
        # A step keys its programs by core id: a repeated core would drop a
        # chunk and return wrong words, or fail deep inside the step.
        m = make_machine(p=4, M=64, B=8)
        seq = load_seq(m, [v * 7 % 40 for v in range(40)])
        with pytest.raises(MachineFault, match=message):
            _CORE_LIST_ENTRIES[entry](m, seq, [m.cores[i] for i in picks])
        assert m.ledger() == make_machine(p=4, M=64, B=8).ledger()
        assert m.diagnostics == []


# Every entry that checks its stream itself, called on ``seq`` (40 words)
# with it.  The others reach ``Machine.rng`` before they charge anything.
_STREAM_ENTRIES = {
    "sample_sort": lambda m, seq, stream: sample_sort(m, seq, m.cores, stream=stream),
    "hull_main": lambda m, seq, stream: hull_main(
        m, load_seq(m, [(1, 0, 1), (0, 1, 1), (-1, -1, 1), (1, 1, 3)]), m.cores,
        stream=stream),
    "convex_hull_2d": lambda m, seq, stream: convex_hull_2d(
        m, load_seq(m, [(0, 0), (4, 0), (0, 4), (1, 1)]), m.cores, stream=stream),
    "maxima_par": lambda m, seq, stream: maxima_par(
        m, load_seq(m, [(v, v * 7 % 40) for v in range(40)]), m.cores, stream=stream),
    "oblivious_prefix_one_core": lambda m, seq, stream: oblivious_prefix(
        m, seq, m.cores[:1], stream=stream),
}


class TestStreams:
    @pytest.mark.parametrize("entry", sorted(_STREAM_ENTRIES))
    @pytest.mark.parametrize("stream", [-1, 1.5, True], ids=["negative", "float", "bool"])
    def test_a_bad_stream_faults_before_any_charge(self, make_machine, entry, stream):
        # The rule of Machine.rng: a non-negative int, not a bool.
        m = make_machine(p=4, M=64, B=8)
        seq = load_seq(m, [v * 7 % 40 for v in range(40)])
        with pytest.raises(MachineFault, match="non-negative int"):
            _STREAM_ENTRIES[entry](m, seq, stream)
        assert m.ledger() == make_machine(p=4, M=64, B=8).ledger()
        assert m.diagnostics == []


class TestReductions:
    @pytest.mark.parametrize("n,p", [(1, 1), (7, 2), (64, 4), (100, 8), (5, 8)])
    def test_par_max_matches_builtin(self, make_machine, n, p):
        m = make_machine(p=p)
        vals = [random.Random(n * 31 + p).randrange(-50, 50) for _ in range(n)]
        seq = load_seq(m, vals)
        assert _reduce(m, seq, m.cores, max) == max(vals)

    @pytest.mark.parametrize("n,p", [(1, 1), (7, 2), (64, 4), (100, 8)])
    def test_par_sum_matches_builtin(self, make_machine, n, p):
        m = make_machine(p=p)
        vals = [random.Random(n * 37 + p).randrange(-50, 50) for _ in range(n)]
        seq = load_seq(m, vals)
        assert _reduce(m, seq, m.cores, operator.add) == sum(vals)

    def test_par_max_empty_raises(self, make_machine):
        m = make_machine(p=2)
        with pytest.raises(MachineFault):
            _reduce(m, KeySeq(m.alloc(8), 0), m.cores, max)

    def test_reduction_round_count_is_logarithmic(self, make_machine):
        for p in (2, 4, 8):
            m = make_machine(p=p)
            seq = load_seq(m, list(range(8 * p)))
            _reduce(m, seq, m.cores, max)
            assert m.ledger().rounds <= math.ceil(math.log2(p)) + 4

    def test_reduction_spaced_partials_avoid_block_misses(self, make_machine):
        m = make_machine(p=8, M=256, B=16)
        seq = load_seq(m, list(range(128)))
        _reduce(m, seq, m.cores, operator.add)
        assert m.ledger().block_misses == 0

    def test_tuple_keys_reduce_lexicographically(self, make_machine):
        m = make_machine(p=4)
        vals = [(5, 1), (5, 9), (2, 100), (7, 0)]
        seq = load_seq(m, vals)
        assert _reduce(m, seq, m.cores, max) == (7, 0)


class TestPrefixSum:
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 100, 257])
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_matches_accumulate(self, make_machine, n, p):
        m = make_machine(p=p, M=512, B=8)
        vals = [random.Random(n * 13 + p).randrange(-9, 10) for _ in range(n)]
        seq = load_seq(m, vals)
        res = prefix_sum(m, seq, m.cores)
        assert m.snapshot_memory(res) == list(accumulate(vals))

    def test_block_aligned_chunks_incur_no_block_misses(self, make_machine):
        # Pinned: 4096 words over 4 cores with M=256, B=16 stays block-clean.
        m = make_machine(p=4, M=256, B=16)
        vals = [random.Random(99).randrange(100) for _ in range(4096)]
        seq = load_seq(m, vals)
        res = prefix_sum(m, seq, m.cores)
        assert m.ledger().block_misses == 0
        assert m.snapshot_memory(res) == list(accumulate(vals))

    def test_empty_input(self, make_machine):
        m = make_machine(p=2)
        res = prefix_sum(m, KeySeq(m.alloc(8), 0), m.cores)
        assert res.n == 0


class TestTranspose:
    @pytest.mark.parametrize("m_rows,n_cols", [(2, 16), (8, 8), (5, 7), (1, 9), (9, 1)])
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_matches_index_oracle(self, make_machine, m_rows, n_cols, p):
        mach = make_machine(p=p, M=512, B=8)
        vals = list(range(m_rows * n_cols))
        seq = load_seq(mach, vals)
        res = transpose(mach, seq, m_rows, n_cols, mach.cores)
        expect = [0] * (m_rows * n_cols)
        for i in range(m_rows):
            for j in range(n_cols):
                expect[j * m_rows + i] = vals[i * n_cols + j]
        assert mach.snapshot_memory(res) == expect

    def test_two_row_band_split_has_no_block_misses(self, make_machine):
        # Pinned: m=2, n=2B, p=2 assigns column bands with block-disjoint output.
        mach = make_machine(p=2, M=512, B=8)
        seq = load_seq(mach, list(range(2 * 16)))
        transpose(mach, seq, 2, 16, mach.cores)
        assert mach.ledger().block_misses == 0

    def test_shape_mismatch_raises(self, make_machine):
        mach = make_machine(p=1)
        seq = load_seq(mach, list(range(12)))
        with pytest.raises(MachineFault):
            transpose(mach, seq, 3, 5, mach.cores)

    def test_square_miss_count_scales_with_blocks(self, make_machine):
        mach = make_machine(p=1, M=1024, B=8)
        seq = load_seq(mach, list(range(64 * 64)))
        transpose(mach, seq, 64, 64, mach.cores)
        assert mach.ledger().cache_misses <= 8 * (64 * 64) // 8


class TestCompact:
    def test_concatenates_parts_in_order(self, make_machine):
        m = make_machine(p=4)
        parts = [load_seq(m, [1, 2, 3]), load_seq(m, []), load_seq(m, [9]), load_seq(m, [4, 5])]
        res = compact(m, parts, m.cores)
        assert m.snapshot_memory(res) == [1, 2, 3, 9, 4, 5]

    def test_slice_per_core_writes_have_no_block_misses(self, make_machine):
        # Pinned: 4 parts of 256 words, p=4, B=16 compacts block-cleanly.
        m = make_machine(p=4, M=1024, B=16)
        parts = [load_seq(m, list(range(k * 256, (k + 1) * 256))) for k in range(4)]
        res = compact(m, parts, m.cores)
        assert res.n == 1024
        assert m.ledger().block_misses == 0
        assert m.snapshot_memory(res) == list(range(1024))

    def test_destination_region_is_respected(self, make_machine):
        m = make_machine(p=1)
        dst = m.alloc(4)
        res = compact(m, [load_seq(m, [7, 8])], m.cores, dest=dst)
        assert res.region is dst


class TestBruteSort:
    @pytest.mark.parametrize("n", [1, 2, 7, 16, 33, 64])
    @pytest.mark.parametrize("p", [1, 3, 4])
    def test_matches_sorted_with_duplicates(self, make_machine, n, p):
        m = make_machine(p=p, M=2048, B=8)
        vals = [random.Random(n * 7 + p).randrange(10) for _ in range(n)]
        seq = load_seq(m, vals)
        res = brute_sort(m, seq, m.cores)
        assert m.snapshot_memory(res) == sorted(vals)

    @given(st.one_of(st.lists(st.integers(-3, 3), max_size=40),
                     st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5)), max_size=40)))
    def test_stable_ranks_are_the_all_pairs_ranks(self, row):
        # The all-pairs rank: smaller words plus equal words at earlier positions.
        assert _stable_ranks(row) == [sum(kj < ki for kj in row) + row[:i].count(ki)
                                      for i, ki in enumerate(row)]

    def test_tuple_items_sort_stably_by_position(self, make_machine):
        m = make_machine(p=2, M=2048, B=8)
        vals = [(3, 0), (1, 1), (3, 2), (1, 3), (2, 4)]
        seq = load_seq(m, vals)
        res = brute_sort(m, seq, m.cores)
        assert m.snapshot_memory(res) == sorted(vals)

    def test_wide_scatter_slots_avoid_block_misses(self, make_machine):
        m = make_machine(p=4, M=2048, B=8)
        vals = [random.Random(2).randrange(1000) for _ in range(64)]
        seq = load_seq(m, vals)
        brute_sort(m, seq, m.cores)
        assert m.ledger().block_misses == 0

    def test_quadratic_work_splits_across_cores(self, make_machine):
        n, p = 64, 4
        m = make_machine(p=p, M=2048, B=8)
        seq = load_seq(m, [random.Random(3).randrange(99) for _ in range(n)])
        brute_sort(m, seq, m.cores)
        assert m.ledger().op_critical_path <= 4 * n * n // p + 8 * n


class TestSampleSplitters:
    def test_sixteen_keys_exponent_four_yields_two_splitters(self, make_machine):
        # ceil(16**(1/4)) = 2 splitters from isqrt(16) = 4 chunk samples.
        m = make_machine(p=4, seed=5)
        seq = load_seq(m, [9, 4, 7, 1, 8, 2, 6, 3, 16, 12, 11, 14, 5, 10, 13, 15])
        z = SortPlan(x=4).splitter_count(16)
        keys = sample_splitters(m, seq, z, m.cores)
        assert z == 2
        assert len(keys) == 2
        assert keys == tuple(sorted(keys))

    def test_splitters_are_sorted_members_of_input(self, make_machine):
        m = make_machine(p=4, seed=11)
        vals = [random.Random(42).randrange(1000) for _ in range(256)]
        seq = load_seq(m, vals)
        keys = sample_splitters(m, seq, 4, m.cores)
        assert list(keys) == sorted(keys)
        assert len(keys) == 4
        assert all(k in vals for k in keys)

    def test_same_seed_reproduces_choice(self, make_machine):
        picks = []
        for _ in range(2):
            m = make_machine(p=4, seed=77)
            seq = load_seq(m, list(range(100)))
            picks.append(sample_splitters(m, seq, 4, m.cores))
        assert picks[0] == picks[1]

    def test_different_streams_vary_choice(self, make_machine):
        m = make_machine(p=4, seed=77)
        seq = load_seq(m, list(range(4096)))
        a = sample_splitters(m, seq, 4, m.cores, stream=0)
        b = sample_splitters(m, seq, 4, m.cores, stream=1)
        assert a != b

    @pytest.mark.parametrize("z", [0, 4])
    def test_count_outside_one_to_n_rejected(self, make_machine, z):
        m = make_machine(p=1)
        seq = load_seq(m, [1, 2, 3])
        with pytest.raises(MachineFault):
            sample_splitters(m, seq, z, m.cores)

    def test_count_of_n_takes_every_key(self, make_machine):
        m = make_machine(p=2)
        seq = load_seq(m, [3, 1, 2])
        assert sample_splitters(m, seq, 3, m.cores) == (1, 2, 3)


class TestSampleKOfN:
    def _expected(self, machine, vals, k, core_idx, stream=0):
        rng = machine.rng(12, stream, core_idx)
        ranks = sorted(rng.integers(len(vals), size=k))
        return [vals[r] for r in ranks]

    def test_matches_replayed_stream(self, make_machine):
        m = make_machine(p=2, seed=3)
        vals = [v * 11 % 97 for v in range(50)]
        seq = load_seq(m, vals)
        probe = Machine(MachineConfig(p=2, M=1024, B=8, seed=3))
        expect = self._expected(probe, vals, 7, m.cores[1].idx)
        res = sample_k_of_n_seq(m, seq, 7, m.cores[1])
        assert m.snapshot_memory(res) == expect

    def test_draws_with_replacement_beyond_n(self, make_machine):
        m = make_machine(p=1, seed=9)
        vals = [4, 8, 15]
        seq = load_seq(m, vals)
        res = sample_k_of_n_seq(m, seq, 10, m.cores[0])
        got = m.snapshot_memory(res)
        assert len(got) == 10
        assert set(got) <= set(vals)

    def test_zero_draws(self, make_machine):
        m = make_machine(p=1)
        res = sample_k_of_n_seq(m, load_seq(m, [1, 2]), 0, m.cores[0])
        assert res.n == 0

    @pytest.mark.parametrize("vals, k", [([1, 2], 0), ([], 3)], ids=["k=0", "n=0"])
    @pytest.mark.parametrize("stream", [-1, 1.5, True], ids=["negative", "float", "bool"])
    def test_a_bad_stream_faults_without_a_draw(self, make_machine, vals, k, stream):
        # Nothing is drawn here, so Machine.rng never sees the stream.
        m = make_machine(p=1)
        seq = load_seq(m, vals)
        with pytest.raises(MachineFault, match="non-negative int"):
            sample_k_of_n_seq(m, seq, k, m.cores[0], stream=stream)
        assert m.ledger() == make_machine(p=1).ledger()

    @staticmethod
    def _word_loop_scan(machine, a, k, core):
        """``sample_k_of_n_seq`` with its scan written as the word loop it
        stands for: read a rank, read the source word by word up to it,
        write the last word read."""
        n = a.n
        rng = machine.rng(12, 0, core.idx)
        ranks_reg = machine.alloc(k)
        out = machine.alloc(k)

        def prog(c):
            c.write_run(ranks_reg, 0, rng.integers(n, size=k))
            yield
            ranks = c.read_run(ranks_reg, 0, k)
            ranks.sort()
            c.tick(k * max(1, k.bit_length()))
            c.write_run(ranks_reg, 0, ranks)
            yield
            pos = 0
            for j in range(k):
                r = c.read(ranks_reg, j)
                while pos <= r:
                    value = c.read(a, pos)
                    pos += 1
                c.write(out, j, value)

        machine.run_rounds({core.idx: prog})
        return KeySeq(out, k)

    @pytest.mark.parametrize("M, B, n, k, warm", [
        pytest.param(4, 4, 30, 8, None, id="one_block_cache"),
        pytest.param(16, 4, 50, 9, None, id="cache_smaller_than_the_scan"),
        pytest.param(8, 2, 5, 12, None, id="duplicate_ranks"),
        pytest.param(1024, 2, 40, 3, None, id="cursor_crosses_blocks"),
        pytest.param(32, 4, 24, 6, (0, 24), id="source_resident"),
        pytest.param(16, 4, 50, 9, (8, 40), id="source_partly_resident"),
    ])
    def test_scan_charges_exactly_its_word_loop(self, M, B, n, k, warm):
        # Core 1 scans; ``warm`` is a span of the source that it reads
        # first.  The ledger, LRU order, memory and trace rows must
        # match the word loop's.
        def run(sample):
            m = Machine(MachineConfig(p=2, M=M, B=B, seed=4), trace=True)
            seq = load_seq(m, [v * 7 % 53 for v in range(n)])
            if warm is not None:
                m.run_rounds({1: lambda c: c.read_run(seq, *warm)})
            res = sample(m, seq, k, m.cores[1])
            return (res, m.ledger(), m.cache_state(), m.snapshot_memory(MemRegion(0, m._sh._limit)),
                    m._sh._trace, m.diagnostics)

        ranks = sorted(Machine(MachineConfig(p=2, M=M, B=B, seed=4)).rng(12, 0, 1).integers(n, size=k))
        if k > n:
            assert len(set(ranks)) < k
        assert len({r // B for r in ranks}) > 1
        assert run(sample_k_of_n_seq) == run(self._word_loop_scan)

    def test_thrashing_scan_cache_state_pinned(self):
        # A 4-block cache scanning a 13-block input, with duplicate ranks
        # (28, 28) and ranks in one block (45, 46).  Core 0 first holds the
        # input's upper blocks.  The ledger, LRU order, holders and output
        # were recorded from the word-by-word scan; the block-granular scan
        # must reproduce them exactly.
        m = Machine(MachineConfig(p=2, M=16, B=4, seed=2))
        seq = load_seq(m, [v * 7 % 53 for v in range(50)])
        m.run_rounds({0: lambda c: c.read_run(seq, 20, 50)})
        assert sorted(m.rng(12, 0, 1).integers(50, size=9)) == [
            2, 9, 17, 28, 28, 37, 45, 46, 49]
        res = sample_k_of_n_seq(m, seq, 9, m.cores[1])
        assert res.region == MemRegion(64, 9)
        assert m.snapshot_memory(res) == [14, 10, 13, 37, 37, 47, 50, 4, 25]
        led = m.ledger()
        assert led.per_core_ops == (30, 131)
        assert led.per_core_cache_misses == (8, 30)
        assert led.per_core_block_misses == (0, 0)
        assert led.rounds == 4
        assert m.diagnostics == []
        state = m.cache_state()
        assert state.resident == ((9, 10, 11, 12), (15, 11, 12, 18))
        assert state.holders == {9: [0], 10: [0], 11: [0, 1], 12: [0, 1],
                                 15: [1], 18: [1]}
