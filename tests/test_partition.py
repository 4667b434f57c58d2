"""Tests for splitter partitioning against binary-search bucketing oracles.

The oracle places key ``k`` in bucket ``bisect_left(splitters, k)``, i.e.
bucket ``i`` collects keys with ``splitter[i-1] < k <= splitter[i]``.
"""
import math
import random
from bisect import bisect_left

import pytest

from pemlab import MachineFault
from pemlab.partition import (
    PartitionTask,
    _partition_quadratic,
    _partition_sqrt,
    partition_main,
    partition_seq,
)
from pemlab.primitives import load_seq


def oracle_buckets(vals, splitters):
    buckets = [[] for _ in range(len(splitters) + 1)]
    for v in vals:
        buckets[bisect_left(list(splitters), v)].append(v)
    return buckets


def run_buckets(machine, run):
    words = machine.snapshot_memory(run.seq)
    out, at = [], 0
    for s in run.sizes:
        out.append(words[at : at + s])
        at += s
    return out


def assert_matches_oracle(machine, run, vals, splitters, ordered=False):
    got = run_buckets(machine, run)
    want = oracle_buckets(vals, splitters)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if ordered:
            assert g == sorted(w)
        else:
            assert sorted(g) == sorted(w)


class TestPartitionSeq:
    def test_single_splitter_example(self, make_machine):
        m = make_machine(p=1)
        run = partition_seq(m, load_seq(m, [5, 1, 9, 3]), [4], m.cores[0])
        assert run.sizes == (2, 2)
        assert run_buckets(m, run) == [[1, 3], [5, 9]]

    def test_splitters_beyond_all_keys(self, make_machine):
        m = make_machine(p=1)
        run = partition_seq(m, load_seq(m, [5, 1, 9, 3]), [50, 60], m.cores[0])
        assert run.sizes == (4, 0, 0)

    def test_random_against_binary_search_oracle(self, make_machine):
        m = make_machine(p=1, M=4096, B=8)
        rng = random.Random(512)
        vals = [rng.randrange(10_000) for _ in range(512)]
        splitters = sorted(rng.sample(vals, 16))
        run = partition_seq(m, load_seq(m, vals), splitters, m.cores[0])
        assert_matches_oracle(m, run, vals, splitters, ordered=True)

    def test_empty_input(self, make_machine):
        m = make_machine(p=1)
        run = partition_seq(m, load_seq(m, []), [3], m.cores[0])
        assert run.sizes == (0, 0)

    def test_ledger_and_cache_pinned(self, make_machine):
        # One read, sort, write and scan-back on an 8-block cache, so the
        # scan's misses and LRU order depend on how it reads ``out``.
        m = make_machine(p=1, M=32, B=4)
        rng = random.Random(5)
        vals = [rng.randrange(100) for _ in range(50)]
        run = partition_seq(m, load_seq(m, vals), [10, 40, 70], m.cores[0])
        assert run.sizes == (6, 20, 10, 14)
        led = m.ledger()
        assert (led.per_core_ops, led.per_core_cache_misses,
                led.per_core_block_misses, led.rounds) == ((500,), (39,),
                                                           (0,), 1)
        state = m.cache_state()
        assert state.resident == (tuple(range(18, 26)),)
        assert state.holders == {b: [0] for b in range(18, 26)}


class TestPartitionQuadratic:
    def test_single_splitter_example(self, make_machine):
        m = make_machine(p=2)
        run = _partition_quadratic(m, load_seq(m, [5, 1, 9, 3]), [4], m.cores)
        assert run_buckets(m, run) == [[1, 3], [5, 9]]

    def test_splitters_beyond_all_keys(self, make_machine):
        m = make_machine(p=2)
        run = _partition_quadratic(m, load_seq(m, [5, 1, 9, 3]), [50], m.cores)
        assert run.sizes == (4, 0)

    @pytest.mark.parametrize("p", [1, 4])
    def test_random_against_binary_search_oracle(self, make_machine, p):
        m = make_machine(p=p, M=4096, B=8)
        rng = random.Random(31 + p)
        vals = [rng.randrange(500) for _ in range(256)]
        splitters = sorted(rng.sample(sorted(set(vals)), 8))
        run = _partition_quadratic(m, load_seq(m, vals), splitters, m.cores)
        assert_matches_oracle(m, run, vals, splitters, ordered=True)


class TestPartitionSqrt:
    def test_single_splitter_example(self, make_machine):
        m = make_machine(p=2)
        run = _partition_sqrt(m, load_seq(m, [5, 1, 9, 3]), [4], m.cores)
        assert run_buckets(m, run) == [[1, 3], [5, 9]]

    def test_splitters_beyond_all_keys(self, make_machine):
        m = make_machine(p=2)
        run = _partition_sqrt(m, load_seq(m, [5, 1, 9, 3]), [50], m.cores)
        assert run.sizes == (4, 0)

    def test_random_against_oracle(self, make_machine):
        m = make_machine(p=4, M=1024, B=8)
        rng = random.Random(77)
        vals = [rng.randrange(4000) for _ in range(400)]
        splitters = sorted(rng.sample(vals, 12))
        run = _partition_sqrt(m, load_seq(m, vals), splitters, m.cores)
        assert_matches_oracle(m, run, vals, splitters)

    def test_miss_count_within_three_halves_power_bound(self, make_machine):
        n, y, p, B = 2**12, 32, 4, 8
        m = make_machine(p=p, M=1024, B=B)
        rng = random.Random(5)
        vals = [rng.randrange(1 << 20) for _ in range(n)]
        splitters = sorted(rng.sample(vals, y))
        run = _partition_sqrt(m, load_seq(m, vals), splitters, m.cores)
        assert sum(run.sizes) == n
        bound = 4 * (n**1.5 / B + y * math.isqrt(n))
        assert m.ledger().misses <= bound


class TestPartitionMain:
    def test_sixteen_sorted_keys_four_splitters(self, make_machine):
        m = make_machine(p=4)
        task = PartitionTask(load_seq(m, list(range(1, 17))), [4, 8, 12, 16], N=16, P=4)
        run = partition_main(m, task, m.cores)
        assert run.sizes == (4, 4, 4, 4, 0)
        assert run_buckets(m, run)[0] == [1, 2, 3, 4]

    def test_single_splitter_above_keys_is_identity_permutation(self, make_machine):
        m = make_machine(p=4)
        vals = [7, 3, 9, 1, 8, 2, 6, 5, 4, 0, 11, 10, 15, 13, 12, 14]
        task = PartitionTask(load_seq(m, vals), [99], N=16, P=4)
        run = partition_main(m, task, m.cores)
        assert run.sizes == (16, 0)
        assert sorted(run_buckets(m, run)[0]) == sorted(vals)

    def test_empty_input_gives_empty_buckets_once_the_cores_pass(self, make_machine):
        m = make_machine(p=2)
        task = PartitionTask(load_seq(m, []), [4, 8], N=1, P=2)
        run = partition_main(m, task, m.cores)
        assert run.sizes == (0, 0, 0)
        assert m.snapshot_memory(run.seq) == []
        with pytest.raises(MachineFault, match="at least one core"):
            partition_main(m, task, [])

    def test_no_splitters_copy_the_keys_into_one_bucket(self, make_machine):
        m = make_machine(p=2)
        vals = [5, 1, 9, 3, 7]
        task = PartitionTask(load_seq(m, vals), (), N=5, P=2)
        run = partition_main(m, task, m.cores)
        assert run.sizes == (5,)
        assert m.snapshot_memory(run.seq) == vals
        ledger, limit = m.ledger(), m._sh._limit
        with pytest.raises(MachineFault, match="repeats a core"):
            partition_main(m, task, [m.cores[0], m.cores[0]])
        assert (m.ledger(), m._sh._limit) == (ledger, limit)

    def test_structural_precondition_raises_before_work(self, make_machine):
        m = make_machine(p=1)
        with pytest.raises(MachineFault):
            PartitionTask(load_seq(m, list(range(16))), [1, 2, 3, 4, 5], N=16, P=1)

    def test_two_splitters_take_single_phase(self, make_machine):
        m = make_machine(p=4, M=1024, B=8)
        rng = random.Random(21)
        vals = [rng.randrange(1000) for _ in range(256)]
        splitters = sorted(rng.sample(vals, 2))
        task = PartitionTask(load_seq(m, vals), splitters, N=256, P=4)
        run = partition_main(m, task, m.cores)
        assert_matches_oracle(m, run, vals, splitters)

    def test_random_4096_keys_64_splitters_matches_oracle_and_miss_bound(self, make_machine):
        n, z, p = 2**12, 64, 4
        M, B = 16, 1
        m = make_machine(p=p, M=M, B=B)
        rng = random.Random(64)
        vals = [rng.randrange(1 << 30) for _ in range(n)]
        splitters = sorted(rng.sample(vals, z))
        task = PartitionTask(load_seq(m, vals), splitters, N=n, P=p)
        run = partition_main(m, task, m.cores)
        assert_matches_oracle(m, run, vals, splitters)
        bound = 4 * (n / B) * (math.log(n) / math.log(M))
        assert m.ledger().misses <= bound

    def test_chunked_short_chunks_and_recursive_chunks(self, make_machine):
        # 256 cores over 2**14 keys: the coarse buckets come out shorter
        # than a root-scale chunk, and the big last one splits into chunks
        # long enough to recurse through partition_main.
        m = make_machine(p=256, M=64, B=8, seed=0)
        vals = list(range(2**14))
        random.Random(0).shuffle(vals)
        splitters = (20, 59, 120, 186)
        task = PartitionTask(load_seq(m, vals), splitters, N=2**14, P=256)
        run = partition_main(m, task, m.cores)
        assert run.sizes == (21, 39, 61, 66, 16197)
        assert_matches_oracle(m, run, vals, splitters)
        led = m.ledger()
        assert (led.ops, led.cache_misses, led.block_misses, led.rounds,
                led.critical_path) == (227706, 29451, 382, 2359, 6193)

    def test_deterministic_output(self, make_machine):
        outs = []
        for _ in range(2):
            m = make_machine(p=4, seed=3)
            rng = random.Random(8)
            vals = [rng.randrange(100) for _ in range(300)]
            splitters = sorted(rng.sample(sorted(set(vals)), 6))
            task = PartitionTask(load_seq(m, vals), splitters, N=300, P=4)
            run = partition_main(m, task, m.cores)
            outs.append((run.sizes, m.snapshot_memory(run.seq.region)))
        assert outs[0] == outs[1]

