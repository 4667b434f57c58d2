"""Tests for bucketed-run merging against direct concatenation oracles."""
import random
from itertools import accumulate

import pytest

from pemlab import MachineFault
from pemlab.merge import BucketedRun, merge_bucketed, plan_cuts
from pemlab.partition import _distribute_columns
from pemlab.primitives import KeySeq, load_seq


def load_run(machine, buckets):
    flat = [v for bucket in buckets for v in bucket]
    return BucketedRun(load_seq(machine, flat), tuple(len(b) for b in buckets))


def merged_oracle(all_buckets):
    out = []
    t = len(all_buckets[0])
    for j in range(t):
        for buckets in all_buckets:
            out.extend(buckets[j])
    return out


def run_words(machine, run):
    return machine.snapshot_memory(run.seq)


class TestMergeBucketed:
    def test_two_runs_two_buckets_example(self, make_machine):
        m = make_machine(p=2)
        a = load_run(m, [[1, 5], [9]])
        b = load_run(m, [[2], [8, 9]])
        merged = merge_bucketed(m, [a, b], m.cores)
        assert run_words(m, merged) == [1, 5, 2, 9, 8, 9]
        assert merged.sizes == (3, 3)

    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    @pytest.mark.parametrize("x,t", [(2, 2), (3, 4), (4, 1), (1, 5)])
    def test_matches_concatenation_oracle(self, make_machine, p, x, t):
        rng = random.Random(x * 10 + t + p)
        m = make_machine(p=p, M=2048, B=8)
        all_buckets = []
        for _ in range(x):
            splits = sorted(rng.randrange(0, 30) for _ in range(t - 1))
            vals = sorted(rng.randrange(100) for _ in range(30))
            cuts = [0] + splits + [30]
            all_buckets.append([vals[cuts[j]: cuts[j + 1]] for j in range(t)])
        runs = [load_run(m, b) for b in all_buckets]
        merged = merge_bucketed(m, runs, m.cores)
        assert run_words(m, merged) == merged_oracle(all_buckets)

    def test_preserves_run_order_for_equal_keys(self, make_machine):
        m = make_machine(p=4)
        runs = [load_run(m, [[(7, i)], [(9, i)]]) for i in range(4)]
        merged = merge_bucketed(m, runs, m.cores)
        assert run_words(m, merged) == [(7, 0), (7, 1), (7, 2), (7, 3), (9, 0), (9, 1), (9, 2), (9, 3)]

    def test_empty_buckets_and_runs(self, make_machine):
        m = make_machine(p=2)
        a = load_run(m, [[], [4], []])
        b = load_run(m, [[], [], []])
        c = load_run(m, [[1], [5], []])
        merged = merge_bucketed(m, [a, b, c], m.cores)
        assert run_words(m, merged) == [1, 4, 5]
        assert merged.sizes == (1, 2, 0)

    def test_block_aligned_slices_have_no_block_misses(self, make_machine):
        # Pinned: two runs with two 64-word buckets each, p=4, B=16.
        m = make_machine(p=4, M=1024, B=16)
        mk = lambda lo: [list(range(lo, lo + 64)), list(range(lo + 500, lo + 564))]
        runs = [load_run(m, mk(0)), load_run(m, mk(1000))]
        merged = merge_bucketed(m, runs, m.cores)
        assert merged.seq.n == 256
        assert m.ledger().block_misses == 0

    def test_mismatched_bucket_counts_rejected(self, make_machine):
        m = make_machine(p=1)
        a = load_run(m, [[1], [2]])
        b = load_run(m, [[3]])
        with pytest.raises(MachineFault):
            merge_bucketed(m, [a, b], m.cores)

    def test_size_vector_must_match_items(self, make_machine):
        m = make_machine(p=1)
        reg = m.alloc(4)
        with pytest.raises(MachineFault):
            BucketedRun(KeySeq(reg, 4), (1, 2))


class TestBuckets:
    @staticmethod
    def layout(machine, run):
        """Each bucket view's ``(offset into run.seq, length, words)``."""
        base = run.seq.region.base
        return [(v.region.base - base, v.n, machine.snapshot_memory(v))
                for v in run.buckets()]

    def test_packed_buckets_follow_each_other(self, make_machine):
        m = make_machine(p=1)
        run = load_run(m, [[3, 1], [], [7, 5, 6]])
        assert self.layout(m, run) == [(0, 2, [3, 1]), (2, 0, []),
                                       (2, 3, [7, 5, 6])]

    def test_column_buckets_start_at_their_columns(self, make_machine):
        # Keys go to bucket ``bisect_left((3, 5), k)``; bucket ``b`` of
        # five keys starts at slot ``5 * b``.
        m = make_machine(p=1)
        run = _distribute_columns(m, load_seq(m, [5, 1, 9, 3, 4]), (3, 5),
                                  m.cores[0])
        assert run.starts == (0, 5, 10)
        assert self.layout(m, run) == [(0, 2, [1, 3]), (5, 2, [5, 4]),
                                       (10, 1, [9])]

    def test_views_are_bounded_by_their_bucket(self, make_machine):
        m = make_machine(p=1)
        run = load_run(m, [[3, 1], [7]])
        assert [v.region.len for v in run.buckets()] == [2, 1]
        with pytest.raises(MachineFault):
            m.run_rounds({0: lambda c: c.read_run(run.buckets()[0], 0, 3)})


class TestPlanCuts:
    def test_exact_boundary_cuts_touch_one_segment_each(self):
        ends = [64, 128, 192, 256]
        plans = plan_cuts(ends, 4, 256)
        assert plans == [[(0, 0, 64)], [(1, 0, 64)], [(2, 0, 64)], [(3, 0, 64)]]

    def test_empty_segments_are_never_visited(self):
        ends = [0, 0, 5, 5, 9]
        plans = plan_cuts(ends, 2, 9)
        flat = [k for segs in plans for k, _, _ in segs]
        assert set(flat) <= {2, 4}
        got = []
        sizes = [0, 0, 5, 0, 4]
        starts = list(accumulate([0] + sizes))
        for segs in plans:
            for k, a, b in segs:
                got.extend(range(starts[k] + a, starts[k] + b))
        assert got == list(range(9))

    def test_incidences_bounded_by_segments_plus_cores(self):
        rng = random.Random(9)
        for trial in range(50):
            x = rng.randrange(1, 6)
            t = rng.randrange(1, 8)
            p = rng.randrange(1, 9)
            sizes = [rng.randrange(0, 7) for _ in range(x * t)]
            y = sum(sizes)
            ends = list(accumulate(sizes))
            plans = plan_cuts(ends, p, y)
            incidences = sum(len(s) for s in plans)
            assert incidences <= x * t + 2 * p
            covered = []
            starts = [0] + ends[:-1]
            for segs in plans:
                for k, a, b in segs:
                    covered.extend(range(starts[k] + a, starts[k] + b))
            assert covered == list(range(y))

