"""Sample sort: plan arithmetic, pinned examples, quality gate, cost shape."""
import math
import random

import pytest

from pemlab.machine import Machine, MachineConfig, MachineFault
from pemlab.primitives import KeySeq, _streams, load_seq
from pemlab.sorting import (_RETRY_CAP, SortPlan, SortStats, _core_shares, _Ctx,
                            _partition_round, sample_sort)
from pemlab.merge import BucketedRun


def make(p=4, M=256, B=8, seed=0):
    return Machine(MachineConfig(p=p, M=M, B=B, seed=seed))


class TestSortPlan:
    def test_rejects_small_exponent(self):
        with pytest.raises(MachineFault):
            SortPlan(x=3)

    @pytest.mark.parametrize("field, value", [
        ("x", 5.5), ("x", 8.0), ("x", "8"), ("x", True),
    ])
    def test_rejects_fields_that_are_not_ints(self, field, value):
        # ``x=5.5`` would otherwise be kept silently.
        with pytest.raises(MachineFault, match=f"{field} must be an int"):
            SortPlan(**{field: value})

    def test_splitter_counts(self):
        assert SortPlan(x=4).splitter_count(16) == 2
        assert SortPlan(x=4).splitter_count(256) == 4
        assert SortPlan().splitter_count(1) == 1
        assert SortPlan().splitter_count(1 << 16) == 2

    def test_tau_pinned_value(self):
        # n=256, x=4: z=4, t=16/4=4, tau = (1 + 4**(-1/6)) * 256**(3/4)
        assert SortPlan(x=4).tau(256) == pytest.approx(114.7968336629824)

    def test_tau_degenerate(self):
        assert SortPlan().tau(0) == 0.0
        assert SortPlan().tau(1) == 1.0

    def test_tau_vacuous_at_default_exponent(self):
        # With x=32 the threshold sits above n itself well past 2^16, so
        # no round at those sizes can ever be discarded.
        for k in (8, 12, 16):
            assert SortPlan().tau(1 << k) > (1 << k)


class TestPinnedExamples:
    def test_empty(self):
        m = make()
        out = sample_sort(m, load_seq(m, []), m.cores)
        assert m.snapshot_memory(out) == []

    def test_all_equal(self):
        m = make()
        out = sample_sort(m, load_seq(m, [7, 7, 7, 7]), m.cores)
        assert m.snapshot_memory(out) == [7, 7, 7, 7]

    def test_permutation_matches_oracle(self):
        n = 1 << 14
        rng = random.Random(31)
        vals = list(range(n))
        rng.shuffle(vals)
        m = make(p=4, M=256, B=8, seed=11)
        out = sample_sort(m, load_seq(m, vals), m.cores)
        assert m.snapshot_memory(out) == sorted(vals)

    def test_permutation_rarely_resamples(self):
        n = 1 << 14
        zero = 0
        for s in range(20):
            m = make(p=4, M=256, B=8, seed=s)
            rng = random.Random(s)
            vals = list(range(n))
            rng.shuffle(vals)
            st = SortStats()
            sample_sort(m, load_seq(m, vals), m.cores, stats=st)
            assert st.rounds >= 1
            if st.resamples == 0:
                zero += 1
        assert zero >= 19

    def test_seq_sort_example(self):
        m = make(p=1)
        out = sample_sort(m, load_seq(m, [2, 1, 3]), m.cores[:1])
        assert m.snapshot_memory(out) == [1, 2, 3]

    def test_seq_sort_sorted_input_unchanged(self):
        m = make(p=1)
        vals = list(range(500))
        out = sample_sort(m, load_seq(m, vals), m.cores[:1])
        assert m.snapshot_memory(out) == vals

    @pytest.mark.parametrize("p, M, B, n, ledger", [
        # One core above the leaf cap M**2 = 256: one column distribution,
        # then every bucket a leaf on that core.
        (1, 16, 4, 1000, (18817, 2329, 0, 44)),
        # Three cores: the chunked partitioner, then buckets on bands.
        (3, 64, 8, 5000, (149833, 8728, 16, 121)),
    ])
    def test_branch_ledger_pinned(self, p, M, B, n, ledger):
        rng = random.Random(n)
        vals = [rng.randrange(4 * n) for _ in range(n)]
        m = make(p=p, M=M, B=B, seed=1)
        st = SortStats()
        out = sample_sort(m, load_seq(m, vals), m.cores, plan=SortPlan(x=4), stats=st)
        assert m.snapshot_memory(out) == sorted(vals)
        led = m.ledger()
        assert (led.ops, led.cache_misses, led.block_misses, led.rounds) == ledger
        assert (st.rounds, st.resamples) == (1, 0)
        assert m.diagnostics == []

    def test_core_shares_starve_a_bucket_when_no_allocation_can_spare(self):
        # Rounding gives all three cores to the big bucket.  The first two
        # small buckets, above the grain 0, each take one of them back; the
        # third finds no allocation above one core and keeps zero shares.
        assert _core_shares([1, 1, 1, 10], 3, 0) == [1, 1, 0, 1]

    def test_seq_sort_miss_ratio(self):
        # n=2^12 on one core with M=2^10, B=32: total misses stay within
        # 4x of (n/B) * log_M(n).
        n = 1 << 12
        rng = random.Random(0)
        vals = [rng.randrange(n * 8) for _ in range(n)]
        m = Machine(MachineConfig(p=1, M=1024, B=32, seed=2))
        out = sample_sort(m, load_seq(m, vals), m.cores[:1])
        assert m.snapshot_memory(out) == sorted(vals)
        led = m.ledger()
        bound = (n / 32) * (math.log(n) / math.log(1024))
        assert led.misses <= 4 * bound


class TestCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_random_multisets(self, p):
        rng = random.Random(100 + p)
        for trial in range(6):
            n = rng.randrange(1, 3000)
            vals = [rng.randrange(-50, 50) for _ in range(n)]
            m = make(p=max(p, 1), M=128, B=8, seed=trial)
            out = sample_sort(m, load_seq(m, vals), m.cores[:p])
            assert m.snapshot_memory(out) == sorted(vals)

    def test_single_key(self):
        m = make()
        out = sample_sort(m, load_seq(m, [42]), m.cores)
        assert m.snapshot_memory(out) == [42]

    def test_custom_exponent(self):
        rng = random.Random(5)
        vals = [rng.randrange(1000) for _ in range(2000)]
        m = make(p=4, M=64, B=8)
        out = sample_sort(m, load_seq(m, vals), m.cores, plan=SortPlan(x=4))
        assert m.snapshot_memory(out) == sorted(vals)

    def test_no_cores_raises(self):
        m = make()
        with pytest.raises(MachineFault):
            sample_sort(m, load_seq(m, [1]), [])

    def test_small_run_gets_diagnostic(self):
        m = make(p=4, M=256, B=8)
        sample_sort(m, load_seq(m, [3, 1, 2]), m.cores)
        assert any("below cost precondition" in d for d in m.diagnostics)

    def test_determinism(self):
        vals = [random.Random(9).randrange(500) for _ in range(1500)]
        ledgers = []
        for _ in range(2):
            m = make(p=4, M=64, B=8, seed=3)
            sample_sort(m, load_seq(m, vals), m.cores)
            led = m.ledger()
            ledgers.append((led.ops, led.misses, led.critical_path))
        assert ledgers[0] == ledgers[1]


class TestQualityGate:
    def _ctx(self, m, plan):
        return _Ctx(plan=plan, N=1 << 12, P=1, cap=32,
                    stats=SortStats(), next_stream=_streams(0))

    def _run(self, m, sizes_per_attempt, plan):
        """Drive the accept/retry loop with rigged bucket sizes."""
        n = 1 << 12
        rng = random.Random(1)
        seq = load_seq(m, [rng.randrange(1 << 20) for _ in range(n)])
        ctx = self._ctx(m, plan)
        attempts = iter(sizes_per_attempt)

        def distribute(ss):
            sizes = next(attempts)
            reg = m.alloc(n)
            m.load(reg, sorted(rng.randrange(99) for _ in range(n)))
            return BucketedRun(KeySeq(reg, n), sizes)

        run = _partition_round(m, seq, [m.cores[0]], ctx, distribute)
        return run, ctx.stats

    def test_oversized_bucket_forces_resample(self):
        plan = SortPlan(x=4)
        n = 1 << 12
        bad = (n - 4, 1, 1, 1, 1)
        good = (874, 874, 874, 874, 600)
        assert bad[0] > plan.tau(n) >= max(good)
        m = make(p=1)
        run, stats = self._run(m, [bad, good], plan)
        assert run.sizes == good
        assert stats.resamples == 1 and stats.rounds == 2
        assert not any("retry cap" in d for d in m.diagnostics)

    def test_retry_cap_exhaustion_keeps_last_round(self):
        plan = SortPlan(x=4)
        n = 1 << 12
        bad = (n - 4, 1, 1, 1, 1)
        m = make(p=1)
        run, stats = self._run(m, [bad] * (_RETRY_CAP + 1), plan)
        assert run.sizes == bad
        assert stats.rounds == _RETRY_CAP + 1
        assert any("retry cap" in d for d in m.diagnostics)


class TestCostShape:
    def test_op_critical_path_scales_down(self):
        n = 1 << 13
        rng = random.Random(8)
        vals = [rng.randrange(n * 4) for _ in range(n)]
        paths = {}
        for p in (1, 4):
            m = Machine(MachineConfig(p=p, M=64, B=8, seed=5))
            out = sample_sort(m, load_seq(m, vals), m.cores)
            assert m.snapshot_memory(out) == sorted(vals)
            paths[p] = m.ledger().op_critical_path
        assert paths[1] / paths[4] >= 2.0

    def test_parallel_miss_ratio_band(self):
        # Fixed machine, doubling n: cache misses track (n/B) log_M n
        # within a 4x relative band.
        ratios = []
        for k in (11, 12, 13):
            n = 1 << k
            rng = random.Random(k)
            vals = [rng.randrange(n * 4) for _ in range(n)]
            m = Machine(MachineConfig(p=4, M=1024, B=32, seed=7))
            out = sample_sort(m, load_seq(m, vals), m.cores)
            assert m.snapshot_memory(out) == sorted(vals)
            bound = (n / 32) * (math.log(n) / math.log(1024))
            ratios.append(m.ledger().cache_misses / bound)
        assert max(ratios) / min(ratios) <= 4.0

    def test_stats_quiet_for_single_leaf(self):
        m = make(p=1, M=256, B=8)
        st = SortStats()
        vals = [5, 3, 9, 1]
        out = sample_sort(m, load_seq(m, vals), m.cores[:1], stats=st)
        assert m.snapshot_memory(out) == [1, 3, 5, 9]
        assert st.rounds == 0 and st.resamples == 0
