"""Anonymous core estimation, id assignment, and oblivious prefix sums."""
import itertools
import random

import pytest

from pemlab.machine import Machine, MachineConfig, MachineFault
from pemlab.primitives import KeySeq
from pemlab.procalloc import (
    IdAssignment,
    estimate_processors,
    oblivious_prefix,
)


def make(p=4, M=1024, B=16, seed=0):
    return Machine(MachineConfig(p=p, M=M, B=B, seed=seed))


def load_seq(m, vals):
    reg = m.alloc(max(1, len(vals)))
    m.load(reg, list(vals))
    return KeySeq(reg, len(vals))


class TestIdAssignment:
    def test_rejects_non_permutation(self):
        with pytest.raises(MachineFault):
            IdAssignment(estimated_p=2, beta=1, count_target=2, slots=4,
                         block_slots=2, saturated=True, ids=((0, 0), (0, 0)),
                         dense_ids=(0, 0))

    def test_rejects_bad_estimate(self):
        with pytest.raises(MachineFault):
            IdAssignment(estimated_p=0, beta=1, count_target=2, slots=4,
                         block_slots=2, saturated=True, ids=((0, 0),),
                         dense_ids=(0,))

    def test_owned_ranges_cover(self):
        asg = IdAssignment(estimated_p=3, beta=2, count_target=2, slots=8,
                           block_slots=4, saturated=True,
                           ids=((0, 0), (0, 1), (1, 0)), dense_ids=(0, 1, 2))
        ranges = asg.owned_ranges(10)
        assert ranges[0][0] == 0 and ranges[-1][1] == 10
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))


class TestEstimateProcessors:
    def test_single_core_owns_everything(self):
        m = make(p=1)
        est = estimate_processors(m, 1 << 12, m.cores)
        assert est.estimated_p == 1
        assert est.saturated
        assert est.dense_ids == (0,)
        assert est.owned_ranges(100) == ((0, 100),)

    def test_exact_when_few_cores(self):
        # fewer cores than the count target: the walk saturates and the
        # registrant total is the exact core count
        for p in (2, 3):
            for seed in range(5):
                m = make(p=p, seed=seed)
                est = estimate_processors(m, 1 << 12, m.cores, stream=seed)
                assert est.saturated
                assert est.estimated_p == p

    def test_ids_unique_every_trial(self):
        for seed in range(100):
            m = make(p=32, seed=seed)
            est = estimate_processors(m, 1 << 14, m.cores, stream=seed)
            assert sorted(est.dense_ids) == list(range(32))
            assert len(set(est.ids)) == 32

    def test_estimate_within_factor_four(self):
        hits = 0
        for seed in range(30):
            m = make(p=16, seed=seed)
            est = estimate_processors(m, 1 << 16, m.cores, stream=seed)
            assert not est.saturated  # 16 registrants always reach target 16
            if 4 <= est.estimated_p <= 64:
                hits += 1
        assert hits == 30

    def test_write_step_block_misses_bounded(self):
        for p in (4, 16):
            misses = []
            for seed in range(30):
                m = make(p=p, seed=seed)
                est = estimate_processors(m, 1 << 14, m.cores, stream=seed)
                misses.append(est.write_block_misses)
            assert sum(misses) / len(misses) <= 4 * p

    def test_first_phase_critical_path_linear(self):
        for t, p in enumerate((2, 8, 16, 32)):
            n = 1 << 14
            m = make(p=p, seed=t)
            estimate_processors(m, n, m.cores, stream=t)
            assert m.ledger().op_critical_path <= 4 * (n // p)

    def test_rejects_overfull_slot_array(self):
        m = make(p=8)
        with pytest.raises(MachineFault):
            estimate_processors(m, 16, m.cores)  # 4 slots < 8 cores

    def test_deterministic(self):
        def run():
            m = make(p=16, seed=5)
            est = estimate_processors(m, 1 << 13, m.cores, stream=9)
            led = m.ledger()
            return (est, led.ops, led.block_misses, led.rounds)

        assert run() == run()


class TestObliviousPrefix:
    def test_matches_accumulate_hidden_p(self):
        for t in range(50):
            rng = random.Random(t)
            p = rng.randrange(2, 33)
            n = rng.randrange(40, 500)
            vals = [rng.randrange(-60, 60) for _ in range(n)]
            m = make(p=p, M=512, B=8, seed=100 + t)
            got = oblivious_prefix(m, load_seq(m, vals), m.cores, stream=t)
            want = list(itertools.accumulate(vals))
            assert list(m.snapshot_memory(got.region)[:n]) == want, (t, p, n)

    def test_empty_and_single(self):
        m = make()
        assert oblivious_prefix(m, KeySeq(m.alloc(0), 0), m.cores).n == 0
        m = make()
        got = oblivious_prefix(m, load_seq(m, [7]), m.cores)
        assert list(m.snapshot_memory(got.region)[:1]) == [7]

    def test_fallback_when_cores_exceed_slots(self):
        m = make(p=8)
        vals = list(range(16))  # 4 estimation slots < 8 cores
        got = oblivious_prefix(m, load_seq(m, vals), m.cores)
        assert list(m.snapshot_memory(got.region)[:16]) == \
            list(itertools.accumulate(vals))
        assert any("fallback" in d for d in m.diagnostics)

    def test_single_core_path(self):
        m = make(p=1)
        vals = [3, -1, 4, 1, -5]
        got = oblivious_prefix(m, load_seq(m, vals), m.cores)
        assert list(m.snapshot_memory(got.region)[:5]) == [3, 2, 6, 7, 2]
