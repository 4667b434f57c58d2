"""Acceptance gate: ten binary criteria, one test (and one line) each.

Every criterion prints a single ``criterion N: PASS`` line when it
holds; a failure shows up as the test's assertion with full context.
Frozen constants were measured once on the reference configuration and
are asserted exactly (integer counters) or to float precision (ratios),
so any behavioural drift in the simulator or the algorithms is loud.
"""
import math
import random

import pytest

from oracles import gift_wrap, hull_vertices_by_clipping
from pemlab.bench import _hull_instance, rows_to_csv, run_scenario, run_sweep
from pemlab.hull import HullStats, convex_hull_2d, hull_main
from pemlab.machine import Machine, MachineConfig
from pemlab.primitives import compact, load_seq, prefix_sum
from pemlab.procalloc import estimate_processors
from pemlab.sorting import SortPlan, SortStats, sample_sort


# criterion 5 series, measured at p=4, M=2^12, B=64, machine seed 9,
# instance seed 9 (the sweep generator), one row per size
SORT_RATIOS = {
    12: 21.8125,
    13: 20.271634615384617,
    14: 17.193080357142858,
    15: 14.9828125,
    16: 12.370605468749998,
    17: 10.79055606617647,
    18: 9.471354166666666,
}
HULL_RATIOS = {
    10: 50.4,
    11: 36.272727272727266,
    12: 30.65625,
    13: 47.04807692307693,
    14: 44.86272321428571,
}

# criterion 6 series: op critical path of sample_sort at n=2^16, M=64,
# B=8, machine seed 5, instance from random.Random(42)
CRIT_PATHS = {1: 2734482, 2: 1562863, 4: 881626, 8: 431388, 16: 256401}


def test_criterion_01_sorting_matches_oracle():
    """sample_sort equals the reference sort on 200 mixed instances."""
    shapes = [(1, 1024, 8), (2, 256, 16), (4, 4096, 64), (8, 1024, 8)]
    for k in range(200):
        n = 1 << (8 + k % 8)
        rng = random.Random(1000 + k)
        mode = k % 3
        if mode == 0:
            vals = [rng.randrange(4 * n) for _ in range(n)]
        elif mode == 1:  # heavy duplicates
            vals = [rng.randrange(max(4, n // 8)) for _ in range(n)]
        else:  # tiny alphabet
            vals = [rng.choice((0, 1, 2, 3, 5, 8, 13, 21)) for _ in range(n)]
        p, M, B = shapes[k % 4]
        machine = Machine(MachineConfig(p=p, M=M, B=B, seed=k))
        out = sample_sort(machine, load_seq(machine, vals), machine.cores,
                          stream=k)
        assert machine.snapshot_memory(out) == sorted(vals), (k, n, p, M, B)
    print("criterion 1: PASS — sample_sort matched the reference sort on "
          "200 instances")


def test_criterion_02_geometry_matches_oracles():
    """hull_main vs incremental clipping; convex_hull_2d vs gift wrap."""
    shapes = [(2, 256, 8), (4, 1024, 16), (8, 512, 8), (4, 4096, 64)]
    for k in range(100):
        rng = random.Random(2000 + k)
        n = rng.randrange(8, 1025)
        planes = _hull_instance(n, 2000 + k)
        p, M, B = shapes[k % 4]
        machine = Machine(MachineConfig(p=p, M=M, B=B, seed=k))
        chain, _ = hull_main(machine, load_seq(machine, planes),
                             machine.cores, stream=k)
        got = {(v.x, v.y) for v in chain.vertices}
        assert got == hull_vertices_by_clipping(planes), (k, n)
    for k in range(100):
        rng = random.Random(3000 + k)
        size = rng.randrange(1, 513)
        kind = k % 4
        if kind == 0:
            pts = [(rng.randrange(-900, 900), rng.randrange(-900, 900))
                   for _ in range(size)]
        elif kind == 1:  # small grid: duplicates and collinear runs
            pts = [(rng.randrange(0, 8), rng.randrange(0, 8))
                   for _ in range(size)]
        elif kind == 2:  # clustered repeats
            base = [(rng.randrange(-60, 60), rng.randrange(-60, 60))
                    for _ in range(12)]
            pts = [rng.choice(base) for _ in range(size)]
        else:  # parabola: every distinct point is a hull vertex
            pts = [(x, x * x) for x in
                   (rng.randrange(-400, 400) for _ in range(size))]
        p, M, B = shapes[k % 4]
        machine = Machine(MachineConfig(p=p, M=M, B=B, seed=k))
        chain, _ = convex_hull_2d(machine, load_seq(machine, pts),
                                  machine.cores, stream=k)
        got = {(v.x, v.y) for v in chain.vertices}
        assert got == gift_wrap(pts), (k, size, kind)
        if len(chain.vertices) >= 3:
            assert chain.is_convex_ccw(), k
    print("criterion 2: PASS — hull_main and convex_hull_2d matched their "
          "oracles on 100 instances each")


def test_criterion_03_cost_model_unit_truths():
    """Cold scan misses exactly ceil(n/B); k same-round writers on one
    block pay exactly k(k-1)/2 block misses."""
    machine = Machine(MachineConfig(p=1, M=1 << 12, B=64, seed=0))
    region = machine.alloc(10_000)

    def scan(core):
        for i in range(10_000):
            core.read(region, i)
        return
        yield

    machine.run_rounds({0: scan})
    assert machine.ledger().cache_misses == 157  # ceil(10^4 / 64)

    machine = Machine(MachineConfig(p=4, M=256, B=64, seed=0))
    region = machine.alloc(64)

    def writer(i):
        def prog(core):
            core.write(region, i, i)
            return
            yield

        return prog

    machine.run_rounds({i: writer(i) for i in range(4)})
    assert machine.ledger().block_misses == 6  # 0 + 1 + 2 + 3
    print("criterion 3: PASS — cold scan cost 157 misses and 4 concurrent "
          "writers cost 6 block misses")


def test_criterion_04_zero_block_miss_lemmas():
    """prefix_sum and compact run with zero block misses at the pinned
    shapes."""
    machine = Machine(MachineConfig(p=4, M=256, B=16, seed=1))
    vals = [random.Random(0).randrange(100) for _ in range(4096)]
    prefix_sum(machine, load_seq(machine, vals), machine.cores)
    prefix_misses = machine.ledger().block_misses
    assert prefix_misses == 0

    machine = Machine(MachineConfig(p=4, M=256, B=16, seed=2))
    rng = random.Random(1)
    parts = []
    for size in (300, 200, 400, 124):  # total 1024
        parts.append(load_seq(machine, [rng.randrange(50)
                                        for _ in range(size)]))
    compact(machine, parts, machine.cores)
    assert machine.ledger().block_misses == 0
    print("criterion 4: PASS — prefix_sum (n=4096) and compact (n=1024) "
          "each reported zero block misses")


def test_criterion_05_miss_scaling_band():
    """cache_misses / ((n/B) log_M n) stays within a 4x band for the
    sort sweep n=2^12..2^18 and the hull sweep n=2^10..2^14."""
    for algo, frozen in (("sort", SORT_RATIOS), ("hull", HULL_RATIOS)):
        ratios = []
        for e, expected in frozen.items():
            row = run_scenario(algo, 1 << e, 4, 1 << 12, 64, 9)
            assert row.status == "ok", (algo, e, row.status)
            assert row.ratio == pytest.approx(expected, rel=1e-9), (algo, e)
            ratios.append(row.ratio)
        band = max(ratios) / min(ratios)
        assert band <= 4.0, (algo, band)
    print("criterion 5: PASS — miss ratios spread 2.303x (sort) and "
          "1.644x (hull), both within the 4x band")


def test_criterion_06_speedup_shape():
    """Sort op-critical-path drops by at least 1.6x per core doubling."""
    n = 1 << 16
    rng = random.Random(42)
    vals = [rng.randrange(4 * n) for _ in range(n)]
    crit = {}
    for p in (1, 2, 4, 8, 16):
        machine = Machine(MachineConfig(p=p, M=64, B=8, seed=5))
        sample_sort(machine, load_seq(machine, vals), machine.cores,
                    stream=0)
        crit[p] = machine.ledger().op_critical_path
        assert crit[p] == CRIT_PATHS[p], p
    speedups = [crit[p] / crit[2 * p] for p in (1, 2, 4, 8)]
    assert all(s >= 1.6 for s in speedups), speedups
    print("criterion 6: PASS — critical-path speedups per doubling were "
          + ", ".join(f"{s:.2f}" for s in speedups) + " (all >= 1.6)")


def test_criterion_07_resample_rate():
    """With x=32 at n=2^16 the resample event hits <= 5% of partition
    rounds over 100 seeds (the threshold is vacuous at this size)."""
    n = 1 << 16
    assert SortPlan().tau(n) > n  # no bucket can ever exceed the threshold
    rounds = resamples = 0
    for seed in range(100):
        rng = random.Random(seed)
        vals = [rng.randrange(4 * n) for _ in range(n)]
        machine = Machine(MachineConfig(p=4, M=1 << 12, B=64, seed=seed))
        stats = SortStats()
        sample_sort(machine, load_seq(machine, vals), machine.cores,
                    stats=stats, stream=seed)
        rounds += stats.rounds
        resamples += stats.resamples
    assert rounds > 0
    assert resamples <= 0.05 * rounds, (resamples, rounds)
    print(f"criterion 7: PASS — {resamples} resamples across {rounds} "
          "partition rounds (<= 5%)")


def test_criterion_07_companion_binding_threshold():
    """Criterion 7's shape at x=4 and n=2^12, where ``tau(n)`` is below n,
    so a bucket can exceed it: resamples happen, and on at most 30% of
    partition rounds over 20 seeds.

    Measured: 3 of 23 rounds on these seeds (23 of 123 over seeds 0..99).
    Sampling one key per splitter instead of ``isqrt(n)`` keys resamples
    199 of 216 rounds.
    """
    n = 1 << 12
    plan = SortPlan(x=4)
    assert plan.tau(n) < n
    rounds = resamples = 0
    for seed in range(20):
        rng = random.Random(seed)
        vals = [rng.randrange(4 * n) for _ in range(n)]
        machine = Machine(MachineConfig(p=4, M=1 << 12, B=64, seed=seed))
        stats = SortStats()
        out = sample_sort(machine, load_seq(machine, vals), machine.cores,
                          plan=plan, stats=stats, stream=seed)
        assert machine.snapshot_memory(out) == sorted(vals)
        rounds += stats.rounds
        resamples += stats.resamples
    assert 0 < resamples <= 0.3 * rounds, (resamples, rounds)
    print(f"criterion 7 companion: PASS — {resamples} resamples across "
          f"{rounds} partition rounds at x=4 (<= 30%)")


def test_criterion_08_sector_group_bound():
    """Every accepted polling round keeps its largest sector group within
    2 * m^(1-eps) * log2 m."""
    eps = 1.0 / 32
    checked = 0
    for e, seed in ((10, 0), (10, 1), (12, 0), (12, 1), (14, 0)):
        n = 1 << e
        machine = Machine(MachineConfig(p=4, M=1 << 12, B=64, seed=seed))
        stats = HullStats()
        hull_main(machine, load_seq(machine, _hull_instance(n, seed)),
                  machine.cores, stats=stats, stream=seed)
        assert stats.accepted == len(stats.rounds) >= 1
        for rec in stats.rounds:
            m = rec["m"]
            formula = 2.0 * (m ** (1.0 - eps)) * max(1.0, math.log2(max(2, m)))
            assert rec["group_bound"] == pytest.approx(formula)
            assert rec["largest_group"] <= rec["group_bound"], rec
            checked += 1
    assert checked >= 5
    print(f"criterion 8: PASS — all {checked} accepted polling rounds "
          "respected the sector group bound")


def test_criterion_09_processor_estimation():
    """p-hat lands within 4x of the hidden p in >= 95/100 trials, and the
    one-round registration step averages <= 4p block misses."""
    n = 1 << 16
    for p in (4, 16, 64):
        within = 0
        miss_sum = 0
        for seed in range(100):
            machine = Machine(MachineConfig(p=p, M=1024, B=16, seed=seed))
            est = estimate_processors(machine, n, machine.cores, stream=seed)
            if p / 4 <= est.estimated_p <= 4 * p:
                within += 1
            miss_sum += est.write_block_misses
        assert within >= 95, (p, within)
        assert miss_sum / 100 <= 4 * p, (p, miss_sum / 100)
    print("criterion 9: PASS — estimates within 4x in >= 95/100 trials at "
          "p=4,16,64 and registration misses averaged <= 4p")


def test_criterion_10_sweep_determinism(tmp_path):
    """Re-running a sweep with the same config yields a byte-identical
    CSV."""
    cfg = ("[sort]\nn = 256 512\np = 2\nM = 256\nB = 8\nseed = 0 1\n"
           "[hull]\nn = 64\np = 2\nM = 256\nB = 8\nseed = 3\n"
           "[prefix]\nn = 300\np = 4\n")
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    first.write_text(rows_to_csv(run_sweep(cfg)))
    second.write_text(rows_to_csv(run_sweep(cfg)))
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().count("\n") == 7  # header + 6 rows
    print("criterion 10: PASS — sweep re-run produced a byte-identical CSV")
