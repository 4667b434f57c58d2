"""Estimate a hidden core count without ever being told it.

The cores of this machine don't know p. Each one registers in a shared
slot table with one atomic increment, a handful of leftward walks elect
leaders, and a short counting walk extrapolates the core count from the
collision density. The estimate then drives a prefix sum whose chunking
never mentions p.
"""
import random
import statistics

from pemlab.machine import Machine, MachineConfig
from pemlab.primitives import load_seq
from pemlab.procalloc import estimate_processors, oblivious_prefix


def census_table():
    n = 1 << 16
    print(f"== estimating p from one registration round, n={n} ==")
    print(f"{'true p':>7} {'median p-hat':>13} {'within 4x':>10} "
          f"{'saturated':>10}")
    for p in (4, 16, 64):
        estimates = []
        saturated = 0
        for seed in range(30):
            machine = Machine(MachineConfig(p=p, M=1024, B=16, seed=seed))
            est = estimate_processors(machine, n, machine.cores,
                                      stream=seed)
            estimates.append(est.estimated_p)
            saturated += est.saturated
        within = sum(p / 4 <= e <= 4 * p for e in estimates)
        print(f"{p:>7} {statistics.median(estimates):>13.0f} "
              f"{within:>7}/30 {saturated:>7}/30")


def oblivious_prefix_demo():
    print("\n== prefix sum that never reads p ==")
    rng = random.Random(2)
    vals = [rng.randrange(-50, 50) for _ in range(5000)]
    for p in (3, 12, 24):
        machine = Machine(MachineConfig(p=p, M=512, B=8, seed=p))
        out = oblivious_prefix(machine, load_seq(machine, vals),
                               machine.cores, stream=p)
        got = machine.snapshot_memory(out)
        total = got[-1]
        ok = "ok" if total == sum(vals) else "WRONG"
        ledger = machine.ledger()
        print(f"p={p:>2}: total {total} ({ok}), op critical path "
              f"{ledger.op_critical_path}, {ledger.rounds} rounds")


def main():
    census_table()
    oblivious_prefix_demo()


if __name__ == "__main__":
    main()
