"""Measure how the randomized sample sort scales.

Two small experiments on simulated machines:

* miss scaling — cache misses per (n/B) * log_M n unit should stay in a
  narrow band as n grows, i.e. the sort is cache-oblivious in practice;
* core scaling — the op critical path should nearly halve every time the
  core count doubles.
"""
from pemlab.bench import instance, run_scenario
from pemlab.machine import Machine, MachineConfig
from pemlab.primitives import load_seq
from pemlab.sorting import sample_sort


def miss_scaling():
    print("== cache misses vs. (n/B) * log_M n, p=4, M=4096, B=64 ==")
    print(f"{'n':>8} {'misses':>10} {'bound':>12} {'ratio':>7}")
    for e in range(12, 17):
        row = run_scenario("sort", 1 << e, 4, 4096, 64, e)
        print(f"{row.n:>8} {row.cache_misses:>10} {row.bound:>12.1f} "
              f"{row.ratio:>7.2f}")


def core_scaling():
    n = 1 << 15
    print(f"\n== op critical path vs. cores, n={n}, M=64, B=8 ==")
    print(f"{'p':>3} {'crit path':>10} {'speedup':>8}")
    vals = instance("sort", n, 7)
    prev = None
    for p in (1, 2, 4, 8, 16):
        machine = Machine(MachineConfig(p=p, M=64, B=8, seed=p))
        sample_sort(machine, load_seq(machine, vals), machine.cores,
                    stream=0)
        crit = machine.ledger().op_critical_path
        speedup = "" if prev is None else f"{prev / crit:>7.2f}x"
        print(f"{p:>3} {crit:>10} {speedup:>8}")
        prev = crit


def main():
    miss_scaling()
    core_scaling()


if __name__ == "__main__":
    main()
