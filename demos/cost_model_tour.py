"""Tour of the simulated multicore cost model.

Walks through the four accounting rules that everything else in the
package is measured against: cold-scan cache misses, same-round write
contention, end-of-round invalidation, and the atomic counter. Run it
directly; it prints each experiment with the ledger readings.
"""
from pemlab.machine import Machine, MachineConfig


def banner(title):
    print(f"\n== {title} ==")


def cold_scan():
    banner("cold scan: one miss per block")
    machine = Machine(MachineConfig(p=1, M=4096, B=64, seed=0))
    region = machine.alloc(10_000)

    def scan(core):  # a plain function is a one-round program
        for i in range(10_000):
            core.read(region, i)

    machine.run_rounds({0: scan})
    ledger = machine.ledger()
    print(f"read 10000 words with B=64 -> {ledger.cache_misses} cache "
          f"misses (= ceil(10000/64) = {-(-10_000 // 64)})")


def write_contention():
    banner("same-round writers on one block pay a serialization toll")
    machine = Machine(MachineConfig(p=4, M=256, B=64, seed=0))
    region = machine.alloc(64)

    def writer(core):
        core.write(region, core.idx, core.idx)

    machine.run_rounds({i: writer for i in range(4)})
    print(f"4 cores wrote 4 words of one block in one round -> "
          f"{machine.ledger().block_misses} block misses (0+1+2+3)")


def invalidation():
    banner("a written block survives only in the last writer's cache")
    machine = Machine(MachineConfig(p=2, M=256, B=8, seed=0))
    region = machine.alloc(8)

    def writer(core):  # two rounds: a generator, yield is the barrier
        core.write(region, 0, 7)
        yield
        core.read(region, 0)  # still resident: this core wrote last

    def reader(core):
        core.read(region, 0)  # same-round read of a written block
        yield
        core.read(region, 0)  # re-read: the copy was invalidated

    machine.run_rounds({0: writer, 1: reader})
    ledger = machine.ledger()
    print(f"writer: {ledger.per_core_cache_misses[0]} cache miss "
          f"(the cold write), then a free re-read")
    print(f"reader: {ledger.per_core_cache_misses[1]} cache misses "
          f"(cold, then again after invalidation) and "
          f"{ledger.per_core_block_misses[1]} block miss for reading a "
          f"block another core wrote that same round")


def atomic_counter():
    banner("fetch_add: the one sanctioned read-modify-write")
    machine = Machine(MachineConfig(p=4, M=256, B=8, seed=0))
    region = machine.alloc(1)
    ranks = {}

    def claim(core):
        ranks[core.idx] = core.fetch_add(region, 0, 1)

    machine.run_rounds({i: claim for i in range(4)})
    total = machine.snapshot_memory(region)[0]
    print(f"4 cores incremented one counter in one round; prior values "
          f"{[ranks[i] for i in range(4)]}, final {total}")


def main():
    cold_scan()
    write_contention()
    invalidation()
    atomic_counter()
    print()


if __name__ == "__main__":
    main()
