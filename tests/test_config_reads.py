"""Which algorithm code reads the machine's cache shape.

The paper's algorithms are cache-oblivious: they should not know ``M`` or
``B``.  After construction the machine itself reads only ``config.p`` and
``config.seed``, so every read of ``M`` or ``B`` through ``machine.config``
is algorithm code knowing the cache.  This test runs every public algorithm
with a ``config`` that records each such read by the module and function
that made it, and compares the set with an allowlist of today's reads.  A
new read fails it; so does a dropped one, which should leave the list too.
"""
import random
import sys

from pemlab.bench import _hull_instance
from pemlab.hull import convex_hull_2d, hull_main, maxima_par
from pemlab.machine import Machine, MachineConfig
from pemlab.partition import PartitionTask, partition_main
from pemlab.primitives import compact, load_seq, prefix_sum, transpose
from pemlab.procalloc import estimate_processors, oblivious_prefix
from pemlab.sorting import sample_sort

# (module, function, field) -> why that code reads the field.
ALLOWED = {
    ("primitives", "prefix_sum", "B"): "cuts the cores' chunks at multiples of B",
    ("primitives", "spaced_slots", "B"): "pads each per-core slot to a block of its own",
    ("primitives", "_slot", "B"): "addresses the block-padded slots of spaced_slots",
    ("merge", "merge_bucketed", "B"): "splits the size matrix at block boundaries",
    ("sorting", "sample_sort", "M"): "caps the leaf at M*M keys and flags n < M*p",
}


class _RecordingConfig:
    """Passes ``p`` and ``seed`` through; records who reads ``M`` or ``B``."""

    def __init__(self, config: MachineConfig, reads: set) -> None:
        self._config = config
        self._reads = reads

    def __getattr__(self, field: str):
        if field in ("M", "B"):
            caller = sys._getframe(1)
            module = caller.f_globals["__name__"].rpartition(".")[2]
            self._reads.add((module, caller.f_code.co_name, field))
        return getattr(self._config, field)


def _machine(reads: set) -> Machine:
    machine = Machine(MachineConfig(p=4, M=64, B=8, seed=1))
    machine.config = _RecordingConfig(machine.config, reads)
    return machine


def _run_every_algorithm(reads: set) -> None:
    rng = random.Random(5)
    keys = [rng.randrange(10_000) for _ in range(600)]
    points = [(rng.randrange(-300, 300), rng.randrange(-300, 300)) for _ in range(200)]

    m = _machine(reads)
    assert m.snapshot_memory(sample_sort(m, load_seq(m, keys), m.cores)) == sorted(keys)
    m = _machine(reads)
    hull_main(m, load_seq(m, _hull_instance(120, 5)), m.cores)
    m = _machine(reads)
    convex_hull_2d(m, load_seq(m, points), m.cores)
    m = _machine(reads)
    maxima_par(m, load_seq(m, points), m.cores)
    m = _machine(reads)
    prefix_sum(m, load_seq(m, keys), m.cores)
    m = _machine(reads)
    compact(m, [load_seq(m, keys[:100]), load_seq(m, keys[100:130])], m.cores)
    m = _machine(reads)
    transpose(m, load_seq(m, range(12 * 20)), 12, 20, m.cores)
    m = _machine(reads)
    task = PartitionTask(load_seq(m, keys), sorted(rng.sample(keys, 4)), N=len(keys), P=4)
    partition_main(m, task, m.cores)
    m = _machine(reads)
    estimate_processors(m, 4096, m.cores)
    m = _machine(reads)
    oblivious_prefix(m, load_seq(m, keys), m.cores)


def test_only_the_allowlisted_code_reads_m_or_b():
    reads = set()
    _run_every_algorithm(reads)
    assert reads == ALLOWED.keys()
