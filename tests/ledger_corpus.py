"""Ledger corpus: one committed digest of everything a run leaves behind.

Each case runs one algorithm on a fresh traced machine and hashes, in this
order: the ledger, each core's resident blocks (LRU -> MRU), the
diagnostics, the trace rows, the whole memory image and the algorithm's
output.  Only ordered data goes into a digest (tuples, lists and frozen
dataclasses of them), so a digest does not depend on ``PYTHONHASHSEED``.

The digests are test data under the equivalence gate: a change meant only to
make the simulator faster or simpler must leave every one of them exact.  A
change that moves counts on purpose re-records them and names the moved
cases and the reason.

    PYTHONPATH=src python tests/ledger_corpus.py            # check every case
    PYTHONPATH=src python tests/ledger_corpus.py --record   # re-record them

``tests/test_ledger_corpus.py`` checks the same cases in the test suite.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from pemlab.bench import _hull_instance, _prefix_instance, _sort_instance
from pemlab.hull import convex_hull_2d, hull_main, maxima_par
from pemlab.machine import Machine, MachineConfig, MemRegion
from pemlab.merge import BucketedRun, merge_bucketed
from pemlab.primitives import load_seq, prefix_sum, transpose
from pemlab.procalloc import estimate_processors, oblivious_prefix
from pemlab.sorting import sample_sort

DIGESTS = Path(__file__).with_name("ledger_corpus.json")
SHAPES = ((64, 8), (16, 4), (1024, 16))
SEEDS = (0, 1)


def _estimate(machine, n, seed):
    return estimate_processors(machine, n, machine.cores, stream=seed)


def _oblivious_prefix(machine, n, seed):
    seq = load_seq(machine, _prefix_instance(n, seed))
    return oblivious_prefix(machine, seq, machine.cores, stream=seed)


def _sort(machine, n, seed):
    return sample_sort(machine, load_seq(machine, _sort_instance(n, seed)), machine.cores,
                       stream=seed)


def _hull(machine, n, seed):
    return hull_main(machine, load_seq(machine, _hull_instance(n, seed)), machine.cores,
                     stream=seed)


def _prefix(machine, n, seed):
    return prefix_sum(machine, load_seq(machine, _prefix_instance(n, seed)), machine.cores)


# Matrix shape per size: 3 rows is fewer than any B of ``SHAPES`` (the
# column-band rule), 32 x 64 is not.
_MATRICES = {120: (3, 40), 2048: (32, 64)}


def _transpose(machine, n, seed):
    rows, cols = _MATRICES[n]
    return transpose(machine, load_seq(machine, _prefix_instance(n, seed)), rows, cols,
                     machine.cores)


def _merge(machine, n, seed):
    # Four consecutive runs of the words, each cut into five buckets at
    # seeded points (empty buckets included).
    words, rng = _sort_instance(n, seed), random.Random(seed)
    runs, ends = [], [0, *sorted(rng.randrange(n + 1) for _ in range(3)), n]
    for lo, hi in zip(ends, ends[1:]):
        cuts = [lo, *sorted(rng.randrange(lo, hi + 1) for _ in range(4)), hi]
        runs.append(BucketedRun(load_seq(machine, words[lo:hi]),
                                tuple(b - a for a, b in zip(cuts, cuts[1:]))))
    return merge_bucketed(machine, runs, machine.cores)


def _points(n, seed):
    rng = random.Random(seed)
    return [(rng.randrange(-1000, 1001), rng.randrange(-1000, 1001)) for _ in range(n)]


def _convex_hull(machine, n, seed):
    return convex_hull_2d(machine, load_seq(machine, _points(n, seed)), machine.cores,
                          stream=seed)


def _maxima(machine, n, seed):
    return maxima_par(machine, load_seq(machine, _points(n, seed)), machine.cores, stream=seed)


# (algorithm, run, core counts, sizes).  The census counts to
# ``bit_length(n) - 1`` registrants: at n = 256 that is 7, so p = 8 and 32
# stop early while p = 1 and 3 saturate; at n = 4096 it is 11, so only
# p = 32 stops early.
GRID = (
    ("estimate_processors", _estimate, (1, 3, 8, 32), (256, 4096)),
    ("oblivious_prefix", _oblivious_prefix, (3, 8), (300, 3000)),
    ("sample_sort", _sort, (1, 3, 8), (200, 2000)),
    ("hull_main", _hull, (1, 3, 8), (40, 300)),
    ("prefix_sum", _prefix, (1, 3, 8), (100, 1000)),
    ("transpose", _transpose, (1, 3, 8), tuple(_MATRICES)),
    ("merge_bucketed", _merge, (1, 3, 8), (60, 600)),
    ("convex_hull_2d", _convex_hull, (1, 3, 8), (40, 300)),
    ("maxima_par", _maxima, (1, 3, 8), (60, 600)),
)

CASES = {
    f"{name} p={p} n={n} M={M} B={B} seed={seed}": (run, p, n, M, B, seed)
    for name, run, cores, sizes in GRID
    for p in cores for n in sizes for M, B in SHAPES for seed in SEEDS
}


def digest(case: str) -> str:
    """The digest of one case's run."""
    run, p, n, M, B, seed = CASES[case]
    machine = Machine(MachineConfig(p=p, M=M, B=B, seed=seed), trace=True)
    output = run(machine, n, seed)
    state = (machine.ledger(), machine.cache_state().resident, machine.diagnostics,
             machine._sh._trace, machine.snapshot_memory(MemRegion(0, machine._sh._limit)),
             output)
    return hashlib.sha256(repr(state).encode()).hexdigest()


def recorded() -> dict:
    return json.loads(DIGESTS.read_text())


def main(argv) -> int:
    got = {case: digest(case) for case in CASES}
    if argv[1:] == ["--record"]:
        DIGESTS.write_text(json.dumps(got, indent=1) + "\n")
        print(f"recorded {len(got)} digests in {DIGESTS}")
        return 0
    if argv[1:]:
        print(f"usage: {argv[0]} [--record]", file=sys.stderr)
        return 2
    want = recorded()
    moved = sorted(case for case in got.keys() | want.keys() if got.get(case) != want.get(case))
    for case in moved:
        print(f"moved: {case}")
    print(f"{len(got) - len(moved)} of {len(got)} cases match")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
