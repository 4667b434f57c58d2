"""The four benchmark workloads: seeded inputs, the timed call, oracles.

Every workload follows the same protocol, so ``run.py`` treats them
alike:

* ``generate(seed)`` builds the inputs from the seed alone;
* ``oracle(inputs)`` computes the expected output without the simulator;
* ``prepare(inputs)`` builds and loads fresh machines (set-up, untimed);
* ``execute(prepared)`` is the timed region: it calls the library's
  public API and returns its raw results;
* ``check(prepared, result, want)`` compares those results with the
  oracle outside the timed region.

The library is always reached through ``pemlab.<name>`` at call time, so
the wrappers that ``layers.py`` installs for a traced run are the ones
called.  The generators live here rather than in ``pemlab.bench`` so that
a refactor of the library cannot change the benchmark's inputs; the two
random recipes are the same as ``pemlab.bench._sort_instance`` and
``pemlab.bench._hull_instance``.
"""
from __future__ import annotations

import math
import random

import pemlab
from pemlab import KeySeq, Machine, MachineConfig
from pemlab import geometry


def _load(machine: Machine, words: list) -> KeySeq:
    region = machine.alloc(len(words))
    machine.load(region, words)
    return KeySeq(region, len(words))


def sort_keys(n: int, seed: int) -> list:
    rng = random.Random(seed)
    return [rng.randrange(4 * n) for _ in range(n)]


def random_planes(m: int, seed: int) -> list:
    """Random bounded half-planes ``(a, b, c)`` with the origin interior.

    Few of them reach the hull (a handful of vertices), so polling and
    sector routing dominate the cost.
    """
    rng = random.Random(seed)
    planes = []
    for _ in range(m - 4):
        a = rng.randrange(-2000, 2001)
        b = rng.randrange(-2000, 2001)
        if a == 0 and b == 0:
            a = 1
        planes.append((a, b, rng.randrange(1, 4 * m)))
    for a, b in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        planes.append((a, b, rng.randrange(m, 2 * m)))
    return planes


def circle_planes(m: int, seed: int, span: int = 1000) -> list:
    """``m`` distinct half-planes exactly tangent to the unit circle.

    Each normal is a primitive Pythagorean triple ``(u*u - v*v, 2*u*v,
    u*u + v*v)`` turned by a random multiple of 90 degrees, so
    ``a*x + b*y <= c`` touches the unit circle and every plane is a hull
    edge.  The four axis planes keep the intersection bounded.
    """
    rng = random.Random(seed)
    planes = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    seen = set(planes)
    while len(planes) < m:
        u, v = rng.randrange(1, span), rng.randrange(1, span)
        a, b, c = u * u - v * v, 2 * u * v, u * u + v * v
        g = math.gcd(a, b, c)
        a, b, c = a // g, b // g, c // g
        for _ in range(rng.randrange(4)):
            a, b = -b, a
        if (a, b, c) not in seen:
            seen.add((a, b, c))
            planes.append((a, b, c))
    rng.shuffle(planes)
    return planes


def _counters(resamples=0, sort_rounds=0, repolls=0, fallbacks=0,
              estimate_ratio_max=0.0) -> dict:
    """Algorithm-level counters of one workload run, pinned with the
    ledger; each workload fills the ones its algorithm has."""
    return {"resamples": resamples, "sort_rounds": sort_rounds,
            "repolls": repolls, "fallbacks": fallbacks,
            "estimate_ratio_max": estimate_ratio_max}


class SortWorkload:
    """``sample_sort`` of ``n`` random keys on one ``(p, M, B)`` machine."""

    def __init__(self, n: int, p: int, M: int, B: int) -> None:
        self.n, self.p, self.M, self.B = n, p, M, B

    def generate(self, seed: int):
        return seed, sort_keys(self.n, seed)

    def oracle(self, inputs):
        return sorted(inputs[1])

    def prepare(self, inputs):
        seed, keys = inputs
        machine = Machine(MachineConfig(p=self.p, M=self.M, B=self.B,
                                        seed=seed))
        return seed, machine, _load(machine, keys)

    def machines(self, prepared) -> list:
        return [prepared[1]]

    def execute(self, prepared):
        seed, machine, seq = prepared
        stats = pemlab.SortStats()
        out = pemlab.sample_sort(machine, seq, machine.cores, stats=stats,
                                 stream=seed)
        return out, stats

    def check(self, prepared, result, want) -> bool:
        out, _ = result
        got = prepared[1].snapshot_memory(out.region)[:out.n]
        return out.n == len(want) and got == want

    def counters(self, result, want) -> dict:
        stats = result[1]
        return _counters(resamples=stats.resamples, sort_rounds=stats.rounds)


class HullWorkload:
    """``hull_main`` on random instances and on circle instances.

    The cost of one instance depends on how many vertices its random
    sample polygon gets, which decides whether sectors recurse once more;
    a run sums several instances so that the work per run varies less
    from seed to seed.
    """

    def __init__(self, random_m: int, circle_m: int, copies: int, p: int,
                 M: int, B: int) -> None:
        self.random_m, self.circle_m, self.copies = random_m, circle_m, copies
        self.p, self.M, self.B = p, M, B

    def generate(self, seed: int):
        rng = random.Random(seed)
        instances = []
        for _ in range(self.copies):
            instances.append(random_planes(self.random_m,
                                           rng.randrange(2**31)))
            instances.append(circle_planes(self.circle_m,
                                           rng.randrange(2**31)))
        return seed, instances

    def oracle(self, inputs):
        return [geometry.canonical_chain(
            geometry.intersect_halfplanes_ordered(planes))
            for planes in inputs[1]]

    def prepare(self, inputs):
        seed, instances = inputs
        jobs = []
        for planes in instances:
            machine = Machine(MachineConfig(p=self.p, M=self.M, B=self.B,
                                            seed=seed))
            jobs.append((machine, _load(machine, planes)))
        return seed, jobs

    def machines(self, prepared) -> list:
        return [machine for machine, _ in prepared[1]]

    def execute(self, prepared):
        seed, jobs = prepared
        results = []
        for machine, seq in jobs:
            stats = pemlab.HullStats()
            chain, written = pemlab.hull_main(machine, seq, machine.cores,
                                              stats=stats, stream=seed)
            results.append((chain, written, stats))
        return results

    def check(self, prepared, result, want) -> bool:
        for (machine, _), (chain, written, _), verts in zip(
                prepared[1], result, want):
            if chain.vertices != verts:
                return False
            if machine.snapshot_memory(written.region) != list(verts):
                return False
        return len(result) == len(want)

    def counters(self, result, want) -> dict:
        return _counters(repolls=sum(s.repolls for _, _, s in result),
                         fallbacks=sum(s.fallbacks for _, _, s in result))


class CensusWorkload:
    """``estimate_processors`` trials at two core counts.

    Each trial takes its machine seed and stream from the workload seed.
    """

    def __init__(self, n: int, M: int, B: int, ps: tuple,
                 trials_per_p: int) -> None:
        self.n, self.M, self.B = n, M, B
        self.ps, self.trials_per_p = ps, trials_per_p

    def generate(self, seed: int):
        rng = random.Random(seed)
        return [(p, rng.randrange(2**31))
                for p in self.ps for _ in range(self.trials_per_p)]

    def oracle(self, inputs):
        return [p for p, _ in inputs]

    def prepare(self, inputs):
        return [(Machine(MachineConfig(p=p, M=self.M, B=self.B, seed=s)), s)
                for p, s in inputs]

    def machines(self, prepared) -> list:
        return [machine for machine, _ in prepared]

    def execute(self, prepared):
        return [pemlab.estimate_processors(machine, self.n, machine.cores,
                                           stream=s)
                for machine, s in prepared]

    def check(self, prepared, result, want) -> bool:
        return len(result) == len(want) and all(
            est.total == p and sorted(est.dense_ids) == list(range(p))
            for est, p in zip(result, want))

    def counters(self, result, want) -> dict:
        # Worst factor between an estimate and the true core count.
        return _counters(estimate_ratio_max=max(
            max(est.estimated_p / p, p / est.estimated_p)
            for est, p in zip(result, want)))


# Sizes keep one timed call under a second on a 2-core host, so a
# 25-second run collects the 20 to 100 samples that a tail percentile
# with ten samples beyond it needs; the machine shapes are those of the
# acceptance criteria named beside each workload.
WORKLOADS = {
    # Criteria 5 and 7 shape: the cache hit path and the partition and
    # merge loops do most of the work; no geometry.
    "sort_scan": SortWorkload(n=2**15, p=4, M=4096, B=64),
    # Criterion 6 shape: 8-word blocks and 8-block caches put the work on
    # LRU eviction, holder bookkeeping and a 16-writer settle.
    "sort_thrash": SortWorkload(n=2**14, p=16, M=64, B=8),
    # Exact rational geometry: polling and sector routing on the random
    # instance, base cases and stitching on the all-vertex circle.
    "hull_planes": HullWorkload(random_m=2**10, circle_m=2**8, copies=2,
                                p=4, M=4096, B=64),
    # Criterion 9 shape: thousands of rounds with two accesses each, so
    # per-round overhead and fetch_add contention dominate.
    "census": CensusWorkload(n=2**16, M=1024, B=16, ps=(8, 32),
                             trials_per_p=5),
}


def ledger_totals(machines) -> dict:
    """Simulated counters summed over the machines of one workload run."""
    totals = {"ops": 0, "cache_misses": 0, "block_misses": 0, "rounds": 0,
              "critical_path": 0, "op_critical_path": 0, "diagnostics": 0}
    for machine in machines:
        led = machine.ledger()
        totals["ops"] += led.ops
        totals["cache_misses"] += led.cache_misses
        totals["block_misses"] += led.block_misses
        totals["rounds"] += led.rounds
        totals["critical_path"] += led.critical_path
        totals["op_critical_path"] += led.op_critical_path
        totals["diagnostics"] += len(machine.diagnostics)
    return totals
