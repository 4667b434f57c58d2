"""Walk through the half-plane intersection pipeline on one instance.

Builds a bounded arrangement of random half-planes, runs the parallel
intersection, and narrates what the polling stage did: how many planes
each accepted round sampled, how evenly the sectors split the rest, and
the final hull. Ends with the point-set front end (convex hull and
maxima of a point cloud).
"""
import random

from pemlab.bench import instance
from pemlab.hull import HullStats, convex_hull_2d, hull_main, maxima_par
from pemlab.machine import Machine, MachineConfig
from pemlab.primitives import load_seq


def intersection_demo():
    n = 1 << 11
    planes = instance("hull", n, 3)
    machine = Machine(MachineConfig(p=4, M=4096, B=64, seed=3))
    stats = HullStats()
    chain, _ = hull_main(machine, load_seq(machine, planes), machine.cores,
                         stats=stats, stream=3)

    print(f"== intersecting {n} half-planes on 4 cores ==")
    print(f"polls: {stats.polls}, accepted: {stats.accepted}, "
          f"repolls: {stats.repolls}, fallbacks: {stats.fallbacks}")
    for rec in stats.rounds:
        print(f"  round over m={rec['m']:>5}: {rec['sectors']} sectors, "
              f"largest group {rec['largest_group']} "
              f"(bound {rec['group_bound']:.0f}), "
              f"{rec['copies']} plane copies routed")
    ledger = machine.ledger()
    print(f"cost: {ledger.ops} ops, {ledger.cache_misses} cache misses, "
          f"{ledger.block_misses} block misses, {ledger.rounds} rounds")
    print(f"hull has {len(chain.vertices)} vertices; first three: "
          + ", ".join(f"({v.x}, {v.y})" for v in chain.vertices[:3]))


def point_front_end():
    rng = random.Random(11)
    pts = [(rng.randrange(-5000, 5000), rng.randrange(-5000, 5000))
           for _ in range(600)]
    machine = Machine(MachineConfig(p=4, M=1024, B=16, seed=11))
    chain, _ = convex_hull_2d(machine, load_seq(machine, pts),
                              machine.cores, stream=11)
    print(f"\n== point-set front end, 600 random points ==")
    print(f"convex hull: {len(chain.vertices)} vertices, starts at "
          f"({chain.vertices[0].x}, {chain.vertices[0].y})")

    machine = Machine(MachineConfig(p=4, M=1024, B=16, seed=12))
    out = maxima_par(machine, load_seq(machine, pts), machine.cores,
                     stream=12)
    front = machine.snapshot_memory(out)
    print(f"maxima (undominated points): {out.n} of 600, rightmost "
          f"({front[-1][0]}, {front[-1][1]})")


def main():
    intersection_demo()
    point_front_end()


if __name__ == "__main__":
    main()
