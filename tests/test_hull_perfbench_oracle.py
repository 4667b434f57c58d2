"""The benchmark's hull inputs checked against the box-clipping oracle.

The ``hull_planes`` benchmark checks ``hull_main`` against
``geometry.intersect_halfplanes_ordered``, which shares the library's
predicates, so it cannot catch a fault in them.  Here both are compared
with ``oracles.hull_vertices_by_clipping``, which imports no library
geometry, on the benchmark's own generators (loaded by path, so the
inputs are exactly the benchmark's) at the benchmark's sizes and machine
shape.
"""
import importlib.util
from pathlib import Path

import pytest

from oracles import hull_vertices_by_clipping
from pemlab.geometry import intersect_halfplanes_ordered
from pemlab.hull import hull_main
from pemlab.machine import Machine, MachineConfig
from pemlab.primitives import KeySeq

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
HULL = WORKLOADS.WORKLOADS["hull_planes"]


@pytest.mark.parametrize("seed", [11, 12, 13])
@pytest.mark.parametrize("kind", ["random", "circle"])
def test_hull_matches_clipping_oracle(kind, seed):
    if kind == "random":
        planes = WORKLOADS.random_planes(HULL.random_m, seed)
    else:
        planes = WORKLOADS.circle_planes(HULL.circle_m, seed)
    want = hull_vertices_by_clipping(planes)
    assert len(want) >= 3

    ordered = intersect_halfplanes_ordered(planes)
    assert {(v.x, v.y) for v in ordered} == want

    machine = Machine(MachineConfig(p=HULL.p, M=HULL.M, B=HULL.B, seed=seed))
    region = machine.alloc(len(planes))
    machine.load(region, planes)
    chain, written = hull_main(machine, KeySeq(region, len(planes)),
                               machine.cores, stream=seed)
    assert {(v.x, v.y) for v in chain.vertices} == want
    assert chain.vertices == ordered
    assert machine.snapshot_memory(written.region) == list(chain.vertices)
    if kind == "circle":
        assert len(want) == len(planes)      # every tangent is an edge
