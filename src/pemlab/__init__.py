"""Simulated private-cache multicore machine and cache-oblivious parallel algorithms."""

from pemlab.geometry import GeometryError, HullChain, Point2
from pemlab.hull import HullStats, convex_hull_2d, hull_main, maxima_par
from pemlab.machine import (
    CacheState,
    CostLedger,
    Machine,
    MachineConfig,
    MachineFault,
    MemRegion,
)
from pemlab.merge import BucketedRun, merge_bucketed
from pemlab.partition import PartitionTask, partition_main, partition_seq
from pemlab.primitives import KeySeq, compact, prefix_sum
from pemlab.procalloc import IdAssignment, estimate_processors, oblivious_prefix
from pemlab.sorting import SortPlan, SortStats, sample_sort

__version__ = "0.1.0"

__all__ = [
    "BucketedRun",
    "CacheState",
    "CostLedger",
    "GeometryError",
    "HullChain",
    "HullStats",
    "IdAssignment",
    "KeySeq",
    "Machine",
    "MachineConfig",
    "MachineFault",
    "MemRegion",
    "PartitionTask",
    "Point2",
    "SortPlan",
    "SortStats",
    "compact",
    "convex_hull_2d",
    "estimate_processors",
    "hull_main",
    "maxima_par",
    "merge_bucketed",
    "oblivious_prefix",
    "partition_main",
    "partition_seq",
    "prefix_sum",
    "sample_sort",
    "__version__",
]
