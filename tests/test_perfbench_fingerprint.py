"""Every benchmark workload, run once at the default seed, must reproduce
the simulated counts pinned in ``perfbench/fingerprint.json``.  A change
meant only to make the simulator faster must leave them exact, so a moved
counter fails the suite here and not only in the benchmark."""
import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PINNED = json.loads((PERFBENCH / "fingerprint.json").read_text())


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_matches_its_fingerprint(name):
    wl = WORKLOADS.WORKLOADS[name]
    inputs = wl.generate(0)
    want = wl.oracle(inputs)
    prepared = wl.prepare(inputs)
    result = wl.execute(prepared)
    assert wl.check(prepared, result, want)
    counts = WORKLOADS.ledger_totals(wl.machines(prepared))
    counts.update(wl.counters(result, want))
    assert counts == PINNED[name]
