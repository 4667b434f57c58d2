"""Run the pemlab benchmark's workloads and print their metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sort_scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 25    # every workload
    python3 perfbench/run.py --pin

With ``--trace 0`` a run measures the end-to-end metrics that
``BENCHMARK.json`` declares; with ``--trace 1`` it installs the wrappers of
``layers.py`` and reports the per-layer metrics instead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every process runs one workload.  It first runs the workload once untimed
at the default seed and compares that run's simulated ledger with the one
pinned in ``fingerprint.json``, then times repeated runs on the inputs of
``--seed``.  Each run gets fresh machines built outside the timed region,
and a ``gc.collect()`` before its timed call.  Every run's output is
checked against an oracle, and every run's ledger must equal the first
timed run's.  A failed check or an exception counts as a failed run.
Host times are scaled to a nominal host speed measured by a reference
loop next to each timed call (see ``_reference_s`` and README.md).

``--pin`` rewrites ``fingerprint.json`` from one run of every workload at
the default seed.  Only a change that is meant to change simulated counts
may do that; a change that only makes the simulator faster must leave the
fingerprint exact.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FINGERPRINT = HERE / "fingerprint.json"
SPAN_DIR = ROOT / ".perfbench"

DEFAULT_SEED = 0
SETUP_PROBES = 5
# The host's speed drifts by up to a third within minutes on a shared
# 2-core VM.  Every host time is scaled by REF_NOMINAL_S / r, where r is the time
# of a fixed pure-Python loop run next to it; REF_NOMINAL_S is that loop's
# time at nominal speed.
REF_ITERATIONS = 500_000
REF_NOMINAL_S = 0.025
# run_s_hi is the highest percentile with ten samples beyond it, which
# needs at least eleven samples.
TAIL_BEYOND = 10
MIN_SAMPLES = TAIL_BEYOND + 1


def _import_library():
    """Import pemlab from this checkout's ``src``, and nowhere else."""
    package = SRC / "pemlab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pemlab sources in {package}")
    sys.path.insert(0, str(SRC))
    import pemlab

    if Path(pemlab.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported pemlab from {pemlab.__file__}")
    import workloads

    return workloads


def _declared():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"perfbench: {path} is missing")
    return json.loads(path.read_text())


def _environment() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reference_s() -> float:
    """Time of a fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    total = 0
    for k in range(REF_ITERATIONS):
        total += k
    return time.perf_counter() - start


def _setup_probe(workload: str, seed: int, spawned_at: float) -> None:
    """Child process: import, generate, build machines, report the time."""
    workloads = _import_library()
    wl = workloads.WORKLOADS[workload]
    wl.prepare(wl.generate(seed))
    setup_s = time.monotonic() - spawned_at
    print(json.dumps({"setup_s": setup_s,
                      "scale": REF_NOMINAL_S / _reference_s()}))


def _setup_times(workload: str, seed: int) -> list:
    """Process start to first timed call, in fresh processes, scaled to
    nominal host speed.

    ``time.monotonic`` reads one system-wide clock, so the child measures
    from the moment before the parent spawned it.
    """
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--setup-probe", repr(time.monotonic())]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        times.append((probe["setup_s"] * probe["scale"], probe["setup_s"]))
    return times


class Sample(NamedTuple):
    """One checked timed call."""

    seconds: float  # scaled to nominal host speed
    raw_seconds: float
    ledger: dict
    tracer: object


class Runner:
    """Runs one workload repeatedly and checks every run."""

    def __init__(self, workloads, name: str, seed: int) -> None:
        self.wl = workloads.WORKLOADS[name]
        self.ledger_totals = workloads.ledger_totals
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.inputs = self.wl.generate(seed)
        self.want = self.wl.oracle(self.inputs)
        self.ledger = None

    def once(self, inputs, want, tracer=None, expect=None):
        """One checked run; returns a :class:`Sample`, or None when the run
        failed."""
        self.attempted += 1
        prepared = self.wl.prepare(inputs)
        gc.collect()
        reference = _reference_s()
        try:
            with tracer or nullcontext():
                start = time.perf_counter()
                result = self.wl.execute(prepared)
                seconds = time.perf_counter() - start
        except Exception:  # a library failure is a failed run, not a crash
            traceback.print_exc()
            self.failed += 1
            return None
        reference = (reference + _reference_s()) / 2
        ledger = self.ledger_totals(self.wl.machines(prepared))
        ledger.update(self.wl.counters(result, want))
        ok = self.wl.check(prepared, result, want)
        if not ok:
            print("perfbench: output differs from the oracle", file=sys.stderr)
        if expect is not None and ledger != expect:
            print(f"perfbench: ledger {ledger} differs from {expect}",
                  file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
            return None
        return Sample(seconds * REF_NOMINAL_S / reference, seconds, ledger,
                      tracer)

    def warm_up(self, pinned, tracer=None) -> None:
        """Untimed run at the default seed, held to the pinned ledger."""
        if self.seed == DEFAULT_SEED:
            inputs, want = self.inputs, self.want
        else:
            inputs = self.wl.generate(DEFAULT_SEED)
            want = self.wl.oracle(inputs)
        self.once(inputs, want, tracer=tracer, expect=pinned)

    def timed(self, tracer=None):
        """One timed run on the seed's inputs; every timed run must
        reproduce the ledger of the first."""
        got = self.once(self.inputs, self.want, tracer=tracer,
                        expect=self.ledger)
        if got is not None and self.ledger is None:
            self.ledger = got.ledger
        return got

    def loop(self, seconds: float, min_samples: int, make_tracer=None):
        """Timed runs until ``seconds`` have passed and ``min_samples``
        runs succeeded (giving up on the latter after ``4 * seconds``)."""
        samples = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and (len(samples) >= min_samples
                                       or elapsed >= 4 * seconds):
                return samples
            got = self.timed(make_tracer() if make_tracer else None)
            if got is not None:
                samples.append(got)


def _tail(times: list) -> tuple:
    """Highest percentile with ``TAIL_BEYOND`` samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n < MIN_SAMPLES:
        return ordered[-1], 100.0
    return ordered[n - MIN_SAMPLES], 100.0 * (n - TAIL_BEYOND) / n


def _end_to_end(runner: Runner, args) -> dict:
    setup = _setup_times(args.workload, args.seed)
    runner.warm_up(_pinned(args.workload))
    samples = runner.loop(args.seconds, MIN_SAMPLES)
    if not samples:
        return {}
    times = [s.seconds for s in samples]
    run_s = statistics.median(times)
    hi, pct = _tail(times)
    print(f"samples: {len(times)} timed runs; run_s_hi is their "
          f"p{pct:.1f}")
    raw_run = statistics.median(s.raw_seconds for s in samples)
    raw_setup = statistics.median(t[1] for t in setup)
    print(f"unscaled: run_s {raw_run:.4f} s, setup_s {raw_setup:.4f} s")
    return {
        "run_s": run_s,
        "run_s_hi": hi,
        "sim_ops_per_s": runner.ledger["ops"] / run_s,
        "setup_s": statistics.median(t[0] for t in setup),
        "peak_rss_mb": _peak_rss_mb(),
    }


def _per_layer(runner: Runner, args) -> dict:
    import layers

    runner.warm_up(_pinned(args.workload), tracer=layers.Tracer())
    plain = runner.loop(args.seconds / 3, 3)
    traced = runner.loop(args.seconds * 2 / 3, 3, make_tracer=layers.Tracer)
    if not plain or not traced:
        return {}
    for missing in traced[0].tracer.missing:
        print(f"perfbench: {missing} not found; its metrics read 0",
              file=sys.stderr)
    per_run = [s.tracer.metrics() for s in traced]
    metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    # Every traced run reproduced this ledger exactly.
    led = runner.ledger
    metrics["machine.hit_ratio"] = 1.0 - led["cache_misses"] / max(
        1, metrics["machine.access.calls"])
    metrics["machine.rounds"] = led["rounds"]
    for key in ("ops", "cache_misses", "block_misses", "critical_path"):
        metrics[f"sim.{key}"] = led[key]
    metrics["sorting.resamples"] = led["resamples"]
    metrics["sorting.rounds"] = led["sort_rounds"]
    metrics["hull.repolls"] = led["repolls"]
    metrics["hull.fallbacks"] = led["fallbacks"]
    metrics["procalloc.estimate_ratio_max"] = led["estimate_ratio_max"]
    plain_s = statistics.median(s.seconds for s in plain)
    traced_s = statistics.median(s.seconds for s in traced)
    metrics["trace.overhead_s"] = traced_s - plain_s
    print(f"tracing: untraced run_s {plain_s:.4f} s over {len(plain)} runs, "
          f"traced {traced_s:.4f} s over {len(traced)} runs")
    last = traced[-1].tracer
    SPAN_DIR.mkdir(exist_ok=True)
    out = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "environment": _environment(), "sites": last.sites,
        "columns": ["name", "parent", "start", "end", "self_s",
                    "ledger_delta[ops,cache_misses,block_misses]"],
        "spans": last.span_records()}))
    print(f"spans of the last traced run: {out.relative_to(ROOT)}")
    return metrics


def _pinned(workload: str) -> dict:
    if not FINGERPRINT.is_file():
        raise SystemExit(f"perfbench: {FINGERPRINT} is missing")
    return json.loads(FINGERPRINT.read_text())[workload]


def _pin(workloads) -> None:
    pins = {}
    for name in workloads.WORKLOADS:
        runner = Runner(workloads, name, DEFAULT_SEED)
        got = runner.timed()
        if got is None:
            raise SystemExit(f"perfbench: {name} failed; nothing pinned")
        pins[name] = got.ledger
    FINGERPRINT.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} workloads in {FINGERPRINT.relative_to(ROOT)}")


def _run_all(names, args) -> int:
    """Every workload in a fresh process of its own; the worst exit code."""
    worst = 0
    for name in names:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        help="one workload; every workload when omitted")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite fingerprint.json at the default seed")
    parser.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    declared = _declared()
    if args.setup_probe is not None:
        _setup_probe(args.workload, args.seed, args.setup_probe)
        return 0
    workloads = _import_library()
    if args.pin:
        _pin(workloads)
        return 0
    names = [w["name"] for w in declared["workloads"]]
    if args.workload is None:
        return _run_all(names, args)
    if args.workload not in names or args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {names}")

    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    runner = Runner(workloads, args.workload, args.seed)
    measure = _per_layer if args.trace else _end_to_end
    values = measure(runner, args)
    if values and set(values) != set(units):
        raise SystemExit("perfbench: reported metrics differ from "
                         f"BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    env = _environment()
    print(f"environment: nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']}; workload={args.workload} seed={args.seed}")
    for name in units:
        if name in values:
            print(f"{name} = {values[name]:.6g} {units[name]}")
    correct = runner.failed == 0 and bool(values)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
