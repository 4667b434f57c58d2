"""``pemlab`` command line: sweeps, band checks, and one-shot runs.

``pemlab sweep --config FILE --out CSV`` runs a parameter sweep;
``pemlab check --csv FILE --band F`` evaluates ratio bands and exits 0
only when every series passes; ``pemlab sort|hull|prefix`` run a single
scenario, print a digest of the result plus its ledger CSV row, and can
read inputs from key/plane files instead of generating them.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from pemlab import fileio
from pemlab.bench import (
    CSV_HEADER,
    ScenarioRow,
    _below_floor,
    _hull_instance,
    _load,
    _measured,
    _miss_bound,
    _prefix_instance,
    _sort_instance,
    check_bands,
    parse_csv,
    rows_to_csv,
    run_sweep,
)
from pemlab.geometry import GeometryError
from pemlab.hull import HullStats, hull_main
from pemlab.machine import Machine, MachineConfig, MachineFault
from pemlab.primitives import prefix_sum
from pemlab.sorting import SortPlan, SortStats, sample_sort

__all__ = ["main"]


def _digest(values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(repr(v).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _machine_args(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=int, default=1)
    sub.add_argument("--M", type=int, default=1024)
    sub.add_argument("--B", type=int, default=8)
    sub.add_argument("--seed", type=int, default=0)


def _generated(algo, args, instance):
    """The sweep's seeded instance of size ``--n``; refuses sizes the sweep
    would skip."""
    reason = _below_floor(algo, args.n)
    if reason is not None:
        raise MachineFault(reason)
    return instance(args.n, args.seed)


def _emit_row(args, algo, machine, retries):
    bound, _ = _miss_bound(algo, args.n, args.M, args.B)
    row = ScenarioRow(algo=algo, n=args.n, p=args.p, M=args.M, B=args.B,
                      seed=args.seed)
    print(CSV_HEADER)
    print(_measured(row, machine, retries, bound).to_csv())


def _cmd_sweep(args) -> int:
    text = Path(args.config).read_text()
    rows = run_sweep(text)
    Path(args.out).write_text(rows_to_csv(rows))
    skipped = sum(1 for r in rows if r.status != "ok")
    print(f"wrote {len(rows)} row(s) to {args.out} ({skipped} skipped)")
    return 0


def _cmd_check(args) -> int:
    rows = parse_csv(Path(args.csv).read_text())
    report = check_bands(rows, band=args.band, metric=args.metric)
    print(report.format())
    return 0 if report.passed else 1


def _read_keys_or_generate(algo, args, instance):
    if args.keys:
        return fileio.read_keys(args.keys, binary=args.binary)
    return _generated(algo, args, instance)


def _cmd_sort(args) -> int:
    vals = _read_keys_or_generate("sort", args, _sort_instance)
    args.n = len(vals)
    machine = Machine(MachineConfig(p=args.p, M=args.M, B=args.B,
                                    seed=args.seed))
    stats = SortStats()
    plan = SortPlan(x=args.x, retry_cap=args.retry_cap)
    out = sample_sort(machine, _load(machine, vals), machine.cores,
                      plan=plan, stats=stats, stream=args.seed)
    result = machine.snapshot_memory(out.region)[: out.n]
    print(f"sorted {len(result)} keys, digest {_digest(result)}")
    _emit_row(args, "sort", machine, stats.resamples)
    return 0


def _cmd_hull(args) -> int:
    if args.planes:
        planes = fileio.read_planes(args.planes)
        args.n = len(planes)
    else:
        planes = _generated("hull", args, _hull_instance)
    machine = Machine(MachineConfig(p=args.p, M=args.M, B=args.B,
                                    seed=args.seed))
    stats = HullStats()
    chain, _ = hull_main(machine, _load(machine, planes), machine.cores,
                         stats=stats, stream=args.seed)
    if args.out:
        fileio.write_hull(args.out, chain)
        print(f"hull: {len(chain.vertices)} vertices -> {args.out}, "
              f"digest {_digest(chain.vertices)}")
    else:
        for v in chain.vertices:
            print(f"{v.x} {v.y}")
        print(f"hull: {len(chain.vertices)} vertices, "
              f"digest {_digest(chain.vertices)}")
    _emit_row(args, "hull", machine, stats.repolls)
    return 0


def _cmd_prefix(args) -> int:
    vals = _read_keys_or_generate("prefix", args, _prefix_instance)
    args.n = len(vals)
    machine = Machine(MachineConfig(p=args.p, M=args.M, B=args.B,
                                    seed=args.seed))
    out = prefix_sum(machine, _load(machine, vals), machine.cores)
    result = machine.snapshot_memory(out.region)[: out.n]
    tail = result[-1] if result else 0
    print(f"prefix over {len(result)} keys, total {tail}, "
          f"digest {_digest(result)}")
    _emit_row(args, "prefix", machine, 0)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pemlab",
        description="simulated private-cache multicore lab: sweeps, band "
                    "checks, and one-shot algorithm runs")
    subs = parser.add_subparsers(dest="command", required=True)

    sweep = subs.add_parser("sweep", help="run a config sweep to CSV")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=_cmd_sweep)

    check = subs.add_parser("check", help="evaluate ratio bands on a CSV")
    check.add_argument("--csv", required=True)
    check.add_argument("--band", type=float, default=None)
    check.add_argument("--metric", choices=("miss", "crit"), default="miss")
    check.set_defaults(func=_cmd_check)

    sort = subs.add_parser("sort", help="sort one instance")
    _machine_args(sort)
    sort.add_argument("--x", type=int, default=32)
    sort.add_argument("--retry-cap", type=int, default=20)
    sort.add_argument("--keys", help="key file instead of generated input")
    sort.add_argument("--binary", action="store_true",
                      help="key file is little-endian int64 words")
    sort.set_defaults(func=_cmd_sort)

    hull = subs.add_parser("hull", help="intersect half-planes")
    _machine_args(hull)
    hull.add_argument("--planes", help='file of "a b c" lines')
    hull.add_argument("--out", help="write hull vertices here")
    hull.set_defaults(func=_cmd_hull)

    prefix = subs.add_parser("prefix", help="prefix-sum one instance")
    _machine_args(prefix)
    prefix.add_argument("--keys", help="key file instead of generated input")
    prefix.add_argument("--binary", action="store_true",
                        help="key file is little-endian int64 words")
    prefix.set_defaults(func=_cmd_prefix)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MachineFault, GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
