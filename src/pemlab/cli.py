"""``pemlab`` command line: sweeps, band checks, and one-shot runs.

``pemlab sweep --config FILE --out CSV`` runs a parameter sweep;
``pemlab check --csv FILE --band F`` evaluates ratio bands and exits 0
only when every series passes; ``pemlab sort|hull|prefix`` run a single
scenario, print a digest of the result plus its ledger CSV row, and can
read inputs from key/plane files instead of generating them.  A one-shot
run takes the sweep's path: its words come from the file or from
:func:`pemlab.bench.instance`, and :func:`pemlab.bench.measure` runs them
and fills the row, so a generated run prints the row ``sweep`` would write.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from pemlab import fileio
from pemlab.bench import (
    CSV_HEADER,
    check_bands,
    instance,
    measure,
    parse_csv,
    rows_to_csv,
    run_sweep,
)
from pemlab.geometry import GeometryError
from pemlab.machine import Machine, MachineConfig, MachineFault
from pemlab.sorting import SortPlan

__all__ = ["main"]


def _digest(values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(repr(v).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _machine_args(sub):
    sub.add_argument("--n", type=int,
                     help="size of the generated input; needed without a file")
    sub.add_argument("--p", type=int, default=1)
    sub.add_argument("--M", type=int, default=1024)
    sub.add_argument("--B", type=int, default=8)
    sub.add_argument("--seed", type=int, default=0)


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


def _generated(algo, args, source) -> list:
    """The sweep's seeded instance of size ``--n``; a missing ``--n``, or a
    size the sweep would skip, is an error."""
    if args.n is None:
        raise MachineFault(f"{algo} needs --n or {source}")
    return instance(algo, args.n, args.seed)


def _keys(algo, args) -> list:
    """The words of ``--keys``, else the generated instance."""
    if args.keys:
        return fileio.read_keys(args.keys, binary=args.binary)
    return _generated(algo, args, "--keys")


def _run(algo, args, words, plan=None):
    """Measure ``algo`` on ``words`` on the machine the flags describe."""
    machine = Machine(MachineConfig(p=args.p, M=args.M, B=args.B,
                                    seed=args.seed))
    row, result = measure(algo, machine, words, plan)
    return machine, row, result


def _print_row(row) -> None:
    print(CSV_HEADER)
    print(row.to_csv())


def _cmd_sort(args) -> int:
    plan = SortPlan(x=args.x)
    machine, row, out = _run("sort", args, _keys("sort", args), plan)
    keys = machine.snapshot_memory(out)
    print(f"sorted {len(keys)} keys, digest {_digest(keys)}")
    _print_row(row)
    return 0


def _cmd_hull(args) -> int:
    if args.planes:
        planes = fileio.read_planes(args.planes)
    else:
        planes = _generated("hull", args, "--planes")
    _, row, (chain, _) = _run("hull", args, planes)
    vertices = chain.vertices
    if args.out:
        fileio.write_hull(args.out, chain)
        print(f"hull: {len(vertices)} vertices -> {args.out}, "
              f"digest {_digest(vertices)}")
    else:
        for v in vertices:
            print(f"{v.x} {v.y}")
        print(f"hull: {len(vertices)} vertices, digest {_digest(vertices)}")
    _print_row(row)
    return 0


def _cmd_prefix(args) -> int:
    machine, row, out = _run("prefix", args, _keys("prefix", args))
    sums = machine.snapshot_memory(out)
    tail = sums[-1] if sums else 0
    print(f"prefix over {len(sums)} keys, total {tail}, "
          f"digest {_digest(sums)}")
    _print_row(row)
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
