"""Parameter sweeps over (algorithm, n, p, M, B, seed) with band checks.

This module is the one path from input words to a ledger row:
:func:`instance` generates the seeded input of one algorithm and size, and
:func:`measure` loads words onto a machine, runs the algorithm and fills a
:class:`ScenarioRow`.  :func:`run_scenario` (one sweep point), the
``pemlab sort|hull|prefix`` commands and the demos all go through them.

A sweep config is flat text: ``[algo]`` section headers followed by
``key = v1 v2 ...`` lines whose values multiply out to one scenario row
per combination.  Each row owns a private simulator, so rows are
independent and the whole sweep is deterministic given its seeds; rows
are sorted before CSV assembly, and identical configs produce
byte-identical CSV files.  A sweep reads nothing but its config: seeds
come only from its ``seed =`` lines.

Each measured row records the ledger counters plus a closed-form bound
and the measured/bound ratio; band checking groups rows into series and
passes a series when max ratio / min ratio stays within the band
factor.  Bounds convert log bases explicitly (``log_M n = ln n / ln
M``), and parameter points where a bound degenerates are emitted with
``status=skipped`` and a reason instead of a number.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields, replace

from pemlab.hull import HullStats, hull_main
from pemlab.machine import Machine, MachineConfig, MachineFault
from pemlab.primitives import load_seq, prefix_sum
from pemlab.sorting import SortPlan, SortStats, sample_sort

__all__ = [
    "BandReport",
    "CSV_HEADER",
    "DEFAULT_CRIT_BAND",
    "DEFAULT_MISS_BAND",
    "ScenarioRow",
    "check_bands",
    "instance",
    "measure",
    "parse_csv",
    "parse_sweep_config",
    "rows_to_csv",
    "run_scenario",
    "run_sweep",
]

# Acceptance-suite policy constants, not asymptotic claims: miss-ratio
# series may spread by 4x, critical-path series by 2.5x.
DEFAULT_MISS_BAND = 4.0
DEFAULT_CRIT_BAND = 2.5

# Smallest generated instance of each algorithm, keyed by every algorithm
# name: a hull instance holds four box planes plus at least one random plane.
_SIZE_FLOOR = {"sort": 1, "hull": 5, "prefix": 1}


@dataclass(frozen=True)
class ScenarioRow:
    """One measured (or skipped) sweep point.

    ``bound`` is the closed-form value of the algorithm's miss bound (see
    :func:`_miss_bound`): ``(n/B) * log_M n`` for sort and hull and
    ``max(1, n/B)`` for prefix.  ``ratio`` is ``cache_misses / bound``;
    both are ``None`` on skipped rows, where ``status`` carries the
    reason instead.
    """

    algo: str
    n: int
    p: int
    M: int
    B: int
    seed: int
    status: str = "ok"
    ops: int | None = None
    crit_path: int | None = None
    cache_misses: int | None = None
    block_misses: int | None = None
    rounds: int | None = None
    retries: int | None = None
    bound: float | None = None
    ratio: float | None = None

    def sort_key(self):
        return (self.algo, self.n, self.p, self.M, self.B, self.seed)

    def to_csv(self) -> str:
        def cell(v):
            return "" if v is None else (repr(v) if isinstance(v, float)
                                         else str(v))

        return ",".join(cell(getattr(self, f.name)) for f in _COLUMNS)


# The CSV columns are the fields of ScenarioRow, in order.
_COLUMNS = fields(ScenarioRow)
CSV_HEADER = ",".join(f.name for f in _COLUMNS)
_CASTS = {"str": str, "int": int, "float": float}


def _parse_cell(column, text: str):
    """A CSV cell as its column's type; empty means ``None`` where the
    column defaults to ``None``."""
    if not text and column.default is None:
        return None
    return _CASTS[column.type.removesuffix(" | None")](text)


def _log_base_m(n: int, M: int) -> float:
    return math.log(n) / math.log(M)


def _miss_bound(algo: str, n: int, M: int, B: int) -> tuple:
    """Closed-form miss bound as ``(value, None)``, or ``(None, reason)``
    when it degenerates: ``(n/B) * log_M n`` for sort and hull, and
    ``max(1, n/B)`` for prefix."""
    if algo in ("sort", "hull"):
        if M < 2:
            return None, "bound degenerate: log_M n needs M >= 2"
        if n < 2:
            return None, "bound degenerate: log_M n needs n >= 2"
        return (n / B) * _log_base_m(n, M), None
    return max(1.0, n / B), None


def _sort_instance(n: int, seed: int) -> list:
    rng = random.Random(seed)
    return [rng.randrange(max(1, 4 * n)) for _ in range(n)]


def _hull_instance(n: int, seed: int) -> list:
    """Random bounded half-planes with the origin strictly interior."""
    rng = random.Random(seed)
    planes = []
    for _ in range(n - 4):
        a = rng.randrange(-2000, 2001)
        b = rng.randrange(-2000, 2001)
        if a == 0 and b == 0:
            a = 1
        planes.append((a, b, rng.randrange(1, 4 * n)))
    for a, b in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        planes.append((a, b, rng.randrange(n, 2 * n)))
    return planes


def _prefix_instance(n: int, seed: int) -> list:
    rng = random.Random(seed)
    return [rng.randrange(-100, 100) for _ in range(n)]


_INSTANCES = {"sort": _sort_instance, "hull": _hull_instance,
              "prefix": _prefix_instance}


def _check_algo(algo: str) -> None:
    if algo not in _SIZE_FLOOR:
        raise MachineFault(f"unknown algorithm {algo!r}")


def instance(algo: str, n: int, seed: int) -> list:
    """The input words of the seeded ``algo`` instance of size ``n``.

    Raises :class:`MachineFault` for an unknown algorithm or a size below
    the algorithm's floor.
    """
    _check_algo(algo)
    floor = _SIZE_FLOOR[algo]
    if n < floor:
        raise MachineFault(f"{algo} needs n >= {floor}")
    return _INSTANCES[algo](n, seed)


def measure(algo: str, machine: Machine, words: list,
            plan: SortPlan | None = None) -> tuple:
    """Load ``words``, run ``algo`` on all cores of ``machine``, measure it.

    The machine's seed is the algorithm's random stream and the row's seed;
    ``plan`` configures the sort.  Returns ``(row, result)``: the measured
    :class:`ScenarioRow` of ``len(words)`` words, whose ``bound`` and
    ``ratio`` are ``None`` where the bound degenerates, and what the
    algorithm returned.
    """
    _check_algo(algo)
    cfg = machine.config
    seq = load_seq(machine, words)
    retries = 0
    if algo == "sort":
        stats = SortStats()
        result = sample_sort(machine, seq, machine.cores, plan=plan,
                             stats=stats, stream=cfg.seed)
        retries = stats.resamples
    elif algo == "hull":
        stats = HullStats()
        result = hull_main(machine, seq, machine.cores, stats=stats,
                           stream=cfg.seed)
        retries = stats.repolls
    else:
        result = prefix_sum(machine, seq, machine.cores)
    bound, _ = _miss_bound(algo, seq.n, cfg.M, cfg.B)
    led = machine.ledger()
    row = ScenarioRow(
        algo=algo, n=seq.n, p=cfg.p, M=cfg.M, B=cfg.B, seed=cfg.seed,
        ops=led.ops,
        crit_path=led.critical_path,
        cache_misses=led.cache_misses,
        block_misses=led.block_misses,
        rounds=led.rounds,
        retries=retries,
        bound=bound,
        ratio=None if bound is None else led.cache_misses / bound,
    )
    return row, result


def run_scenario(algo: str, n: int, p: int, M: int, B: int,
                 seed: int) -> ScenarioRow:
    """Run one sweep point on a private simulator and measure it."""
    _check_algo(algo)
    row = ScenarioRow(algo=algo, n=n, p=p, M=M, B=B, seed=seed)
    try:
        words = instance(algo, n, seed)
    except MachineFault as exc:
        return replace(row, status=f"skipped({exc})")
    bound, reason = _miss_bound(algo, n, M, B)
    if bound is None:
        return replace(row, status=f"skipped({reason})")
    try:
        machine = Machine(MachineConfig(p=p, M=M, B=B, seed=seed))
    except MachineFault as exc:
        return replace(row, status=f"skipped({exc})".replace(",", ";"))
    return measure(algo, machine, words)[0]


# ------------------------------------------------------------------ sweeps


_SWEEP_KEYS = ("n", "p", "M", "B", "seed")
_SWEEP_DEFAULTS = {"p": [1], "M": [1024], "B": [8], "seed": [0]}


def parse_sweep_config(text: str) -> list:
    """Parse the flat sweep format into ``(algo, {key: [ints]})`` pairs.

    Sections are ``[algo]`` lines; each following ``key = v1 v2 ...``
    line lists the values, at least one, that key sweeps over.  ``n`` is
    required per section; ``p``, ``M``, ``B``, ``seed`` default to single
    values.
    """
    sections: list = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            algo = line[1:-1].strip()
            if algo not in _SIZE_FLOOR:
                raise MachineFault(f"unknown algorithm section {algo!r}")
            current = (algo, {})
            sections.append(current)
            continue
        if current is None:
            raise MachineFault(f"line {lineno} precedes any [algo] section")
        if "=" not in line:
            raise MachineFault(f"bad sweep line {lineno}: {raw!r}")
        key, vals = (part.strip() for part in line.split("=", 1))
        if key not in _SWEEP_KEYS:
            raise MachineFault(f"unknown sweep key {key!r} on line {lineno}")
        try:
            current[1][key] = [int(v) for v in vals.split()]
        except ValueError:
            raise MachineFault(
                f"non-integer value on line {lineno}: {raw!r}") from None
        if not current[1][key]:
            raise MachineFault(f"sweep key {key!r} on line {lineno} has no values")
    for algo, keys in sections:
        if "n" not in keys:
            raise MachineFault(f"section [{algo}] lists no n values")
    return sections


def run_sweep(config_text: str) -> list:
    """Run every scenario of a sweep config; returns sorted rows.

    The config is the sweep's only input: its ``seed =`` lines, or the
    default seed 0, give every row's seed.
    """
    rows = []
    for algo, keys in parse_sweep_config(config_text):
        grids = {k: list(keys.get(k, _SWEEP_DEFAULTS.get(k, []))) for k in _SWEEP_KEYS}
        for n in grids["n"]:
            for p in grids["p"]:
                for M in grids["M"]:
                    for B in grids["B"]:
                        for seed in grids["seed"]:
                            rows.append(run_scenario(algo, n, p, M, B, seed))
    rows.sort(key=ScenarioRow.sort_key)
    return rows


def rows_to_csv(rows) -> str:
    return "\n".join([CSV_HEADER] + [r.to_csv() for r in rows]) + "\n"


def parse_csv(text: str) -> list:
    """Parse a sweep CSV back into :class:`ScenarioRow` values."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise MachineFault("CSV header does not match the sweep schema")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(_COLUMNS):
            raise MachineFault(f"malformed CSV row: {ln!r}")
        rows.append(ScenarioRow(*(_parse_cell(column, text)
                                  for column, text in zip(_COLUMNS, cells))))
    return rows


# ------------------------------------------------------------- band checks


@dataclass(frozen=True)
class SeriesResult:
    key: tuple
    count: int
    spread: float | None
    status: str  # pass | fail | inconclusive


@dataclass(frozen=True)
class BandReport:
    band: float
    metric: str
    series: tuple

    @property
    def passed(self) -> bool:
        return all(s.status != "fail" for s in self.series)

    def format(self) -> str:
        lines = []
        for s in self.series:
            label = " ".join(f"{k}={v}" for k, v in s.key)
            if s.status == "inconclusive":
                lines.append(f"{label}: {s.count} row(s), inconclusive")
            else:
                lines.append(f"{label}: spread {s.spread:.4f} vs band "
                             f"{self.band:g} -> {s.status}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"band check ({self.metric}): {verdict}")
        return "\n".join(lines)


def check_bands(rows, band: float | None = None,
                metric: str = "miss") -> BandReport:
    """Group measured rows into series and bound each series' spread.

    ``miss`` series fix (algo, p, M, B) and follow the ratio column as n
    varies; ``crit`` series fix (algo, n, M, B) and follow critical path
    normalized by the ideal (n/p) log2 n shape as p varies.  A series
    passes when max/min stays within ``band``; series with fewer than
    two measured rows are inconclusive.
    """
    if metric not in ("miss", "crit"):
        raise MachineFault(f"unknown band metric {metric!r}")
    if band is None:
        band = DEFAULT_MISS_BAND if metric == "miss" else DEFAULT_CRIT_BAND
    series: dict = {}
    for row in rows:
        if row.status != "ok":
            continue
        if metric == "miss":
            key = (("algo", row.algo), ("p", row.p), ("M", row.M),
                   ("B", row.B))
            value = row.ratio
        else:
            if row.n < 2 or row.crit_path is None:
                continue
            key = (("algo", row.algo), ("n", row.n), ("M", row.M),
                   ("B", row.B))
            value = row.crit_path / ((row.n / row.p) * math.log2(row.n))
        series.setdefault(key, []).append(value)
    results = []
    for key in sorted(series):
        vals = series[key]
        if len(vals) < 2:
            results.append(SeriesResult(key, len(vals), None, "inconclusive"))
            continue
        spread = max(vals) / min(vals)
        results.append(SeriesResult(
            key, len(vals), spread,
            "pass" if spread <= band else "fail"))
    return BandReport(band=band, metric=metric, series=tuple(results))
