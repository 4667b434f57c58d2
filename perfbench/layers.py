"""Per-layer tracing of pemlab, installed from outside the library.

A :class:`Tracer` replaces module attributes and class methods with
wrappers while it is active and restores them on exit.  A function is
wrapped once and the wrapper is installed under every ``pemlab`` module
attribute bound to that function object, so names that a module imported
from another (``hull.sample_sort``, ``merge.prefix_sum``, aliases such as
``hull._reduce_words``) are traced too, not only the defining module's.

Each wrapped call becomes a span held in memory: name, parent span, host
start and end, self time, and the ``machine.ledger()`` deltas of the call
when its first argument is a machine (or a context carrying one).  Core
accesses (``Core.read``/``write``/``fetch_add``) are too many for spans:
they are counted and timed in aggregate, and their time is subtracted
from the self time of the enclosing span, which is always
``machine.run_rounds``.

Per-core program bodies run inside ``run_rounds``, so their Python cost
lands in ``machine.run_rounds`` self time and not in the layer that built
the programs.
"""
from __future__ import annotations

import sys
from time import perf_counter

from pemlab.machine import Core, Machine

# (module, function, ledger counter reported for the function or None).
# Counters are inclusive of nested calls, counted once per outermost call.
TARGETS = (
    ("primitives", "prefix_sum", "cache_misses"),
    ("primitives", "compact", "cache_misses"),
    ("primitives", "transpose", "cache_misses"),
    ("primitives", "sample_splitters", "cache_misses"),
    ("primitives", "brute_sort", "cache_misses"),
    ("partition", "partition_main", "cache_misses"),
    ("partition", "partition_seq", "cache_misses"),
    ("partition", "_distribute_columns", "cache_misses"),
    ("merge", "merge_bucketed", "cache_misses"),
    ("sorting", "sample_sort", None),
    ("geometry", "intersect_halfplanes_ordered", None),
    ("geometry", "unbounded_directions", None),
    ("geometry", "canonical_chain", None),
    ("hull", "hull_main", "cache_misses"),
    ("hull", "_polling_sample", "cache_misses"),
    ("hull", "find_sectors", "cache_misses"),
    ("hull", "expand_by_sector", "cache_misses"),
    ("hull", "filter_sector", "cache_misses"),
    ("hull", "_hull_base", "cache_misses"),
    ("hull", "_stitch", "cache_misses"),
    ("procalloc", "estimate_processors", "block_misses"),
)

ACCESS_METHODS = ("read", "write", "fetch_add")

_COUNTERS = ("ops", "cache_misses", "block_misses")


def _machine_of(args):
    """The machine a traced call runs on: its first argument, or that
    argument's ``machine`` attribute (the hull recursion context)."""
    if not args:
        return None
    first = args[0]
    if isinstance(first, Machine):
        return first
    machine = getattr(first, "machine", None)
    return machine if isinstance(machine, Machine) else None


def _counts(machine) -> tuple:
    led = machine.ledger()
    return led.ops, led.cache_misses, led.block_misses


class Tracer:
    """Context manager that traces every target while it is active."""

    def __init__(self) -> None:
        self.spans: list = []
        self.sites: list = []
        self.missing: list = []
        self.access_calls = 0
        self.access_s = 0.0
        self.alloc_words = 0
        self._stack: list = []
        self._open: dict = {}
        self._totals: dict = {}
        self._patches: list = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None
                   and (name == "pemlab" or name.startswith("pemlab."))]
        for module, func, counter in TARGETS:
            home = sys.modules.get(f"pemlab.{module}")
            original = getattr(home, func, None)
            if original is None:
                self.missing.append(f"pemlab.{module}.{func}")
                continue
            wrapper = self._span(f"{module}.{func}", original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
                        self.sites.append(f"{mod.__name__}.{attr}")
        self._patch(Machine, "run_rounds",
                    self._span("machine.run_rounds", Machine.run_rounds,
                               None))
        self._patch(Machine, "alloc", self._alloc(Machine.alloc))
        for method in ACCESS_METHODS:
            self._patch(Core, method, self._access(getattr(Core, method)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, counter):
        spans, stack, open_, totals = (self.spans, self._stack, self._open,
                                       self._totals)
        tracer = self
        # calls, self seconds, inclusive ledger counter
        total = totals.setdefault(name, [0, 0.0, 0])
        counter_at = _COUNTERS.index(counter) if counter else None

        def wrapper(*args, **kwargs):
            machine = _machine_of(args)
            before = _counts(machine) if machine is not None else None
            outermost = not open_.get(name)
            open_[name] = open_.get(name, 0) + 1
            parent = stack[-1] if stack else -1
            # [name, parent, start, end, child seconds, access seconds at
            #  start, access seconds inside child spans, ledger deltas]
            span = [name, parent, 0.0, 0.0, 0.0, tracer.access_s, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                open_[name] -= 1
                span[3] = end
                duration = end - span[2]
                access = tracer.access_s - span[5]
                if parent >= 0:
                    spans[parent][4] += duration
                    spans[parent][6] += access
                self_s = duration - span[4] - (access - span[6])
                span[4] = self_s
                total[0] += 1
                total[1] += self_s
                if before is not None:
                    after = _counts(machine)
                    span[7] = tuple(a - b for a, b in zip(after, before))
                    if outermost and counter_at is not None:
                        total[2] += span[7][counter_at]

        return wrapper

    def _access(self, fn):
        tracer = self

        def wrapper(core, *args):
            start = perf_counter()
            value = fn(core, *args)
            tracer.access_s += perf_counter() - start
            tracer.access_calls += 1
            return value

        return wrapper

    def _alloc(self, fn):
        tracer = self

        def wrapper(machine, length):
            tracer.alloc_words += length
            return fn(machine, length)

        return wrapper

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: ``machine.*`` and, for every target,
        ``<module>.<function>.calls``, ``.self_s`` and its counter."""
        rounds = self._totals.get("machine.run_rounds", [0, 0.0, 0])
        calls = self.access_calls
        out = {
            "machine.access.calls": calls,
            "machine.access.s": self.access_s,
            "machine.access.us_per_call":
                1e6 * self.access_s / calls if calls else 0.0,
            "machine.run_rounds.calls": rounds[0],
            "machine.run_rounds.self_s": rounds[1],
            "machine.alloc.words": self.alloc_words,
        }
        for module, func, counter in TARGETS:
            name = f"{module}.{func}"
            n_calls, self_s, inclusive = self._totals.get(name, [0, 0.0, 0])
            out[f"{name}.calls"] = n_calls
            out[f"{name}.self_s"] = self_s
            if counter:
                out[f"{name}.{counter}"] = inclusive
        return out

    def span_records(self) -> list:
        """Closed spans as plain lists for a JSON dump:
        ``[name, parent, start, end, self_s, ledger deltas or None]``."""
        return [[s[0], s[1], s[2], s[3], s[4],
                 list(s[7]) if s[7] is not None else None]
                for s in self.spans]
