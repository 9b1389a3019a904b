"""Span tracing around rspin's public calls, installed from outside the package.

A :class:`Tracer` replaces selected rspin functions and methods with thin
wrappers for the length of a traced round, then puts the originals back. No
file under ``src/`` is edited: each wrapper is bound wherever the original
function object is bound in a loaded ``rspin.*`` module, so a call that goes
through ``rspin.genus0.solve_exact`` or ``rspin.dr1.solve_exact`` is seen no
matter which module imported the name.

Calls are recorded in one of two ways:

* spans, for calls that cost at least milliseconds: name, start, end, parent
  span and request id, kept in memory and written out when the run ends;
* aggregates, for calls that mostly take microseconds (cache get/put, key
  parsing, key construction, the closed form, the relational solver, the B
  recursion): a count, an inclusive time and a self time per name, with no
  span per call.

Both kinds sit on one call stack, so a span's self time is its duration minus
the time its traced children cover, and the self times of all calls inside a
root span add up to that root span's duration.

A target that no longer exists (a later refactor removed or renamed it) is
skipped and recorded in :attr:`Tracer.missing`; metrics that depend on it are
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

# Span fields, in the order they are stored and written out.
SPAN_FIELDS = ("id", "parent", "request", "name", "start", "end", "self")


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _count_rule(prefix):
    def hook(tracer, args, kwargs, result):
        tracer.counts[prefix + result.trace[0]] += 1

    return hook


def _wdvv_sizes(tracer, args, kwargs, result):
    unknowns, equations = result.unknowns, result.equations
    r, n = _arg(args, kwargs, 0, "r"), _arg(args, kwargs, 1, "n")
    tracer.counts["genus0.unknowns"] += len(unknowns)
    tracer.counts["genus0.equations"] += len(equations)
    tracer.systems[(r, n)] = (len(unknowns), len(equations))


def _elimination_sizes(tracer, args, kwargs, result):
    unknowns = _arg(args, kwargs, 0, "unknowns")
    equations = _arg(args, kwargs, 1, "equations")
    values, free = result
    tracer.counts["elimination.rows"] += len(equations)
    tracer.counts["elimination.cols"] += len(unknowns)
    tracer.counts["elimination.determined"] += len(values)
    tracer.counts["elimination.free"] += len(free)


def _enumerated(tracer, args, kwargs, result):
    window = (
        _arg(args, kwargs, 0, "r"),
        _arg(args, kwargs, 1, "n_max"),
        _arg(args, kwargs, 2, "k_sum_max"),
    )
    tracer.counts["dr1.enumerated"] += len(result)
    tracer.windows.setdefault(window, set()).add(len(result))
    tracer.enumerations_by_r[window[0]] += 1


def _closed_status(tracer, args, kwargs, result):
    if result.status == "ok":
        tracer.counts["dr1.nonvanishing"] += 1
        tracer.nonvanishing_by_r[_arg(args, kwargs, 0, "bracket").r] += 1


def _cache_hit(tracer, args, kwargs, result):
    if result is not None:
        tracer.counts["store.hits"] += 1


def _loaded(tracer, args, kwargs, result):
    tracer.counts["store.load_entries"] += len(result)


def _saved(tracer, args, kwargs, result):
    path = _arg(args, kwargs, 1, "path")
    tracer.counts["store.save_bytes"] += os.path.getsize(path)


# (module, attribute path, traced name, recorded as a span?, result hook).
# The traced name's first component is the layer its self time belongs to.
TARGETS: Tuple[Tuple[str, str, str, bool, Optional[Callable]], ...] = (
    ("rspin.core", "Genus0Bracket.__init__", "core.bracket_key", False, None),
    ("rspin.core", "DR1Bracket.__init__", "core.bracket_key", False, None),
    ("rspin.core", "parse_key", "core.parse_key", False, None),
    ("rspin.genus0", "bracket_window_sum", "genus0.window_sum", True, None),
    ("rspin.genus0", "solve_bracket", "genus0.solve_bracket", True, _count_rule("genus0.rule.")),
    ("rspin.genus0", "wdvv_equations", "genus0.wdvv_build", True, _wdvv_sizes),
    ("rspin.elimination", "solve_exact", "elimination.solve", True, _elimination_sizes),
    ("rspin.dr1", "enumerate_brackets", "dr1.enumerate", True, _enumerated),
    ("rspin.dr1", "solve_relational", "dr1.relational", False, _count_rule("dr1.rule.")),
    ("rspin.dr1", "closed_form", "dr1.closed", False, _closed_status),
    ("rspin.dr1", "b_value_trr", "dr1.b_trr", False, None),
    ("rspin.store", "CacheStore.get", "store.get", False, _cache_hit),
    ("rspin.store", "CacheStore.put", "store.put", False, None),
    ("rspin.store", "CacheStore.load", "store.load", True, _loaded),
    ("rspin.store", "CacheStore.save", "store.save", True, _saved),
    ("rspin.verify", "run_suite", "verify.run_suite", True, None),
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Call stack, spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.aggregates: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        self.systems: Dict[tuple, tuple] = {}
        self.windows: Dict[tuple, set] = {}
        self.enumerations_by_r: Counter = Counter()
        self.nonvanishing_by_r: Counter = Counter()
        self.missing: set = set()
        self.unavailable: set = set()
        self.request: Optional[int] = None
        self._stack: List[list] = []
        self._patches: List[tuple] = []
        self._next_id = 0

    # -- the call stack -------------------------------------------------

    def _enter(self, name: str, spanned: bool) -> None:
        span_id = None
        if spanned:
            span_id = self._next_id
            self._next_id += 1
        self._stack.append([name, _clock(), 0.0, span_id])

    def _exit(self) -> None:
        end = _clock()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        own = duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is None:
            agg = self.aggregates[name]
            agg[0] += 1
            agg[1] += duration
            agg[2] += own
        else:
            self.spans.append(
                (span_id, self._parent_span(), self.request, name, start, end, own)
            )

    def _parent_span(self) -> Optional[int]:
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3]
        return None

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span (used for harness roots)."""
        self._enter(name, True)
        try:
            yield
        finally:
            self._exit()

    @contextmanager
    def for_request(self, request_id: int):
        previous, self.request = self.request, request_id
        try:
            yield
        finally:
            self.request = previous

    def wrap(self, fn: Callable, name: str, spanned: bool, hook: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(name, spanned)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    try:
                        hook(tracer, args, kwargs, result)
                    except (AttributeError, TypeError, ValueError):
                        # The result no longer has the shape the hook reads.
                        tracer.unavailable.add(name)
            finally:
                tracer._exit()
            return result

        return traced

    # -- installing the wrappers ----------------------------------------

    def install(self) -> None:
        """Wrap every target that exists in the loaded rspin modules."""
        for module_name, path, name, spanned, hook in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = None if owner is None else vars(owner).get(attr)
            else:
                raw = getattr(module, attr, None)
            if raw is None:
                self.missing.add(name)
                continue
            if owner_name:
                self._patch_method(owner, attr, raw, name, spanned, hook)
            else:
                self._patch_function(raw, name, spanned, hook)

    def _patch_method(self, cls, attr, raw, name, spanned, hook) -> None:
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(raw.__func__, name, spanned, hook))
        else:
            replacement = self.wrap(raw, name, spanned, hook)
        setattr(cls, attr, replacement)
        self._patches.append((cls, attr, raw))

    def _patch_function(self, fn, name, spanned, hook) -> None:
        wrapper = self.wrap(fn, name, spanned, hook)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "rspin" or mod_name.startswith("rspin.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- moving state between processes ---------------------------------

    def state(self) -> dict:
        """Everything recorded, as plain JSON-ready data."""
        return {
            "spans": [list(s) for s in self.spans],
            "aggregates": {k: list(v) for k, v in self.aggregates.items()},
            "counts": dict(self.counts),
            "systems": [[list(k), list(v)] for k, v in self.systems.items()],
            "windows": [[list(k), sorted(v)] for k, v in self.windows.items()],
            "enumerations_by_r": [[k, v] for k, v in self.enumerations_by_r.items()],
            "nonvanishing_by_r": [[k, v] for k, v in self.nonvanishing_by_r.items()],
            "missing": sorted(self.missing),
            "unavailable": sorted(self.unavailable),
        }

    def adopt(self, state: dict) -> None:
        """Merge a child process's state under the innermost open span.

        Child span ids are renumbered, child roots are re-parented to the
        innermost open span, and their durations count as that span's child
        time.
        """
        offset = self._next_id
        parent = self._parent_span()
        covered = 0.0
        top = 0
        for span_id, span_parent, _request, name, start, end, own in state["spans"]:
            if span_parent is None:
                covered += end - start
                span_parent = parent
            else:
                span_parent += offset
            self.spans.append((span_id + offset, span_parent, self.request, name, start, end, own))
            top = max(top, span_id + offset + 1)
        self._next_id = max(self._next_id, top)
        for name, (count, total, own) in state["aggregates"].items():
            agg = self.aggregates[name]
            agg[0] += count
            agg[1] += total
            agg[2] += own
        self.counts.update(state["counts"])
        for key, value in state["systems"]:
            self.systems[tuple(key)] = tuple(value)
        for key, sizes in state["windows"]:
            self.windows.setdefault(tuple(key), set()).update(sizes)
        for r, count in state["enumerations_by_r"]:
            self.enumerations_by_r[r] += count
        for r, count in state["nonvanishing_by_r"]:
            self.nonvanishing_by_r[r] += count
        self.missing.update(state["missing"])
        self.unavailable.update(state["unavailable"])
        if self._stack:
            self._stack[-1][2] += covered

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a finished span under the innermost open span (no children)."""
        span_id = self._next_id
        self._next_id += 1
        self.spans.append((span_id, self._parent_span(), self.request, name, start, end, end - start))
        if self._stack:
            self._stack[-1][2] += end - start

    # -- totals ---------------------------------------------------------

    def totals(self) -> Dict[str, List[float]]:
        """Per traced name: [calls, inclusive seconds, self seconds]."""
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for name, (count, total, own) in self.aggregates.items():
            row = out[name]
            row[0] += count
            row[1] += total
            row[2] += own
        for _id, _parent, _request, name, start, end, own in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += own
        return out

    def layer_self(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for name, (_count, _total, own) in self.totals().items():
            out[layer_of(name)] += own
        return out
