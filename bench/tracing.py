"""In-process span tracing of the library's public functions.

Wrappers are installed from here, around module attributes, and removed
afterwards; the library itself is not changed. A wrapped function records
a span (name, start, end, parent span, op id) in memory. A function that a
later version of the library no longer has is reported as an absent layer.

Every binding of a target function is replaced, including the names other
modules imported with ``from .module import name``, so calls between
modules are caught as well as calls through the module attribute.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# layer metric -> functions whose self time it sums
TIME_LAYERS = {
    "cli.self_s": ["cli.main"],
    "game_io.load_s": ["game_io.load_game"],
    "game_io.write_s": ["game_io.write_table", "game_io.save_game", "game_io.write_edges"],
    "st.scan_s": ["st.is_sensible", "st.is_fully_cooperative", "st.is_cohesive", "st.reduce_to_tu"],
    "st.points_s": ["st.all_coop_points"],
    "additivity.detect_s": ["additivity.is_additive", "additivity.is_coadditive",
                            "additivity.additive_predicates", "additivity.coadditive_predicates"],
    "additivity.matrix_s": ["additivity.extract_matrix", "additivity.export_graph"],
    "tu.predicate_s": ["tu.is_convex", "tu.is_superadditive"],
    "tu.shapley_s": ["tu.shapley_value"],
    "tu.core_self_s": ["tu.core_witness", "tu.in_core"],
    "exact_lp.solve_s": ["exact_lp.minimal_coalition_cover"],
    "cobb.grid_s": ["cobb.payoff_utility_grid"],
    "cobb.optimize_s": ["cobb.maximize_scalar"],
    "cobb.roots_s": ["cobb.altruism_roots"],
    "cobb.path_s": ["cobb.cooperation_path"],
    "cobb.frontier_s": ["cobb.stable_size_grid"],
}

# counter metric -> functions whose calls it counts
CALL_COUNTERS = {
    "game_io.load_calls": ["game_io.load_game"],
    "st.scan_calls": TIME_LAYERS["st.scan_s"],
    "additivity.detect_calls": TIME_LAYERS["additivity.detect_s"],
    "exact_lp.solves": ["exact_lp.minimal_coalition_cover"],
    "cobb.optimize_calls": ["cobb.maximize_scalar"],
    "cobb.roots_calls": ["cobb.altruism_roots"],
    "parallel.calls": ["parallel.ordered_map"],
}

# counters fed from call arguments and results
WORK_COUNTERS = ["game_io.bytes_read", "game_io.rows_written", "game_io.bytes_written",
                 "st.points", "exact_lp.columns", "cobb.grid_cells", "cobb.objective_evals",
                 "parallel.items"]

# functions counted but given no span: at one worker their time belongs to the caller
COUNT_ONLY = {"parallel.ordered_map"}

TARGETS = sorted({f for fs in TIME_LAYERS.values() for f in fs} | COUNT_ONLY)


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError, ValueError):
        return 0


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    """A call argument by position or keyword, or None when the call has neither."""
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


class Tracer:
    """Spans and counters of one traced run, kept in memory until written out."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, op id]
        self.counts: dict[str, int] = {}
        self.stack: list[int] = []
        self.op_id: int | None = None
        self.absent: list[str] = []
        self._installed: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count("calls:" + name)
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = tracer.stack[-1] if tracer.stack else None
            index = len(tracer.spans)
            span = [name, time.perf_counter(), None, parent, tracer.op_id]
            tracer.spans.append(span)
            tracer.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counting_map(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, items, *args, **kwargs):
            items = list(items)
            tracer.count("calls:parallel.ordered_map")
            tracer.count("parallel.items", len(items))
            return fn(f, items, *args, **kwargs)

        return wrapper

    def _make(self, name: str, fn):
        c = self.count
        if name == "parallel.ordered_map":
            return self._counting_map(fn)
        if name == "game_io.load_game":
            def before(args, kwargs):
                c("game_io.bytes_read", _size(_arg(args, kwargs, 0, "source")))
                return args, kwargs
            return self._span(name, fn, before=before)
        if name == "game_io.write_table":
            def before(args, kwargs):
                rows = list(args[0])
                c("game_io.rows_written", len(rows))
                return (rows,) + tuple(args[1:]), kwargs
            return self._span(name, fn, before=before,
                              after=lambda a, k, r: c("game_io.bytes_written",
                                                      _size(_arg(a, k, 2, "path"))))
        if name in ("game_io.save_game", "game_io.write_edges"):
            return self._span(name, fn,
                              after=lambda a, k, r: c("game_io.bytes_written",
                                                      _size(_arg(a, k, 1, "path"))))
        if name == "st.all_coop_points":
            return self._span(name, fn, after=lambda a, k, r: c("st.points", len(r)))
        if name == "cobb.payoff_utility_grid":
            return self._span(name, fn, after=lambda a, k, r: c("cobb.grid_cells", len(r)))
        if name == "exact_lp.minimal_coalition_cover":
            return self._span(name, fn, after=lambda a, k, r: c(
                "exact_lp.columns", len(_arg(a, k, 1, "worth") or ())))
        if name == "cobb.maximize_scalar":
            def before(args, kwargs):
                objective = args[0]

                def counted(x):
                    c("cobb.objective_evals")
                    return objective(x)
                return (counted,) + tuple(args[1:]), kwargs
            return self._span(name, fn, before=before)
        return self._span(name, fn)

    def install(self) -> None:
        """Replace every binding of each target in the loaded ``teamgames`` modules."""
        found = {}
        for name in TARGETS:
            module_name = name.partition(".")[0]
            try:
                found[name] = importlib.import_module(f"teamgames.{module_name}")
            except ImportError:
                self.absent.append(name)
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "teamgames" or key.startswith("teamgames.")) and m is not None]
        for name, module in found.items():
            attr = name.partition(".")[2]
            original = getattr(module, attr, None)
            if original is None or not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._make(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._installed.append((m, key, original))

    def restore(self) -> None:
        for module, key, original in reversed(self._installed):
            setattr(module, key, original)
        self._installed.clear()

    # -- results ------------------------------------------------------------

    def self_times(self, factors: dict[int, float]) -> dict[str, float]:
        """Self time per function name: span duration minus child span durations,
        scaled by the speed correction of the op the span belongs to."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            own = ((end - start) - child[i]) * factors.get(op, 1.0)
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def layer_values(self, factors: dict[int, float]) -> dict[str, float]:
        """Every per-layer time and counter (absent layers read 0)."""
        selfs = self.self_times(factors)
        out: dict[str, float] = {}
        for metric, names in TIME_LAYERS.items():
            out[metric] = sum(selfs.get(n, 0.0) for n in names)
        for metric, names in CALL_COUNTERS.items():
            out[metric] = sum(self.counts.get("calls:" + n, 0) for n in names)
        for metric in WORK_COUNTERS:
            out[metric] = self.counts.get(metric, 0)
        return out

    def records(self) -> list[dict]:
        return [{"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4]}
                for i, s in enumerate(self.spans)]

    def absent_layers(self) -> list[str]:
        """Layer metrics none of whose functions could be wrapped."""
        gone = set(self.absent)
        layers = {**TIME_LAYERS, **CALL_COUNTERS}
        return sorted(m for m, names in layers.items() if all(n in gone for n in names))
