"""Outside-in tracer for the barbellcalc package.

`Tracer.install()` wraps, in place, every public module-level function
and every public method of every public class defined in the package's
modules (plus the `__init__` of the classes whose instances are
counted).  A function imported into another module with
`from .x import y` is a separate binding, so every module attribute that
refers to a wrapped function is rebound to its wrapper.  Wrapped
`lru_cache` functions keep `cache_info()` and `cache_clear()`.

Time is thread CPU time, so the self times of functions running in the
CLI's sweep thread pool add up to no more than the pass's wall time even
though the pool's threads interleave under the interpreter lock.  Every
thread keeps its own span stack and its own counters (no shared
read-modify-write in the hot path); they are merged after the pass.

Module-level public functions of cli, scenarios, presentations and
equivariant record a span each: (span id, parent span id, trace id,
function, thread, wall start, wall end).  The trace id is the index of
the CLI call the span belongs to; a span that starts on a sweep worker
thread has the call's root span as parent.  Everything else keeps only
counts and self time, since hot leaves such as DeckElement.mul or
RingElement.__init__ run 10^5 to 10^6 times per pass.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
import types

PACKAGE = "barbellcalc"
LAYERS = ("deckgroup", "groupring", "equivariant", "presentations", "intlinalg", "scenarios", "cli")
SPAN_LAYERS = ("cli", "scenarios", "presentations", "equivariant")
COUNTED_INITS = ("groupring.RingElement", "equivariant.EquivClass", "scenarios.Report")


# every per-layer metric of a traced run, with its unit
METRIC_UNITS = {
    "deckgroup.self_s": "s",
    "deckgroup.calls": "count",
    "deckgroup.letters_out": "letters",
    "deckgroup.peak_word_len": "letters",
    "deckgroup.matrix_muls": "count",
    "groupring.self_s": "s",
    "groupring.elements_built": "count",
    "groupring.ring_adds": "count",
    "groupring.ring_muls": "count",
    "groupring.term_products": "count",
    "groupring.hom_terms": "count",
    "groupring.peak_support": "terms",
    "equivariant.self_s": "s",
    "equivariant.barbell_actions": "count",
    "equivariant.iterations": "count",
    "equivariant.pairings": "count",
    "equivariant.peak_class_support": "terms",
    "presentations.self_s": "s",
    "presentations.matrices": "count",
    "presentations.distinctness_tests": "count",
    "presentations.cache_hit_ratio": "1",
    "intlinalg.self_s": "s",
    "intlinalg.solves": "count",
    "intlinalg.peak_unknowns": "count",
    "scenarios.self_s": "s",
    "scenarios.render_s": "s",
    "scenarios.reports": "count",
    "scenarios.output_bytes": "B",
    "scenarios.geometry_builds": "count",
    "cli.self_s": "s",
    "cli.invocations": "count",
    "cli.sweep_jobs": "count",
    "cli.worker_threads": "count",
    "trace.overhead_ratio": "1",
}
# Metrics that depend on thread scheduling.  Either sweep pool worker
# may pick up a job, and two workers can miss the same lru_cache key of
# brunnian_relator or brunnian_image at once and both compute it; that
# moves the hit ratio and adds the duplicated work to the counters below
# it.  Only a brunnian sweep can race so; the other counters repeat
# exactly.
SCHEDULING_DEPENDENT = ("presentations.cache_hit_ratio", "cli.worker_threads")
CACHE_RACE_DEPENDENT = (
    "deckgroup.calls", "deckgroup.letters_out", "deckgroup.matrix_muls", "groupring.elements_built",
    "groupring.ring_adds", "groupring.ring_muls", "groupring.term_products", "groupring.hom_terms",
)

class _ThreadState:
    __slots__ = ("index", "stack", "stats", "spans", "sums", "peaks", "theorem_traces")

    def __init__(self, index: int, nfuncs: int):
        self.index = index
        self.stack: list[list] = []  # frames: [child CPU ns, enclosing span id]
        self.stats = [[0, 0, 0] for _ in range(nfuncs)]  # calls, self ns, inclusive ns
        self.spans: list[tuple] = []
        self.sums: dict[str, int] = {}
        self.peaks: dict[str, int] = {}
        self.theorem_traces: set[int] = set()


def _add(st: _ThreadState, name: str, value: int):
    st.sums[name] = st.sums.get(name, 0) + value


def _peak(st: _ThreadState, name: str, value: int):
    if value > st.peaks.get(name, 0):
        st.peaks[name] = value


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Counter hooks, run after a wrapped call returns: (state, tracer, args, kwargs, result).
def _reduce_letters(st, tracer, args, kwargs, result):
    _add(st, "deckgroup.letters_out", len(result))
    _peak(st, "deckgroup.peak_word_len", len(result))


def _ring_init(st, tracer, args, kwargs, result):
    _peak(st, "groupring.peak_support", len(args[0].terms))


def _ring_mul(st, tracer, args, kwargs, result):
    _add(st, "groupring.term_products", len(args[0].terms) * len(_arg(args, kwargs, 1, "other").terms))


def _apply_hom(st, tracer, args, kwargs, result):
    _add(st, "groupring.hom_terms", len(_arg(args, kwargs, 0, "elem").terms))


def _barbell_action(st, tracer, args, kwargs, result):
    _add(st, "equivariant.iterations", abs(_arg(args, kwargs, 1, "spec").iterate))


def _class_init(st, tracer, args, kwargs, result):
    _peak(st, "equivariant.peak_class_support", len(args[0].terms))


def _solve(st, tracer, args, kwargs, result):
    matrix = _arg(args, kwargs, 0, "a")
    _peak(st, "intlinalg.peak_unknowns", len(matrix[0]) if matrix else 0)


def _render(st, tracer, args, kwargs, result):
    _add(st, "scenarios.output_bytes", len(result.encode()))


def _run_theorem(st, tracer, args, kwargs, result):
    st.theorem_traces.add(tracer.trace_id)


HOOKS = {
    "deckgroup.reduce_letters": _reduce_letters,
    "groupring.RingElement.__init__": _ring_init,
    "groupring.RingElement.mul": _ring_mul,
    "groupring.apply_hom": _apply_hom,
    "equivariant.barbell_action": _barbell_action,
    "equivariant.EquivClass.__init__": _class_init,
    "intlinalg.solve_mod2": _solve,
    "intlinalg.solve_integer": _solve,
    "scenarios.render_table": _render,
    "scenarios.render_machine": _render,
    "scenarios.run_theorem": _run_theorem,
}

# per-layer call counters: metric -> wrapped functions whose calls it counts
CALL_COUNTS = {
    "deckgroup.matrix_muls": ("deckgroup.UniTriMatrix.mul",),
    "groupring.elements_built": ("groupring.RingElement.__init__",),
    "groupring.ring_adds": ("groupring.RingElement.add",),
    "groupring.ring_muls": ("groupring.RingElement.mul",),
    "equivariant.barbell_actions": ("equivariant.barbell_action",),
    "equivariant.pairings": ("equivariant.equivariant_pairing",),
    "presentations.matrices": ("presentations.present_from_scenario",),
    "presentations.distinctness_tests": ("presentations.distinguish_brunnian_modules",),
    "intlinalg.solves": ("intlinalg.solve_mod2", "intlinalg.solve_integer"),
    "scenarios.reports": ("scenarios.Report.__init__",),
    "scenarios.geometry_builds": ("scenarios.builtin_geometry",),
    "cli.invocations": ("cli.main",),
}


class Tracer:
    """Wraps the barbellcalc package in place; create it on the thread
    that issues the CLI calls."""

    def __init__(self):
        self.names: list[str] = []
        self.trace_id = -1
        self.call_root: int | None = None
        self._driver = threading.get_ident()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._state_index = itertools.count()
        self._span_ids = itertools.count()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name.startswith(PACKAGE + ".") and module is not None
        ]
        wrapped: dict[int, tuple[object, object]] = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    wrapper = self._wrap(f"{layer}.{name}", obj, span=layer in SPAN_LAYERS)
                    wrapped[id(obj)] = (obj, wrapper)
        for module in [sys.modules[PACKAGE]] + modules:
            for name, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])

    def _wrap_class(self, layer: str, cls: type) -> None:
        qual = f"{layer}.{cls.__name__}"
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and not (name == "__init__" and qual in COUNTED_INITS):
                continue
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(f"{qual}.{name}", attr.__func__)))
            elif isinstance(attr, types.FunctionType):
                setattr(cls, name, self._wrap(f"{qual}.{name}", attr))

    def _state(self) -> _ThreadState:
        st = _ThreadState(next(self._state_index), len(self.names))
        self._local.st = st
        self._states.append(st)
        return st

    def _wrap(self, name: str, fn, span: bool = False):
        fid = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        local = self._local
        clock = time.thread_time_ns
        wall = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            try:
                st = local.st
            except AttributeError:
                st = tracer._state()
            stack = st.stack
            if span:
                span_id = next(tracer._span_ids)
                if stack:
                    parent = stack[-1][1]
                elif threading.get_ident() == tracer._driver:
                    parent = None
                    tracer.call_root = span_id
                else:  # a sweep worker thread
                    parent = tracer.call_root
                w0 = wall()
            else:
                span_id = stack[-1][1] if stack else None
            frame = [0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if span:
                    st.spans.append((span_id, parent, tracer.trace_id, fid, st.index, w0, wall()))
                rec = st.stats[fid]
                rec[0] += 1
                rec[1] += dur - frame[0]
                rec[2] += dur
                if stack:
                    stack[-1][0] += dur
            if hook is not None:
                hook(st, tracer, args, kwargs, result)
            return result

        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    # -- results --------------------------------------------------------

    def function_stats(self) -> dict[str, list[int]]:
        """name -> [calls, self ns, inclusive ns], merged over threads."""
        out = {name: [0, 0, 0] for name in self.names}
        for st in self._states:
            for name, rec in zip(self.names, st.stats):
                total = out[name]
                for i in range(3):
                    total[i] += rec[i]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times (s) and counters over everything traced.
        cli.sweep_jobs and presentations.cache_hit_ratio are filled in by
        the caller, which sees the CLI output and the caches."""
        stats = self.function_stats()
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            own = [rec for name, rec in stats.items() if name.split(".", 1)[0] == layer]
            metrics[f"{layer}.self_s"] = sum(rec[1] for rec in own) / 1e9
            if layer == "deckgroup":
                metrics["deckgroup.calls"] = sum(rec[0] for rec in own)
        for metric, names in CALL_COUNTS.items():
            metrics[metric] = sum(stats[name][0] for name in names if name in stats)
        metrics["scenarios.render_s"] = sum(
            stats[name][2] for name in ("scenarios.render_table", "scenarios.render_machine") if name in stats
        ) / 1e9
        for name in ("deckgroup.letters_out", "groupring.term_products", "groupring.hom_terms",
                     "equivariant.iterations", "scenarios.output_bytes"):
            metrics[name] = sum(st.sums.get(name, 0) for st in self._states)
        for name in ("deckgroup.peak_word_len", "groupring.peak_support",
                     "equivariant.peak_class_support", "intlinalg.peak_unknowns"):
            metrics[name] = max((st.peaks.get(name, 0) for st in self._states), default=0)
        threads_per_call: dict[int, int] = {}
        for st in self._states:
            for trace in st.theorem_traces:
                threads_per_call[trace] = threads_per_call.get(trace, 0) + 1
        metrics["cli.worker_threads"] = max(threads_per_call.values(), default=0)
        return metrics

    def spans(self) -> dict:
        """Every recorded span, with the function-name table."""
        rows = sorted((row for st in self._states for row in st.spans), key=lambda row: row[0])
        return {
            "fields": ["span", "parent", "trace", "function", "thread", "start_ns", "end_ns"],
            "functions": self.names,
            "spans": rows,
        }
