"""Per-layer tracing from outside the program.

The hooks wrap the public entry points of each `multisymp` module and
charge wall time to them.  A wrapped call's self time is its duration
minus the time covered by wrapped calls inside it, so the self times of
one pass never add up to more than the pass.  `Fraction` arithmetic cannot
be wrapped; its cost lands in the self time of the wrapped caller.

A hook rebinds every name that refers to its target, in every module it is
given, so calls through names imported by value (`from .linalg import
nullspace`) are seen as well.  A target that no longer exists is reported
as absent instead of failing the run.

Inner kernels run millions of times per pass, so every boundary keeps
per-item counters (calls and summed self time); only the coarse boundaries
(`span=True`) also record one span per call.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Boundary:
    module: str  # module name inside the multisymp package
    qualname: str  # "function" or "Class.method"
    span: bool = False

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


def _b(module: str, names: str, span: bool = False) -> list[Boundary]:
    return [Boundary(module, q, span) for q in names.split()]


BOUNDARIES = (
    _b("algebra", "Polynomial.__mul__ Polynomial.__add__ Polynomial.subs Polynomial.eval parse_polynomial")
    + _b("exterior", "wedge hook pair ext_d eval_terms _wedge_terms _hook_terms _pair_terms")
    + _b("linalg", "rref nullspace RowBasis.add LinearSolver.__init__ LinearSolver.solve column_space_rref")
    + _b("charts", "builtin_chart nondegeneracy_check contraction_matrix", span=True)
    + _b("dynamics", "of_sampling_test hamiltonian_nvector_solve pseudofiber_directions "
                     "recheck_of_counterexample", span=True)
    + _b("dynamics", "OmegaContraction.of_factors decomposable_pairing _family_step_data")
    + _b("observables", "aof_solve solve_contraction is_of classify_aof aof_tensor copolar_membership "
                        "contraction_solver", span=True)
    + _b("brackets", "poisson_bracket theta_bracket external_bracket complementary_bracket pseudobracket "
                     "pseudobracket_aof form_division", span=True)
    + _b("fieldlab", "simulate legendre_lift functional_series conservation_experiment", span=True)
    + _b("fieldlab", "kg_step")
    + _b("cli", "main Report.emit", span=True)
)

# Derived counters, each a ratio or a total over the traced pass.
DERIVED = (
    ("dynamics.of_factors.per_sample", "1"),
    ("dynamics.family_cache.hit_ratio", "1"),
    ("dynamics.family_cache.entries", "count"),
    ("dynamics.of_sampling_test.fail_ratio", "1"),
    ("observables.solver_cache.hit_ratio", "1"),
    ("fieldlab.kg_step.computed_bytes", "bytes"),
    ("cli.report_bytes", "bytes"),
)


class Tracer:
    def __init__(self, patch_modules: list):
        self.patch_modules = patch_modules
        self.stats: dict[str, list] = {}  # boundary name -> [calls, self seconds]
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self.spans: list[tuple] = []
        self.item_records: list[dict] = []
        self._stack: list[list[float]] = []  # child seconds of each open call
        self._span_stack: list[int] = []
        self._next_span = 0
        self._item: str | None = None
        self._item_span = None
        self._verbs: dict[str, str] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        package = sys.modules["multisymp"]
        self._install_observers()
        for boundary in BOUNDARIES:
            module = getattr(package, boundary.module, None)
            owner_name, _, attr = boundary.qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                self.absent.append(boundary.name)
                continue
            self.stats[boundary.name] = [0, 0.0]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapper = self._wrap(boundary, fn)
            if owner_name:
                # every alias in the class body, such as __rmul__ = __mul__
                for key, value in list(vars(owner).items()):
                    if value is raw:
                        self._set(owner, key, staticmethod(wrapper) if is_static else wrapper)
            for mod in self.patch_modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, key, wrapper)

    def _set(self, target, key: str, value) -> None:
        self._restore.append((target, key, vars(target)[key]))
        setattr(target, key, value)

    def uninstall(self) -> None:
        for target, key, value in reversed(self._restore):
            setattr(target, key, value)
        self._restore.clear()

    def _install_observers(self) -> None:
        """Observers for the derived counters; their cost is charged to no layer."""
        package = sys.modules["multisymp"]
        c = self.counters
        for key in ("samples", "sampling_calls", "sampling_fails", "family_calls", "family_hits",
                    "solver_calls", "solver_hits", "kg_bytes", "report_bytes"):
            c[key] = 0
        self._observers: dict[str, tuple[Callable | None, Callable | None]] = {}  # name -> (before, after)

        def sampling_after(state, result):
            c["sampling_calls"] += 1
            c["samples"] += result.samples_used
            c["sampling_fails"] += not result.passed

        self._observers["dynamics.of_sampling_test"] = (None, sampling_after)

        def cache_observer(module, cache, calls, hits):
            def before(args):
                return len(getattr(module, cache))

            def after(size, result):
                c[calls] += 1
                c[hits] += len(getattr(module, cache)) == size

            return before, after

        if hasattr(package.dynamics, "_FAMILY_CACHE"):
            self._observers["dynamics._family_step_data"] = cache_observer(
                package.dynamics, "_FAMILY_CACHE", "family_calls", "family_hits")
        if hasattr(package.observables, "_SOLVER_CACHE"):
            self._observers["observables.contraction_solver"] = cache_observer(
                package.observables, "_SOLVER_CACHE", "solver_calls", "solver_hits")

        def kg_after(state, result):
            # computed from array sizes: both input levels read, one level written
            c["kg_bytes"] += 3 * result.phi.nbytes

        self._observers["fieldlab.kg_step"] = (None, kg_after)

        def emit_before(args):
            c["report_bytes"] += len(json.dumps(args[0].data, sort_keys=True, indent=2)) + 1

        self._observers["cli.Report.emit"] = (emit_before, None)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        stat = self.stats[boundary.name]
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        name = boundary.name

        if not boundary.span and name not in self._observers:
            def counted(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stat[0] += 1
                    stat[1] += elapsed - frame[0]
                    if stack:
                        stack[-1][0] += elapsed

            return counted

        def traced(*args, **kwargs):
            before, after = tracer._observers.get(name, (None, None))
            outer = clock()
            state = before(args) if before else None
            frame = [0.0]
            stack.append(frame)
            span_id = None
            if boundary.span:
                span_id = tracer._next_span
                tracer._next_span += 1
                parent = tracer._span_stack[-1] if tracer._span_stack else tracer._item_span
                tracer._span_stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat[0] += 1
                stat[1] += (end - start) - frame[0]
                if boundary.span:
                    tracer._span_stack.pop()
                    tracer.spans.append((span_id, name, start, end, parent, tracer._item))
            if after:
                after(state, result)
            if stack:
                stack[-1][0] += clock() - outer
            return result

        return traced

    # -- items ---------------------------------------------------------------

    def begin_item(self, item_id: str, verb: str) -> None:
        self._item = item_id
        self._item_span = self._next_span
        self._next_span += 1
        self._item_verb = verb
        self._verbs[item_id] = verb
        self._item_start = time.perf_counter()
        self._item_snapshot = {k: tuple(v) for k, v in self.stats.items()}

    def end_item(self) -> None:
        end = time.perf_counter()
        self.spans.append((self._item_span, f"item:{self._item_verb}", self._item_start, end, None, self._item))
        counters = {}
        for key, (calls, self_s) in self.stats.items():
            calls0, self0 = self._item_snapshot[key]
            if calls != calls0:
                counters[key] = [calls - calls0, self_s - self0]
        self.item_records.append({"item": self._item, "verb": self._item_verb, "counters": counters})
        self._item = self._item_span = None

    # -- results -------------------------------------------------------------

    def derived(self) -> dict[str, float]:
        c = self.counters
        package = sys.modules["multisymp"]

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        if "dynamics.OmegaContraction.of_factors" in self.stats:
            out["dynamics.of_factors.per_sample"] = ratio(
                self.stats["dynamics.OmegaContraction.of_factors"][0], c["samples"])
        if "dynamics._family_step_data" in self._observers:
            out["dynamics.family_cache.hit_ratio"] = ratio(c["family_hits"], c["family_calls"])
            out["dynamics.family_cache.entries"] = float(len(package.dynamics._FAMILY_CACHE))
        if "dynamics.of_sampling_test" in self.stats:
            out["dynamics.of_sampling_test.fail_ratio"] = ratio(c["sampling_fails"], c["sampling_calls"])
        if "observables.contraction_solver" in self._observers:
            out["observables.solver_cache.hit_ratio"] = ratio(c["solver_hits"], c["solver_calls"])
        if "fieldlab.kg_step" in self.stats:
            out["fieldlab.kg_step.computed_bytes"] = float(c["kg_bytes"])
        if "cli.Report.emit" in self.stats:
            out["cli.report_bytes"] = float(c["report_bytes"])
        return out

    def span_lines(self, pass_index: int) -> list[str]:
        lines = []
        for span_id, name, start, end, parent, item in self.spans:
            lines.append(json.dumps({"pass": pass_index, "span": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "item": item,
                                     "verb": self._verbs.get(item)}))
        for record in self.item_records:
            lines.append(json.dumps({"pass": pass_index, **record}))
        return lines
