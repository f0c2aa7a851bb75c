"""Spans around gridvolt's public functions, recorded from outside.

:class:`Tracer` replaces every public function of the traced modules with
a wrapper that records one span per call: name, start, end, parent span
and the operation id the benchmark set. The wrapper is installed wherever
callers look the function up - the defining module and every gridvolt
module that imported it by name (``controller`` imports ``solve_newton``,
``powerflow`` imports ``lu_solve`` ...) - so internal calls are seen too.
:meth:`Tracer.restore` puts every original back.

At the same boundaries the tracer reads counts off the results: Newton
iterations and convergence, factorised matrix sizes, control iterations,
clamped set-points and useful iterations.

This module needs neither numpy nor gridvolt at import time.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

TRACED_MODULES = ("caseio", "netmodel", "powerflow", "numerics",
                  "sensitivity", "controller", "cli")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int   # index into the span list, -1 for a root span
    op: str


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent and overlapping children are
    merged, so the result never goes negative.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        if sp.parent >= 0:
            children[sp.parent].append((sp.start, sp.end))
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, sp.start), min(e, sp.end)
            if e <= s:
                continue
            if run_end is not None and s <= run_end:
                run_end = max(run_end, e)
                continue
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = s, e
        if run_end is not None:
            covered += run_end - run_start
        out.append(sp.end - sp.start - covered)
    return out


@dataclass
class Counts:
    """Quantities read off results at the traced boundaries."""

    newton_solves: int = 0
    newton_converged: int = 0
    newton_iters: int = 0
    lu_flop: float = 0.0       # 2/3 n^3 per factorisation, from the shapes
    runs: int = 0
    run_iters: int = 0
    useful_iters: int = 0      # iterations after which the critical set shrank
    steps: int = 0
    clamped: int = 0
    outcomes: dict = field(default_factory=dict)


class Tracer:
    """Install with :meth:`install`, take out with :meth:`restore`."""

    def __init__(self, modules: dict):
        """``modules`` maps each name in ``TRACED_MODULES`` to the module."""
        self.modules = modules
        self.spans: list[Span] = []
        self.counts = Counts()
        self.op = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def public_functions(self) -> dict[str, object]:
        """``"module.name"`` -> function, for every public function each
        traced module defines itself."""
        found = {}
        for short in TRACED_MODULES:
            mod = self.modules[short]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    found[f"{short}.{name}"] = obj
        return found

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrapper_of = {fn: self._wrap(label, fn)
                      for label, fn in self.public_functions().items()}
        for mod in self.modules.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapper_of:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrapper_of[val])

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, label: str, fn):
        spans, stack = self.spans, self._stack
        observe = _OBSERVERS.get(label)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = Span(label, start, clock(), parent, self.op)
                stack.pop()
                if observe is not None:
                    observe(self.counts, None, exc)
                raise
            spans[idx] = Span(label, start, clock(), parent, self.op)
            stack.pop()
            if observe is not None:
                observe(self.counts, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced


def _observe_newton(c: Counts, result, exc) -> None:
    sol = result if exc is None else getattr(exc, "solution", None)
    c.newton_solves += 1
    if sol is not None:
        c.newton_iters += sol.iterations
        c.newton_converged += bool(sol.converged)


def _observe_lu(c: Counts, result, exc) -> None:
    if result is not None:
        c.lu_flop += 2.0 * result.lu.shape[0] ** 3 / 3.0


def _observe_step(c: Counts, result, exc) -> None:
    if result is not None:
        c.steps += 1
        c.clamped += len(result.clamped)


def _observe_run(c: Counts, result, exc) -> None:
    if result is None:
        return
    c.runs += 1
    c.outcomes[result.outcome.value] = c.outcomes.get(result.outcome.value, 0) + 1
    cfg, pq_idx = result.config, result.partition.pq_idx
    for rec in result.iterations:
        after = sum(1 for i in pq_idx
                    if not cfg.v_min <= rec.vm_after[i] <= cfg.v_max)
        c.run_iters += 1
        c.useful_iters += after < len(rec.critical_buses)


_OBSERVERS = {
    "powerflow.solve_newton": _observe_newton,
    "numerics.lu_factor": _observe_lu,
    "controller.ovc_step": _observe_step,
    "controller.svc_step": _observe_step,
    "controller.ovc_run": _observe_run,
    "controller.svc_run": _observe_run,
}

# Functions whose per-operation self time is reported as a layer metric.
SELF_MS = (
    "numerics.lu_factor", "numerics.lu_solve_factored", "numerics.svd",
    "powerflow.solve_newton", "sensitivity.build_model",
    "netmodel.validate_network", "caseio.parse_case",
    "caseio.parse_matpower_case", "caseio.write_trace_csv",
    "caseio.trace_rows", "controller.ovc_step", "controller.svc_step",
    "cli.run",
)
# Functions whose calls per operation are reported as a layer metric.
CALLS = (
    "numerics.lu_factor", "numerics.svd", "powerflow.solve_newton",
    "sensitivity.build_model", "netmodel.validate_network",
    "netmodel.partition_buses", "caseio.parse_case",
)


def layer_metrics(spans: list[Span], counts: Counts, n_ops: int) -> dict:
    """Per-operation layer metrics from every span the tracer kept.

    Times, call counts and computed flops are totals divided by ``n_ops``;
    the ratios are taken over their own base (solves, runs, steps).
    """
    n_ops = max(n_ops, 1)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    for sp, st in zip(spans, self_times(spans)):
        calls[sp.name] += 1
        self_s[sp.name] += st
        incl_s[sp.name] += sp.end - sp.start
    c = counts

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"{n}.calls": calls[n] / n_ops for n in CALLS}
    out.update({f"{n}.self_ms": 1e3 * self_s[n] / n_ops for n in SELF_MS})
    out.update({
        "numerics.lu_factor.gflop_computed": c.lu_flop / 1e9 / n_ops,
        "numerics.lu_factor.gflops": ratio(c.lu_flop / 1e9,
                                           self_s["numerics.lu_factor"]),
        "powerflow.newton_iters_per_solve": ratio(c.newton_iters, c.newton_solves),
        "powerflow.ms_per_newton_iter": ratio(
            1e3 * incl_s["powerflow.solve_newton"], c.newton_iters),
        "powerflow.converged_frac": ratio(c.newton_converged, c.newton_solves),
        "controller.iters_per_run": ratio(c.run_iters, c.runs),
        "controller.clamped_per_iter": ratio(c.clamped, c.steps),
        "controller.useful_iter_frac": ratio(c.useful_iters, c.run_iters),
    })
    return out


def layer_unit(name: str) -> str:
    """Unit of a layer metric, from its name."""
    if name.endswith((".self_ms", ".ms_per_newton_iter")):
        return "ms"
    if name.endswith(".gflop_computed"):
        return "GFLOP"
    if name.endswith(".gflops"):
        return "GFLOP/s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def self_shares(spans: list[Span]) -> tuple[dict, dict]:
    """Self-time share of each traced function and of each module, over
    the time the root spans cover."""
    total = sum(sp.end - sp.start for sp in spans if sp.parent < 0) or 1.0
    by_fn: dict[str, float] = defaultdict(float)
    for sp, t in zip(spans, self_times(spans)):
        by_fn[sp.name] += t / total
    by_mod: dict[str, float] = defaultdict(float)
    for name, share in by_fn.items():
        by_mod[name.split(".")[0]] += share
    return dict(by_fn), dict(by_mod)
