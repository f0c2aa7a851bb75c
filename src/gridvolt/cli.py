"""Command-line front end.

Loads a case (MATPOWER-style ``.m`` or native JSON), applies reactive
disturbances and optional flat set-points, then runs one of five methods:

* ``solve``   - print the converged bus-voltage table
* ``ovc``     - iterative optimal-direction set-point control
* ``svc``     - iterative single-generator baseline control
* ``compare`` - one iteration of each from the same start, with the
  achieved performance index of both
* ``sens``    - dump the sensitivity matrices as CSV triplets

Exit codes: 0 success/resolved, 1 input error, 2 iteration cap or
oscillation (also unconverged power flow), 3 uncontrollable bus. Output
is byte-identical for identical inputs.

The case file is read on every run. Runs in one process on identical case
text share one parsed network, and with it the family memo: its checked
structure, partition, Ybus and B'' model (see :mod:`gridvolt.netmodel`); a few
distinct texts are kept, the least recently used dropped first. Parse
warnings are therefore logged when a text is first parsed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field

from . import caseio, netmodel, powerflow, sensitivity
from .controller import (
    ComparisonReport,
    ControlConfig,
    ControlTrace,
    EvaluationMode,
    Outcome,
    UncontrollableBusError,
    compare_ovc_svc,
    ovc_run,
    svc_run,
)
from .netmodel import Network

__all__ = ["RunSpec", "RunResult", "run", "main", "DATA_DIR_ENV"]

DATA_DIR_ENV = "GRIDVOLT_DATA_DIR"
# Parsed case texts kept per process. After a run each holds its network,
# text and family memo: ≈0.28 MB at 60 buses, ≈76 MB at 1200 (tracemalloc).
_CASE_CACHE_SIZE = 4

_OUTCOME_EXIT = {
    Outcome.RESOLVED: 0,
    Outcome.ITERATION_CAP_HIT: 2,
    Outcome.OSCILLATING: 2,
    Outcome.INFEASIBLE: 3,
}


@dataclass(frozen=True)
class RunSpec:
    """Everything one invocation needs, parsed and validated."""

    case_path: str
    method: str = "solve"
    disturbances: tuple[tuple[int, float], ...] = ()
    flat_setpoints: float | None = None
    config: ControlConfig = field(default_factory=ControlConfig)
    output: str = "table"
    trace_path: str | None = None


@dataclass(frozen=True)
class RunResult:
    exit_code: int
    output: str
    error: str = ""


class _InputError(Exception):
    pass


def _resolve_case(path: str) -> str:
    if os.path.isfile(path):
        return path
    candidates = [path, path + ".m", path + ".json"]
    data_dir = os.environ.get(DATA_DIR_ENV)
    if data_dir:
        for cand in candidates:
            full = os.path.join(data_dir, cand)
            if os.path.isfile(full):
                return full
    try:
        return caseio.bundled_case_path(path)
    except FileNotFoundError:
        raise _InputError(f"case file not found: {path}") from None


def _load_network(path: str) -> Network:
    """The case at ``path``, read on every call; a text parsed before is
    not parsed again (see :func:`_parse_cached`)."""
    return _parse_cached(caseio.CaseSource.from_path(path))


@functools.lru_cache(maxsize=_CASE_CACHE_SIZE)
def _parse_cached(source: caseio.CaseSource) -> Network:
    """:func:`caseio.parse_case`, keeping the networks of the last
    ``_CASE_CACHE_SIZE`` distinct sources (format and full text). A run on a
    text seen before gets the same immutable network back, so the networks
    :func:`_prepare` derives from it share one family memo across runs. A
    failed parse raises and is not kept."""
    return caseio.parse_case(source)


def _prepare(spec: RunSpec) -> Network:
    """The case with the run's set-points and disturbances applied. It is
    validated once, where the method partitions it
    (:func:`~gridvolt.netmodel.partition_buses`), and an invalid network
    exits 1 with the same ``invalid network: ...`` report."""
    net = _load_network(_resolve_case(spec.case_path))
    if spec.flat_setpoints is not None:
        net = netmodel.set_flat_setpoints(net, spec.flat_setpoints)
    for bus, dq in spec.disturbances:
        net = netmodel.apply_disturbance(net, bus, dq)
    return net


def _fmt_v(v: float) -> str:
    return f"{v:.4f}"


def _render_solution(net: Network, sol, fmt: str) -> str:
    kinds = {b.id: b.kind.value for b in net.buses}
    rows = list(zip(sol.ids, sol.vm.tolist(), sol.va.tolist()))
    if fmt == "csv":
        lines = ["bus,kind,vm_pu,va_deg"]
        for bus_id, vm, va in rows:
            lines.append(f"{bus_id},{kinds[bus_id]},"
                         f"{format(vm, '.10g')},"
                         f"{format(math.degrees(va), '.10g')}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = {
            "converged": sol.converged,
            "iterations": sol.iterations,
            "max_mismatch_pu": sol.max_mismatch,
            "buses": [
                {"bus": bus_id, "kind": kinds[bus_id],
                 "vm_pu": vm, "va_deg": math.degrees(va)}
                for bus_id, vm, va in rows
            ],
        }
        return json.dumps(doc, indent=2) + "\n"
    lines = [f"Converged in {sol.iterations} iterations, "
             f"max mismatch {sol.max_mismatch:.3e} pu", ""]
    lines.append("Bus   Kind   Vm(pu)   Va(deg)")
    for bus_id, vm, va in rows:
        lines.append(f"{bus_id:>3}   {kinds[bus_id]:<5}  "
                     f"{_fmt_v(vm)}   {math.degrees(va):8.4f}")
    return "\n".join(lines) + "\n"


def _sens_csv(net: Network) -> str:
    model = sensitivity.build_model(net)
    lines = ["matrix,row_bus,col_bus,value"]
    all_ids = model.pv_ids + model.pq_ids
    for name, matrix, row_ids, col_ids in (
            ("s_vq", sensitivity.full_sensitivity(model), all_ids, all_ids),
            ("a_ctrl", model.a_ctrl, model.pq_ids, model.pv_ids)):
        for ri, row in zip(row_ids, matrix.tolist()):
            lines += [f"{name},{ri},{cj},{format(v, '.10g')}"
                      for cj, v in zip(col_ids, row)]
    return "\n".join(lines) + "\n"


def _render_trace(trace: ControlTrace, fmt: str) -> str:
    part = trace.partition
    int_to_ext = part.int_to_ext
    if fmt == "csv":
        return caseio.write_trace_csv(trace)
    if fmt == "json":
        doc = {
            "method": trace.method,
            "outcome": trace.outcome.value,
            "j_achieved_total_pu2": trace.j_achieved_total,
            "iterations": [
                {"index": rec.index,
                 "controlled_bus": rec.controlled_bus,
                 "critical": [[b, v] for b, v in rec.critical_buses],
                 "clamped": list(rec.clamped),
                 "vm_after": {str(int_to_ext[i]): float(rec.vm_after[i])
                              for i in sorted(int_to_ext)}}
                for rec in trace.iterations
            ],
        }
        return json.dumps(doc, indent=2) + "\n"
    header = "Bus   Before" + "".join(f"   Iter {r.index}" for r in trace.iterations)
    lines = [header]
    for idx in sorted(int_to_ext):
        bus_id = int_to_ext[idx]
        row = f"{bus_id:>3}   {_fmt_v(trace.initial_solution.vm[idx])}"
        for rec in trace.iterations:
            row += f"   {_fmt_v(rec.vm_after[idx])}"
        lines.append(row)
    lines.append("")
    for rec in trace.iterations:
        crit = ", ".join(f"{b}@{_fmt_v(v)}" for b, v in rec.critical_buses)
        clamp = f" clamped={list(rec.clamped)}" if rec.clamped else ""
        lines.append(f"Iter {rec.index}: critical [{crit}] -> controlled bus "
                     f"{rec.controlled_bus}{clamp}")
    lines.append(f"Outcome: {trace.outcome.value} after "
                 f"{len(trace.iterations)} iteration(s)")
    lines.append(f"Achieved performance index (sum over iterations): "
                 f"{trace.j_achieved_total:.4f} pu^2")
    return "\n".join(lines) + "\n"


def _render_comparison(report: ComparisonReport, fmt: str) -> str:
    if fmt == "csv":
        return ("method,controlled_bus,j_pu2\n"
                f"ovc,{report.controlled_bus},{format(report.j_ovc, '.10g')}\n"
                f"svc,{report.controlled_bus},{format(report.j_svc, '.10g')}\n")
    if fmt == "json":
        doc = {"controlled_bus": report.controlled_bus,
               "j_ovc_pu2": report.j_ovc, "j_svc_pu2": report.j_svc}
        return json.dumps(doc, indent=2) + "\n"
    lines = [
        f"Controlled bus: {report.controlled_bus}",
        "",
        "Method   J (pu^2)",
        f"OVC      {report.j_ovc:.4f}",
        f"SVC      {report.j_svc:.4f}",
        "",
        f"OVC achieves {report.j_ovc / report.j_svc:.2f}x the SVC index"
        if report.j_svc > 0 else "SVC index is zero",
    ]
    return "\n".join(lines) + "\n"


def run(spec: RunSpec) -> RunResult:
    """Execute one run; expected failures map to exit codes, not raises."""
    try:
        net = _prepare(spec)
    except (OSError, _InputError, ValueError, netmodel.NetworkError) as exc:
        return RunResult(1, "", f"error: {exc}\n")

    try:
        if spec.method == "solve":
            sol = powerflow.solve_newton(net, tol=spec.config.pf_tolerance)
            return RunResult(0, _render_solution(net, sol, spec.output))
        if spec.method == "sens":
            return RunResult(0, _sens_csv(net))
        if spec.method in ("ovc", "svc"):
            runner = ovc_run if spec.method == "ovc" else svc_run
            trace = runner(net, spec.config)
            out = _render_trace(trace, spec.output)
            if spec.trace_path:
                with open(spec.trace_path, "w", encoding="utf-8") as fh:
                    fh.write(caseio.write_trace_csv(trace))
            return RunResult(_OUTCOME_EXIT[trace.outcome], out)
        if spec.method == "compare":
            report = compare_ovc_svc(net, spec.config)
            out = _render_comparison(report, spec.output)
            if spec.trace_path:
                with open(spec.trace_path, "w", encoding="utf-8") as fh:
                    fh.write(caseio.write_trace_csv(report.ovc_trace))
            return RunResult(0, out)
        return RunResult(1, "", f"error: unknown method {spec.method!r}\n")
    except UncontrollableBusError as exc:
        return RunResult(3, "", f"error: {exc}\n")
    except powerflow.PowerFlowDivergedError as exc:
        return RunResult(2, "", f"error: {exc}\n")
    except (powerflow.PowerFlowError, RuntimeError, ValueError) as exc:
        return RunResult(1, "", f"error: {exc}\n")


def _parse_disturbance(text: str) -> tuple[int, float]:
    bus, sep, mvar = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"expected BUS:MVAR (e.g. 9:+70), got {text!r}")
    try:
        return int(bus), float(mvar)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected BUS:MVAR with numeric fields, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridvolt",
        description="Set-point voltage control on per-unit network cases.",
        epilog="Bundled cases case9/case14/case30 resolve by name; "
               f"${DATA_DIR_ENV} adds a search directory.",
    )
    parser.add_argument("--case", required=True,
                        help="case file path or bundled case name")
    parser.add_argument("--method", default="solve",
                        choices=["solve", "ovc", "svc", "compare", "sens"])
    parser.add_argument("--disturb", action="append", default=[],
                        type=_parse_disturbance, metavar="BUS:MVAR",
                        help="add reactive load at a bus (positive = "
                             "inductive, lowers voltage); repeatable")
    parser.add_argument("--flat-setpoints", type=float, default=None,
                        metavar="V", help="set every controlled-bus "
                        "set-point to V pu before disturbing")
    parser.add_argument("--vref", type=float, default=1.0,
                        help="reference voltage (default 1.0)")
    parser.add_argument("--vmin", type=float, default=0.9,
                        help="lower voltage limit (default 0.9)")
    parser.add_argument("--vmax", type=float, default=1.1,
                        help="upper voltage limit (default 1.1)")
    parser.add_argument("--max-iterations", type=int, default=20)
    parser.add_argument("--linear", action="store_true",
                        help="propagate the linear model between control "
                             "iterations instead of re-solving")
    parser.add_argument("--no-clamp", action="store_true",
                        help="do not clamp set-points to the voltage limits")
    parser.add_argument("--tolerance", type=float, default=powerflow.PF_TOLERANCE,
                        help="power-flow mismatch tolerance in pu")
    parser.add_argument("--output", default="table",
                        choices=["table", "csv", "json"],
                        help="rendering of the main report (sens is always CSV)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write the per-iteration trace CSV here")
    return parser


def _spec_from_args(args: argparse.Namespace) -> RunSpec:
    cfg = ControlConfig(
        v_ref=args.vref,
        v_min=args.vmin,
        v_max=args.vmax,
        max_iterations=args.max_iterations,
        evaluation_mode=(EvaluationMode.LINEAR if args.linear
                         else EvaluationMode.POWER_FLOW),
        clamp_pv=not args.no_clamp,
        pf_tolerance=args.tolerance,
    )
    return RunSpec(
        case_path=args.case,
        method=args.method,
        disturbances=tuple(args.disturb),
        flat_setpoints=args.flat_setpoints,
        config=cfg,
        output=args.output,
        trace_path=args.trace,
    )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    result = run(spec)
    if result.output:
        sys.stdout.write(result.output)
    if result.error:
        sys.stderr.write(result.error)
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
