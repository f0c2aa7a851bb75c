"""Self-tests of the benchmark harness: ``python3 -m pytest bench -q``."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402

import gridvolt  # noqa: E402,F401
import grids  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

GV = SimpleNamespace(np=np, **{m: getattr(gridvolt, m) for m in tracing.TRACED_MODULES})


@pytest.fixture(scope="module")
def case30():
    cio = GV.caseio
    return cio.parse_case(cio.CaseSource.from_path(cio.bundled_case_path("case30")))


@pytest.fixture(scope="module")
def slack_mw(case30):
    return grids.slack_output_mw(GV, case30)


# --- self time ---------------------------------------------------------------

def test_self_time_subtracts_merged_clipped_children():
    spans = [
        Span("a", 0.0, 10.0, -1, "op0"),
        Span("b", 1.0, 3.0, 0, "op0"),
        Span("c", 2.0, 5.0, 0, "op0"),    # overlaps b
        Span("d", 8.0, 12.0, 0, "op0"),   # runs past its parent: clipped
        Span("e", 2.5, 2.75, 2, "op0"),   # grandchild: only its parent sees it
    ]
    # a is covered on [1, 5] and [8, 10]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 2.75, 4.0, 0.25])


def test_self_time_of_a_leaf_is_its_duration():
    assert tracing.self_times([Span("x", 2.0, 3.5, -1, "")]) == [1.5]


# --- percentiles --------------------------------------------------------------

def test_timing_summary_median_p90_and_beyond_count():
    s = run.timing_summary([k / 1e3 for k in range(1, 101)])  # 1..100 ms
    assert s["p50"] == pytest.approx(50.5)
    assert s["p90"] == pytest.approx(90.9)
    assert s["n"] == 100
    assert s["beyond_p90"] == 10
    assert s["p90_ok"]


def test_p90_needs_ten_samples_beyond_it():
    s = run.timing_summary([k / 1e3 for k in range(1, 51)])
    assert s["beyond_p90"] == 5
    assert not s["p90_ok"]


def test_gmean():
    assert run.gmean([1.0, 4.0]) == pytest.approx(2.0)


# --- tiled grids --------------------------------------------------------------

def test_tiling_is_deterministic(case30, slack_mw):
    a = grids.tile(GV, case30, 3, 7, slack_mw)
    b = grids.tile(GV, case30, 3, 7, slack_mw)
    c = grids.tile(GV, case30, 3, 8, slack_mw)
    assert a == b
    assert a != c
    assert a.n_bus == 90
    slack = [bus.id for bus in a.buses if bus.kind is GV.netmodel.BusKind.SLACK]
    assert slack == [1]


@pytest.mark.parametrize("k, grid_seed", [
    *((workloads.LOOP_TILES, s) for s in workloads.LOOP_GRID_SEEDS),
    (workloads.DECIDE_TILES, workloads.DECIDE_GRID_SEED),
])
def test_workload_grids_are_valid_and_converge(case30, slack_mw, k, grid_seed):
    net = grids.tile(GV, case30, k, grid_seed, slack_mw)
    assert GV.netmodel.validate_network(net) == []
    assert GV.powerflow.solve_newton(net).converged


# --- tracer -------------------------------------------------------------------

def _module_state():
    return {m: dict(vars(getattr(GV, m))) for m in tracing.TRACED_MODULES}


def test_tracer_wraps_where_callers_look_up_and_restores(case30):
    before = _module_state()
    tracer = tracing.Tracer({m: getattr(GV, m) for m in tracing.TRACED_MODULES})
    tracer.install()
    try:
        assert GV.controller.solve_newton is not before["controller"]["solve_newton"]
        assert GV.powerflow.lu_solve is not before["powerflow"]["lu_solve"]
        assert GV.numerics.lu_factor is not before["numerics"]["lu_factor"]
        tracer.op = "op0"
        GV.controller.ovc_run(GV.netmodel.apply_disturbance(
            GV.netmodel.set_flat_setpoints(case30, 1.0), 30, 20.0))
    finally:
        tracer.restore()
    assert _module_state() == before
    names = {sp.name for sp in tracer.spans}
    assert {"controller.ovc_run", "powerflow.solve_newton", "numerics.lu_factor",
            "numerics.lu_solve_factored", "sensitivity.build_model",
            "netmodel.partition_buses"} <= names
    assert all(sp.op == "op0" for sp in tracer.spans)
    newton = [sp for sp in tracer.spans if sp.name == "powerflow.solve_newton"]
    assert all(tracer.spans[sp.parent].name == "controller.ovc_run" for sp in newton)
    assert tracer.counts.newton_solves == len(newton)
    assert tracer.counts.runs == 1
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, 1)
    assert metrics["powerflow.converged_frac"] == 1.0
    assert metrics["numerics.lu_factor.calls"] > 0


def test_canary_passes():
    assert workloads.canary(GV) is None


def test_loop_divergence_is_a_listed_outcome_and_other_raises_are_not(case30):
    wl = workloads.LoopTiled()

    def diverging_run(net, cfg):
        raise GV.powerflow.PowerFlowDivergedError("did not converge", None)

    def singular_run(net, cfg):
        raise GV.powerflow.PowerFlowError("singular Jacobian")

    cfg = GV.controller.ControlConfig()
    op = workloads.LoopOp(7, "ovc", case30, cfg)
    controller = SimpleNamespace(ovc_run=diverging_run)
    state = {"gv": SimpleNamespace(powerflow=GV.powerflow, controller=controller),
             "diverged": []}
    out = wl.run(state, op)
    assert wl.check(state, op, out) is None
    assert state["diverged"] == [(7, "did not converge")]
    assert wl.observe(state, op, out) == (False, None)
    assert wl.digest(op, out) == b"diverged\ndid not converge"
    controller.ovc_run = singular_run
    with pytest.raises(GV.powerflow.PowerFlowError):
        wl.run(state, op)


# --- BENCHMARK.json -----------------------------------------------------------

def test_benchmark_json_names_what_a_run_reports():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "bench/run.py"]
    # decide-tiled runs but is not gated (see the README)
    assert [w["name"] for w in doc["workloads"]] == [
        workloads.CliBundled.name, workloads.LoopTiled.name]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    layers = tracing.layer_metrics([], tracing.Counts(), 1)
    layers["trace.overhead_frac"] = 0.0
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        name: tracing.layer_unit(name) for name in layers}
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
