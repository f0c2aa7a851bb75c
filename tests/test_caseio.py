import logging

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridvolt import caseio, controller, netmodel, powerflow
from gridvolt.caseio import (
    CaseFormatError,
    SchemaError,
    parse_json_case,
    parse_matpower_case,
    write_json_case,
    write_trace_csv,
)
from gridvolt.netmodel import BusKind

from conftest import load_case

TWO_BUS_CASE = """\
function mpc = toy2
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
\t1\t3\t0\t0\t0\t0\t1\t1\t0\t345\t1\t1.1\t0.9;
\t2\t1\t0\t10\t0\t0\t1\t1\t0\t345\t1\t1.1\t0.9;
];
mpc.gen = [
\t1\t0\t0\t300\t-300\t1\t100\t1\t250\t10;
];
mpc.branch = [
\t1\t2\t0\t0.1\t0\t250\t250\t250\t0\t0\t1;
];
"""


def test_parse_case30_shape(case30):
    assert case30.n_bus == 30
    controlled = [b.id for b in case30.buses
                  if b.kind in (BusKind.SLACK, BusKind.PV)]
    assert sorted(controlled) == [1, 2, 13, 22, 23, 27]
    assert case30.base_mva == 100.0
    assert len(case30.branches) == 41
    assert len(case30.generators) == 6


def test_parse_case9_values(case9):
    assert case9.bus(9).q_load == 50.0
    assert case9.bus(5).p_load == 90.0
    assert case9.bus(1).kind is BusKind.SLACK
    # stock set-points come from the gen table Vg column
    assert case9.bus(2).v_setpoint == 1.0
    br14 = case9.branches[0]
    assert (br14.from_bus, br14.to_bus, br14.x) == (1, 4, 0.0576)


def test_parse_case14_tap_and_shunt(case14):
    taps = {(br.from_bus, br.to_bus): br.tap for br in case14.branches}
    assert taps[(4, 7)] == 0.978
    assert taps[(5, 6)] == 0.932
    assert taps[(1, 2)] == 1.0  # tap 0 normalizes to 1.0
    assert case14.bus(9).b_shunt == 19.0
    assert case14.bus(1).v_setpoint == 1.06


def test_missing_gen_table_reported():
    text = "mpc.baseMVA = 100;\nmpc.bus = [ 1 3 0 0 0 0 1 1 0 345 1 1.1 0.9; ];\n"
    text += "mpc.branch = [ 1 1 0 0.1 0 0 0 0 0 0 1; ];\n"
    with pytest.raises(CaseFormatError, match="mpc.gen"):
        parse_matpower_case(text)


def test_two_bus_case_ybus_matches_hand_computed():
    net = parse_matpower_case(TWO_BUS_CASE)
    ybus = powerflow.build_ybus(net)
    # single 0.1 pu reactance line: Y = [[-10j, 10j], [10j, -10j]]
    assert np.allclose(ybus.g, 0.0, atol=1e-15)
    assert np.allclose(ybus.b, [[-10.0, 10.0], [10.0, -10.0]], atol=1e-12)


def test_unknown_field_warned_and_skipped(caplog):
    text = TWO_BUS_CASE + "mpc.gencost = [ 2 0 0 3 0.1 1 1; ];\n"
    with caplog.at_level(logging.WARNING, logger="gridvolt.caseio"):
        net = parse_matpower_case(text)
    assert net.n_bus == 2
    assert any("gencost" in rec.message for rec in caplog.records)


def test_bus_type_gen_mismatch_warns(caplog):
    # bus 2 typed PV but hosts no generator: warned, type column wins
    text = TWO_BUS_CASE.replace("\t2\t1\t0\t10", "\t2\t2\t0\t10")
    with caplog.at_level(logging.WARNING, logger="gridvolt.caseio"):
        net = parse_matpower_case(text)
    assert net.bus(2).kind is BusKind.PV
    assert any("no in-service generator" in rec.message for rec in caplog.records)


def test_row_arity_mismatch_reported():
    text = TWO_BUS_CASE.replace(
        "\t1\t2\t0\t0.1\t0\t250\t250\t250\t0\t0\t1;", "\t1\t2\t0\t0.1;")
    with pytest.raises(CaseFormatError, match="columns"):
        parse_matpower_case(text)


def test_non_numeric_cell_reported_with_position():
    text = TWO_BUS_CASE.replace("mpc.baseMVA = 100;", "mpc.baseMVA = abc;")
    with pytest.raises(CaseFormatError, match="non-numeric") as exc_info:
        parse_matpower_case(text)
    assert exc_info.value.line == 3


def test_extra_columns_parse_identically(case9):
    with open(caseio.bundled_case_path("case9"), encoding="utf-8") as fh:
        text = fh.read()
    padded = []
    for line in text.splitlines():
        if line.strip().endswith(";") and line.startswith("\t"):
            padded.append(line[:-1] + "\t0\t0;")
        else:
            padded.append(line)
    assert parse_matpower_case("\n".join(padded)) == case9


def test_status_zero_branch_kept_out_of_service():
    text = TWO_BUS_CASE.replace(
        "\t1\t2\t0\t0.1\t0\t250\t250\t250\t0\t0\t1;",
        "\t1\t2\t0\t0.1\t0\t250\t250\t250\t0\t0\t1;\n"
        "\t1\t2\t0\t0.2\t0\t250\t250\t250\t0\t0\t0;")
    net = parse_matpower_case(text)
    assert len(net.branches) == 2
    assert net.branches[1].in_service is False


def test_unclosed_matrix_reported():
    with pytest.raises(CaseFormatError, match="not closed"):
        parse_matpower_case("mpc.baseMVA = 100;\nmpc.bus = [ 1 3 0\n")


@given(st.text(max_size=300))
def test_parser_never_panics_on_text(text):
    try:
        net = parse_matpower_case(text)
        assert net.n_bus >= 0
    except CaseFormatError:
        pass


@given(st.binary(max_size=300))
def test_parser_never_panics_on_bytes(blob):
    try:
        parse_matpower_case(blob.decode("utf-8", errors="replace"))
    except CaseFormatError:
        pass


_FRAGMENTS = ["mpc.", "bus", "gen", "branch", "baseMVA", "=", "[", "]", ";",
              "\n", "\t", " ", "%", "1", "2.5", "-3", "1e9", ",", "'2'",
              "function mpc = x", "nan", "]", "];"]


@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=60))
def test_parser_never_panics_on_case_like_fragments(parts):
    try:
        parse_matpower_case("".join(parts))
    except CaseFormatError:
        pass


@given(st.text(max_size=200))
def test_json_parser_never_panics(text):
    try:
        parse_json_case(text)
    except SchemaError:
        pass


# ------------------------------------------------------------------- JSON side


def test_json_roundtrip_shipped_cases(all_cases):
    for name, net in all_cases.items():
        again = parse_json_case(write_json_case(net))
        assert again == net, name


def test_json_write_is_deterministic(case9):
    assert write_json_case(case9) == write_json_case(case9)


def test_parse_write_parse_idempotent(all_cases):
    for net in all_cases.values():
        once = parse_json_case(write_json_case(net))
        twice = parse_json_case(write_json_case(once))
        assert once == twice == net


def test_json_missing_base_mva_path():
    with pytest.raises(SchemaError, match="/base_mva") as exc_info:
        parse_json_case('{"buses": [], "branches": [], "generators": []}')
    assert exc_info.value.path == "/base_mva"


def test_json_bad_kind_path(case9):
    text = write_json_case(case9).replace('"kind": "slack"', '"kind": "ref"')
    with pytest.raises(SchemaError, match="/buses/0/kind"):
        parse_json_case(text)


def test_json_bad_type_path(case9):
    text = write_json_case(case9).replace('"tap": 1,', '"tap": "one",')
    with pytest.raises(SchemaError, match="/branches/0/tap"):
        parse_json_case(text)


def test_json_invalid_document():
    with pytest.raises(SchemaError):
        parse_json_case("not json at all")
    with pytest.raises(SchemaError):
        parse_json_case("[1, 2, 3]")


def test_json_roundtrip_toy_exact_fields():
    net = load_case("case14")
    disturbed = netmodel.apply_disturbance(net, 10, -46.4)
    again = parse_json_case(write_json_case(disturbed))
    for a, b in zip(disturbed.buses, again.buses):
        assert a == b


# ------------------------------------------------------------------- trace CSV


def test_trace_csv_9bus_controlled_row(scenario9):
    trace = controller.ovc_run(scenario9)
    csv = write_trace_csv(trace)
    lines = csv.strip().splitlines()
    assert lines[0] == "iteration,bus,voltage_pu,role"
    by_key = {}
    for line in lines[1:]:
        it, bus, v, role = line.split(",")
        by_key[(int(it), int(bus))] = (float(v), role)
    v9, role9 = by_key[(1, 9)]
    assert role9 == "controlled"
    assert v9 == pytest.approx(0.993, abs=0.01)
    assert by_key[(0, 9)][1] == "critical"
    assert by_key[(0, 1)][1] == "pv"


def test_trace_csv_no_critical_has_snapshot_only(case9):
    trace = controller.ovc_run(netmodel.set_flat_setpoints(case9, 1.0))
    csv = write_trace_csv(trace)
    lines = csv.strip().splitlines()
    assert len(lines) == 1 + case9.n_bus  # header + iteration-0 snapshot
    assert all(line.split(",")[0] == "0" for line in lines[1:])


def test_trace_csv_30bus_two_iterations(scenario30):
    trace = controller.ovc_run(scenario30)
    csv = write_trace_csv(trace)
    iterations = {int(line.split(",")[0]) for line in csv.strip().splitlines()[1:]}
    assert max(iterations) == 2


def test_trace_csv_ordering(scenario30):
    trace = controller.ovc_run(scenario30)
    rows = [line.split(",") for line in write_trace_csv(trace).strip().splitlines()[1:]]
    keys = [(int(r[0]), int(r[1])) for r in rows]
    assert keys == sorted(keys)


def reference_trace_csv(trace):
    """The per-row-object rendering: one ``TraceRow`` per (iteration, bus)."""
    part, cfg = trace.partition, trace.config

    def snapshot(iteration, vm, controlled):
        for idx in sorted(part.int_to_ext):
            bus_id = part.int_to_ext[idx]
            v = float(vm[idx])
            if idx in part.pv_idx:
                role = caseio.TraceRole.PV
            elif bus_id == controlled:
                role = caseio.TraceRole.CONTROLLED
            elif not (cfg.v_min <= v <= cfg.v_max):
                role = caseio.TraceRole.CRITICAL
            else:
                role = caseio.TraceRole.PQ
            yield caseio.TraceRow(iteration, bus_id, v, role)

    rows = list(snapshot(0, trace.initial_solution.vm, None))
    for rec in trace.iterations:
        rows += snapshot(rec.index, rec.vm_after, rec.controlled_bus)
    lines = ["iteration,bus,voltage_pu,role"]
    lines += [f"{r.iteration},{r.bus},{format(r.voltage_pu, '.10g')},{r.role.value}"
              for r in rows]
    return rows, "\n".join(lines) + "\n"


def test_trace_rendering_matches_the_row_object_reference(scenarios):
    tight = controller.ControlConfig(v_min=0.97, v_max=1.03)
    linear = controller.ControlConfig(
        evaluation_mode=controller.EvaluationMode.LINEAR)
    traces = [run(net, cfg) for net in scenarios.values()
              for run in (controller.ovc_run, controller.svc_run)
              for cfg in (None, tight, linear)]
    assert any(len(t.iterations) > 2 for t in traces)
    for trace in traces:
        rows, csv = reference_trace_csv(trace)
        assert caseio.trace_rows(trace) == rows
        assert write_trace_csv(trace) == csv


def test_bundled_case_path_rejects_unknown():
    with pytest.raises(FileNotFoundError):
        caseio.bundled_case_path("case57")


def test_case_source_dispatch(case9):
    src_m = caseio.CaseSource.from_path(caseio.bundled_case_path("case9"))
    assert src_m.format is caseio.CaseFormat.MATPOWER_M
    assert caseio.parse_case(src_m) == case9
    src_json = caseio.CaseSource(caseio.CaseFormat.NATIVE_JSON,
                                 write_json_case(case9))
    assert caseio.parse_case(src_json) == case9


def test_case_source_rejects_empty_text():
    with pytest.raises(ValueError):
        caseio.CaseSource(caseio.CaseFormat.MATPOWER_M, "")
