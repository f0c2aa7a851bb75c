import hashlib
import json
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
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
    assert (exc_info.value.line, exc_info.value.col) == (3, 15)
    # a cell after the opening bracket, then one on a continuation row
    text = TWO_BUS_CASE.replace("mpc.gen = [\n", "mpc.gen = [ 1 2 ; 3 q\n")
    with pytest.raises(CaseFormatError, match="'q'") as exc_info:
        parse_matpower_case(text)
    assert (exc_info.value.line, exc_info.value.col) == (8, 21)
    text = TWO_BUS_CASE.replace("\t1\t0\t0\t300", "\t1\t0\t0;\t3x0")
    with pytest.raises(CaseFormatError, match="'3x0'") as exc_info:
        parse_matpower_case(text)
    assert (exc_info.value.line, exc_info.value.col) == (9, 9)


# The integer columns of TWO_BUS_CASE, by MATPOWER name: table, row
# number, row text and 0-based column.
BUS_ROW = "\t2\t1\t0\t10\t0\t0\t1\t1\t0\t345\t1\t1.1\t0.9;"
BRANCH_ROW = "\t1\t2\t0\t0.1\t0\t250\t250\t250\t0\t0\t1;"
INT_CELLS = {
    "bus_i": ("bus", 2, BUS_ROW, 0),
    "type": ("bus", 2, BUS_ROW, 1),
    "bus": ("gen", 1, "\t1\t0\t0\t300\t-300\t1\t100\t1\t250\t10;", 0),
    "fbus": ("branch", 1, BRANCH_ROW, 0),
    "tbus": ("branch", 1, BRANCH_ROW, 1),
}


@pytest.mark.parametrize("value", ["1e999", "-1e999", "9.5"])
@pytest.mark.parametrize("name", INT_CELLS)
def test_integer_column_must_hold_a_whole_number(name, value):
    table, row, text, col = INT_CELLS[name]
    assert text in TWO_BUS_CASE
    cells = text.split("\t")  # a leading '' before the first tab
    cells[col + 1] = value
    with pytest.raises(CaseFormatError) as exc_info:
        parse_matpower_case(TWO_BUS_CASE.replace(text, "\t".join(cells)))
    assert str(exc_info.value) == (
        f"mpc.{table} row {row} column {col + 1} ({name}) is "
        f"{float(value)!r}, expected a whole number")


def test_integer_columns_accept_whole_numbers_with_a_point():
    text = TWO_BUS_CASE
    for old, new in (("\t2\t1\t0\t10", "\t2.0\t1.0\t0\t10"),
                     ("\t1\t0\t0\t300", "\t1.0\t0\t0\t300"),
                     ("\t1\t2\t0\t0.1", "\t1e0\t2.\t0\t0.1")):
        assert old in text
        text = text.replace(old, new)
    net = parse_matpower_case(text)
    assert net == parse_matpower_case(TWO_BUS_CASE)
    ids = [b.id for b in net.buses] + [g.bus for g in net.generators]
    ids += [end for br in net.branches for end in (br.from_bus, br.to_bus)]
    assert ids == [1, 2, 1, 1, 2]
    assert all(type(i) is int for i in ids)


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


# The line scanner as it was before it became one tokenising loop: the
# reference the current scanner must match, result for result and error for
# error (message, line and column).

_REF_ASSIGN_RE = re.compile(r"\s*(\w+)\.(\w+)\s*=\s*(.*)$")
_REF_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")


def _ref_parse_number(token, line, col):
    if not _REF_NUMBER_RE.match(token):
        raise CaseFormatError(f"non-numeric cell {token!r}", line, col)
    return float(token)


class _MatrixCollector:
    def __init__(self, field, line):
        self.field = field
        self.start_line = line
        self.rows = []
        self._current = []

    def feed(self, chunk, line, offset):
        close = chunk.find("]")
        self._consume_values(chunk if close < 0 else chunk[:close],
                             line, offset)
        self._end_row()
        return close >= 0

    def _consume_values(self, segment, line, col0):
        pos = 0
        for part in segment.split(";"):
            for m in re.finditer(r"[^\s,]+", part):
                self._current.append(
                    _ref_parse_number(m.group(0), line, col0 + pos + m.start()))
            pos += len(part) + 1
            if pos <= len(segment):
                self._end_row()

    def _end_row(self):
        if self._current:
            self.rows.append(self._current)
            self._current = []


def _reference_scan(text):
    scalars, matrices, skipped = {}, {}, []
    collector = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        cut = raw.find("%")
        line = raw if cut < 0 else raw[:cut]
        if collector is not None:
            if collector.feed(line, lineno, 1):
                matrices[collector.field] = collector.rows
                collector = None
            continue
        if not line.strip():
            continue
        if re.match(r"\s*function\b", line):
            continue
        m = _REF_ASSIGN_RE.match(line)
        if m is None:
            col = len(line) - len(line.lstrip()) + 1
            raise CaseFormatError(f"unrecognized statement {line.strip()!r}",
                                  lineno, col)
        field, rhs = m.group(2), m.group(3).strip()
        if rhs.startswith("["):
            lead = len(m.group(3)) - len(m.group(3).lstrip())
            collector = _MatrixCollector(field, lineno)
            if collector.feed(rhs[1:], lineno, m.start(3) + lead + 2):
                matrices[field] = collector.rows
                collector = None
        elif rhs.startswith("'") or rhs.startswith('"'):
            skipped.append(field)
        else:
            value = rhs.rstrip(";").strip()
            scalars[field] = _ref_parse_number(value, lineno, m.start(3) + 1)
    if collector is not None:
        raise CaseFormatError(
            f"matrix mpc.{collector.field} not closed with ']'",
            collector.start_line, 1)
    known = {"baseMVA", "bus", "gen", "branch"}
    for field in list(scalars) + list(matrices) + skipped:
        if field not in known:
            scalars.pop(field, None)
            matrices.pop(field, None)
    return scalars, matrices


def _scan_outcome(scan, text):
    try:
        return scan(text)
    except CaseFormatError as exc:
        return str(exc), exc.line, exc.col


def _assert_scans_like_the_reference(text):
    assert (_scan_outcome(caseio._scan_matpower, text)
            == _scan_outcome(_reference_scan, text)), text


_BUNDLED_TEXT = {}
for _name in ("case9", "case14", "case30"):
    with open(caseio.bundled_case_path(_name), encoding="utf-8") as _fh:
        _BUNDLED_TEXT[_name] = _fh.read()

_EDIT_CHARS = (list(";],[% x") + ["\n", "\t"] + list(".e-0")
               + list("+E_n") + ["\u0661", "\xa0"])


@st.composite
def _edited_bundled_case(draw):
    """A bundled case with one to three single-character edits."""
    text = _BUNDLED_TEXT[draw(st.sampled_from(sorted(_BUNDLED_TEXT)))]
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(text) - 1))
        ch = draw(st.sampled_from(_EDIT_CHARS))
        op = draw(st.sampled_from(("insert", "replace", "delete")))
        if op == "insert":
            text = text[:pos] + ch + text[pos:]
        elif op == "replace":
            text = text[:pos] + ch + text[pos + 1:]
        else:
            text = text[:pos] + text[pos + 1:]
    return text


def test_scanner_matches_the_reference_on_bundled_cases():
    for text in _BUNDLED_TEXT.values():
        _assert_scans_like_the_reference(text)
    _assert_scans_like_the_reference(TWO_BUS_CASE)


def test_scanner_reads_unicode_digits_and_no_break_spaces(case9):
    # Bus 9's Pd written in Arabic-Indic digits, its cells parted by
    # no-break spaces: the cell rule's ``\d`` and ``\s`` match those, so
    # the case reads as case9; float-only spellings stay non-numeric.
    text = _BUNDLED_TEXT["case9"]
    row = "\t9\t1\t125\t50\t0\t0\t1\t1\t0\t345\t1\t1.1\t0.9;"
    assert row in text
    edited = text.replace(row, row.replace("125", "\u0661\u0662\u0665")
                          .replace("\t", "\xa0"))
    _assert_scans_like_the_reference(edited)
    assert parse_matpower_case(edited) == case9
    for bad in ("nan", "inf", "1_25", "\u0661x"):
        broken = text.replace(row, row.replace("125", bad))
        _assert_scans_like_the_reference(broken)
        with pytest.raises(CaseFormatError, match=re.escape(f"non-numeric cell {bad!r}")):
            parse_matpower_case(broken)


def test_matrix_cells_are_not_parsed_one_by_one(monkeypatch):
    # matrices are checked and converted in bulk: the per-token number
    # check runs for the scalar assignments only (mpc.baseMVA here)
    tokens = []

    def counting(token, line, col, _original=caseio._parse_number):
        tokens.append(token)
        return _original(token, line, col)
    monkeypatch.setattr(caseio, "_parse_number", counting)
    for name, text in _BUNDLED_TEXT.items():
        tokens.clear()
        net = parse_matpower_case(text)
        assert net.n_bus > 0 and tokens == ["100"], name


@settings(max_examples=300)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=60))
def test_scanner_matches_the_reference_on_fragments(parts):
    _assert_scans_like_the_reference("".join(parts))


@settings(max_examples=300)
@given(_edited_bundled_case())
def test_scanner_matches_the_reference_on_edited_cases(text):
    _assert_scans_like_the_reference(text)


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


TWO_BUS_JSON = """\
{
  "base_mva": 100,
  "buses": [
    {"id": 1, "kind": "slack", "p_load_mw": 0, "q_load_mvar": 0, "g_shunt_mw": 0, "b_shunt_mvar": 0, "v_setpoint_pu": 1, "v_min_pu": 0.90000000000000002, "v_max_pu": 1.1000000000000001},
    {"id": 2, "kind": "pq", "p_load_mw": 0, "q_load_mvar": 10, "g_shunt_mw": 0, "b_shunt_mvar": 0, "v_setpoint_pu": 1, "v_min_pu": 0.90000000000000002, "v_max_pu": 1.1000000000000001}
  ],
  "branches": [
    {"from": 1, "to": 2, "r_pu": 0, "x_pu": 0.10000000000000001, "b_charging_pu": 0, "tap": 1, "shift_deg": 0, "in_service": true}
  ],
  "generators": [
    {"bus": 1, "p_gen_mw": 0, "v_setpoint_pu": 1, "in_service": true}
  ]
}
"""

# (bytes, sha256) of write_json_case on each bundled case
JSON_PINS = {
    "case9": (3312, "005f3e478491c406dcf72d6cfcc8954deeaf192b5bda1cce19e41a1ffad45ec1"),
    "case14": (6460, "2c478900d6948e2704a81500d5cc56ef157eda2cb20fd01adaa8568b1086276d"),
    "case30": (12037, "821e0362201246a3f7330a05d81af24b91689e0dfc455acdc9bab372a7bd2fe2"),
}


def test_json_writer_output_is_pinned(all_cases):
    assert write_json_case(parse_matpower_case(TWO_BUS_CASE)) == TWO_BUS_JSON
    for name, net in all_cases.items():
        data = write_json_case(net).encode("utf-8")
        assert (len(data), hashlib.sha256(data).hexdigest()) == JSON_PINS[name], name


def test_parse_write_parse_idempotent(all_cases):
    for net in all_cases.values():
        once = parse_json_case(write_json_case(net))
        twice = parse_json_case(write_json_case(once))
        assert once == twice == net


def test_json_missing_base_mva_path():
    with pytest.raises(SchemaError, match="/base_mva") as exc_info:
        parse_json_case('{"buses": [], "branches": [], "generators": []}')
    assert exc_info.value.path == "/base_mva"


def test_json_number_beyond_float_range_is_a_schema_error(case9):
    doc = json.loads(write_json_case(case9))
    doc["base_mva"] = 10**400
    with pytest.raises(SchemaError) as exc_info:
        parse_json_case(json.dumps(doc))
    assert exc_info.value.path == "/base_mva"
    assert "out of float range" in str(exc_info.value)


def test_json_bad_kind_path(case9):
    text = write_json_case(case9).replace('"kind": "slack"', '"kind": "ref"')
    with pytest.raises(SchemaError, match="/buses/0/kind"):
        parse_json_case(text)


@pytest.mark.parametrize("edit, path, message", [
    (lambda bus: 5, "/buses/0", "expected object"),
    (lambda bus: {k: v for k, v in bus.items() if k != "kind"},
     "/buses/0/kind", "required property missing"),
    (lambda bus: {**bus, "id": "1", "kind": "ref"},
     "/buses/0/id", "expected integer, got str"),
    (lambda bus: {**bus, "kind": []},
     "/buses/0/kind", "expected one of ['pq', 'pv', 'slack'], got []"),
], ids=["not-an-object", "kind-missing", "bad-id-before-bad-kind", "kind-is-a-list"])
def test_json_bus_kind_is_checked_in_key_order(case9, edit, path, message):
    doc = json.loads(write_json_case(case9))
    doc["buses"][0] = edit(doc["buses"][0])
    with pytest.raises(SchemaError) as exc_info:
        parse_json_case(json.dumps(doc))
    assert exc_info.value.path == path
    assert str(exc_info.value) == f"schema error at {path}: {message}"


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
