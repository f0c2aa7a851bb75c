import json
import logging
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from gridvolt import caseio, cli, controller, netmodel, powerflow
from gridvolt.cli import DATA_DIR_ENV, RunSpec, main, run
from gridvolt.controller import ControlConfig

from conftest import load_case, three_bus_toy


def make_spec(**kwargs) -> RunSpec:
    return RunSpec(**kwargs)


@pytest.fixture
def cold_cache():
    """An empty parsed-case cache, so the test's first run parses."""
    cli._parse_cached.cache_clear()


def test_solve_table(capsys):
    code = main(["--case", "case9", "--method", "solve"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Converged in" in out
    assert "slack" in out
    lines = [line for line in out.splitlines() if line.startswith("  1 ")]
    assert lines and "1.0000" in lines[0]


def test_ovc_9bus_reproduction(capsys):
    code = main(["--case", "case9", "--disturb", "9:+70",
                 "--flat-setpoints", "1.0", "--method", "ovc"])
    out = capsys.readouterr().out
    assert code == 0
    row9 = next(line for line in out.splitlines() if line.startswith("  9 "))
    before, after = row9.split()[1:3]
    assert float(before) == pytest.approx(0.885, abs=0.01)
    assert float(after) == pytest.approx(0.993, abs=0.01)
    assert "resolved after 1 iteration" in out


def test_compare_30bus(capsys):
    code = main(["--case", "case30", "--disturb", "8:+90", "--disturb", "25:-100",
                 "--flat-setpoints", "1.0", "--method", "compare"])
    out = capsys.readouterr().out
    assert code == 0
    j_ovc = float(next(l for l in out.splitlines() if l.startswith("OVC")).split()[1])
    j_svc = float(next(l for l in out.splitlines() if l.startswith("SVC")).split()[1])
    assert j_ovc == pytest.approx(0.0052, rel=0.25)
    assert j_svc == pytest.approx(0.0038, rel=0.30)
    assert j_ovc > j_svc


def test_missing_case_exits_1(capsys):
    code = main(["--case", "missing_case.m", "--method", "solve"])
    err = capsys.readouterr().err
    assert code == 1
    assert "missing_case.m" in err


def test_sens_dump(capsys):
    code = main(["--case", "case9", "--method", "sens"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "matrix,row_bus,col_bus,value"
    assert sum(1 for l in lines if l.startswith("s_vq,")) == 81
    assert sum(1 for l in lines if l.startswith("a_ctrl,")) == 18


def test_output_determinism(cold_cache):
    spec = make_spec(case_path="case30", method="ovc",
                     disturbances=((8, 90.0), (25, -100.0)),
                     flat_setpoints=1.0)
    first = run(spec)   # parses the case and builds its family
    second = run(spec)  # reuses both
    assert first == second
    assert first.exit_code == 0


def test_trace_file_written(tmp_path):
    trace_file = tmp_path / "trace.csv"
    spec = make_spec(case_path="case9", method="ovc",
                     disturbances=((9, 70.0),), flat_setpoints=1.0,
                     trace_path=str(trace_file))
    result = run(spec)
    assert result.exit_code == 0
    content = trace_file.read_text()
    assert content.startswith("iteration,bus,voltage_pu,role")
    assert ",controlled" in content


def test_compare_trace_file_holds_the_one_iteration_ovc_trace(tmp_path, scenario30):
    trace_file = tmp_path / "trace.csv"
    spec = make_spec(case_path="case30", method="compare",
                     disturbances=((8, 90.0), (25, -100.0)), flat_setpoints=1.0,
                     trace_path=str(trace_file))
    assert run(spec).exit_code == 0
    want = controller.compare_ovc_svc(scenario30).ovc_trace
    assert trace_file.read_text() == caseio.write_trace_csv(want)


def test_iteration_cap_exit_code(capsys):
    code = main(["--case", "case30", "--disturb", "8:+90", "--disturb", "25:-100",
                 "--flat-setpoints", "1.0", "--method", "ovc",
                 "--max-iterations", "1"])
    out = capsys.readouterr().out
    assert code == 2
    assert "iteration_cap_hit" in out


def test_oscillating_exit_code(capsys):
    code = main(["--case", "case14", "--disturb", "7:-200", "--disturb", "14:+60",
                 "--flat-setpoints", "1.0", "--method", "ovc"])
    out = capsys.readouterr().out
    assert code == 2
    assert "oscillating" in out


def test_bad_config_exits_1(capsys):
    code = main(["--case", "case9", "--method", "ovc", "--vref", "1.5"])
    assert code == 1
    assert "v_min < v_ref < v_max" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--tolerance", "nan"), ("--tolerance", "inf"), ("--tolerance", "-1"),
    ("--tolerance", "0"), ("--max-iterations", "-3"),
    ("--max-iterations", "0"),
])
def test_meaningless_tolerance_or_cap_exits_1(capsys, flag, value):
    # each used to run: nan ended "did not converge in 0 iterations", -1 and
    # 0 ran to the cap at round-off, inf "resolved" the flat start, and a
    # negative cap ended iteration_cap_hit
    code = main(["--case", "case9", "--disturb", "9:+70", "--flat-setpoints",
                 "1.0", "--method", "ovc", flag, value])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    want = (f"power-flow tolerance must be finite and positive, got "
            f"{float(value)}" if flag == "--tolerance"
            else f"need at least 1 control iteration, got {value}")
    assert captured.err == f"error: {want}\n"


def test_singular_jacobian_exits_1_naming_it(monkeypatch, capsys):
    # the text names the matrix, as in a control loop's chord re-solves
    def zero_jacobian(system, v, ibus):
        return np.zeros((len(system.pvpq) + len(system.pq),) * 2)
    monkeypatch.setattr(powerflow, "_jacobian", zero_jacobian)
    code = main(["--case", "case9", "--method", "solve"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: Newton Jacobian: singular matrix (Singular matrix)\n")


def test_bad_disturbance_syntax():
    with pytest.raises(SystemExit) as exc_info:
        main(["--case", "case9", "--disturb", "9+70"])
    assert exc_info.value.code == 2  # argparse usage error


def test_data_dir_env_resolution(tmp_path, monkeypatch):
    src = caseio.bundled_case_path("case9")
    with open(src, encoding="utf-8") as fh:
        (tmp_path / "mycase.m").write_text(fh.read())
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
    result = run(make_spec(case_path="mycase", method="solve"))
    assert result.exit_code == 0
    assert "Converged" in result.output


def test_json_case_accepted(tmp_path):
    from conftest import load_case
    net = load_case("case9")
    path = tmp_path / "case9.json"
    path.write_text(caseio.write_json_case(net))
    result = run(make_spec(case_path=str(path), method="solve"))
    assert result.exit_code == 0


def test_linear_and_no_clamp_flags(capsys):
    code = main(["--case", "case9", "--disturb", "9:+70",
                 "--flat-setpoints", "1.0", "--method", "ovc",
                 "--linear", "--no-clamp"])
    out = capsys.readouterr().out
    assert code == 0
    # without clamping the linear model lands the bus exactly on the target
    row9 = next(line for line in out.splitlines() if line.startswith("  9 "))
    assert float(row9.split()[2]) == pytest.approx(1.0, abs=1e-9)


def test_svc_method_runs(capsys):
    code = main(["--case", "case9", "--disturb", "9:+70",
                 "--flat-setpoints", "1.0", "--method", "svc"])
    out = capsys.readouterr().out
    assert code in (0, 2)
    assert "Iter 1" in out


def test_solve_csv_and_json_outputs(capsys):
    code = main(["--case", "case9", "--method", "solve", "--output", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "bus,kind,vm_pu,va_deg"
    assert len(lines) == 10
    assert lines[1].startswith("1,slack,1,")

    import json
    code = main(["--case", "case9", "--method", "solve", "--output", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["converged"] is True
    assert doc["buses"][0]["bus"] == 1
    assert doc["buses"][8]["vm_pu"] == pytest.approx(0.9576, abs=0.001)


def test_ovc_csv_output_is_trace_csv(capsys):
    code = main(["--case", "case9", "--disturb", "9:+70",
                 "--flat-setpoints", "1.0", "--method", "ovc",
                 "--output", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("iteration,bus,voltage_pu,role")
    assert ",controlled" in out


def test_compare_json_output(capsys):
    import json
    code = main(["--case", "case9", "--disturb", "9:+70",
                 "--flat-setpoints", "1.0", "--method", "compare",
                 "--output", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["controlled_bus"] == 9
    assert doc["j_ovc_pu2"] > doc["j_svc_pu2"] > 0


def test_uncontrollable_bus_exits_3(monkeypatch, capsys):
    # the case30 scenario takes two iterations; its second finds no usable gain
    real_step = controller.ovc_step

    def fail_second(model, sol, cb, cfg, index=1, critical=None):
        if index == 2:
            raise controller.UncontrollableBusError(f"bus {cb} cannot be moved")
        return real_step(model, sol, cb, cfg, index=index, critical=critical)

    monkeypatch.setattr(controller, "ovc_step", fail_second)
    code = main(["--case", "case30", "--disturb", "8:+90", "--disturb", "25:-100",
                 "--flat-setpoints", "1.0", "--method", "ovc"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0] == "Bus   Before   Iter 1"
    assert "Outcome: infeasible after 1 iteration(s)" in lines


def _reactance_only_case(tmp_path) -> str:
    """The 3-bus toy with no line charging, whose B'' is singular, as a
    JSON case file."""
    path = tmp_path / "triangle.json"
    path.write_text(caseio.write_json_case(three_bus_toy(q_load_mvar=120.0)))
    return str(path)


@pytest.mark.parametrize("method, needle", [
    ("ovc", "Outcome: resolved after 1 iteration(s)"),
    ("svc", "Outcome: resolved after 1 iteration(s)"),
    ("compare", "OVC      0.0143"),
])
def test_singular_bpp_still_runs_the_control_methods(tmp_path, capsys,
                                                      method, needle):
    code = main(["--case", _reactance_only_case(tmp_path), "--method", method])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert needle in captured.out.splitlines()


def test_singular_bpp_sens_exits_1_naming_it(tmp_path, capsys):
    code = main(["--case", _reactance_only_case(tmp_path), "--method", "sens"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("error: B'' is singular; isolated bus or "
                            "degenerate network?\n")


def test_invalid_network_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.m"
    bad.write_text(
        "mpc.baseMVA = 100;\n"
        "mpc.bus = [ 1 3 0 0 0 0 1 1 0 345 1 1.1 0.9;"
        " 2 1 0 0 0 0 1 1 0 345 1 1.1 0.9; ];\n"
        "mpc.gen = [ 1 0 0 300 -300 1 100 1 250 10; ];\n"
        "mpc.branch = [ 1 9 0 0.1 0 250 250 250 0 0 1; ];\n")
    code = main(["--case", str(bad), "--method", "solve"])
    assert code == 1
    assert "invalid network" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["solve", "ovc", "svc", "compare", "sens"])
def test_invalid_network_report_is_the_same_for_every_method(
        tmp_path, capsys, method):
    bad = tmp_path / "bad.m"
    bad.write_text(
        "mpc.baseMVA = 100;\n"
        "mpc.bus = [ 1 3 0 0 0 0 1 1 0 345 1 1.1 0.9;"
        " 2 1 0 0 0 0 1 1 0 345 1 1.1 0.9; ];\n"
        "mpc.gen = [ 1 0 0 300 -300 1 100 1 250 10; ];\n"
        "mpc.branch = [ 1 9 0 0.1 0 250 250 250 0 0 1; ];\n")
    assert main(["--case", str(bad), "--method", method]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: invalid network: branch 0: to-bus 9 does "
                            "not exist; network is not connected over "
                            "in-service branches\n")


# Three routes by which a non-finite number reaches a run: each is an
# input error (exit 1), not a singular solve or a power flow that diverges.

def test_infinite_matpower_cell_is_an_invalid_network(tmp_path, capsys):
    with open(caseio.bundled_case_path("case9"), encoding="utf-8") as fh:
        text = fh.read()
    row = "\t9\t1\t125\t50\t"
    assert row in text
    bad = tmp_path / "inf9.m"
    bad.write_text(text.replace(row, "\t9\t1\t125\t1e999\t"))
    assert main(["--case", str(bad), "--method", "solve"]) == 1
    assert capsys.readouterr().err == (
        "error: invalid network: bus 9: q_load inf is not finite\n")


def test_nan_in_a_json_case_is_an_invalid_network(tmp_path, capsys):
    doc = json.loads(caseio.write_json_case(load_case("case9")))
    assert doc["buses"][8]["id"] == 9
    doc["buses"][8]["q_load_mvar"] = float("nan")
    bad = tmp_path / "nan9.json"
    bad.write_text(json.dumps(doc))  # json writes NaN, as json.loads reads it
    assert main(["--case", str(bad), "--method", "solve"]) == 1
    assert capsys.readouterr().err == (
        "error: invalid network: bus 9: q_load nan is not finite\n")


def test_nan_disturbance_is_an_invalid_network(capsys):
    # after a valid run, the case's family checks members only
    assert main(["--case", "case9", "--method", "solve"]) == 0
    capsys.readouterr()
    assert main(["--case", "case9", "--disturb", "9:nan", "--method", "ovc"]) == 1
    assert capsys.readouterr().err == (
        "error: invalid network: bus 9: q_load nan is not finite\n")


def test_json_number_beyond_float_range_exits_1(tmp_path, capsys):
    doc = json.loads(caseio.write_json_case(load_case("case9")))
    doc["base_mva"] = 10**400
    bad = tmp_path / "big9.json"
    bad.write_text(json.dumps(doc))
    assert main(["--case", str(bad), "--method", "solve"]) == 1
    assert capsys.readouterr().err == (
        "error: schema error at /base_mva: number out of float range\n")


# An integer column (bus id and type, generator bus, branch ends) holding
# something other than a finite whole number is a format error, exit 1.
# Per MATPOWER name: table, row number, the row's leading cells, column.
CASE9_INT_CELLS = {
    "bus_i": ("bus", 9, "\t9\t1\t125\t50\t", 0),
    "type": ("bus", 9, "\t9\t1\t125\t50\t", 1),
    "bus": ("gen", 1, "\t1\t72.3\t27.03\t", 0),
    "fbus": ("branch", 1, "\t1\t4\t0\t0.0576\t", 0),
    "tbus": ("branch", 1, "\t1\t4\t0\t0.0576\t", 1),
}


@pytest.mark.parametrize("value", ["1e999", "-1e999", "9.5"])
@pytest.mark.parametrize("name", CASE9_INT_CELLS)
def test_integer_column_not_a_whole_number_exits_1(tmp_path, capsys, name, value):
    table, number, row, col = CASE9_INT_CELLS[name]
    with open(caseio.bundled_case_path("case9"), encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(row) == 1
    cells = row.split("\t")
    cells[col + 1] = value
    bad = tmp_path / "int9.m"
    bad.write_text(text.replace(row, "\t".join(cells)))
    assert main(["--case", str(bad), "--method", "solve"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: mpc.{table} row {number} column {col + 1} "
                            f"({name}) is {float(value)!r}, expected a whole "
                            "number\n")


@pytest.mark.parametrize("method", ["ovc", "svc", "compare", "solve", "sens"])
def test_each_run_validates_the_network_once(monkeypatch, capsys, method):
    calls = []
    original = netmodel.validate_network

    def counting(net):
        calls.append(net)
        return original(net)

    monkeypatch.setattr(netmodel, "validate_network", counting)
    code = main(["--case", "case30", "--disturb", "8:+90", "--method", method])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert len(calls) == 1


@pytest.mark.parametrize("module", ["gridvolt", "gridvolt.cli"])
def test_python_dash_m_runs_cleanly(module):
    import gridvolt

    src = os.path.dirname(os.path.dirname(gridvolt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", module, "--case", "case9", "--method", "solve"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("Converged in ")


def test_heavy_disturbance_ends_as_divergence(capsys):
    # Newton cannot converge on this disturbance: its line search stops
    # with a bounded mismatch, and the outcome is "did not converge"
    # (exit 2), not a singular-Jacobian input error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["--case", "case14", "--disturb", "10:+250",
                     "--method", "solve"])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: Newton power flow did not converge")


def test_unclamped_setpoint_outside_range_exits_1(capsys):
    assert main(["--case", "case30", "--disturb", "14:-200",
                 "--method", "solve"]) == 0
    capsys.readouterr()
    code = main(["--case", "case30", "--disturb", "14:-200", "--method", "svc",
                 "--no-clamp"])
    assert code == 1
    assert re.fullmatch(r"error: invalid network: bus 13: set-point "
                        r"-0\.02628501\d* outside \(0, 2\) pu\n",
                        capsys.readouterr().err)


# --- parsed-case cache -------------------------------------------------------

def _counting_parses(monkeypatch) -> list:
    """The sources ``caseio.parse_case`` is called on from now on."""
    calls = []
    original = caseio.parse_case
    monkeypatch.setattr(caseio, "parse_case",
                        lambda source: calls.append(source) or original(source))
    return calls


def _case9_text() -> str:
    with open(caseio.bundled_case_path("case9"), encoding="utf-8") as fh:
        return fh.read()


def test_identical_case_text_is_parsed_once(cold_cache, monkeypatch):
    parses = _counting_parses(monkeypatch)
    spec = make_spec(case_path="case30", method="ovc",
                     disturbances=((8, 90.0),))
    first = run(spec)
    second = run(spec)
    assert first == second
    assert len(parses) == 1


def test_rewritten_case_file_is_parsed_again(cold_cache, monkeypatch, tmp_path):
    parses = _counting_parses(monkeypatch)
    path = tmp_path / "case9.m"
    text = _case9_text()
    spec = make_spec(case_path=str(path), method="solve", output="json")
    path.write_text(text)
    before = run(spec)
    row = "\t5\t1\t90\t30\t"
    assert row in text
    path.write_text(text.replace(row, "\t5\t1\t90\t60\t"))
    after = run(spec)
    assert len(parses) == 2
    assert after.exit_code == before.exit_code == 0
    assert after != before
    cli._parse_cached.cache_clear()
    assert run(spec) == after


def test_failed_parse_is_not_cached(cold_cache, monkeypatch, tmp_path):
    parses = _counting_parses(monkeypatch)
    path = tmp_path / "case9.m"
    text = _case9_text()
    spec = make_spec(case_path=str(path), method="solve")
    path.write_text(text.replace("mpc.baseMVA = 100;", "mpc.baseMVA = ;"))
    assert run(spec).exit_code == 1
    path.write_text(text)
    assert run(spec).exit_code == 0
    assert run(spec).exit_code == 0
    assert len(parses) == 2


def test_least_recently_used_case_text_is_parsed_again(
        cold_cache, monkeypatch, tmp_path):
    parses = _counting_parses(monkeypatch)
    text = _case9_text()
    specs = []
    for k in range(cli._CASE_CACHE_SIZE + 1):
        path = tmp_path / f"case9-{k}.m"
        path.write_text(text + f"% copy {k}\n")
        specs.append(make_spec(case_path=str(path), method="solve"))
    for spec in specs:
        assert run(spec).exit_code == 0
    assert len(parses) == len(specs)
    assert run(specs[-1]).exit_code == 0  # still kept
    assert len(parses) == len(specs)
    assert run(specs[0]).exit_code == 0  # dropped by the last one
    assert len(parses) == len(specs) + 1


def test_parse_warnings_are_logged_once_per_case_text(
        cold_cache, caplog, tmp_path):
    path = tmp_path / "case9.m"
    text = _case9_text()
    assert "mpc.version" in text
    spec = make_spec(case_path=str(path), method="solve")

    def warned() -> int:
        return sum(rec.getMessage() == "skipping unknown field mpc.version"
                   for rec in caplog.records)

    with caplog.at_level(logging.WARNING, logger="gridvolt.caseio"):
        path.write_text(text)
        run(spec)
        run(spec)
        assert warned() == 1
        path.write_text(text + "% edited\n")
        run(spec)
        assert warned() == 2
