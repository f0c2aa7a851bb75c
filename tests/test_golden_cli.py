"""Golden CLI outputs: the pinned reference behaviour of the command line.

Each run below executes ``cli.main`` in-process twice, cold (the case
parsed afresh) and warm (its network and family reused), and each time is
checked against the files under ``tests/golden/``; the two outputs must be
byte-identical. ``status.json`` holds every run's exit code and stderr,
``<name>.out`` its stdout and ``<name>.trace.csv`` the file written by
``--trace``. Exit code, stderr, tables, CSV and the ``sens``
dump must match byte for byte.

JSON reports are compared as parsed documents: every non-float field
exactly, every float to a relative ``JSON_FLOAT_RTOL``. ``json.dumps``
prints the shortest repr of a float, so a byte comparison would pin the
last ulp of whichever BLAS/LAPACK routine produced the value.

The files were written once from the CLI's output; to change them, write
the new expected output by hand or from a reviewed CLI run.
"""

import json
import math
from pathlib import Path

import pytest

from gridvolt import cli
from gridvolt.cli import main

GOLDEN = Path(__file__).parent / "golden"
JSON_FLOAT_RTOL = 1e-12

SCENARIO = {
    "case9": ["--case", "case9", "--disturb", "9:+70", "--flat-setpoints", "1.0"],
    "case14": ["--case", "case14", "--disturb", "10:-46.4"],
    "case30": ["--case", "case30", "--disturb", "8:+90", "--disturb", "25:-100",
               "--flat-setpoints", "1.0"],
}

RUNS = {
    # the five README commands
    "readme-case9-ovc": SCENARIO["case9"] + ["--method", "ovc"],
    "readme-case14-ovc-trace": SCENARIO["case14"] + ["--method", "ovc",
                                                     "--trace", "trace14.csv"],
    "readme-case30-compare": SCENARIO["case30"] + ["--method", "compare"],
    "readme-case30-solve": ["--case", "case30", "--method", "solve"],
    "readme-case9-sens": ["--case", "case9", "--method", "sens"],
    # stress repros: all set-points clamped; Newton blow-up on the initial solve
    "stress-case30-tight-band": SCENARIO["case30"] + [
        "--vmin", "0.97", "--vmax", "1.03", "--method", "ovc"],
    "stress-case9-plus250": ["--case", "case9", "--disturb", "9:+250",
                             "--flat-setpoints", "1.0", "--method", "ovc"],
}
for _case, _args in SCENARIO.items():
    for _method in ("ovc", "svc", "compare", "solve"):
        for _fmt in ("table", "csv", "json"):
            RUNS[f"{_case}-{_method}-{_fmt}"] = _args + [
                "--method", _method, "--output", _fmt]


def _status() -> dict:
    return json.loads((GOLDEN / "status.json").read_text(encoding="utf-8"))


def assert_json_matches(got, want, path="$"):
    """Equal documents, floats to a relative JSON_FLOAT_RTOL."""
    assert type(got) is type(want), f"{path}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys differ"
        for key in want:
            assert_json_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=JSON_FLOAT_RTOL, abs_tol=0.0), \
            f"{path}: {got!r} != {want!r}"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


def test_every_run_has_golden_files():
    assert sorted(_status()) == sorted(RUNS)
    for name, args in RUNS.items():
        assert (GOLDEN / f"{name}.out").is_file(), name
        assert (GOLDEN / f"{name}.trace.csv").is_file() == ("--trace" in args), name


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_matches_golden(name, tmp_path, capsys):
    args = list(RUNS[name])
    trace_path = None
    if "--trace" in args:
        trace_path = tmp_path / "trace.csv"
        args[args.index("--trace") + 1] = str(trace_path)
    want = _status()[name]
    want_out = (GOLDEN / f"{name}.out").read_bytes()

    # a cold run parses the case; the warm one reuses its network and family
    cli._parse_cached.cache_clear()
    outs = []
    for run in ("cold", "warm"):
        code = main(args)
        out, err = capsys.readouterr()
        outs.append(out)

        assert code == want["exit_code"], run
        assert err == want["stderr"], run
        if "json" in args:
            assert_json_matches(json.loads(out), json.loads(want_out))
        else:
            assert out.encode("utf-8") == want_out, run
        if trace_path is not None:
            assert trace_path.read_bytes() == (
                GOLDEN / f"{name}.trace.csv").read_bytes(), run
            trace_path.unlink()
    assert outs[0] == outs[1]
