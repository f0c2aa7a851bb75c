"""Case-file ingestion and result serialization.

Two input formats are supported:

* a MATPOWER-style ``.m`` subset: ``mpc.baseMVA`` plus the numeric
  ``mpc.bus`` / ``mpc.gen`` / ``mpc.branch`` matrices (no expressions, no
  string fields beyond the function header);
* a native JSON schema that round-trips :class:`~gridvolt.netmodel.Network`
  losslessly.

Unknown ``mpc.<field>`` assignments are skipped and reported through this
module's logger. Control traces are written as a flat CSV.
"""

from __future__ import annotations

import enum
import json
import logging
import re
from dataclasses import dataclass
from importlib import resources
from typing import TYPE_CHECKING

from .netmodel import Branch, Bus, BusKind, Generator, Network

if TYPE_CHECKING:  # pragma: no cover
    from .controller import ControlTrace

__all__ = [
    "CaseFormat",
    "CaseSource",
    "CaseFormatError",
    "SchemaError",
    "TraceRow",
    "parse_case",
    "parse_matpower_case",
    "parse_json_case",
    "write_json_case",
    "write_trace_csv",
    "trace_rows",
    "bundled_case_path",
]

logger = logging.getLogger(__name__)
logger.addHandler(logging.NullHandler())

BUS_COLUMNS = 13     # bus_i type Pd Qd Gs Bs area Vm Va baseKV zone Vmax Vmin
GEN_COLUMNS = 10     # bus Pg Qg Qmax Qmin Vg mBase status Pmax Pmin [...]
BRANCH_COLUMNS = 11  # fbus tbus r x b rateA rateB rateC ratio angle status [...]


class CaseFormat(enum.Enum):
    MATPOWER_M = "matpower_m"
    NATIVE_JSON = "native_json"


@dataclass(frozen=True)
class CaseSource:
    """Raw case text tagged with its format."""

    format: CaseFormat
    raw_text: str

    def __post_init__(self):
        if not self.raw_text:
            raise ValueError("raw_text must be non-empty")

    @classmethod
    def from_path(cls, path: str) -> "CaseSource":
        fmt = (CaseFormat.NATIVE_JSON if path.endswith(".json")
               else CaseFormat.MATPOWER_M)
        with open(path, encoding="utf-8") as fh:
            return cls(format=fmt, raw_text=fh.read())


def parse_case(source: CaseSource) -> Network:
    """Dispatch a tagged case source to the matching parser."""
    if source.format is CaseFormat.MATPOWER_M:
        return parse_matpower_case(source.raw_text)
    return parse_json_case(source.raw_text)


class CaseFormatError(ValueError):
    """Malformed MATPOWER-style case text."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        where = f" (line {line}, col {col})" if line else ""
        super().__init__(message + where)
        self.line = line
        self.col = col


class SchemaError(ValueError):
    """Native JSON case violates the schema; ``path`` is JSON-pointer style."""

    def __init__(self, path: str, message: str):
        super().__init__(f"schema error at {path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# MATPOWER-style parser


_ASSIGN_RE = re.compile(r"\s*(\w+)\.(\w+)\s*=\s*(.*)$")
_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")
_CELL_RE = re.compile(r";|[^\s,;]+")  # a matrix cell or a row-ending ';'
_BODY_CHARS = str.maketrans("", "", "0123456789.eE+-,; \t")  # ASCII numbers, separators


def _parse_number(token: str, line: int, col: int) -> float:
    if not _NUMBER_RE.match(token):
        raise CaseFormatError(f"non-numeric cell {token!r}", line, col)
    return float(token)


def _matrix_rows(lines: list[str], opened: int, col0: int) -> list[list[float]]:
    """The rows of a matrix body whose ``lines`` start at line ``opened``,
    the first at column ``col0``. Without its ASCII number characters and
    separators the body may hold only whitespace and decimal digits (as
    ``\\s``, ``\\d``); ``float`` then rejects just the cells ``_NUMBER_RE``
    rejects. A body that fails is walked cell by cell to report the first."""
    body = ";".join(lines).replace(",", " ")
    stray = "".join(body.translate(_BODY_CHARS).split())
    if not stray or stray.isdecimal():
        try:
            return [list(map(float, cells))
                    for cells in map(str.split, body.split(";")) if cells]
        except ValueError:
            pass
    for lineno, line in enumerate(lines, start=opened):
        for cell in _CELL_RE.finditer(line):
            if cell.group() != ";":
                _parse_number(cell.group(), lineno, col0 + cell.start())
        col0 = 1
    raise AssertionError(f"matrix body from line {opened} has no bad cell")


def _scan_matpower(text: str) -> tuple[dict[str, float], dict[str, list[list[float]]]]:
    """Scalars and numeric matrices of a MATPOWER-style case text.

    A matrix body is split into cells at whitespace and ``,``; a row ends
    at ``;`` or at the end of a line, and ``]`` closes the matrix (the rest
    of that line is ignored).
    """
    scalars: dict[str, float] = {}
    matrices: dict[str, list[list[float]]] = {}
    skipped: list[str] = []
    body: list[str] | None = None  # the open matrix's lines, from line `opened`
    field, opened, col0 = "", 0, 1

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0]
        if body is None:
            if not line.strip() or re.match(r"\s*function\b", line):
                continue
            m = _ASSIGN_RE.match(line)
            if m is None:
                col = len(line) - len(line.lstrip()) + 1
                raise CaseFormatError(f"unrecognized statement {line.strip()!r}",
                                      lineno, col)
            field, rhs = m.group(2), m.group(3).strip()
            if rhs.startswith("'") or rhs.startswith('"'):
                skipped.append(field)
                continue
            if not rhs.startswith("["):
                scalars[field] = _parse_number(rhs.rstrip(";").strip(), lineno,
                                               m.start(3) + 1)
                continue
            bracket = line.index("[", m.start(3))
            line, col0 = line[bracket + 1:], bracket + 2  # 1-based column of line[0]
            body, opened = [], lineno
        part, closed, _ = line.partition("]")
        body.append(part)
        if closed:
            matrices[field] = _matrix_rows(body, opened, col0)
            body = None

    if body is not None:
        _matrix_rows(body, opened, col0)  # a bad cell is reported first
        raise CaseFormatError(f"matrix mpc.{field} not closed with ']'", opened, 1)

    known = {"baseMVA", "bus", "gen", "branch"}
    for field in list(scalars) + list(matrices) + skipped:
        if field not in known:
            logger.warning("skipping unknown field mpc.%s", field)
            scalars.pop(field, None)
            matrices.pop(field, None)
    return scalars, matrices


_BUS_TYPE_TO_KIND = {3: BusKind.SLACK, 2: BusKind.PV, 1: BusKind.PQ}
# Columns that hold whole numbers, per table: (0-based index, MATPOWER name).
_INT_COLUMNS = {"bus": ((0, "bus_i"), (1, "type")), "gen": ((0, "bus"),),
                "branch": ((0, "fbus"), (1, "tbus"))}


def parse_matpower_case(text: str) -> Network:
    """Parse a MATPOWER-style case definition into a :class:`Network`.

    Recognizes ``mpc.baseMVA`` and the ``bus``/``gen``/``branch`` numeric
    matrices; ``%`` comments and blank lines are skipped, trailing columns
    beyond the documented ones are ignored, unknown assignments are skipped
    with a logged warning. Raises :class:`CaseFormatError` on malformed
    input or a missing required table.
    """
    scalars, matrices = _scan_matpower(text)
    if "baseMVA" not in scalars:
        raise CaseFormatError("missing required field mpc.baseMVA")
    tables = (("bus", BUS_COLUMNS), ("gen", GEN_COLUMNS), ("branch", BRANCH_COLUMNS))
    for table, _ in tables:
        if table not in matrices:
            raise CaseFormatError(f"missing required table mpc.{table}")
    for table, need in tables:
        for i, row in enumerate(matrices[table]):
            if len(row) < need:
                raise CaseFormatError(f"mpc.{table} row {i + 1} has {len(row)} "
                                      f"columns, expected >= {need}")
            for col, name in _INT_COLUMNS[table]:
                if not row[col].is_integer():  # also false for inf and nan
                    raise CaseFormatError(
                        f"mpc.{table} row {i + 1} column {col + 1} ({name}) is "
                        f"{row[col]!r}, expected a whole number")
                row[col] = int(row[col])

    generators = []
    gen_setpoint: dict[int, float] = {}
    gens_at: dict[int, int] = {}
    for row in matrices["gen"]:
        bus_id = row[0]
        in_service = row[7] != 0
        generators.append(Generator(bus=bus_id, p_gen=row[1],
                                    v_setpoint=row[5], in_service=in_service))
        if in_service:
            gen_setpoint.setdefault(bus_id, row[5])
            gens_at[bus_id] = gens_at.get(bus_id, 0) + 1

    buses = []
    for row in matrices["bus"]:
        bus_id, bus_type = row[0], row[1]
        kind = _BUS_TYPE_TO_KIND.get(bus_type)
        if kind is None:
            raise CaseFormatError(f"bus {bus_id}: unsupported type {bus_type}")
        has_gen = gens_at.get(bus_id, 0) > 0
        if kind is BusKind.PQ and has_gen:
            logger.warning("bus %d typed PQ but hosts a generator; keeping PQ",
                           bus_id)
        if kind in (BusKind.SLACK, BusKind.PV) and not has_gen:
            logger.warning("bus %d typed %s but hosts no in-service generator",
                           bus_id, kind.value)
        # a slack or PV bus takes its first generator's Vg, else its own Vm
        setpoint = row[7] if kind is BusKind.PQ else gen_setpoint.get(bus_id, row[7])
        buses.append(Bus(id=bus_id, kind=kind, p_load=row[2], q_load=row[3],
                         g_shunt=row[4], b_shunt=row[5], v_setpoint=setpoint,
                         v_min=row[12], v_max=row[11]))

    branches = []
    for row in matrices["branch"]:
        tap = row[8] if row[8] != 0 else 1.0
        branches.append(Branch(from_bus=row[0], to_bus=row[1],
                               r=row[2], x=row[3], b_charging=row[4],
                               tap=tap, shift=row[9], in_service=row[10] != 0))

    return Network(base_mva=scalars["baseMVA"], buses=tuple(buses),
                   branches=tuple(branches), generators=tuple(generators))


# ---------------------------------------------------------------------------
# Native JSON format


def _fmt(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value {value} not representable in JSON")
    return format(float(value), ".17g")


_BASE_MVA = "base_mva"

# Per table of :class:`Network`, in key order: the record type and, per
# field, the JSON key, the record attribute and the value type.
_JSON_TABLES = (
    ("buses", Bus, (
        ("id", "id", int), ("kind", "kind", BusKind),
        ("p_load_mw", "p_load", float), ("q_load_mvar", "q_load", float),
        ("g_shunt_mw", "g_shunt", float), ("b_shunt_mvar", "b_shunt", float),
        ("v_setpoint_pu", "v_setpoint", float),
        ("v_min_pu", "v_min", float), ("v_max_pu", "v_max", float),
    )),
    ("branches", Branch, (
        ("from", "from_bus", int), ("to", "to_bus", int),
        ("r_pu", "r", float), ("x_pu", "x", float),
        ("b_charging_pu", "b_charging", float), ("tap", "tap", float),
        ("shift_deg", "shift", float), ("in_service", "in_service", bool),
    )),
    ("generators", Generator, (
        ("bus", "bus", int), ("p_gen_mw", "p_gen", float),
        ("v_setpoint_pu", "v_setpoint", float),
        ("in_service", "in_service", bool),
    )),
)


def _json_text(value, kind) -> str:
    if kind is float:
        return _fmt(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is BusKind:
        return f'"{value.value}"'
    return f"{value}"


def write_json_case(net: Network) -> str:
    """Serialize a network to the native JSON schema.

    Canonical key order, fixed ``%.17g`` number formatting: equal networks
    produce byte-identical output and the round trip through
    :func:`parse_json_case` is lossless.
    """
    out = ["{", f'  "{_BASE_MVA}": {_fmt(net.base_mva)},']
    for n, (table, _, fields) in enumerate(_JSON_TABLES):
        out.append(f'  "{table}": [')
        rows = ["    {" + ", ".join(f'"{key}": {_json_text(getattr(rec, attr), kind)}'
                                     for key, attr, kind in fields) + "}"
                for rec in getattr(net, table)]
        out += [row + "," for row in rows[:-1]] + rows[-1:]
        out.append("  ]," if n + 1 < len(_JSON_TABLES) else "  ]")
    out.append("}")
    return "\n".join(out) + "\n"


_KIND_FROM_STR = {k.value: k for k in BusKind}
_JSON_TYPE_NAMES = {float: "number", int: "integer", bool: "boolean", list: "array"}


def _expect(obj, key: str, kind, path: str):
    if not isinstance(obj, dict):
        raise SchemaError(path or "/", "expected object")
    if key not in obj:
        raise SchemaError(f"{path}/{key}", "required property missing")
    value = obj[key]
    if kind is BusKind:
        if isinstance(value, str) and value in _KIND_FROM_STR:
            return _KIND_FROM_STR[value]
        raise SchemaError(f"{path}/{key}",
                          f"expected one of {sorted(_KIND_FROM_STR)}, got {value!r}")
    if kind is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise SchemaError(f"{path}/{key}",
                          f"expected {_JSON_TYPE_NAMES[kind]}, got {type(value).__name__}")
    try:
        return float(value) if kind is float else value
    except OverflowError:  # an integer beyond float range
        raise SchemaError(f"{path}/{key}", "number out of float range") from None


def parse_json_case(text: str) -> Network:
    """Parse the native JSON schema; schema violations carry a JSON-pointer
    style path."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("/", "expected top-level object")

    base = _expect(doc, _BASE_MVA, float, "")
    tables: dict[str, list] = {}
    for table, record, fields in _JSON_TABLES:
        rows = tables[table] = []
        for i, entry in enumerate(_expect(doc, table, list, "")):
            path = f"/{table}/{i}"
            rows.append(record(**{attr: _expect(entry, key, kind, path)
                                  for key, attr, kind in fields}))
    return Network(base_mva=base, **tables)


# ---------------------------------------------------------------------------
# Trace CSV


class TraceRole(enum.Enum):
    PV = "pv"
    PQ = "pq"
    CRITICAL = "critical"
    CONTROLLED = "controlled"


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    bus: int
    voltage_pu: float
    role: TraceRole


_ROLE_TEXT = {role: role.value for role in TraceRole}


def _trace_snapshots(trace: "ControlTrace"):
    """The bus ids in ascending order, and for every snapshot in output
    order ``(iteration, voltages, roles)``, one entry per bus: the one
    classifier behind :func:`trace_rows` and :func:`write_trace_csv`."""
    int_to_ext = trace.partition.int_to_ext
    pv_set = set(trace.partition.pv_idx)
    v_min, v_max = trace.config.v_min, trace.config.v_max
    order = sorted(int_to_ext)
    ids = [int_to_ext[idx] for idx in order]
    is_pv = [idx in pv_set for idx in order]
    # locals: an enum member lookup per row costs more than the comparisons
    pv, controlled_role = TraceRole.PV, TraceRole.CONTROLLED
    pq, critical = TraceRole.PQ, TraceRole.CRITICAL
    snapshots = [(0, trace.initial_solution.vm, None)]
    snapshots += [(rec.index, rec.vm_after, rec.controlled_bus)
                  for rec in trace.iterations]
    classified = []
    for iteration, vm, controlled in snapshots:
        voltages = vm[order].tolist()
        roles = [pv if is_pv_bus
                 else controlled_role if bus_id == controlled
                 else pq if v_min <= v <= v_max
                 else critical
                 for is_pv_bus, bus_id, v in zip(is_pv, ids, voltages)]
        classified.append((iteration, voltages, roles))
    return ids, classified


def trace_rows(trace: "ControlTrace") -> list[TraceRow]:
    """Flatten a control trace into one row per (iteration, bus).

    Iteration 0 is the pre-control snapshot; iteration k reflects the state
    after the k-th set-point update, with that iteration's controlled bus
    tagged ``controlled`` and any remaining out-of-limit load buses tagged
    ``critical``.
    """
    ids, snapshots = _trace_snapshots(trace)
    return [TraceRow(iteration, bus_id, v, role)
            for iteration, voltages, roles in snapshots
            for bus_id, v, role in zip(ids, voltages, roles)]


def write_trace_csv(trace: "ControlTrace") -> str:
    """Render a control trace as CSV (iterations ascending, buses ascending
    within each iteration), one line per :func:`trace_rows` row.

    Each snapshot is one ``%`` format: the bus columns are fixed per trace,
    and every line starts with the iteration, so it joins them.
    """
    ids, snapshots = _trace_snapshots(trace)
    columns = [f",{bus_id},%.10g,%s\n" for bus_id in ids]
    values = [None] * (2 * len(ids))
    out = ["iteration,bus,voltage_pu,role\n"]
    for iteration, voltages, roles in snapshots:
        head = str(iteration)
        values[0::2] = voltages
        values[1::2] = [_ROLE_TEXT[role] for role in roles]
        out.append((head + head.join(columns)) % tuple(values))
    return "".join(out)


# The bundled cases by name, from one listing of the package data directory.
_BUNDLED = {path.name[:-2]: str(path)
            for path in resources.files("gridvolt.data").iterdir()
            if path.name.endswith(".m") and path.is_file()}


def bundled_case_path(name: str) -> str:
    """Filesystem path of a bundled IEEE case (``case9``, ``case14``,
    ``case30``; a trailing ``.m`` is accepted)."""
    path = _BUNDLED.get(name[:-2] if name.endswith(".m") else name)
    if path is None:
        raise FileNotFoundError(f"no bundled case named {name!r}")
    return path
