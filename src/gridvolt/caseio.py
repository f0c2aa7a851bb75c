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


def _parse_number(token: str, line: int, col: int) -> float:
    if not _NUMBER_RE.match(token):
        raise CaseFormatError(f"non-numeric cell {token!r}", line, col)
    return float(token)


class _MatrixCollector:
    """Accumulates the rows of one bracketed numeric matrix."""

    def __init__(self, field: str, line: int):
        self.field = field
        self.start_line = line
        self.rows: list[list[float]] = []
        self._current: list[float] = []

    def feed(self, chunk: str, line: int, offset: int) -> bool:
        """Consume matrix text (no opening bracket); True when ``]`` seen.

        ``offset`` is the column of the chunk start, for diagnostics.
        """
        close = chunk.find("]")
        self._consume_values(chunk if close < 0 else chunk[:close],
                             line, offset)
        self._end_row()  # a newline or the closing bracket ends the row
        return close >= 0

    def _consume_values(self, segment: str, line: int, col0: int) -> None:
        pos = 0
        for part in segment.split(";"):
            for m in re.finditer(r"[^\s,]+", part):
                self._current.append(
                    _parse_number(m.group(0), line, col0 + pos + m.start())
                )
            pos += len(part) + 1
            if pos <= len(segment):  # a ';' was present: close the row
                self._end_row()

    def _end_row(self) -> None:
        if self._current:
            self.rows.append(self._current)
            self._current = []


def _scan_matpower(text: str) -> tuple[dict[str, float], dict[str, list[list[float]]]]:
    scalars: dict[str, float] = {}
    matrices: dict[str, list[list[float]]] = {}
    skipped: list[str] = []
    collector: _MatrixCollector | None = None

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
        m = _ASSIGN_RE.match(line)
        if m is None:
            col = len(line) - len(line.lstrip()) + 1
            raise CaseFormatError(f"unrecognized statement {line.strip()!r}",
                                  lineno, col)
        field, rhs = m.group(2), m.group(3).strip()
        if rhs.startswith("["):
            lead = len(m.group(3)) - len(m.group(3).lstrip())
            content_col = m.start(3) + lead + 2  # 1-based, after the '['
            collector = _MatrixCollector(field, lineno)
            if collector.feed(rhs[1:], lineno, content_col):
                matrices[field] = collector.rows
                collector = None
        elif rhs.startswith("'") or rhs.startswith('"'):
            skipped.append(field)
        else:
            value = rhs.rstrip(";").strip()
            scalars[field] = _parse_number(value, lineno, m.start(3) + 1)

    if collector is not None:
        raise CaseFormatError(
            f"matrix mpc.{collector.field} not closed with ']'",
            collector.start_line, 1,
        )

    known = {"baseMVA", "bus", "gen", "branch"}
    for field in list(scalars) + list(matrices) + skipped:
        if field not in known:
            logger.warning("skipping unknown field mpc.%s", field)
            scalars.pop(field, None)
            matrices.pop(field, None)
    return scalars, matrices


def _require_columns(rows: list[list[float]], need: int, table: str) -> None:
    for i, row in enumerate(rows):
        if len(row) < need:
            raise CaseFormatError(
                f"mpc.{table} row {i + 1} has {len(row)} columns, expected >= {need}"
            )


_BUS_TYPE_TO_KIND = {3: BusKind.SLACK, 2: BusKind.PV, 1: BusKind.PQ}


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
    for table in ("bus", "gen", "branch"):
        if table not in matrices:
            raise CaseFormatError(f"missing required table mpc.{table}")
    _require_columns(matrices["bus"], BUS_COLUMNS, "bus")
    _require_columns(matrices["gen"], GEN_COLUMNS, "gen")
    _require_columns(matrices["branch"], BRANCH_COLUMNS, "branch")

    generators = []
    gen_setpoint: dict[int, float] = {}
    gens_at: dict[int, int] = {}
    for row in matrices["gen"]:
        bus_id = int(row[0])
        in_service = row[7] != 0
        generators.append(Generator(bus=bus_id, p_gen=row[1],
                                    v_setpoint=row[5], in_service=in_service))
        if in_service:
            gen_setpoint.setdefault(bus_id, row[5])
            gens_at[bus_id] = gens_at.get(bus_id, 0) + 1

    buses = []
    for row in matrices["bus"]:
        bus_id = int(row[0])
        bus_type = int(row[1])
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
        if kind in (BusKind.SLACK, BusKind.PV):
            setpoint = gen_setpoint.get(bus_id, row[7])  # fall back to Vm
        else:
            setpoint = row[7]
        buses.append(Bus(id=bus_id, kind=kind, p_load=row[2], q_load=row[3],
                         g_shunt=row[4], b_shunt=row[5], v_setpoint=setpoint,
                         v_min=row[12], v_max=row[11]))

    branches = []
    for row in matrices["branch"]:
        tap = row[8] if row[8] != 0 else 1.0
        branches.append(Branch(from_bus=int(row[0]), to_bus=int(row[1]),
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


def write_json_case(net: Network) -> str:
    """Serialize a network to the native JSON schema.

    Canonical key order, fixed ``%.17g`` number formatting: equal networks
    produce byte-identical output and the round trip through
    :func:`parse_json_case` is lossless.
    """
    out = ["{"]
    out.append(f'  "base_mva": {_fmt(net.base_mva)},')
    out.append('  "buses": [')
    for i, b in enumerate(net.buses):
        comma = "," if i + 1 < len(net.buses) else ""
        out.append(
            "    {"
            f'"id": {b.id}, "kind": "{b.kind.value}", '
            f'"p_load_mw": {_fmt(b.p_load)}, "q_load_mvar": {_fmt(b.q_load)}, '
            f'"g_shunt_mw": {_fmt(b.g_shunt)}, "b_shunt_mvar": {_fmt(b.b_shunt)}, '
            f'"v_setpoint_pu": {_fmt(b.v_setpoint)}, '
            f'"v_min_pu": {_fmt(b.v_min)}, "v_max_pu": {_fmt(b.v_max)}'
            "}" + comma
        )
    out.append("  ],")
    out.append('  "branches": [')
    for i, br in enumerate(net.branches):
        comma = "," if i + 1 < len(net.branches) else ""
        out.append(
            "    {"
            f'"from": {br.from_bus}, "to": {br.to_bus}, '
            f'"r_pu": {_fmt(br.r)}, "x_pu": {_fmt(br.x)}, '
            f'"b_charging_pu": {_fmt(br.b_charging)}, "tap": {_fmt(br.tap)}, '
            f'"shift_deg": {_fmt(br.shift)}, '
            f'"in_service": {"true" if br.in_service else "false"}'
            "}" + comma
        )
    out.append("  ],")
    out.append('  "generators": [')
    for i, g in enumerate(net.generators):
        comma = "," if i + 1 < len(net.generators) else ""
        out.append(
            "    {"
            f'"bus": {g.bus}, "p_gen_mw": {_fmt(g.p_gen)}, '
            f'"v_setpoint_pu": {_fmt(g.v_setpoint)}, '
            f'"in_service": {"true" if g.in_service else "false"}'
            "}" + comma
        )
    out.append("  ]")
    out.append("}")
    return "\n".join(out) + "\n"


def _expect(obj, key: str, kind, path: str):
    if not isinstance(obj, dict):
        raise SchemaError(path or "/", "expected object")
    if key not in obj:
        raise SchemaError(f"{path}/{key}", "required property missing")
    value = obj[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"{path}/{key}", f"expected number, got {type(value).__name__}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{path}/{key}", f"expected integer, got {type(value).__name__}")
        return value
    if kind is bool:
        if not isinstance(value, bool):
            raise SchemaError(f"{path}/{key}", f"expected boolean, got {type(value).__name__}")
        return value
    if kind is list:
        if not isinstance(value, list):
            raise SchemaError(f"{path}/{key}", f"expected array, got {type(value).__name__}")
        return value
    raise AssertionError(kind)


_KIND_FROM_STR = {k.value: k for k in BusKind}


def parse_json_case(text: str) -> Network:
    """Parse the native JSON schema; schema violations carry a JSON-pointer
    style path."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("/", "expected top-level object")

    base = _expect(doc, "base_mva", float, "")
    buses = []
    for i, entry in enumerate(_expect(doc, "buses", list, "")):
        path = f"/buses/{i}"
        kind_str = entry.get("kind") if isinstance(entry, dict) else None
        if kind_str not in _KIND_FROM_STR:
            raise SchemaError(f"{path}/kind",
                              f"expected one of {sorted(_KIND_FROM_STR)}, got {kind_str!r}")
        buses.append(Bus(
            id=_expect(entry, "id", int, path),
            kind=_KIND_FROM_STR[kind_str],
            p_load=_expect(entry, "p_load_mw", float, path),
            q_load=_expect(entry, "q_load_mvar", float, path),
            g_shunt=_expect(entry, "g_shunt_mw", float, path),
            b_shunt=_expect(entry, "b_shunt_mvar", float, path),
            v_setpoint=_expect(entry, "v_setpoint_pu", float, path),
            v_min=_expect(entry, "v_min_pu", float, path),
            v_max=_expect(entry, "v_max_pu", float, path),
        ))
    branches = []
    for i, entry in enumerate(_expect(doc, "branches", list, "")):
        path = f"/branches/{i}"
        branches.append(Branch(
            from_bus=_expect(entry, "from", int, path),
            to_bus=_expect(entry, "to", int, path),
            r=_expect(entry, "r_pu", float, path),
            x=_expect(entry, "x_pu", float, path),
            b_charging=_expect(entry, "b_charging_pu", float, path),
            tap=_expect(entry, "tap", float, path),
            shift=_expect(entry, "shift_deg", float, path),
            in_service=_expect(entry, "in_service", bool, path),
        ))
    generators = []
    for i, entry in enumerate(_expect(doc, "generators", list, "")):
        path = f"/generators/{i}"
        generators.append(Generator(
            bus=_expect(entry, "bus", int, path),
            p_gen=_expect(entry, "p_gen_mw", float, path),
            v_setpoint=_expect(entry, "v_setpoint_pu", float, path),
            in_service=_expect(entry, "in_service", bool, path),
        ))
    return Network(base_mva=base, buses=tuple(buses), branches=tuple(branches),
                   generators=tuple(generators))


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


def _trace_records(trace: "ControlTrace"):
    """``(iteration, bus, voltage_pu, role)`` for every trace row, in
    output order: the one classifier behind :func:`trace_rows` and
    :func:`write_trace_csv`."""
    int_to_ext = trace.partition.int_to_ext
    pv_set = set(trace.partition.pv_idx)
    v_min, v_max = trace.config.v_min, trace.config.v_max
    buses = [(idx, int_to_ext[idx], idx in pv_set) for idx in sorted(int_to_ext)]
    snapshots = [(0, trace.initial_solution.vm, None)]
    snapshots += [(rec.index, rec.vm_after, rec.controlled_bus)
                  for rec in trace.iterations]
    for iteration, vm, controlled in snapshots:
        vm = vm.tolist()
        for idx, bus_id, is_pv in buses:
            v = vm[idx]
            if is_pv:
                role = TraceRole.PV
            elif bus_id == controlled:
                role = TraceRole.CONTROLLED
            elif not (v_min <= v <= v_max):
                role = TraceRole.CRITICAL
            else:
                role = TraceRole.PQ
            yield iteration, bus_id, v, role


def trace_rows(trace: "ControlTrace") -> list[TraceRow]:
    """Flatten a control trace into one row per (iteration, bus).

    Iteration 0 is the pre-control snapshot; iteration k reflects the state
    after the k-th set-point update, with that iteration's controlled bus
    tagged ``controlled`` and any remaining out-of-limit load buses tagged
    ``critical``.
    """
    return [TraceRow(*record) for record in _trace_records(trace)]


def write_trace_csv(trace: "ControlTrace") -> str:
    """Render a control trace as CSV (iterations ascending, buses ascending
    within each iteration), one line per :func:`trace_rows` row."""
    lines = ["iteration,bus,voltage_pu,role"]
    lines += [f"{iteration},{bus},{format(v, '.10g')},{role.value}"
              for iteration, bus, v, role in _trace_records(trace)]
    return "\n".join(lines) + "\n"


def bundled_case_path(name: str) -> str:
    """Filesystem path of a bundled IEEE case (``case9``, ``case14``,
    ``case30``; a trailing ``.m`` is accepted)."""
    stem = name[:-2] if name.endswith(".m") else name
    path = resources.files("gridvolt.data") / f"{stem}.m"
    if not path.is_file():
        raise FileNotFoundError(f"no bundled case named {name!r}")
    return str(path)
