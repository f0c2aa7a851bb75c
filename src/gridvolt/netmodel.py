"""Per-unit network data model: buses, branches, generators, bus partitions.

All types are immutable values; every operation returns a new object and
never mutates its input, so networks can be shared freely across threads.

A :class:`Network` also carries a private memo: a cache of what
validation, the power flow and the sensitivity model derive from its
branches, shunts, bus kinds and base MVA alone (that its structure is
valid, its bus partition, Ybus, its Jacobian row blocks, the B'' model).
It is shared by a family of networks: :func:`apply_disturbance` and
:func:`set_flat_setpoints`, which change only loads and set-points, hand
it on to their result; every other construction (parsing, ``Network(..)``,
``dataclasses.replace``, pickling, copying) starts an empty one. Each entry
is built on first use and never changes after, so the memo is invisible in
results: it does not take part in equality or ``repr``. Two threads that
first use a family at once may both build an entry; one of them is kept,
and as both are equal and read-only, that race is benign.

Conventions
-----------
* Loads are in physical units (MW / MVAr) on the network's MVA base;
  positive reactive load is inductive and depresses voltage.
* Bus shunts are given as the MW / MVAr consumed / injected at 1.0 pu
  voltage (MATPOWER convention: positive ``b_shunt`` is capacitive).
* The internal index space used by all matrix-valued code orders buses by
  ascending external id; :func:`bus_order` is the single source of truth.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

__all__ = [
    "BusKind",
    "Bus",
    "Branch",
    "Generator",
    "Network",
    "BusPartition",
    "bus_order",
    "validate_network",
    "partition_buses",
    "apply_disturbance",
    "set_flat_setpoints",
    "NetworkError",
]


class NetworkError(ValueError):
    """A network violates its structural invariants."""


class BusKind(enum.Enum):
    SLACK = "slack"
    PV = "pv"
    PQ = "pq"


@dataclass(frozen=True)
class Bus:
    """A single bus.

    ``v_setpoint`` is the regulated voltage magnitude and is meaningful for
    slack and PV buses; for PQ buses it is carried as informational data
    only. ``v_min`` / ``v_max`` are the case's own operating limits; the
    controller applies its configured limits, not these.
    """

    id: int
    kind: BusKind
    p_load: float = 0.0
    q_load: float = 0.0
    g_shunt: float = 0.0
    b_shunt: float = 0.0
    v_setpoint: float = 1.0
    v_min: float = 0.9
    v_max: float = 1.1


@dataclass(frozen=True)
class Branch:
    """A transmission line or transformer modelled as a pi section.

    ``tap`` is the off-nominal turns ratio on the from side (1.0 = none),
    ``shift`` the phase shift in degrees, ``b_charging`` the total line
    charging susceptance in pu.
    """

    from_bus: int
    to_bus: int
    r: float
    x: float
    b_charging: float = 0.0
    tap: float = 1.0
    shift: float = 0.0
    in_service: bool = True


@dataclass(frozen=True)
class Generator:
    bus: int
    p_gen: float = 0.0
    v_setpoint: float = 1.0
    in_service: bool = True


@dataclass(frozen=True)
class Network:
    """A complete per-unit network model.

    ``_memo`` is the family's cache (see the module notes); a pickled or
    copied network comes back with an empty one.
    """

    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    _memo: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "branches", tuple(self.branches))
        object.__setattr__(self, "generators", tuple(self.generators))

    def __getstate__(self):
        return {**self.__dict__, "_memo": {}}

    def __setstate__(self, state):
        self.__dict__.update(state, _memo={})

    def bus(self, bus_id: int) -> Bus:
        for b in self.buses:
            if b.id == bus_id:
                return b
        raise NetworkError(f"no bus with id {bus_id}")

    @property
    def n_bus(self) -> int:
        return len(self.buses)


@dataclass(frozen=True)
class BusPartition:
    """Internal indices of the voltage-controlled (slack + PV) and load sets.

    ``pv_idx`` holds the voltage-controlled coordinates: the slack bus is a
    member because its magnitude set-point is a control variable (only its
    angle is the reference). Orderings are ascending by external bus id.
    """

    slack_idx: int
    pv_idx: tuple[int, ...]
    pq_idx: tuple[int, ...]
    ext_to_int: dict[int, int] = field(compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pv_idx", tuple(self.pv_idx))
        object.__setattr__(self, "pq_idx", tuple(self.pq_idx))
        if set(self.pv_idx) & set(self.pq_idx):
            raise NetworkError("pv and pq index sets overlap")

    @cached_property
    def ids(self) -> tuple[int, ...]:
        """External bus ids by internal index: index ``i`` is bus ``ids[i]``."""
        return tuple(sorted(self.ext_to_int, key=self.ext_to_int.__getitem__))


def bus_order(net: Network) -> dict[int, int]:
    """Map external bus id -> internal index (ascending external id)."""
    return {bus_id: i for i, bus_id in enumerate(sorted(b.id for b in net.buses))}


def _connected(net: Network) -> bool:
    adj: dict[int, set[int]] = {b.id: set() for b in net.buses}
    for br in net.branches:
        if br.in_service and br.from_bus in adj and br.to_bus in adj:
            adj[br.from_bus].add(br.to_bus)
            adj[br.to_bus].add(br.from_bus)
    if not adj:
        return False
    seen = set()
    stack = [next(iter(adj))]
    while stack:
        b = stack.pop()
        if b in seen:
            continue
        seen.add(b)
        stack.extend(adj[b] - seen)
    return len(seen) == len(adj)


def _setpoint_problem(bus_id: int, v: float) -> str | None:
    """The report line for a magnitude set-point outside (0, 2) pu."""
    if 0 < v < 2:
        return None
    return f"bus {bus_id}: set-point {v} outside (0, 2) pu"


_LOAD_NUMBERS = ("p_load", "q_load")
_BUS_NUMBERS = _LOAD_NUMBERS + ("g_shunt", "b_shunt", "v_min", "v_max")
_BRANCH_NUMBERS = ("r", "x", "b_charging", "tap", "shift")


def _non_finite(what: str, record, names: tuple[str, ...]) -> list[str]:
    """The report lines for the fields ``names`` of ``record`` that are NaN
    or infinite (set-points have their own range check)."""
    return [f"{what}: {name} {getattr(record, name)} is not finite"
            for name in names if not math.isfinite(getattr(record, name))]


def validate_network(net: Network) -> list[str]:
    """Check every structural invariant; return one message per violation.

    An empty report means the network is valid. Nothing is raised: callers
    decide whether to abort.

    Once a network of a family has passed in full, its memo records that
    the structure is valid, and later calls for the family check only what
    a member can change: each bus's set-point range, then its loads'
    finiteness. That gives the same report, in the same order, as the full
    walk; a family whose structure never passed is walked in full.
    """
    if net._memo.get("valid"):
        return _member_problems(net)
    report: list[str] = []
    ids = [b.id for b in net.buses]
    id_set = set(ids)

    if net.base_mva <= 0:
        report.append(f"base_mva must be positive, got {net.base_mva}")
    elif not math.isfinite(net.base_mva):
        report.append(f"base_mva must be finite, got {net.base_mva}")
    if len(ids) != len(id_set):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        report.append(f"duplicate bus ids: {dupes}")

    slacks = [b.id for b in net.buses if b.kind is BusKind.SLACK]
    if len(slacks) == 0:
        report.append("no slack bus")
    elif len(slacks) > 1:
        report.append(f"multiple slack buses: {slacks}")

    for b in net.buses:
        if b.id <= 0:
            report.append(f"bus {b.id}: id must be a positive integer")
        if not (0 < b.v_min < b.v_max):
            report.append(f"bus {b.id}: voltage limits invalid ({b.v_min}, {b.v_max})")
        problem = _setpoint_problem(b.id, b.v_setpoint)
        if problem is not None:
            report.append(problem)
        # one sum screens the record; it is not finite if a field is not
        if not math.isfinite(b.p_load + b.q_load + b.g_shunt + b.b_shunt
                             + b.v_min + b.v_max):
            report += _non_finite(f"bus {b.id}", b, _BUS_NUMBERS)

    for k, br in enumerate(net.branches):
        if br.from_bus not in id_set:
            report.append(f"branch {k}: from-bus {br.from_bus} does not exist")
        if br.to_bus not in id_set:
            report.append(f"branch {k}: to-bus {br.to_bus} does not exist")
        if br.in_service and br.r * br.r + br.x * br.x == 0.0:
            report.append(f"branch {k} ({br.from_bus}-{br.to_bus}): zero impedance")
        if br.tap <= 0:
            report.append(f"branch {k} ({br.from_bus}-{br.to_bus}): tap {br.tap} <= 0")
        if not math.isfinite(br.r + br.x + br.b_charging + br.tap + br.shift):
            report += _non_finite(f"branch {k} ({br.from_bus}-{br.to_bus})", br,
                                  _BRANCH_NUMBERS)

    gens_at: dict[int, int] = {}
    for g in net.generators:
        if not math.isfinite(g.p_gen):
            report.append(f"generator at bus {g.bus}: p_gen {g.p_gen} is not finite")
        if g.bus not in id_set:
            report.append(f"generator at bus {g.bus}: bus does not exist")
        elif g.in_service:
            gens_at[g.bus] = gens_at.get(g.bus, 0) + 1
    for b in net.buses:
        if b.kind in (BusKind.SLACK, BusKind.PV) and gens_at.get(b.id, 0) == 0:
            report.append(f"bus {b.id} is {b.kind.value} but hosts no in-service generator")
        if b.kind is BusKind.PQ and gens_at.get(b.id, 0) > 0:
            report.append(f"bus {b.id} is pq but hosts an in-service generator")

    if net.buses and not _connected(net):
        report.append("network is not connected over in-service branches")

    if not report:
        net._memo["valid"] = True
    return report


def _member_problems(net: Network) -> list[str]:
    """:func:`validate_network` over the fields that :func:`apply_disturbance`
    and :func:`set_flat_setpoints` change, for a family whose structure is
    valid."""
    report: list[str] = []
    for b in net.buses:
        problem = _setpoint_problem(b.id, b.v_setpoint)
        if problem is not None:
            report.append(problem)
        if not math.isfinite(b.p_load + b.q_load):
            report += _non_finite(f"bus {b.id}", b, _LOAD_NUMBERS)
    return report


def partition_buses(net: Network) -> BusPartition:
    """Split buses into the voltage-controlled (slack + PV) and load sets.

    Raises ``NetworkError`` when the network is invalid. A valid network
    gets its family's partition, the same object for every member.
    """
    problems = validate_network(net)
    if problems:
        raise NetworkError("invalid network: " + "; ".join(problems))
    return _split_buses(net)


def _split_buses(net: Network) -> BusPartition:
    """:func:`partition_buses` without the validation: the family's
    partition, kept in its memo (it reads only bus ids and kinds)."""
    part = net._memo.get("partition")
    if part is not None:
        return part
    ext_to_int = bus_order(net)
    by_id = {b.id: b for b in net.buses}
    pv = []
    pq = []
    slack_idx = -1
    for bus_id in sorted(ext_to_int):
        idx = ext_to_int[bus_id]
        kind = by_id[bus_id].kind
        if kind is BusKind.SLACK:
            slack_idx = idx
            pv.append(idx)
        elif kind is BusKind.PV:
            pv.append(idx)
        else:
            pq.append(idx)
    return net._memo.setdefault("partition", BusPartition(
        slack_idx=slack_idx, pv_idx=tuple(pv), pq_idx=tuple(pq),
        ext_to_int=ext_to_int))


def apply_disturbance(net: Network, bus: int, dq: float) -> Network:
    """Return a copy with ``dq`` MVAr added to the reactive load at ``bus``.

    Positive ``dq`` is inductive (depresses voltage), negative is capacitive
    (raises voltage). Load mutates, shunts do not.
    """
    if not any(b.id == bus for b in net.buses):
        raise NetworkError(f"no bus with id {bus}")
    buses = tuple(
        replace(b, q_load=b.q_load + dq) if b.id == bus else b for b in net.buses
    )
    return _same_family(net, buses=buses)


def set_flat_setpoints(net: Network, v: float) -> Network:
    """Return a copy with every slack/PV bus and generator set-point at ``v``."""
    if not (0 < v < 2) or not math.isfinite(v):
        raise ValueError(f"set-point {v} outside (0, 2) pu")
    buses = tuple(
        replace(b, v_setpoint=v) if b.kind in (BusKind.SLACK, BusKind.PV) else b
        for b in net.buses
    )
    gens = tuple(replace(g, v_setpoint=v) for g in net.generators)
    return _same_family(net, buses=buses, generators=gens)


def _same_family(net: Network, **changes) -> Network:
    """``replace(net, **changes)`` sharing ``net``'s memo: for changes to
    loads and set-points only, which no memo entry depends on."""
    derived = replace(net, **changes)
    object.__setattr__(derived, "_memo", net._memo)
    return derived
