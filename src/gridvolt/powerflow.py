"""Bus admittance assembly and AC power-flow solvers.

Two solvers share one convergence contract (per-unit power mismatch at
every non-slack bus below tolerance): full Newton-Raphson in polar form,
and the fast-decoupled iteration with constant B' / B'' matrices (BX
variant: B' from the series branches with charging, shunts and taps
removed; B'' the negated imaginary part of Ybus with series resistance
and phase shifts removed, shunts and charging kept). B'' doubles as the
reactive sensitivity matrix of the control model, keeping solver and
controller consistent. :func:`bus_mismatch` recomputes residuals from
first principles, branch by branch, as an independent audit of either
solver.

Newton's set-up is built once per network: :func:`newton_system`
validates and partitions it, assembles Ybus and the schedule, and cuts
out the Ybus row blocks the Jacobian reads (the non-slack rows in the
angle and the magnitude columns); :meth:`NewtonSystem.at` moves that
system to other slack/PV set-points - which is all a control loop changes
between re-solves - without rebuilding anything. :func:`solve_newton`
iterates on a network or on such a system, so every Newton solve runs
through it. Each iteration forms one voltage vector, one injection
``Ybus v`` and one mismatch vector, which is both the convergence measure
and the right-hand side; the Jacobian is assembled from the row blocks by
broadcasting (MATPOWER's ``dSbus_dV``) straight into one real array, with
no full-size complex derivative and no ``ix_`` cut. The fast-decoupled
solver starts from the same system and mismatch vector.
:func:`solve_newton_system` is ``solve_newton(system.at(setpoints))``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .netmodel import (
    Branch,
    BusKind,
    BusPartition,
    Network,
    NetworkError,
    _setpoint_problem,
    bus_order,
    partition_buses,
)
from .numerics import lu_factor, lu_solve, lu_solve_factored

__all__ = [
    "PF_TOLERANCE",
    "NEWTON_MAX_ITER",
    "FDLF_MAX_ITER",
    "AdmittanceMatrix",
    "PowerFlowSolution",
    "PowerFlowError",
    "PowerFlowDivergedError",
    "NewtonSystem",
    "build_ybus",
    "build_bpp_full",
    "build_bprime_full",
    "newton_system",
    "solve_newton_system",
    "solve_newton",
    "solve_fdlf",
    "bus_mismatch",
]

PF_TOLERANCE = 1e-8
NEWTON_MAX_ITER = 30
FDLF_MAX_ITER = 60  # linear convergence rate needs more headroom


class PowerFlowError(RuntimeError):
    pass


class PowerFlowDivergedError(PowerFlowError):
    """Solver hit its iteration cap; ``solution`` holds the last iterate."""

    def __init__(self, message: str, solution: "PowerFlowSolution"):
        super().__init__(message)
        self.solution = solution


@dataclass(frozen=True, eq=False)
class AdmittanceMatrix:
    """Real and imaginary parts of Ybus over the ascending-bus-id index
    space shared with :class:`~gridvolt.netmodel.BusPartition`."""

    g: np.ndarray
    b: np.ndarray
    ids: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.ids)

    def complex(self) -> np.ndarray:
        return self.g + 1j * self.b


@dataclass(frozen=True, eq=False)
class PowerFlowSolution:
    """Converged (or best-effort) bus state in the internal index space.

    ``mismatch_history`` is the solver's max mismatch (pu) at the start and
    after each iteration: ``iterations + 1`` entries, the last one
    ``max_mismatch``.
    """

    vm: np.ndarray
    va: np.ndarray
    converged: bool
    iterations: int
    max_mismatch: float
    ids: tuple[int, ...]
    mismatch_history: tuple[float, ...] = ()

    def index_of(self, bus_id: int) -> int:
        return self.ids.index(bus_id)

    def vm_at(self, bus_id: int) -> float:
        return float(self.vm[self.index_of(bus_id)])

    def va_at(self, bus_id: int) -> float:
        return float(self.va[self.index_of(bus_id)])


def _branch_admittances(br: Branch, *, ignore_r: bool, ignore_charging: bool,
                        unit_tap: bool, zero_shift: bool):
    """Two-port admittance terms (yff, yft, ytf, ytt) of one pi branch."""
    r = 0.0 if ignore_r else br.r
    if r == 0.0 and br.x == 0.0:
        raise PowerFlowError(
            f"branch {br.from_bus}-{br.to_bus} has zero impedance"
        )
    ys = 1.0 / complex(r, br.x)
    bc = 0.0 if ignore_charging else br.b_charging
    tap = 1.0 if unit_tap else br.tap
    shift = 0.0 if zero_shift else math.radians(br.shift)
    t = tap * cmath.exp(1j * shift)
    yff = (ys + 0.5j * bc) / (tap * tap)
    ytt = ys + 0.5j * bc
    yft = -ys / t.conjugate()
    ytf = -ys / t
    return yff, yft, ytf, ytt


def _assemble_ybus(net: Network, *, ignore_r=False, ignore_charging=False,
                   ignore_shunts=False, unit_tap=False,
                   zero_shift=False) -> np.ndarray:
    order = bus_order(net)
    n = len(order)
    y = np.zeros((n, n), dtype=complex)
    for br in net.branches:
        if not br.in_service:
            continue
        f = order[br.from_bus]
        t = order[br.to_bus]
        yff, yft, ytf, ytt = _branch_admittances(
            br, ignore_r=ignore_r, ignore_charging=ignore_charging,
            unit_tap=unit_tap, zero_shift=zero_shift)
        y[f, f] += yff
        y[f, t] += yft
        y[t, f] += ytf
        y[t, t] += ytt
    if not ignore_shunts:
        for bus in net.buses:
            i = order[bus.id]
            y[i, i] += complex(bus.g_shunt, bus.b_shunt) / net.base_mva
    return y


def build_ybus(net: Network) -> AdmittanceMatrix:
    """Standard pi-model bus admittance matrix.

    Series admittance 1/(r + jx), from-side scaled by the off-nominal tap
    with phase shift, half the line charging plus any bus shunt on the
    diagonals. Raises on an in-service zero-impedance branch.
    """
    y = _assemble_ybus(net)
    ids = tuple(sorted(b.id for b in net.buses))
    return AdmittanceMatrix(g=y.real.copy(), b=y.imag.copy(), ids=ids)


def build_bpp_full(net: Network) -> np.ndarray:
    """Full-network B'' matrix: the reactive Jacobian dQ/dV at a flat
    voltage profile under decoupling assumptions.

    Series resistance, phase shifts and off-nominal taps are dropped;
    shunts and line charging are kept. At V = 1, theta = 0 the exact
    derivative is -B_ij off the diagonal and -2 B_ii - sum_{j!=i} B_ij on
    it (the quadratic V^2 shunt terms differentiate to twice their
    admittance entries), with B = Im(Ybus) of that reduced network. This
    is the matrix behind the fast-decoupled reactive iteration and the
    Q-V sensitivity model, over all buses in internal order.
    """
    b = _assemble_ybus(net, ignore_r=True, unit_tap=True, zero_shift=True).imag
    return -(b + np.diag(b.sum(axis=1)))


def build_bprime_full(net: Network) -> np.ndarray:
    """Full-network B' matrix for the active fast-decoupled iteration:
    series branches only (charging, shunts, taps, shifts removed)."""
    return -_assemble_ybus(net, ignore_charging=True,
                           ignore_shunts=True, unit_tap=True,
                           zero_shift=True).imag


def _scheduled_injections(net: Network, order: dict[int, int]):
    n = len(order)
    p = np.zeros(n)
    q = np.zeros(n)
    for bus in net.buses:
        i = order[bus.id]
        p[i] -= bus.p_load / net.base_mva
        q[i] -= bus.q_load / net.base_mva
    for gen in net.generators:
        if gen.in_service:
            p[order[gen.bus]] += gen.p_gen / net.base_mva
    return p, q


def _start_magnitudes(net: Network, order: dict[int, int]):
    vm = np.ones(len(order))
    for bus in net.buses:
        if bus.kind in (BusKind.SLACK, BusKind.PV):
            vm[order[bus.id]] = bus.v_setpoint
    return vm


@dataclass(frozen=True, eq=False)
class NewtonSystem:
    """What Newton's iteration reads of one network, built once by
    :func:`newton_system`.

    ``vm0`` is the flat start magnitude (slack/PV set-points, 1.0 pu at PQ
    buses); ``pvpq`` indexes the non-slack buses, ``pq`` the load buses and
    ``pv`` the slack and PV buses in ``partition.pv_idx`` order. The
    Jacobian reads Ybus only in the rows of ``pvpq``: ``y_va`` holds them in
    the columns of ``pvpq`` (the angle columns), ``y_vm`` in the columns of
    ``pq`` (the magnitude columns), and ``pq_pos`` gives each PQ bus's
    position within ``pvpq``. The arrays are read-only: one system serves
    any number of solves, and :meth:`at` shares all of them but ``vm0``.
    """

    partition: BusPartition
    ybus: np.ndarray
    p_sched: np.ndarray
    q_sched: np.ndarray
    vm0: np.ndarray
    pvpq: np.ndarray
    pq: np.ndarray
    pv: np.ndarray
    y_va: np.ndarray
    y_vm: np.ndarray
    pq_pos: np.ndarray
    ids: tuple[int, ...]

    def at(self, setpoints) -> NewtonSystem:
        """This system with the slack and PV magnitudes replaced by
        ``setpoints`` (in ``partition.pv_idx`` order): the system of the
        network rebuilt with those set-points, without rebuilding it.

        Raises ``ValueError`` for a wrong shape and ``NetworkError``, with
        :func:`~gridvolt.netmodel.validate_network`'s text, for a set-point
        that is not finite or lies outside (0, 2) pu.
        """
        setpoints = np.asarray(setpoints, dtype=float)
        if setpoints.shape != self.pv.shape:
            raise ValueError(
                f"setpoints have shape {setpoints.shape}, expected "
                f"{self.pv.shape}")
        problems = [p for i, v in zip(self.pv, setpoints)
                    if (p := _setpoint_problem(self.ids[i], float(v))) is not None]
        if problems:
            raise NetworkError("invalid network: " + "; ".join(problems))
        vm0 = self.vm0.copy()
        vm0[self.pv] = setpoints
        vm0.flags.writeable = False
        return replace(self, vm0=vm0)


def newton_system(net: Network) -> NewtonSystem:
    """Validate and partition ``net`` and assemble its Newton system.

    Raises ``NetworkError`` for an invalid network and
    :class:`PowerFlowError` for an in-service zero-impedance branch.
    """
    part = partition_buses(net)
    order = part.ext_to_int
    ybus = _assemble_ybus(net)
    p_sched, q_sched = _scheduled_injections(net, order)
    vm0 = _start_magnitudes(net, order)
    pvpq = np.array([i for i in range(len(order)) if i != part.slack_idx], dtype=int)
    pq = np.array(part.pq_idx, dtype=int)
    pv = np.array(part.pv_idx, dtype=int)
    y_va = ybus[np.ix_(pvpq, pvpq)]
    y_vm = ybus[np.ix_(pvpq, pq)]
    pq_pos = np.searchsorted(pvpq, pq)
    for arr in (ybus, p_sched, q_sched, vm0, pvpq, pq, pv, y_va, y_vm, pq_pos):
        arr.flags.writeable = False
    return NewtonSystem(partition=part, ybus=ybus, p_sched=p_sched,
                        q_sched=q_sched, vm0=vm0, pvpq=pvpq, pq=pq, pv=pv,
                        y_va=y_va, y_vm=y_vm, pq_pos=pq_pos,
                        ids=tuple(sorted(order)))


def _mismatch(system: NewtonSystem, vm, va):
    """Bus voltages ``v``, injected currents ``ibus = Ybus v`` and the
    mismatch vector ``f = [dP(pvpq); dQ(pq)]`` (scheduled minus injected),
    which is both the convergence measure and Newton's right-hand side."""
    v = vm * np.exp(1j * va)
    ibus = system.ybus @ v
    s = v * np.conj(ibus)
    f = np.concatenate([system.p_sched[system.pvpq] - s.real[system.pvpq],
                        system.q_sched[system.pq] - s.imag[system.pq]])
    return v, ibus, f


def _max_abs(f) -> float:
    return float(np.max(np.abs(f), initial=0.0))


def _jacobian(system: NewtonSystem, v, ibus) -> np.ndarray:
    """Newton Jacobian [[dP/dVa, dP/dVm], [dQ/dVa, dQ/dVm]] over the
    non-slack angles and the PQ magnitudes, at voltages ``v`` with
    ``ibus = Ybus v``.

    MATPOWER's ``dSbus_dV``: dS/dVa = j diag(v) conj(diag(ibus) - Y diag(v))
    and dS/dVm = diag(v) conj(Y diag(vn)) + conj(diag(ibus)) diag(vn), each
    product by a diagonal matrix done as a broadcast, on the system's
    ``pvpq`` rows only. The Q rows are the PQ rows of those blocks.
    """
    pvpq, pq, pq_pos = system.pvpq, system.pq, system.pq_pos
    npvpq, npq = len(pvpq), len(pq)
    v_r = v[pvpq]
    vn = v[pq] / np.abs(v[pq])
    # Y (-v) is -(Y v) exactly, without a pass over the block to negate it.
    ds_dva = system.y_va * -v_r
    ds_dva.reshape(-1)[::npvpq + 1] += ibus[pvpq]
    np.conj(ds_dva, out=ds_dva)
    np.multiply((1j * v_r)[:, None], ds_dva, out=ds_dva)
    ds_dvm = v_r[:, None] * np.conj(system.y_vm * vn)
    ds_dvm[pq_pos, np.arange(npq)] += np.conj(ibus[pq]) * vn
    jac = np.empty((npvpq + npq, npvpq + npq))
    jac[:npvpq, :npvpq] = ds_dva.real
    jac[:npvpq, npvpq:] = ds_dvm.real
    jac[npvpq:, :npvpq] = ds_dva.imag[pq_pos]
    jac[npvpq:, npvpq:] = ds_dvm.imag[pq_pos]
    return jac


def _finish(solver: str, vm, va, history: list[float], tol: float,
            max_iter: int, ids: tuple[int, ...]) -> PowerFlowSolution:
    """The solution after ``len(history) - 1`` iterations; raises
    :class:`PowerFlowDivergedError` with it unless the last mismatch is
    within ``tol``."""
    worst = history[-1]
    solution = PowerFlowSolution(vm=vm, va=va, converged=worst <= tol,
                                 iterations=len(history) - 1,
                                 max_mismatch=worst, ids=ids,
                                 mismatch_history=tuple(history))
    if not solution.converged:
        raise PowerFlowDivergedError(
            f"{solver} did not converge in {max_iter} iterations "
            f"(max mismatch {worst:.3e} pu)", solution)
    return solution


def solve_newton(net: Network | NewtonSystem, tol: float = PF_TOLERANCE,
                 max_iter: int = NEWTON_MAX_ITER) -> PowerFlowSolution:
    """Full Newton-Raphson power flow in polar coordinates.

    Flat start from the set-points (slack/PV) and 1.0 pu (PQ) at zero
    angle. On convergence the active mismatch at every non-slack bus and
    the reactive mismatch at every PQ bus are below ``tol`` (pu on the
    system base) and PV/slack magnitudes equal their set-points exactly.
    Raises :class:`PowerFlowDivergedError` after ``max_iter`` iterations.

    ``net`` may also be a prebuilt :class:`NewtonSystem`, which skips
    validation and assembly: to solve one network at several set-points,
    build it once with :func:`newton_system` and solve ``system.at(..)``.
    """
    system = net if isinstance(net, NewtonSystem) else newton_system(net)
    pvpq, pq = system.pvpq, system.pq
    vm = system.vm0.copy()
    va = np.zeros(len(vm))
    npvpq = len(pvpq)

    v, ibus, f = _mismatch(system, vm, va)
    history = [_max_abs(f)]
    while history[-1] > tol and len(history) <= max_iter:
        step = lu_solve(_jacobian(system, v, ibus), f)
        va[pvpq] += step[:npvpq]
        vm[pq] += step[npvpq:]
        v, ibus, f = _mismatch(system, vm, va)
        history.append(_max_abs(f))

    return _finish("Newton power flow", vm, va, history, tol, max_iter,
                   system.ids)


def solve_newton_system(system: NewtonSystem, setpoints=None,
                        tol: float = PF_TOLERANCE,
                        max_iter: int = NEWTON_MAX_ITER) -> PowerFlowSolution:
    """Newton-Raphson power flow of a prebuilt :class:`NewtonSystem`, at
    ``setpoints`` (see :meth:`NewtonSystem.at`) if given; the same contract
    and errors as :func:`solve_newton`.
    """
    if setpoints is not None:
        system = system.at(setpoints)
    return solve_newton(system, tol=tol, max_iter=max_iter)


def solve_fdlf(net: Network, tol: float = PF_TOLERANCE,
               max_iter: int = FDLF_MAX_ITER) -> PowerFlowSolution:
    """Fast-decoupled power flow (XB scheme, constant matrices).

    Same start and convergence contract as :func:`solve_newton`; the two
    solvers agree to well below table precision on the bundled cases.
    """
    system = newton_system(net)
    pvpq, pq = system.pvpq, system.pq
    vm = system.vm0.copy()
    va = np.zeros(len(vm))
    npvpq = len(pvpq)

    bp = build_bprime_full(net)[np.ix_(pvpq, pvpq)]
    bpp = build_bpp_full(net)[np.ix_(pq, pq)]
    bp_fac = lu_factor(bp)
    bpp_fac = lu_factor(bpp) if len(pq) else None

    _, _, f = _mismatch(system, vm, va)
    history = [_max_abs(f)]
    while history[-1] > tol and len(history) <= max_iter:
        # P half-iteration updates angles.
        va[pvpq] += lu_solve_factored(bp_fac, f[:npvpq] / vm[pvpq])
        _, _, f = _mismatch(system, vm, va)
        worst = _max_abs(f)
        # Q half-iteration updates PQ magnitudes.
        if worst > tol and bpp_fac is not None:
            vm[pq] += lu_solve_factored(bpp_fac, f[npvpq:] / vm[pq])
            _, _, f = _mismatch(system, vm, va)
            worst = _max_abs(f)
        history.append(worst)

    return _finish("fast-decoupled power flow", vm, va, history, tol,
                   max_iter, system.ids)


def bus_mismatch(net: Network, vm, va):
    """Scheduled-minus-injected (P, Q) at every bus, from first principles.

    Walks the branch list with scalar complex arithmetic (no admittance
    matrix), making it an independent residual oracle for the solvers.
    The active entry at the slack bus and the reactive entries at
    slack/PV buses compare against case-file schedules that the solution
    does not enforce; callers should mask them.
    """
    order = bus_order(net)
    vm = np.asarray(vm, dtype=float)
    va = np.asarray(va, dtype=float)
    if vm.shape != (len(order),) or va.shape != (len(order),):
        raise ValueError("vm/va length must equal the bus count")

    volt = {bus.id: vm[order[bus.id]] * cmath.exp(1j * va[order[bus.id]])
            for bus in net.buses}
    p_inj = {bus.id: 0.0 for bus in net.buses}
    q_inj = {bus.id: 0.0 for bus in net.buses}

    for br in net.branches:
        if not br.in_service:
            continue
        yff, yft, ytf, ytt = _branch_admittances(
            br, ignore_r=False, ignore_charging=False, unit_tap=False,
            zero_shift=False)
        vf = volt[br.from_bus]
        vt = volt[br.to_bus]
        sf = vf * (yff * vf + yft * vt).conjugate()
        st = vt * (ytf * vf + ytt * vt).conjugate()
        p_inj[br.from_bus] += sf.real
        q_inj[br.from_bus] += sf.imag
        p_inj[br.to_bus] += st.real
        q_inj[br.to_bus] += st.imag

    for bus in net.buses:
        v2 = abs(volt[bus.id]) ** 2
        p_inj[bus.id] += v2 * bus.g_shunt / net.base_mva
        q_inj[bus.id] -= v2 * bus.b_shunt / net.base_mva

    p_sched, q_sched = _scheduled_injections(net, order)
    dp = np.zeros(len(order))
    dq = np.zeros(len(order))
    for bus in net.buses:
        i = order[bus.id]
        dp[i] = p_sched[i] - p_inj[bus.id]
        dq[i] = q_sched[i] - q_inj[bus.id]
    return dp, dq
