"""Bus admittance assembly and AC power-flow solvers.

Ybus, B' and B'' are assembled as MATPOWER's ``makeYbus`` does: one walk
of the network collects its in-service branches as arrays, and each matrix
is one scatter of per-branch terms. Two solvers share one convergence
contract (per-unit power mismatch at every non-slack bus below tolerance):
full Newton-Raphson in polar form, and the fast-decoupled iteration with
constant B' / B'' matrices (BX variant: B' from the series impedances
alone; B'' from the reactances with charging and shunts kept; neither has
taps or phase shifts). B'' doubles as the reactive sensitivity matrix of
the control model, keeping solver and controller consistent.
:func:`bus_mismatch` recomputes residuals from first principles, branch by
branch in scalar arithmetic, as an independent audit of either solver.

Newton's set-up is built once per network: :func:`newton_system`
validates and partitions it, assembles the schedule, and takes Ybus and
the Ybus row blocks the Jacobian reads (the non-slack rows in the angle
and the magnitude columns) from the network's memo, which builds them
once for the family of networks that differ only in loads and set-points
(see :mod:`gridvolt.netmodel`); :meth:`NewtonSystem.at` moves that
system to other slack/PV set-points - all a control loop changes between
re-solves - and can start it from any state of the system, such as an
earlier solution or a linear prediction, instead of the flat start.
:func:`solve_newton` iterates on a network or on such a system, so
every Newton solve runs through it. Each iteration forms one voltage
vector, one injection ``Ybus v`` and one mismatch vector (the convergence
measure and the right-hand side); the Jacobian is broadcast from the row
blocks (MATPOWER's ``dSbus_dV``) into one real array. A backtracking line
search keeps a step only if it does not raise the largest mismatch, so a
solve that cannot converge stops with a bounded iterate instead of blowing
up. Solves given a :class:`ChordFactor` take chord steps instead: one
inverse Jacobian, kept across solves, is applied by a matrix-vector product
and formed again only when a step stops contracting, so the re-solves of a
control loop share a few inverses where Newton would factor a Jacobian per
iteration. The fast-decoupled solver starts from the same system and inverts
B' and B'' once. A singular matrix is a :class:`PowerFlowError` naming it.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
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
from .numerics import SingularMatrixError, check_condition, lu_solve

__all__ = [
    "PF_TOLERANCE",
    "NEWTON_MAX_ITER",
    "NEWTON_MAX_HALVINGS",
    "CHORD_RHO",
    "FDLF_MAX_ITER",
    "AdmittanceMatrix",
    "PowerFlowSolution",
    "PowerFlowError",
    "PowerFlowDivergedError",
    "NewtonSystem",
    "ChordFactor",
    "build_ybus",
    "build_bpp_full",
    "build_bprime_full",
    "newton_system",
    "solve_newton",
    "solve_fdlf",
    "bus_mismatch",
]

PF_TOLERANCE = 1e-8
NEWTON_MAX_ITER = 30
NEWTON_MAX_HALVINGS = 12  # line search: shortest trial step is 2**-12 of Newton's
# A chord step must cut the largest mismatch to this fraction, or the
# re-used Jacobian inverse is refreshed.
CHORD_RHO = 0.1
FDLF_MAX_ITER = 60  # linear convergence rate needs more headroom


class PowerFlowError(RuntimeError):
    pass


class PowerFlowDivergedError(PowerFlowError):
    """Solver stopped unconverged - at its iteration cap or, for Newton,
    when no step length keeps the mismatch from rising; ``solution`` holds
    the last accepted iterate."""

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

    def complex(self) -> np.ndarray:
        return self.g + 1j * self.b


@dataclass(frozen=True, eq=False)
class PowerFlowSolution:
    """Converged (or best-effort) bus state in the internal index space.

    ``mismatch_history`` is the solver's max mismatch (pu) at the start and
    after each iteration: ``iterations + 1`` entries, the last one
    ``max_mismatch``. ``jacobians`` counts the matrices the solve factored
    or inverted: one Newton Jacobian per iteration from a plain start, fewer
    when chord steps re-use one (:class:`ChordFactor`), and always 2 (B' and
    B'') for the fast-decoupled solver.
    """

    vm: np.ndarray
    va: np.ndarray
    converged: bool
    iterations: int
    max_mismatch: float
    ids: tuple[int, ...]
    mismatch_history: tuple[float, ...] = ()
    jacobians: int = 0

    def index_of(self, bus_id: int) -> int:
        return self.ids.index(bus_id)

    def vm_at(self, bus_id: int) -> float:
        return float(self.vm[self.index_of(bus_id)])


def _branch_admittances(br: Branch):
    """Two-port terms (yff, yft, ytf, ytt) of one pi branch in scalar
    complex arithmetic: :func:`bus_mismatch`'s own branch model."""
    ys = 1.0 / complex(br.r, br.x)
    t = br.tap * cmath.exp(1j * math.radians(br.shift))
    ytt = ys + 0.5j * br.b_charging
    return ytt / (br.tap * br.tap), -ys / t.conjugate(), -ys / t, ytt


class _Branches:
    """A network's in-service branches as arrays in branch-list order (from
    and to index ``f``/``t``, ``r``, ``x``, total charging ``b_c``, ``tap``,
    ``shift`` in radians) and its bus shunts ``g_sh + j b_sh`` in pu, over
    the internal index ``order``; Ybus, B' and B'' are each one scatter."""

    def __init__(self, net: Network, order: dict[int, int]):
        self.live = tuple(br for br in net.branches if br.in_service)
        cols = np.array([(order[br.from_bus], order[br.to_bus], br.r, br.x,
                          br.b_charging, br.tap, br.shift) for br in self.live],
                        dtype=float).reshape(-1, 7).T
        self.f, self.t = cols[:2].astype(int)
        self.r, self.x, self.b_c, self.tap = cols[2:6]
        self.shift = np.radians(cols[6])
        self.n = len(order)
        idx = [order[bus.id] for bus in net.buses]
        self.g_sh, self.b_sh = np.zeros((2, self.n))
        self.g_sh[idx] = [bus.g_shunt / net.base_mva for bus in net.buses]
        self.b_sh[idx] = [bus.b_shunt / net.base_mva for bus in net.buses]

    def _reject(self, zero: np.ndarray) -> None:
        """Raise for the first branch flagged in ``zero``."""
        if zero.any():
            br = self.live[int(np.argmax(zero))]
            raise PowerFlowError(
                f"branch {br.from_bus}-{br.to_bus} has zero impedance")

    def _scatter(self, yff, yft, ytf, ytt) -> np.ndarray:
        """Bus matrix summing each branch's terms into its (f, f), (f, t),
        (t, f) and (t, t) entries: one ``np.add.at`` over the interleaved
        entries, which adds in branch order as a loop over branches does."""
        rows = np.stack([self.f, self.f, self.t, self.t], axis=1).ravel()
        cols = np.stack([self.f, self.t, self.f, self.t], axis=1).ravel()
        terms = np.stack([yff, yft, ytf, ytt], axis=1).ravel()
        m = np.zeros((self.n, self.n), dtype=terms.dtype)
        np.add.at(m, (rows, cols), terms)
        return m

    def ybus(self) -> np.ndarray:
        self._reject((self.r == 0.0) & (self.x == 0.0))
        ys = 1.0 / (self.r + 1j * self.x)
        t = self.tap * np.exp(1j * self.shift)
        ytt = ys + 0.5j * self.b_c
        y = self._scatter(ytt / (self.tap * self.tap), -ys / t.conj(),
                          -ys / t, ytt)
        y.flat[::self.n + 1] += self.g_sh + 1j * self.b_sh
        return y

    def bprime(self) -> np.ndarray:
        self._reject((self.r == 0.0) & (self.x == 0.0))
        w = -(1.0 / (self.r + 1j * self.x)).imag
        return self._scatter(w, -w, -w, w)

    def bpp(self) -> np.ndarray:
        self._reject(self.x == 0.0)
        w = 1.0 / self.x
        bpp = self._scatter(w - self.b_c, -w, -w, w - self.b_c)
        bpp.flat[::self.n + 1] -= 2.0 * self.b_sh
        return bpp


def build_ybus(net: Network) -> AdmittanceMatrix:
    """Standard pi-model bus admittance matrix (MATPOWER ``makeYbus``).

    Series admittance 1/(r + jx), from-side scaled by the off-nominal tap
    with phase shift, half the line charging plus any bus shunt on the
    diagonals. Raises on an in-service zero-impedance branch.
    """
    order = bus_order(net)
    y = _Branches(net, order).ybus()
    return AdmittanceMatrix(g=y.real, b=y.imag, ids=tuple(sorted(order)))


def build_bpp_full(net: Network) -> np.ndarray:
    """Full-network B'' matrix: the reactive Jacobian dQ/dV at a flat
    voltage profile under decoupling assumptions, over all buses.

    Keeps reactance, line charging and bus shunts; drops series resistance,
    off-nominal taps and phase shifts. At V = 1, theta = 0 the exact
    derivative is -B_ij off the diagonal and -2 B_ii - sum_{j!=i} B_ij on
    it (the V^2 shunt terms differentiate to twice their admittance), with
    B = Im(Ybus) of that reduced network: the Laplacian of 1/x less, on
    the diagonal, the charging of every branch at the bus and twice its
    shunt susceptance. Raises on an in-service branch with x = 0.
    """
    return _Branches(net, bus_order(net)).bpp()


def build_bprime_full(net: Network) -> np.ndarray:
    """Full-network B' matrix for the active fast-decoupled iteration: the
    Laplacian of the series susceptances -Im(1/(r + jx)). Keeps series
    resistance and reactance; drops line charging, bus shunts, off-nominal
    taps and phase shifts. Raises on an in-service zero-impedance branch."""
    return _Branches(net, bus_order(net)).bprime()


def _scheduled_injections(net: Network, order: dict[int, int]):
    p, q = np.zeros((2, len(order)))
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

    ``vm0`` and ``va0`` are Newton's start: from :func:`newton_system` the
    flat start (slack/PV set-points and 1.0 pu at PQ buses, zero angles),
    from :meth:`at` with a ``start`` that state. ``pvpq``
    indexes the non-slack buses, ``pq`` the load buses and ``pv`` the
    slack and PV buses in ``partition.pv_idx`` order. The
    Jacobian reads Ybus only in the rows of ``pvpq``: ``y_va`` holds them in
    the columns of ``pvpq`` (the angle columns), ``y_vm`` in the columns of
    ``pq`` (the magnitude columns), and ``pq_pos`` gives each PQ bus's
    position within ``pvpq``. The arrays are read-only: one system serves
    any number of solves, and :meth:`at` shares all of them but ``vm0``
    (and ``va0`` when it is given a start).
    """

    partition: BusPartition
    ybus: np.ndarray
    p_sched: np.ndarray
    q_sched: np.ndarray
    vm0: np.ndarray
    va0: np.ndarray
    pvpq: np.ndarray
    pq: np.ndarray
    pv: np.ndarray
    y_va: np.ndarray
    y_vm: np.ndarray
    pq_pos: np.ndarray
    ids: tuple[int, ...]

    def at(self, setpoints,
           start: PowerFlowSolution | None = None) -> NewtonSystem:
        """This system with the slack and PV magnitudes replaced by
        ``setpoints`` (in ``partition.pv_idx`` order): the system of the
        network rebuilt with those set-points, without rebuilding it.

        With ``start`` - a state of this system, such as a solution at
        nearby set-points or a linear model's prediction at these (it need
        not be converged) - Newton starts from its angles and load-bus
        magnitudes instead of the flat start; the slack and PV magnitudes
        are still exactly ``setpoints``.

        Raises ``ValueError`` for a wrong shape or a ``start`` over other
        buses, and ``NetworkError``, with
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
        if start is None:
            vm0, va0 = self.vm0.copy(), self.va0
        elif start.ids != self.ids:
            raise ValueError("start solution is over other buses than the system")
        else:
            vm0, va0 = start.vm.copy(), start.va.copy()
            va0.flags.writeable = False
        vm0[self.pv] = setpoints
        vm0.flags.writeable = False
        return replace(self, vm0=vm0, va0=va0)


def newton_system(net: Network) -> NewtonSystem:
    """Validate and partition ``net`` and assemble its Newton system.

    Ybus and its row blocks come from the network's memo, built on the
    first call for any network of its family. Raises ``NetworkError`` for
    an invalid network and :class:`PowerFlowError` for an in-service
    zero-impedance branch.
    """
    part = partition_buses(net)
    order = part.ext_to_int
    blocks = net._memo.get("newton")
    if blocks is None:
        blocks = net._memo.setdefault("newton", _load_free_blocks(net, part))
    p_sched, q_sched = _scheduled_injections(net, order)
    vm0 = _start_magnitudes(net, order)
    va0 = np.zeros(len(order))
    for arr in (p_sched, q_sched, vm0, va0):
        arr.flags.writeable = False
    return NewtonSystem(partition=part, p_sched=p_sched, q_sched=q_sched,
                        vm0=vm0, va0=va0, ids=tuple(sorted(order)), **blocks)


def _load_free_blocks(net: Network, part: BusPartition) -> dict:
    """The read-only :class:`NewtonSystem` fields that do not depend on
    loads or set-points: Ybus, the index arrays and the row blocks. A
    network's family shares them (its memo's ``"newton"`` entry)."""
    ybus = _Branches(net, part.ext_to_int).ybus()
    pvpq = np.delete(np.arange(len(ybus)), part.slack_idx)
    pq = np.array(part.pq_idx, dtype=int)
    blocks = dict(ybus=ybus, pvpq=pvpq, pq=pq,
                  pv=np.array(part.pv_idx, dtype=int),
                  y_va=ybus[np.ix_(pvpq, pvpq)], y_vm=ybus[np.ix_(pvpq, pq)],
                  pq_pos=np.searchsorted(pvpq, pq))
    for arr in blocks.values():
        arr.flags.writeable = False
    return blocks


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
    """Largest magnitude in ``f``, NaN if any entry is; 0.0 when empty."""
    return float(np.abs(f).max()) if f.size else 0.0


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


class ChordFactor:
    """An inverse Newton Jacobian that :func:`solve_newton` re-uses across
    iterations and across solves of one system: chord steps.

    Empty at first; a solve given this holder forms the inverse at its
    start and keeps it for as long as each step cuts the largest mismatch
    to ``CHORD_RHO`` of what it was, then forms it again at the current
    iterate. A control loop makes one holder and passes it to every
    re-solve, so one inverse typically serves the whole run.
    """

    def __init__(self):
        self.inverse: np.ndarray | None = None


@contextmanager
def _singular_as_error(matrix: str):
    """Re-raise a singular ``matrix`` as a PowerFlowError that names it."""
    try:
        yield
    except SingularMatrixError as exc:
        raise PowerFlowError(f"{matrix}: {exc}") from exc


def _inverse_jacobian(system: NewtonSystem, v, ibus) -> np.ndarray:
    with _singular_as_error("Newton Jacobian"):
        jac = _jacobian(system, v, ibus)
        return lu_solve(jac, np.eye(len(jac)))


def _finish(solver: str, vm, va, history: list[float], tol: float,
            ids: tuple[int, ...], jacobians: int) -> PowerFlowSolution:
    """The solution after ``len(history) - 1`` iterations; raises
    :class:`PowerFlowDivergedError` with it unless the last mismatch is
    within ``tol``."""
    worst = history[-1]
    solution = PowerFlowSolution(vm=vm, va=va, converged=worst <= tol,
                                 iterations=len(history) - 1,
                                 max_mismatch=worst, ids=ids,
                                 mismatch_history=tuple(history),
                                 jacobians=jacobians)
    if not solution.converged:
        raise PowerFlowDivergedError(
            f"{solver} did not converge in {solution.iterations} iterations "
            f"(max mismatch {worst:.3e} pu)", solution)
    return solution


def solve_newton(net: Network | NewtonSystem, tol: float = PF_TOLERANCE,
                 max_iter: int = NEWTON_MAX_ITER,
                 chord: ChordFactor | None = None) -> PowerFlowSolution:
    """Full Newton-Raphson power flow in polar coordinates.

    Starts from the system's ``vm0``/``va0``: for a network, the flat start
    from the set-points (slack/PV) and 1.0 pu (PQ) at zero angle. On
    convergence the active mismatch at every non-slack bus and the reactive
    mismatch at every PQ bus are below ``tol`` (pu on the system base) and
    PV/slack magnitudes equal their set-points exactly.

    Each Newton step is damped by backtracking on the largest mismatch: the
    full step is tried first, with the same arithmetic as an undamped
    iteration, and halved (at most ``NEWTON_MAX_HALVINGS`` times) while it
    would raise that mismatch, so ``mismatch_history`` never increases.
    Raises :class:`PowerFlowDivergedError`, holding the last accepted
    iterate, after ``max_iter`` iterations or as soon as no step length
    keeps the mismatch from rising.

    ``net`` may also be a prebuilt :class:`NewtonSystem`, which skips
    validation and assembly: to solve one network at several set-points,
    build it once with :func:`newton_system` and solve ``system.at(..)``,
    optionally from a nearby state (``system.at(.., start=state)``).

    Given a ``chord`` holder, the steps apply its inverse Jacobian, formed
    at the start if the holder is empty (chord method; Kelley, *Iterative
    Methods for Linear and Nonlinear Equations*, ch. 5). The inverse is
    formed again at the current iterate after a step that cuts the largest
    mismatch by less than ``CHORD_RHO``, and before a fresh step from the
    same point when a step with an older inverse does not lower it at
    all; only fresh steps are halved, so a divergence verdict comes from a
    Jacobian of the current iterate, as without the holder. As chord steps
    contract linearly, they iterate on to ``tol * CHORD_RHO**2``, but a
    weak step at or below ``tol`` ends the solve (the round-off floor). A
    singular Jacobian is a :class:`PowerFlowError`, holder or not.
    """
    system = net if isinstance(net, NewtonSystem) else newton_system(net)
    pvpq, pq = system.pvpq, system.pq
    vm, va = system.vm0.copy(), system.va0.copy()
    npvpq = len(pvpq)
    target = tol if chord is None else tol * CHORD_RHO ** 2
    jacobians = 0

    v, ibus, f = _mismatch(system, vm, va)
    history = [_max_abs(f)]
    while history[-1] > target and len(history) <= max_iter:
        if chord is None:
            with _singular_as_error("Newton Jacobian"):
                step = lu_solve(_jacobian(system, v, ibus), f)
            fresh = True
        else:
            fresh = chord.inverse is None
            if fresh:
                chord.inverse = _inverse_jacobian(system, v, ibus)
            step = chord.inverse @ f
        jacobians += fresh
        for _ in range(NEWTON_MAX_HALVINGS + 1 if fresh else 1):
            va_try = va.copy()
            vm_try = vm.copy()
            va_try[pvpq] += step[:npvpq]
            vm_try[pq] += step[npvpq:]
            v_try, ibus_try, f_try = _mismatch(system, vm_try, va_try)
            worst = _max_abs(f_try)
            if worst <= history[-1]:  # False for NaN: halve on
                break
            step *= 0.5
        else:
            if fresh or history[-1] <= tol:
                break  # no step length lowers the mismatch
            chord.inverse = None  # stale: refresh here and step afresh
            continue
        va, vm, v, ibus, f = va_try, vm_try, v_try, ibus_try, f_try
        history.append(worst)
        if chord is not None and worst > CHORD_RHO * history[-2]:
            if worst <= tol:
                break
            chord.inverse = None

    return _finish("Newton power flow", vm, va, history, tol, system.ids,
                   jacobians)


def solve_fdlf(net: Network, tol: float = PF_TOLERANCE,
               max_iter: int = FDLF_MAX_ITER) -> PowerFlowSolution:
    """Fast-decoupled power flow (BX scheme, constant matrices).

    Same start and convergence contract as :func:`solve_newton`; the two
    solvers agree to well below table precision on the bundled cases. B'
    and B'' are inverted once and applied by matrix-vector products.
    """
    system = newton_system(net)
    pvpq, pq = system.pvpq, system.pq
    vm, va = system.vm0.copy(), system.va0.copy()
    npvpq = len(pvpq)

    branches = _Branches(net, system.partition.ext_to_int)
    inverses = []
    for name, m in (("B'", branches.bprime()[np.ix_(pvpq, pvpq)]),
                    ("B''", branches.bpp()[np.ix_(pq, pq)])):
        with _singular_as_error(name):
            inverses.append(lu_solve(m, np.eye(len(m))))
            check_condition(m, inverses[-1])
    bp_inv, bpp_inv = inverses

    _, _, f = _mismatch(system, vm, va)
    history = [_max_abs(f)]
    while history[-1] > tol and len(history) <= max_iter:
        # P half-iteration updates angles.
        va[pvpq] += bp_inv @ (f[:npvpq] / vm[pvpq])
        _, _, f = _mismatch(system, vm, va)
        worst = _max_abs(f)
        # Q half-iteration updates PQ magnitudes.
        if worst > tol:
            vm[pq] += bpp_inv @ (f[npvpq:] / vm[pq])
            _, _, f = _mismatch(system, vm, va)
            worst = _max_abs(f)
        history.append(worst)

    return _finish("fast-decoupled power flow", vm, va, history, tol,
                   system.ids, len(inverses))


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

    volt = [m * cmath.exp(1j * a) for m, a in zip(vm.tolist(), va.tolist())]
    s_inj = [0j] * len(order)
    for br in net.branches:
        if br.in_service:
            f, t = order[br.from_bus], order[br.to_bus]
            yff, yft, ytf, ytt = _branch_admittances(br)
            s_inj[f] += volt[f] * (yff * volt[f] + yft * volt[t]).conjugate()
            s_inj[t] += volt[t] * (ytf * volt[f] + ytt * volt[t]).conjugate()
    for bus in net.buses:
        i = order[bus.id]
        s_inj[i] += (abs(volt[i]) ** 2 * complex(bus.g_shunt, -bus.b_shunt)
                     / net.base_mva)
    s_inj = np.array(s_inj)
    p_sched, q_sched = _scheduled_injections(net, order)
    return p_sched - s_inj.real, q_sched - s_inj.imag
