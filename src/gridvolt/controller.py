"""Set-point voltage control along the dominant singular direction.

One load bus at a time is steered back inside its limits: pick the
out-of-limit ("critical") bus closest to the reference voltage, form the
rank-one weighted quadratic ``J = dV_pq^T M dV_pq`` selecting it, and move
every generator set-point along the top left singular vector ``u1`` of
``N = A^T M A`` (A being the set-point-to-load-voltage control matrix).
For the selector, N is ``a_k a_k^T`` and ``u1`` is the controlled bus's
row ``a_k`` of A normalised, so no decomposition is needed. The step
length makes the selected bus land on the reference in the linear
model; set-points are clamped to the operating band afterwards.
The loop repeats until no critical buses remain. After each step the
linear model predicts the new state: the set-points at the PV buses and
the load voltages moved by ``A dv_pv``. That prediction is the evaluation
when configured so; otherwise it is the start from which Newton corrects
to the AC solution, as in the predictor-corrector scheme of continuation
power flow. The re-solves of one run take chord steps on a shared inverse
Jacobian, formed at the first re-solve's start and refreshed only when the
steps stop contracting: the constant-Jacobian idea of fast-decoupled load
flow, with the exact mismatch still deciding convergence.

A single-generator baseline (move only the set-point the selected bus is
most sensitive to) is provided for comparison, together with the achieved
weighted-quadratic performance index of each method.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .netmodel import BusPartition, Network
from .numerics import top_singular_pair
from .powerflow import (
    PF_TOLERANCE,
    ChordFactor,
    NewtonSystem,
    PowerFlowSolution,
    newton_system,
    solve_newton,
)
from .sensitivity import SensitivityModel, build_model, predict_dvpq

__all__ = [
    "EvaluationMode",
    "Outcome",
    "ControlConfig",
    "IterationRecord",
    "ControlTrace",
    "ComparisonReport",
    "ControllerError",
    "UncontrollableBusError",
    "find_critical_buses",
    "select_controlled_bus",
    "build_weight_matrix",
    "build_n_matrix",
    "ovc_step",
    "svc_step",
    "performance_index",
    "ovc_run",
    "svc_run",
    "compare_ovc_svc",
]

SIGMA_FLOOR = 1e-10  # below this the selected bus is uncontrollable
SELECT_TIE_ATOL = 1e-12  # pu; deviations this close to the least one tie


class ControllerError(RuntimeError):
    pass


class UncontrollableBusError(ControllerError):
    """No set-point combination can move the selected bus."""


class EvaluationMode(enum.Enum):
    POWER_FLOW = "power_flow"
    LINEAR = "linear"


class Outcome(enum.Enum):
    RESOLVED = "resolved"
    ITERATION_CAP_HIT = "iteration_cap_hit"
    INFEASIBLE = "infeasible"
    OSCILLATING = "oscillating"


@dataclass(frozen=True)
class ControlConfig:
    """Knobs of the control loop.

    ``evaluation_mode`` picks the evaluator applied after each set-point
    update: a fresh power-flow solve, or the linear model as a fast
    approximation. ``clamp_pv`` keeps set-points inside
    [``v_min``, ``v_max``] after each update. ``pf_tolerance`` must be
    finite and positive, and ``max_iterations`` at least 1.
    """

    v_ref: float = 1.0
    v_min: float = 0.9
    v_max: float = 1.1
    max_iterations: int = 20
    evaluation_mode: EvaluationMode = EvaluationMode.POWER_FLOW
    clamp_pv: bool = True
    pf_tolerance: float = PF_TOLERANCE

    def __post_init__(self):
        if not (self.v_min < self.v_ref < self.v_max):
            raise ValueError(
                f"need v_min < v_ref < v_max, got {self.v_min}, "
                f"{self.v_ref}, {self.v_max}")
        if not (math.isfinite(self.pf_tolerance) and self.pf_tolerance > 0):
            raise ValueError("power-flow tolerance must be finite and "
                             f"positive, got {self.pf_tolerance}")
        if self.max_iterations < 1:
            raise ValueError("need at least 1 control iteration, got "
                             f"{self.max_iterations}")


@dataclass(frozen=True, eq=False)
class IterationRecord:
    """Everything one control step decided and produced.

    ``dv_pv`` is the applied (post-clamp) set-point move; the raw move is
    ``alpha * u1``. ``vm_after`` is the evaluated bus-voltage profile after
    the update (power flow or linear model, per the configuration).
    """

    index: int
    critical_buses: tuple[tuple[int, float], ...]
    controlled_bus: int
    dv_cb_target: float
    sigma1: float
    u1: np.ndarray
    alpha: float
    dv_pv: np.ndarray
    clamped: tuple[int, ...]
    j_predicted: float
    vm_after: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class ControlTrace:
    initial_solution: PowerFlowSolution
    iterations: tuple[IterationRecord, ...]
    outcome: Outcome
    j_achieved_total: float
    partition: BusPartition
    config: ControlConfig
    method: str


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """One-iteration head-to-head from an identical start state."""

    controlled_bus: int
    j_ovc: float
    j_svc: float
    ovc_trace: ControlTrace
    svc_trace: ControlTrace


def _critical_from_vm(vm, cfg: ControlConfig,
                      partition: BusPartition) -> list[tuple[int, float]]:
    ids = partition.ids
    found = []
    for idx in partition.pq_idx:
        v = float(vm[idx])
        if v < cfg.v_min or v > cfg.v_max:
            found.append((ids[idx], v))
    found.sort(key=lambda pair: pair[0])
    return found


def find_critical_buses(sol: PowerFlowSolution, cfg: ControlConfig,
                        partition: BusPartition) -> list[tuple[int, float]]:
    """Load buses whose voltage lies outside [v_min, v_max], ascending id.

    PV buses are excluded: their magnitudes are controls held at their
    set-points, so they sit at, never beyond, a limit.
    """
    if not sol.converged:
        raise ControllerError("cannot scan an unconverged solution")
    return _critical_from_vm(sol.vm, cfg, partition)


def select_controlled_bus(critical: list[tuple[int, float]],
                          cfg: ControlConfig) -> int:
    """The critical bus with least deviation from the reference voltage;
    ties break toward the lowest bus id.

    Deviations within ``SELECT_TIE_ATOL`` of the least one are ties, so
    that rounding (``1.12 - 1.0`` exceeds ``1.0 - 0.88``) does not decide.
    """
    if not critical:
        raise ControllerError("no critical buses to select from")
    least = min(abs(v - cfg.v_ref) for _, v in critical)
    return min(bus for bus, v in critical
               if abs(v - cfg.v_ref) - least <= SELECT_TIE_ATOL)


def _pq_coord(cb: int, partition: BusPartition) -> int:
    """Position of the controlled bus among the load buses."""
    k = partition.ext_to_int.get(cb)
    if k not in partition.pq_idx:
        raise ControllerError(f"bus {cb} is not a load (PQ) bus")
    return partition.pq_idx.index(k)


def build_weight_matrix(cb: int, partition: BusPartition) -> np.ndarray:
    """Diagonal selector weight: 1 at the controlled bus's PQ coordinate."""
    n_pq = len(partition.pq_idx)
    m = np.zeros((n_pq, n_pq))
    k = _pq_coord(cb, partition)
    m[k, k] = 1.0
    return m


def build_n_matrix(model: SensitivityModel, m) -> np.ndarray:
    """Input-space quadratic form N = A^T M A, symmetrized numerically."""
    m = np.asarray(m, dtype=float)
    if m.shape != (model.n_pq, model.n_pq):
        raise ValueError(
            f"weight matrix has shape {m.shape}, expected "
            f"({model.n_pq}, {model.n_pq})")
    n = model.a_ctrl.T @ m @ model.a_ctrl
    return 0.5 * (n + n.T)


def _clamp_setpoints(setpoints: np.ndarray, dv_raw: np.ndarray,
                     cfg: ControlConfig, pv_ids: tuple[int, ...]):
    """Apply the set-point update with clamping; returns the effective move
    and the ids of set-points pinned at a limit."""
    if not cfg.clamp_pv:
        return dv_raw.copy(), ()
    raw_target = setpoints + dv_raw
    target = np.clip(raw_target, cfg.v_min, cfg.v_max)
    dv = target - setpoints
    clamped = tuple(pv_ids[i] for i in range(len(pv_ids))
                    if abs(target[i] - raw_target[i]) > 1e-12)
    return dv, clamped


def _directional_step(model: SensitivityModel, vm, cb: int, k: int,
                      cfg: ControlConfig, u1: np.ndarray, sigma1: float,
                      setpoints: np.ndarray, index: int,
                      critical: list[tuple[int, float]]) -> IterationRecord:
    """Shared tail of the two step constructors: orient the direction,
    size the move so the controlled bus (PQ coordinate ``k``) lands on the
    reference (linear model), clamp, and record."""
    predicted_at_cb = float(model.a_ctrl[k] @ u1)
    if predicted_at_cb < 0:
        u1 = -u1
        predicted_at_cb = -predicted_at_cb
    if predicted_at_cb < SIGMA_FLOOR:
        raise UncontrollableBusError(
            f"bus {cb} cannot be moved by the voltage-controlled set "
            f"(gain {predicted_at_cb:.3e})")

    dv_cb = cfg.v_ref - float(vm[model.partition.ext_to_int[cb]])
    alpha = dv_cb / predicted_at_cb
    dv_raw = alpha * u1
    dv, clamped = _clamp_setpoints(setpoints, dv_raw, cfg, model.pv_ids)
    return IterationRecord(
        index=index,
        critical_buses=tuple(critical),
        controlled_bus=cb,
        dv_cb_target=dv_cb,
        sigma1=sigma1,
        u1=u1,
        alpha=alpha,
        dv_pv=dv,
        clamped=clamped,
        j_predicted=alpha * alpha * sigma1 * sigma1,
    )


def ovc_step(model: SensitivityModel, sol: PowerFlowSolution, cb: int,
             cfg: ControlConfig, weight: np.ndarray | None = None,
             index: int = 1,
             critical: list[tuple[int, float]] | None = None) -> IterationRecord:
    """One optimal-direction step for controlled bus ``cb``.

    The move direction is the top left singular vector of N = A^T M A
    (oriented to raise the controlled bus), scaled so the controlled bus
    reaches the reference voltage in the linear model. For the selector
    weight the algorithm builds (``weight=None``, ``M = e_k e_k^T``), N is
    ``a_k a_k^T`` with ``a_k`` the controlled bus's row of A, so its top
    pair is ``sigma1 = ||a_k||`` and ``u1 = a_k / ||a_k||`` in closed form,
    and the scale is exactly ``(v_ref - vm_cb) / sigma1``. An explicit
    ``weight`` goes through :func:`build_n_matrix` and
    :func:`~gridvolt.numerics.top_singular_pair`, which reject a weight
    that leaves N asymmetric or not positive semi-definite. Raises
    :class:`UncontrollableBusError` when the bus has no usable gain.
    """
    if critical is None:
        critical = find_critical_buses(sol, cfg, model.partition)
    k = _pq_coord(cb, model.partition)
    if weight is None:
        a_k = model.a_ctrl[k]
        sigma1 = float(np.linalg.norm(a_k))
        u1 = a_k / max(sigma1, SIGMA_FLOOR)
    else:
        sigma1_sq, u1 = top_singular_pair(build_n_matrix(model, weight))
        sigma1 = float(np.sqrt(sigma1_sq))
    if sigma1 < SIGMA_FLOOR:
        raise UncontrollableBusError(
            f"bus {cb} cannot be moved by the voltage-controlled set "
            f"(sigma1 {sigma1:.3e})")
    setpoints = _current_setpoints(sol.vm, model)
    return _directional_step(model, sol.vm, cb, k, cfg, u1, sigma1,
                             setpoints, index, critical)


def svc_step(model: SensitivityModel, sol: PowerFlowSolution, cb: int,
             cfg: ControlConfig, index: int = 1,
             critical: list[tuple[int, float]] | None = None) -> IterationRecord:
    """Single-generator baseline step: move only the set-point to which the
    controlled bus is most sensitive."""
    if critical is None:
        critical = find_critical_buses(sol, cfg, model.partition)
    k = _pq_coord(cb, model.partition)
    row = model.a_ctrl[k]
    j_star = int(np.argmax(np.abs(row)))
    gain = float(row[j_star])
    if abs(gain) < SIGMA_FLOOR:
        raise UncontrollableBusError(
            f"bus {cb} has no sensitivity to any voltage-controlled bus")
    u1 = np.zeros(model.n_pv)
    u1[j_star] = 1.0 if gain > 0 else -1.0
    setpoints = _current_setpoints(sol.vm, model)
    return _directional_step(model, sol.vm, cb, k, cfg, u1, abs(gain),
                             setpoints, index, critical)


def performance_index(m, dv_pq_achieved) -> float:
    """Weighted squared load-voltage change J = dV^T M dV (pu^2), evaluated
    on the achieved change between the states before and after a step."""
    m = np.asarray(m, dtype=float)
    dv = np.asarray(dv_pq_achieved, dtype=float)
    if m.shape != (dv.size, dv.size):
        raise ValueError(f"weight {m.shape} incompatible with dv of size {dv.size}")
    return float(dv @ m @ dv)


def _current_setpoints(vm, model: SensitivityModel) -> np.ndarray:
    return vm[list(model.partition.pv_idx)]


def _initial_state(net: Network, cfg: ControlConfig):
    """The Newton system, the sensitivity model and the converged start
    state of ``net``, which is validated and partitioned once for all
    three."""
    system = newton_system(net)
    model = build_model(net, system.partition)
    return system, model, solve_newton(system, tol=cfg.pf_tolerance)


def _run_loop(cfg: ControlConfig, method: str, step, system: NewtonSystem,
              model: SensitivityModel,
              initial: PowerFlowSolution) -> ControlTrace:
    """Iterate ``step`` (:func:`ovc_step` or :func:`svc_step`) from the
    solved start state; ``method`` labels the trace.

    Every step's state is first predicted by the linear model: the new
    set-points at the PV buses and ``vm + predict_dvpq(model, dv_pv)`` at
    the PQ buses. In ``EvaluationMode.LINEAR`` that prediction is the
    evaluation. In ``POWER_FLOW`` it is Newton's start: the re-solve runs on
    the prebuilt ``system`` moved to the new set-points
    (:meth:`NewtonSystem.at`, which still rejects a set-point outside
    (0, 2) pu), from the predicted magnitudes and the previous angles. The
    prediction is a closer start than the previous solution, and it keeps
    Newton on the flat start's solution where the previous state can lead
    it to a low-voltage one. The re-solves share one
    :class:`~gridvolt.powerflow.ChordFactor`, so the inverse Jacobian formed
    at the first re-solve's start serves every later one until a step stops
    contracting. No network is rebuilt, validated or re-assembled inside
    the loop.
    """
    part = model.partition
    vm = initial.vm.copy()
    sol = initial
    records: list[IterationRecord] = []
    j_total = 0.0
    outcome = Outcome.ITERATION_CAP_HIT
    seen: dict[tuple[int, int], tuple[int, int]] = {}  # (cb, sign) -> (count, smallest |critical| seen)
    chord = ChordFactor()

    for index in range(1, cfg.max_iterations + 1):
        critical = _critical_from_vm(vm, cfg, part)
        if not critical:
            outcome = Outcome.RESOLVED
            break
        cb = select_controlled_bus(critical, cfg)
        sign = 1 if cfg.v_ref >= dict(critical)[cb] else -1
        count, smallest = seen.get((cb, sign), (0, len(critical)))
        if len(critical) < smallest:
            # the critical set shrank since this correction last ran:
            # progress, so its repetition budget resets
            count, smallest = 0, len(critical)
        if count >= 3:
            # the same correction has already run three times without the
            # critical set shrinking: a conflict loop making no progress
            outcome = Outcome.OSCILLATING
            break
        seen[(cb, sign)] = (count + 1, smallest)

        try:
            record = step(model, sol, cb, cfg, index=index, critical=critical)
        except UncontrollableBusError:
            outcome = Outcome.INFEASIBLE
            break

        setpoints = _current_setpoints(vm, model) + record.dv_pv
        vm_before = vm
        vm = vm.copy()
        vm[list(part.pv_idx)] = setpoints
        vm[list(part.pq_idx)] += predict_dvpq(model, record.dv_pv)
        sol = replace(sol, vm=vm)
        if cfg.evaluation_mode is EvaluationMode.POWER_FLOW:
            sol = solve_newton(system.at(setpoints, start=sol),
                               tol=cfg.pf_tolerance, chord=chord)
            vm = sol.vm.copy()

        record = replace(record, vm_after=vm.copy())
        records.append(record)
        # performance_index under the selector weight: the achieved dv_cb^2
        dv_cb = vm[part.ext_to_int[cb]] - vm_before[part.ext_to_int[cb]]
        j_total += float(dv_cb * dv_cb)

    # Exhausting the cap leaves the initial outcome in place; one more scan
    # decides between cap-hit and resolution on exactly the last iteration.
    if outcome is Outcome.ITERATION_CAP_HIT and not _critical_from_vm(vm, cfg, part):
        outcome = Outcome.RESOLVED

    return ControlTrace(
        initial_solution=initial,
        iterations=tuple(records),
        outcome=outcome,
        j_achieved_total=j_total,
        partition=part,
        config=cfg,
        method=method,
    )


def ovc_run(net: Network, cfg: ControlConfig | None = None) -> ControlTrace:
    """Run the optimal-direction control loop to completion.

    Each pass solves (or linearly propagates) the network state, scans for
    critical buses, and applies one :func:`ovc_step`; terminates with
    ``RESOLVED`` once no load bus is outside its limits, or with an honest
    non-success outcome (iteration cap, oscillation, uncontrollable bus).
    """
    cfg = cfg or ControlConfig()
    return _run_loop(cfg, "ovc", ovc_step, *_initial_state(net, cfg))


def svc_run(net: Network, cfg: ControlConfig | None = None) -> ControlTrace:
    """Run the single-generator baseline loop to completion."""
    cfg = cfg or ControlConfig()
    return _run_loop(cfg, "svc", svc_step, *_initial_state(net, cfg))


def compare_ovc_svc(net: Network, cfg: ControlConfig | None = None) -> ComparisonReport:
    """One iteration of each method from the identical start state.

    Both methods target the same controlled bus with the same selector
    weight; the achieved performance index is measured between converged
    power flows before and after each step. Requires at least one critical
    bus at the start.
    """
    cfg = cfg or ControlConfig()
    one_shot = replace(cfg, max_iterations=1,
                       evaluation_mode=EvaluationMode.POWER_FLOW)
    system, model, initial = _initial_state(net, cfg)
    critical = find_critical_buses(initial, cfg, model.partition)
    if not critical:
        raise ControllerError("no critical bus: nothing to compare")
    cb = select_controlled_bus(critical, cfg)

    ovc_trace = _run_loop(one_shot, "ovc", ovc_step, system, model, initial)
    svc_trace = _run_loop(one_shot, "svc", svc_step, system, model, initial)
    return ComparisonReport(
        controlled_bus=cb,
        j_ovc=ovc_trace.j_achieved_total,
        j_svc=svc_trace.j_achieved_total,
        ovc_trace=ovc_trace,
        svc_trace=svc_trace,
    )
