"""Reactive-power / voltage sensitivity model.

Under fast-decoupled assumptions the voltage-magnitude response to
reactive injections is governed by the constant B'' matrix: ``dV = S dQ``
with ``S = inv(B'')`` over every voltage-magnitude coordinate (the slack
magnitude included, since its set-point is a control variable). Block
partitioning by the voltage-controlled (slack + PV) and load (PQ) sets
gives the control matrix ``A = S21 inv(S11)`` mapping set-point moves to
load-voltage changes, and the disturbance gain ``D = S22 - S21 inv(S11)
S12`` for uncontrolled reactive-demand changes.

Block elimination of ``B'' = [[B11, B12], [B21, B22]]`` (pv block first)
gives both without the full inverse: ``A = -inv(B22) B21`` and
``D = inv(B22)``, so one solve against the load block yields the whole
control model. The model keeps ``S11 = inv(C)`` of the small Schur
complement ``C = B11 + B12 A``; :func:`full_sensitivity` adds ``S21 = A S11``,
``S12 = S21^T`` and ``S22 = D + S21 A^T``. C is singular exactly when B''
is (a network with no line charging and no shunts, say); the control law
still has ``A``, and only the full inverse is refused. The model depends
only on topology, impedances, shunts and bus kinds, never on loads or
set-points, so it is built once per family of networks (see
:mod:`gridvolt.netmodel`): the first :func:`build_model` for the network's
own partition keeps it in the network's memo, and later calls for any
network of the family read it. Its arrays are read-only, as the family
shares them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import BusPartition, Network, _split_buses, partition_buses
from .numerics import (
    LU_PIVOT_RTOL,
    SingularMatrixError,
    check_condition,
    lu_factor,
    lu_solve,
    lu_solve_factored,
)
from .powerflow import build_bpp_full

__all__ = ["SensitivityModel", "build_bpp", "build_model", "full_sensitivity",
           "predict_dvpq"]


@dataclass(frozen=True, eq=False)
class SensitivityModel:
    """B''-inverse blocks for one network, in pu V per pu Q on the system
    base: ``a_ctrl = -inv(B22) B21`` (PQ x PV), ``d_gain = inv(B22)``
    (PQ x PQ) and ``s11 = inv(C)`` (PV x PV) for the Schur complement
    ``C = B11 + B12 a_ctrl``, all read-only; ``s11`` is None when C, and
    with it B'', is singular. ``pv_ids`` / ``pq_ids`` give the external bus
    ids of the block coordinates.
    """

    s11: np.ndarray | None
    a_ctrl: np.ndarray
    d_gain: np.ndarray
    partition: BusPartition
    pv_ids: tuple[int, ...]
    pq_ids: tuple[int, ...]

    @property
    def n_pv(self) -> int:
        return len(self.pv_ids)

    @property
    def n_pq(self) -> int:
        return len(self.pq_ids)

    def pq_coord(self, bus_id: int) -> int:
        return self.pq_ids.index(bus_id)


def build_bpp(net: Network, partition: BusPartition) -> np.ndarray:
    """B'' restricted to the partition's coordinates, pv block first.

    The full matrix is the flat-start decoupled reactive Jacobian of
    :func:`~gridvolt.powerflow.build_bpp_full` (shunts and charging in,
    series resistance and taps normalized out); rows/columns follow
    ``partition.pv_idx + partition.pq_idx`` order, so a partition covering
    a subset of buses yields the correspondingly restricted matrix.
    """
    full = build_bpp_full(net)
    coords = list(partition.pv_idx) + list(partition.pq_idx)
    return full[np.ix_(coords, coords)]


def build_model(net: Network, partition: BusPartition | None = None) -> SensitivityModel:
    """Solve B'' by block elimination for the sensitivity blocks.

    One solve against the load block ``B22`` gives ``a_ctrl`` and
    ``d_gain``; the Schur complement ``C = B11 + B12 a_ctrl`` is factored
    for ``s11``, which stays None when C, and hence B'', is singular by
    :func:`~gridvolt.numerics.check_condition` (see
    :func:`full_sensitivity`). Raises
    :class:`~gridvolt.numerics.SingularMatrixError` when B22 is singular
    (equivalently, when the PV block ``S11`` of the inverse is), reported
    with B22's 1-norm condition number.

    The model for the network's own partition (``partition`` None or equal
    to :func:`~gridvolt.netmodel.partition_buses`'s) is kept in the
    network's memo and returned as is for any network of its family; a
    model for another partition is built on every call.
    """
    if partition is None:
        partition = partition_buses(net)
    model = net._memo.get("model")
    if model is not None and model.partition == partition:
        return model
    model = _block_model(net, partition)
    if partition == _split_buses(net):
        model = net._memo.setdefault("model", model)
    return model


def _block_model(net: Network, partition: BusPartition) -> SensitivityModel:
    """:func:`build_model`'s block elimination, with no memo."""
    bpp = build_bpp(net, partition)
    npv = len(partition.pv_idx)
    b11, b12 = bpp[:npv, :npv], bpp[:npv, npv:]
    b21, b22 = bpp[npv:, :npv], bpp[npv:, npv:]

    # det S11 = det B22 / det B'': with B'' nonsingular, S11 is singular
    # exactly when B22 is.
    try:
        x = lu_solve(b22, np.hstack([-b21, np.eye(len(b22))]))
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            "S11 block is singular (condition estimate >= "
            f"{1.0 / LU_PIVOT_RTOL:.3e})") from exc
    x.flags.writeable = False
    a_ctrl, d_gain = x[:, :npv], x[:, npv:]
    try:
        check_condition(b22, d_gain)
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"S11 block is singular ({exc})") from exc

    # det C = det B'' / det B22: C is singular exactly when B'' is, which
    # only the full inverse needs; the control law reads a_ctrl alone.
    c = b11 + b12 @ a_ctrl
    try:
        s11 = lu_solve_factored(lu_factor(c), np.eye(npv))
        check_condition(c, s11)
        s11.flags.writeable = False
    except SingularMatrixError:
        s11 = None

    ids = partition.ids
    return SensitivityModel(
        s11=s11, a_ctrl=a_ctrl, d_gain=d_gain, partition=partition,
        pv_ids=tuple(ids[i] for i in partition.pv_idx),
        pq_ids=tuple(ids[i] for i in partition.pq_idx),
    )


def full_sensitivity(model: SensitivityModel) -> np.ndarray:
    """The whole ``S = inv(B'')`` over the pv+pq coordinates, pv first, from
    the model's blocks (``--method sens`` reports it). Raises
    :class:`~gridvolt.numerics.SingularMatrixError` when B'' is singular."""
    if model.s11 is None:
        raise SingularMatrixError(
            "B'' is singular; isolated bus or degenerate network?")
    s21 = model.a_ctrl @ model.s11
    s22 = model.d_gain + s21 @ model.a_ctrl.T
    return np.block([[model.s11, s21.T], [s21, s22]])


def predict_dvpq(model: SensitivityModel, dv_pv) -> np.ndarray:
    """Linearized load-voltage change for a set-point move (disturbance
    term neglected): ``a_ctrl @ dv_pv``."""
    dv_pv = np.asarray(dv_pv, dtype=float)
    if dv_pv.shape != (model.n_pv,):
        raise ValueError(
            f"dv_pv has shape {dv_pv.shape}, expected ({model.n_pv},)")
    return model.a_ctrl @ dv_pv
