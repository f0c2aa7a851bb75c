"""Reactive-power / voltage sensitivity model.

Under fast-decoupled assumptions the voltage-magnitude response to
reactive injections is governed by the constant B'' matrix: ``dV = S dQ``
with ``S = inv(B'')`` over every voltage-magnitude coordinate (the slack
magnitude included, since its set-point is a control variable). Block
partitioning by the voltage-controlled (slack + PV) and load (PQ) sets
gives the control matrix ``A = S21 inv(S11)`` mapping set-point moves to
load-voltage changes, and the disturbance gain ``D = S22 - S21 inv(S11)
S12`` for uncontrolled reactive-demand changes. The model depends only on
topology, impedances and shunts, so it is built once per network, not per
operating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import BusPartition, Network, partition_buses
from .numerics import SingularMatrixError, invert, lu_factor, lu_solve_factored
from .powerflow import build_bpp_full

__all__ = ["SensitivityModel", "build_bpp", "build_model", "predict_dvpq"]


@dataclass(frozen=True, eq=False)
class SensitivityModel:
    """B''-inverse sensitivity blocks for one network.

    ``s_vq`` spans the partition's pv+pq coordinates (pu V per pu Q on the
    system base); ``a_ctrl`` is PQ x PV, ``d_gain`` PQ x PQ. ``pv_ids`` /
    ``pq_ids`` give the external bus ids of the block coordinates.
    """

    s_vq: np.ndarray
    s11: np.ndarray
    s12: np.ndarray
    s21: np.ndarray
    s22: np.ndarray
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

    def pv_coord(self, bus_id: int) -> int:
        return self.pv_ids.index(bus_id)


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
    return full[np.ix_(coords, coords)].copy()


def build_model(net: Network, partition: BusPartition | None = None) -> SensitivityModel:
    """Invert B'' and extract the partitioned sensitivity blocks.

    Raises :class:`~gridvolt.numerics.SingularMatrixError` when B'' is
    singular (degenerate network) or when the PV block of the inverse is
    singular; the latter is reported with a condition estimate.
    """
    if partition is None:
        partition = partition_buses(net)
    bpp = build_bpp(net, partition)
    try:
        s_vq = invert(bpp)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"B'' is singular ({exc}); isolated bus or degenerate network?"
        ) from exc

    npv = len(partition.pv_idx)
    s11 = s_vq[:npv, :npv]
    s12 = s_vq[:npv, npv:]
    s21 = s_vq[npv:, :npv]
    s22 = s_vq[npv:, npv:]
    try:
        # a_ctrl = s21 @ inv(s11), via a transposed solve for accuracy; the
        # hand-written LU reports the pivot the condition estimate needs.
        a_ctrl = lu_solve_factored(lu_factor(s11.T), s21.T).T
    except SingularMatrixError as exc:
        norm = float(np.max(np.sum(np.abs(s11), axis=1))) if npv else 0.0
        cond_est = norm / max(exc.pivot, np.finfo(float).tiny)
        raise SingularMatrixError(
            f"S11 block is singular (condition estimate >= {cond_est:.3e})"
        ) from exc
    d_gain = s22 - a_ctrl @ s12

    int_to_ext = partition.int_to_ext
    return SensitivityModel(
        s_vq=s_vq, s11=s11, s12=s12, s21=s21, s22=s22,
        a_ctrl=a_ctrl, d_gain=d_gain, partition=partition,
        pv_ids=tuple(int_to_ext[i] for i in partition.pv_idx),
        pq_ids=tuple(int_to_ext[i] for i in partition.pq_idx),
    )


def predict_dvpq(model: SensitivityModel, dv_pv) -> np.ndarray:
    """Linearized load-voltage change for a set-point move (disturbance
    term neglected): ``a_ctrl @ dv_pv``."""
    dv_pv = np.asarray(dv_pv, dtype=float)
    if dv_pv.shape != (model.n_pv,):
        raise ValueError(
            f"dv_pv has shape {dv_pv.shape}, expected ({model.n_pv},)")
    return model.a_ctrl @ dv_pv
