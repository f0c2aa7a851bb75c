import dataclasses
import math
import re

import numpy as np
import pytest

from gridvolt import controller, netmodel, powerflow, sensitivity
from gridvolt.netmodel import partition_buses
from gridvolt.numerics import (
    LU_PIVOT_RTOL,
    SingularMatrixError,
    lu_factor,
    lu_solve_factored,
)
from gridvolt.sensitivity import (
    build_bpp,
    build_model,
    full_sensitivity,
    predict_dvpq,
)

from conftest import (
    classic_partition_23,
    cold,
    lu_inverse,
    shunted_feeder,
    three_bus_toy,
    two_bus_toy,
)


def bump_setpoints(net, model, direction, eps):
    by = dict(zip(model.pv_ids, eps * np.asarray(direction)))
    buses = tuple(
        dataclasses.replace(b, v_setpoint=b.v_setpoint + by.get(b.id, 0.0))
        for b in net.buses)
    gens = tuple(
        dataclasses.replace(g, v_setpoint=g.v_setpoint + by.get(g.bus, 0.0))
        for g in net.generators)
    return dataclasses.replace(net, buses=buses, generators=gens)


# ----------------------------------------------------------------- build_bpp


def test_bpp_classic_restriction_three_bus():
    got = build_bpp(three_bus_toy(), classic_partition_23())
    assert np.allclose(got, [[15.0, -5.0], [-5.0, 9.0]], atol=1e-12)


def test_bpp_two_bus_load_block():
    from gridvolt.netmodel import BusPartition
    restricted = BusPartition(slack_idx=0, pv_idx=(), pq_idx=(1,),
                              ext_to_int={1: 0, 2: 1})
    assert np.allclose(build_bpp(two_bus_toy(), restricted), [[10.0]], atol=1e-12)


def test_bpp_full_partition_order(case9):
    part = partition_buses(case9)
    full = build_bpp(case9, part)
    assert full.shape == (9, 9)
    assert np.allclose(full, full.T, atol=1e-10)


# ---------------------------------------------------------------- build_model


def blocks(model):
    """``full_sensitivity(model)`` and its four blocks, by name."""
    s_vq = full_sensitivity(model)
    npv = model.n_pv
    return {"s_vq": s_vq, "s11": s_vq[:npv, :npv], "s12": s_vq[:npv, npv:],
            "s21": s_vq[npv:, :npv], "s22": s_vq[npv:, npv:]}


def test_model_three_bus_hand_values():
    model = build_model(three_bus_toy(), classic_partition_23())
    s = blocks(model)
    assert np.allclose(s["s_vq"], np.array([[9.0, 5.0], [5.0, 15.0]]) / 110.0,
                       atol=1e-14)
    assert model.s11[0, 0] == pytest.approx(9.0 / 110.0, abs=1e-14)
    assert s["s21"][0, 0] == pytest.approx(5.0 / 110.0, abs=1e-14)
    assert model.a_ctrl[0, 0] == pytest.approx(5.0 / 9.0, abs=1e-12)
    # 5/9 = b23 / (b23 + b13): the physical voltage divider
    assert model.a_ctrl[0, 0] == pytest.approx(5.0 / (5.0 + 4.0), abs=1e-12)
    assert model.pv_ids == (2,)
    assert model.pq_ids == (3,)


def test_model_reconstruction_identity(all_cases):
    for name, net in all_cases.items():
        model = build_model(net)
        s21 = blocks(model)["s21"]
        assert np.max(np.abs(model.a_ctrl @ model.s11 - s21)) <= 1e-9, name


def test_model_svq_symmetric(all_cases):
    for name, net in all_cases.items():
        s_vq = full_sensitivity(build_model(net))
        assert np.max(np.abs(s_vq - s_vq.T)) <= 1e-10, name


def test_model_block_shapes(case14):
    model = build_model(case14)
    s = blocks(model)
    assert s["s_vq"].shape == (14, 14)
    assert model.s11.shape == (5, 5)
    assert s["s11"].shape == (5, 5)
    assert s["s12"].shape == (5, 9)
    assert s["s21"].shape == (9, 5)
    assert s["s22"].shape == (9, 9)
    assert model.a_ctrl.shape == (9, 5)
    assert model.d_gain.shape == (9, 9)


def test_case9_bus9_most_sensitive_to_generator1(case9):
    model = build_model(case9)
    row = model.a_ctrl[model.pq_coord(9)]
    assert model.pv_ids[int(np.argmax(np.abs(row)))] == 1


def test_schur_identity_dgain(all_cases):
    for name, net in all_cases.items():
        model = build_model(net)
        part = model.partition
        bpp_pq = powerflow.build_bpp_full(net)[np.ix_(part.pq_idx, part.pq_idx)]
        assert np.max(np.abs(model.d_gain - lu_inverse(bpp_pq))) <= 1e-9, name


def invert_reference_model(net, partition):
    """The sensitivity blocks as the full inverse of B'' gives them: S from
    inverting B'', then ``a_ctrl = s21 inv(s11)`` (a transposed solve) and
    ``d_gain = s22 - a_ctrl s12``."""
    bpp = build_bpp(net, partition)
    s_vq = lu_inverse(bpp)
    npv = len(partition.pv_idx)
    s11, s12 = s_vq[:npv, :npv], s_vq[:npv, npv:]
    s21, s22 = s_vq[npv:, :npv], s_vq[npv:, npv:]
    a_ctrl = lu_solve_factored(lu_factor(s11.T), s21.T).T
    return {"s_vq": s_vq, "s11": s11, "s12": s12, "s21": s21, "s22": s22,
            "a_ctrl": a_ctrl, "d_gain": s22 - a_ctrl @ s12}


def rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("name", ["case9", "case14", "case30", "case30-disturbed",
                                  "toy-classic"])
def test_block_model_matches_full_inverse(all_cases, name):
    if name == "toy-classic":
        net, part = three_bus_toy(), classic_partition_23()
    else:
        net = all_cases[name.split("-")[0]]
        if name.endswith("disturbed"):
            net = netmodel.apply_disturbance(
                netmodel.set_flat_setpoints(net, 1.0), 30, 20.0)
        part = partition_buses(net)
    model = build_model(net, part)
    got_all = blocks(model) | {"a_ctrl": model.a_ctrl, "d_gain": model.d_gain}
    assert np.array_equal(got_all["s11"], model.s11)
    want = invert_reference_model(net, part)
    for field, ref in want.items():
        got = got_all[field]
        assert got.shape == ref.shape, field
        assert rel_err(got, ref) <= 1e-12, field


@pytest.mark.parametrize("b_shunt", [250.0, 250.0 + 1e-11])
def test_singular_load_block_reported_as_singular_s11(b_shunt):
    net = shunted_feeder(b_shunt)
    part = partition_buses(net)
    b22 = build_bpp(net, part)[1:, 1:]
    assert abs(np.linalg.det(b22)) <= 1e-10 * np.linalg.norm(b22) ** 2
    with pytest.raises(SingularMatrixError, match="S11 block is singular") as exc:
        build_model(net, part)
    estimate = float(re.search(r"condition estimate >= (\S+)\)",
                               str(exc.value)).group(1))
    assert math.isfinite(estimate) and estimate >= 1e12
    # the full inverse exists; its (1 x 1) PV block is what vanishes
    s_vq = lu_inverse(build_bpp(net, part))
    assert abs(s_vq[0, 0]) <= 1e-10 * np.max(np.abs(s_vq))


def test_singular_bpp_reported():
    # a shunt-free network with the slack magnitude included has the
    # uniform-shift null mode: nothing pins the voltage level
    net = three_bus_toy()
    with pytest.raises(SingularMatrixError, match="B''"):
        full_sensitivity(build_model(net))


def test_ill_conditioned_schur_complement_is_judged_by_the_condition_rule():
    # C's smallest pivot is ~1.5e-12 of its inf-norm, but cond_1(C) is
    # ~1.36e12: singular under the rule that judges B22, B' and B''
    net = three_bus_toy(b_charging=6e-12)
    part = partition_buses(net)
    model = build_model(net, part)
    bpp = build_bpp(net, part)
    c = bpp[:2, :2] + bpp[:2, 2:] @ model.a_ctrl
    cond = np.linalg.cond(c, 1)
    assert 1.0 / LU_PIVOT_RTOL <= cond <= 1.5e12
    assert model.s11 is None
    with pytest.raises(SingularMatrixError, match="B''"):
        full_sensitivity(model)


def test_singular_bpp_still_gives_the_control_blocks():
    # B22 is the load bus's own 9: a_ctrl and d_gain exist though B'' does not
    model = build_model(three_bus_toy())
    assert model.s11 is None
    assert np.allclose(model.a_ctrl, [[4.0 / 9.0, 5.0 / 9.0]], atol=1e-14)
    assert np.allclose(model.d_gain, [[1.0 / 9.0]], atol=1e-14)


# --------------------------------------------------------------- predict_dvpq


def test_predict_three_bus_hand_value():
    model = build_model(three_bus_toy(), classic_partition_23())
    dv = predict_dvpq(model, np.array([0.054]))
    assert dv[0] == pytest.approx(0.030, abs=1e-12)


def test_predict_zero_is_zero(case9):
    model = build_model(case9)
    assert np.array_equal(predict_dvpq(model, np.zeros(3)), np.zeros(6))


def test_predict_dimension_mismatch(case9):
    model = build_model(case9)
    with pytest.raises(ValueError):
        predict_dvpq(model, np.zeros(4))


def test_predict_matches_power_flow_for_actual_step(scenario9):
    model = build_model(scenario9)
    sol = powerflow.solve_newton(scenario9)
    cfg = controller.ControlConfig()
    record = controller.ovc_step(model, sol, 9, cfg)
    predicted = predict_dvpq(model, record.dv_pv)
    after = controller.ovc_run(scenario9, cfg).iterations[0].vm_after
    k = model.pq_coord(9)
    actual = after[model.partition.ext_to_int[9]] - sol.vm_at(9)
    # a ~0.1 pu clamped step from a deeply depressed start: the constant
    # model is good to the same relative regime as the fd validation
    assert abs(predicted[k] - actual) <= 0.02
    assert abs(predicted[k] - actual) / abs(actual) <= 0.15


# ------------------------------------------------- finite-difference validation


@pytest.mark.parametrize("name", ["case9", "case14", "case30"])
def test_fd_validation_of_control_matrix(name, all_cases):
    net = all_cases[name]
    model = build_model(net)
    base = powerflow.solve_newton(net)
    pq = list(model.partition.pq_idx)
    rng = np.random.default_rng(515)
    for _ in range(5):
        d = rng.standard_normal(model.n_pv)
        d /= np.linalg.norm(d)
        errors = {}
        for eps in (1e-3, 1e-4):
            sol = powerflow.solve_newton(bump_setpoints(net, model, d, eps))
            actual = (sol.vm - base.vm)[pq]
            pred = eps * (model.a_ctrl @ d)
            errors[eps] = np.max(np.abs(actual - pred))
            assert errors[eps] / np.max(np.abs(pred)) <= 0.15
        # absolute linearization error shrinks with the step
        assert errors[1e-4] < errors[1e-3]


@pytest.mark.parametrize("name", ["case9", "case14", "case30"])
def test_fd_validation_of_disturbance_gain(name, all_cases):
    # d_gain is the load-side sensitivity with the controlled voltages held,
    # which is exactly what a reactive injection at a load bus probes.
    from gridvolt import netmodel
    net = all_cases[name]
    model = build_model(net)
    base = powerflow.solve_newton(net)
    pq = list(model.partition.pq_idx)
    rng = np.random.default_rng(1612)
    pq_ids = list(model.pq_ids)
    for bus in rng.choice(pq_ids, size=4, replace=False):
        eps = 1e-3  # pu of injected (capacitive) reactive power
        disturbed = netmodel.apply_disturbance(net, int(bus), -eps * net.base_mva)
        sol = powerflow.solve_newton(disturbed)
        actual = (sol.vm - base.vm)[pq]
        pred = eps * model.d_gain[:, model.pq_coord(int(bus))]
        assert np.max(np.abs(actual - pred)) / np.max(np.abs(pred)) <= 0.15


# --- family memo ----------------------------------------------------------------


def test_model_blocks_are_read_only(case14):
    model = build_model(case14)
    for name in ("s11", "a_ctrl", "d_gain"):
        arr = getattr(model, name)
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2.0
    dv = np.linspace(-0.01, 0.01, model.n_pv)
    assert np.array_equal(predict_dvpq(model, dv), model.a_ctrl @ dv)
    assert full_sensitivity(model).flags.writeable


def test_own_partition_model_is_kept_for_the_family(case14):
    base = cold(case14)
    model = build_model(base)
    derived = netmodel.apply_disturbance(
        netmodel.set_flat_setpoints(base, 1.01), 14, 20.0)
    assert build_model(derived) is model
    assert build_model(derived, partition_buses(derived)) is model
    # another partition is solved afresh and does not displace the model
    three = cold(three_bus_toy(b_charging=0.1))
    own = build_model(three)
    classic = build_model(three, classic_partition_23())
    assert classic is not build_model(three, classic_partition_23())
    assert build_model(three) is own


@pytest.mark.parametrize("edit", ["x", "b_shunt"])
def test_replaced_network_starts_a_new_family(case14, edit):
    base = cold(case14)
    base_model = build_model(base)
    base_ybus = powerflow.newton_system(base).ybus
    if edit == "x":
        first = dataclasses.replace(base.branches[0], x=1.5 * base.branches[0].x)
        net = dataclasses.replace(base, branches=(first,) + base.branches[1:])
    else:
        buses = tuple(dataclasses.replace(b, b_shunt=b.b_shunt + 25.0)
                      if b.id == 14 else b for b in base.buses)
        net = dataclasses.replace(base, buses=buses)
    got, want = build_model(net), build_model(cold(net))
    assert got is not base_model
    for name in ("s11", "a_ctrl", "d_gain"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert not np.array_equal(full_sensitivity(got), full_sensitivity(base_model))
    ybus = powerflow.newton_system(net).ybus
    assert np.array_equal(ybus, powerflow.newton_system(cold(net)).ybus)
    assert not np.array_equal(ybus, base_ybus)
