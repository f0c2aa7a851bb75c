"""Acceptance suite: ten headline checks, one pass/fail line each.

 1. Newton and fast-decoupled solutions agree within 1e-6 pu on the three
    stock cases, and the first-principles mismatch oracle reads <= 1e-8 pu.
 2. 9-bus study: +70 MVAr at bus 9 sinks it to 0.885 +- 0.010; one
    iteration lifts it to 0.993 +- 0.010 with every bus inside [0.9, 1.1]
    and the slack set-point pinned at 1.100 +- 0.005.
 3. 14-bus study: -46.4 MVAr at bus 10 lifts it to 1.112 +- 0.010;
    resolution takes exactly two iterations, the first dragging bus 12 to
    0.899 +- 0.010 (below 0.9), the second controlling bus 12.
 4. 30-bus study: +90/-100 MVAr at buses 8/25 give 0.878/1.116 +- 0.010;
    bus 25 is controlled first (least deviation), two iterations resolve,
    final bus 8 at 0.941 +- 0.015.
 5. Achieved performance index: optimal direction strictly beats the
    single-generator baseline on all three studies, with J within +-25%
    of 0.0117 / 0.0119 / 0.0052.
 6. Opposed disturbances violating both limits at once terminate honestly
    (resolved or oscillating, never divergence, <= 20 iterations).
 7. Finite differences validate the control matrix: <= 15% relative error
    at 1e-3 pu steps, absolute error shrinking at 1e-4.
 8. Linear mode with clamping off lands the controlled bus on the
    reference to 1e-12, and alpha^2 sigma1^2 equals the squared target.
 9. sigma1^2 equals the squared control-row norm to 1e-9, and no sampled
    direction (10k per case) beats the chosen one's set-point norm.
10. Top singular pair of 500 random symmetric PSD matrices up to 30x30
    (rank-deficient and scale-spread among them): sigma1 matches LAPACK's
    SVD, u1 is a unit eigenvector with the fixed sign; LU residual bound
    over 1000 random systems.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Every tolerance is pinned here, not configurable.
"""

import dataclasses
import functools

import numpy as np
import pytest

from gridvolt import netmodel, powerflow
from gridvolt.controller import (
    ControlConfig,
    EvaluationMode,
    Outcome,
    compare_ovc_svc,
    find_critical_buses,
    ovc_run,
    ovc_step,
)
from gridvolt.netmodel import partition_buses
from gridvolt.numerics import SingularMatrixError, lu_solve, top_singular_pair
from gridvolt.sensitivity import build_model

CFG = ControlConfig()


def report(number: int, name: str):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number:02d} {name}: PASS")
        return inner
    return wrap


@report(1, "power-flow fidelity on stock cases")
def test_criterion_01_power_flow_fidelity(all_cases):
    for name, net in all_cases.items():
        newton = powerflow.solve_newton(net)
        fdlf = powerflow.solve_fdlf(net)
        assert np.max(np.abs(newton.vm - fdlf.vm)) <= 1e-6, name
        part = partition_buses(net)
        nonslack = [i for i in range(net.n_bus) if i != part.slack_idx]
        for sol in (newton, fdlf):
            dp, dq = powerflow.bus_mismatch(net, sol.vm, sol.va)
            worst = max(np.max(np.abs(dp[nonslack])),
                        np.max(np.abs(dq[list(part.pq_idx)])))
            assert worst <= 1e-8, name


@report(2, "9-bus reproduction")
def test_criterion_02_nine_bus(scenario9):
    pre = powerflow.solve_newton(scenario9)
    assert pre.vm_at(9) == pytest.approx(0.885, abs=0.010)
    trace = ovc_run(scenario9)
    assert trace.outcome is Outcome.RESOLVED
    assert len(trace.iterations) == 1
    final = trace.iterations[-1].vm_after
    e2i = trace.partition.ext_to_int
    assert final[e2i[9]] == pytest.approx(0.993, abs=0.010)
    assert np.all(final >= 0.9 - 1e-12)
    assert np.all(final <= 1.1 + 1e-12)
    assert final[e2i[1]] == pytest.approx(1.100, abs=0.005)  # slack at clamp


@report(3, "14-bus reproduction")
def test_criterion_03_fourteen_bus(scenario14):
    pre = powerflow.solve_newton(scenario14)
    assert pre.vm_at(10) == pytest.approx(1.112, abs=0.010)
    trace = ovc_run(scenario14)
    assert trace.outcome is Outcome.RESOLVED
    assert len(trace.iterations) == 2
    e2i = trace.partition.ext_to_int
    vm12_after_first = trace.iterations[0].vm_after[e2i[12]]
    assert vm12_after_first < 0.9
    assert vm12_after_first == pytest.approx(0.899, abs=0.010)
    assert trace.iterations[1].controlled_bus == 12


@report(4, "30-bus reproduction")
def test_criterion_04_thirty_bus(scenario30):
    pre = powerflow.solve_newton(scenario30)
    assert pre.vm_at(8) == pytest.approx(0.878, abs=0.010)
    assert pre.vm_at(25) == pytest.approx(1.116, abs=0.010)
    trace = ovc_run(scenario30)
    assert trace.iterations[0].controlled_bus == 25  # least deviation first
    assert trace.outcome is Outcome.RESOLVED
    assert len(trace.iterations) == 2
    e2i = trace.partition.ext_to_int
    assert trace.iterations[-1].vm_after[e2i[8]] == pytest.approx(0.941, abs=0.015)


@report(5, "performance-index ordering and magnitude")
def test_criterion_05_performance_index(scenarios):
    published = {"case9": 0.0117, "case14": 0.0119, "case30": 0.0052}
    for name, net in scenarios.items():
        comparison = compare_ovc_svc(net)
        assert comparison.j_ovc > comparison.j_svc, name
        assert comparison.j_ovc == pytest.approx(published[name], rel=0.25), name


@report(6, "conflicting-bus scenario terminates honestly")
def test_criterion_06_conflict(case14):
    net = netmodel.set_flat_setpoints(case14, 1.0)
    net = netmodel.apply_disturbance(net, 7, -200.0)   # capacitive: raises 7
    net = netmodel.apply_disturbance(net, 14, 60.0)    # inductive: sinks 14
    pre = powerflow.solve_newton(net)
    assert pre.vm_at(7) > 1.1
    assert pre.vm_at(14) < 0.9
    trace = ovc_run(net)  # must not diverge
    assert len(trace.iterations) <= 20
    assert trace.outcome in (Outcome.RESOLVED, Outcome.OSCILLATING)
    if trace.outcome is Outcome.RESOLVED:
        final = trace.iterations[-1].vm_after
        assert np.all((final >= 0.9 - 1e-12) & (final <= 1.1 + 1e-12))


@report(7, "finite-difference sensitivity validation")
def test_criterion_07_fd_validation(all_cases):
    rng = np.random.default_rng(777)
    for name, net in all_cases.items():
        model = build_model(net)
        base = powerflow.solve_newton(net)
        pq = list(model.partition.pq_idx)
        for _ in range(20):
            d = rng.standard_normal(model.n_pv)
            d /= np.linalg.norm(d)
            abs_err = {}
            for eps in (1e-3, 1e-4):
                by = dict(zip(model.pv_ids, eps * d))
                buses = tuple(dataclasses.replace(
                    b, v_setpoint=b.v_setpoint + by.get(b.id, 0.0))
                    for b in net.buses)
                gens = tuple(dataclasses.replace(
                    g, v_setpoint=g.v_setpoint + by.get(g.bus, 0.0))
                    for g in net.generators)
                sol = powerflow.solve_newton(
                    dataclasses.replace(net, buses=buses, generators=gens))
                pred = eps * (model.a_ctrl @ d)
                abs_err[eps] = float(np.max(np.abs((sol.vm - base.vm)[pq] - pred)))
                assert abs_err[eps] / np.max(np.abs(pred)) <= 0.15, name
            assert abs_err[1e-4] < abs_err[1e-3], name  # shrinks with the step


@report(8, "linear-model exactness")
def test_criterion_08_linear_exactness(scenario9):
    cfg = ControlConfig(evaluation_mode=EvaluationMode.LINEAR, clamp_pv=False)
    trace = ovc_run(scenario9, cfg)
    rec = trace.iterations[0]
    e2i = trace.partition.ext_to_int
    assert abs(rec.vm_after[e2i[rec.controlled_bus]] - cfg.v_ref) <= 1e-12
    assert abs(rec.alpha ** 2 * rec.sigma1 ** 2 - rec.dv_cb_target ** 2) <= 1e-12


@report(9, "rank-one oracle and direction optimality")
def test_criterion_09_rank_one_oracle(scenarios):
    rng = np.random.default_rng(909)
    for name, net in scenarios.items():
        model = build_model(net)
        sol = powerflow.solve_newton(net)
        critical = find_critical_buses(sol, CFG, model.partition)
        cb = min(critical, key=lambda p: (abs(p[1] - 1.0), p[0]))[0]
        record = ovc_step(model, sol, cb, CFG)
        row = model.a_ctrl[model.pq_coord(cb)]
        assert abs(record.sigma1 ** 2 - float(row @ row)) <= 1e-9, name
        # 10k random directions, each scaled to deliver the same predicted
        # correction: none needs a smaller set-point move than alpha * u1
        dirs = rng.standard_normal((10_000, model.n_pv))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        gains = dirs @ row
        usable = np.abs(gains) > 1e-12
        scales = np.abs(record.dv_cb_target / gains[usable])
        assert np.all(scales >= abs(record.alpha) - 1e-9), name


@report(10, "numerics invariants on random matrices")
def test_criterion_10_numerics():
    rng = np.random.default_rng(1010)
    for _ in range(500):
        n = int(rng.integers(1, 31))
        kind = rng.integers(0, 3)
        g = rng.standard_normal((n, n))
        if kind == 1:
            g = g[:, :rng.integers(0, n)]  # rank deficiency, down to zero
        elif kind == 2:
            g *= 10.0 ** rng.integers(-6, 7)  # scale spread
        a = g @ g.T  # symmetric PSD
        sigma, u1 = top_singular_pair(a)
        ref = np.linalg.svd(a, compute_uv=False)[0]
        assert abs(sigma - ref) <= 1e-12 * n * max(ref, 1e-300)
        assert abs(np.linalg.norm(u1) - 1.0) <= 1e-12
        assert np.linalg.norm(a @ u1 - sigma * u1) <= 1e-12 * n * max(ref, 1e-300)
        assert u1[np.argmax(np.abs(u1))] >= 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        try:
            x = lu_solve(a, b)
        except SingularMatrixError:
            continue
        norm_a = np.max(np.sum(np.abs(a), axis=1))
        bound = 1e-9 * (norm_a * np.max(np.abs(x)) + np.max(np.abs(b)))
        assert np.max(np.abs(a @ x - b)) <= bound
