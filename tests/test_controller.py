import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from gridvolt import caseio, netmodel, numerics, powerflow
from gridvolt.controller import (
    ControlConfig,
    ControllerError,
    EvaluationMode,
    Outcome,
    UncontrollableBusError,
    build_n_matrix,
    build_weight_matrix,
    compare_ovc_svc,
    find_critical_buses,
    ovc_run,
    ovc_step,
    performance_index,
    select_controlled_bus,
    svc_run,
    svc_step,
)
from gridvolt.sensitivity import build_model, predict_dvpq

from conftest import classic_partition_23, cold, three_bus_toy

CFG = ControlConfig()
DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def toy_model():
    return build_model(three_bus_toy(), classic_partition_23())


@pytest.fixture(scope="module")
def toy_sol_097(toy_model):
    # converged profile with the load bus at 0.97 pu
    return powerflow.PowerFlowSolution(
        vm=np.array([1.0, 1.0, 0.97]), va=np.zeros(3), converged=True,
        iterations=1, max_mismatch=0.0, ids=(1, 2, 3))


# -------------------------------------------------------------- critical scan


def test_find_critical_9bus(scenario9):
    model = build_model(scenario9)
    sol = powerflow.solve_newton(scenario9)
    critical = find_critical_buses(sol, CFG, model.partition)
    assert [bus for bus, _ in critical] == [9]
    assert critical[0][1] == pytest.approx(0.885, abs=0.010)


def test_find_critical_30bus(scenario30):
    model = build_model(scenario30)
    sol = powerflow.solve_newton(scenario30)
    critical = find_critical_buses(sol, CFG, model.partition)
    assert [bus for bus, _ in critical] == [8, 25]
    values = dict(critical)
    assert values[8] == pytest.approx(0.878, abs=0.010)
    assert values[25] == pytest.approx(1.116, abs=0.010)


def test_find_critical_flat_profile_empty(case9):
    model = build_model(case9)
    sol = powerflow.PowerFlowSolution(
        vm=np.ones(9), va=np.zeros(9), converged=True, iterations=0,
        max_mismatch=0.0, ids=tuple(range(1, 10)))
    assert find_critical_buses(sol, CFG, model.partition) == []


def test_find_critical_excludes_pv_buses(case9):
    model = build_model(case9)
    vm = np.ones(9)
    vm[0] = 1.2  # slack coordinate: a control, never "critical"
    sol = powerflow.PowerFlowSolution(
        vm=vm, va=np.zeros(9), converged=True, iterations=0,
        max_mismatch=0.0, ids=tuple(range(1, 10)))
    assert find_critical_buses(sol, CFG, model.partition) == []


def test_find_critical_requires_convergence(case9):
    model = build_model(case9)
    sol = powerflow.PowerFlowSolution(
        vm=np.ones(9), va=np.zeros(9), converged=False, iterations=30,
        max_mismatch=1.0, ids=tuple(range(1, 10)))
    with pytest.raises(ControllerError):
        find_critical_buses(sol, CFG, model.partition)


def test_select_controlled_bus_least_deviation():
    assert select_controlled_bus([(8, 0.878), (25, 1.116)], CFG) == 25
    assert select_controlled_bus([(9, 0.885)], CFG) == 9
    assert select_controlled_bus([(4, 0.88), (5, 1.12)], CFG) == 4  # tie: low id
    with pytest.raises(ControllerError):
        select_controlled_bus([], CFG)


def test_select_tie_breaks_to_low_id_under_rounding():
    # 1.12 - 1.0 is 0.1200000000000001 but 1.0 - 0.88 is 0.12: still a tie
    assert select_controlled_bus([(4, 1.12), (5, 0.88)], CFG) == 4
    assert select_controlled_bus([(5, 0.88), (4, 1.12)], CFG) == 4
    # a real difference still decides
    assert select_controlled_bus([(4, 1.12), (5, 0.8801)], CFG) == 5


# ------------------------------------------------------------------- weights


def test_weight_matrix_toy(toy_model):
    assert np.array_equal(build_weight_matrix(3, toy_model.partition), [[1.0]])


def test_weight_matrix_9bus(case9):
    model = build_model(case9)
    m = build_weight_matrix(9, model.partition)
    assert m.shape == (6, 6)
    assert np.trace(m) == 1.0
    k = model.pq_coord(9)
    assert m[k, k] == 1.0
    assert np.count_nonzero(m) == 1


def test_weight_matrix_rejects_pv_bus(case9):
    model = build_model(case9)
    with pytest.raises(ControllerError):
        build_weight_matrix(1, model.partition)


def test_n_matrix_toy(toy_model):
    n = build_n_matrix(toy_model, np.array([[1.0]]))
    assert n.shape == (1, 1)
    assert n[0, 0] == pytest.approx(25.0 / 81.0, abs=1e-12)


def test_n_matrix_zero_weight(case9):
    model = build_model(case9)
    assert np.array_equal(build_n_matrix(model, np.zeros((6, 6))),
                          np.zeros((3, 3)))


def test_n_matrix_selector_is_rank_one(case9):
    model = build_model(case9)
    n = build_n_matrix(model, build_weight_matrix(9, model.partition))
    w = model.a_ctrl[model.pq_coord(9)]
    assert np.allclose(n, np.outer(w, w), atol=1e-14)
    from gridvolt.numerics import top_singular_pair
    sigma_sq, _ = top_singular_pair(n)
    assert sigma_sq == pytest.approx(float(w @ w), abs=1e-12)


def test_n_matrix_dimension_check(case9):
    model = build_model(case9)
    with pytest.raises(ValueError):
        build_n_matrix(model, np.zeros((5, 5)))


# ----------------------------------------------------------------- ovc_step


def test_ovc_step_toy_hand_computed(toy_model, toy_sol_097):
    record = ovc_step(toy_model, toy_sol_097, 3, CFG)
    assert record.dv_cb_target == pytest.approx(0.03, abs=1e-15)
    assert record.sigma1 == pytest.approx(5.0 / 9.0, abs=1e-12)
    assert record.alpha == pytest.approx(0.054, abs=1e-12)
    assert np.allclose(record.dv_pv, [0.054], atol=1e-12)
    assert record.j_predicted == pytest.approx(9.0e-4, abs=1e-15)
    predicted = toy_model.a_ctrl @ record.dv_pv
    assert predicted[0] == pytest.approx(0.030, abs=1e-12)
    assert record.clamped == ()


def test_ovc_step_at_reference_is_null(toy_model):
    sol = powerflow.PowerFlowSolution(
        vm=np.array([1.0, 1.0, 1.0]), va=np.zeros(3), converged=True,
        iterations=1, max_mismatch=0.0, ids=(1, 2, 3))
    record = ovc_step(toy_model, sol, 3, CFG)
    assert record.alpha == 0.0
    assert np.array_equal(record.dv_pv, [0.0])


def test_ovc_step_9bus_component_ordering(scenario9):
    model = build_model(scenario9)
    sol = powerflow.solve_newton(scenario9)
    record = ovc_step(model, sol, 9, CFG)
    dv = dict(zip(model.pv_ids, record.dv_pv))
    # largest change on generator 1, smallest on generator 3
    assert dv[1] >= dv[2] >= dv[3] > 0
    assert record.u1[0] == max(record.u1)
    assert np.linalg.norm(record.u1) == pytest.approx(1.0, abs=1e-12)


def test_ovc_step_clamps_to_band(scenario9):
    model = build_model(scenario9)
    sol = powerflow.solve_newton(scenario9)
    record = ovc_step(model, sol, 9, CFG)
    assert record.clamped == (1,)
    assert record.dv_pv[0] == pytest.approx(0.1, abs=1e-12)  # pinned at 1.1
    raw = record.alpha * record.u1
    assert raw[0] > 0.1
    assert np.allclose(record.dv_pv[1:], raw[1:], atol=1e-12)


def test_ovc_step_uncontrollable_raises(toy_model, toy_sol_097):
    dead = dataclasses.replace(toy_model, a_ctrl=np.zeros((1, 1)))
    with pytest.raises(UncontrollableBusError):
        ovc_step(dead, toy_sol_097, 3, CFG)


# ----------------------------------------------------------------- svc_step


def test_svc_step_single_pv_equals_ovc(toy_model, toy_sol_097):
    ovc = ovc_step(toy_model, toy_sol_097, 3, CFG)
    svc = svc_step(toy_model, toy_sol_097, 3, CFG)
    assert np.allclose(svc.dv_pv, ovc.dv_pv, atol=1e-12)
    assert svc.dv_pv[0] == pytest.approx(0.03 / (5.0 / 9.0), abs=1e-12)


def test_svc_step_moves_only_most_sensitive(scenario9):
    model = build_model(scenario9)
    sol = powerflow.solve_newton(scenario9)
    record = svc_step(model, sol, 9, CFG)
    moved = [bus for bus, dv in zip(model.pv_ids, record.dv_pv) if dv != 0.0]
    assert moved == [1]


def test_svc_step_zero_row_raises(toy_model, toy_sol_097):
    dead = dataclasses.replace(toy_model, a_ctrl=np.zeros((1, 1)))
    with pytest.raises(UncontrollableBusError):
        svc_step(dead, toy_sol_097, 3, CFG)


# --------------------------------------------------------- performance index


def test_performance_index_null_step():
    assert performance_index(np.eye(3), np.zeros(3)) == 0.0


def test_performance_index_selector(scenario9):
    model = build_model(scenario9)
    trace = ovc_run(scenario9)
    rec = trace.iterations[0]
    pq = list(model.partition.pq_idx)
    dv = rec.vm_after[pq] - trace.initial_solution.vm[pq]
    j = performance_index(build_weight_matrix(9, model.partition), dv)
    assert j == pytest.approx(0.0117, rel=0.25)
    assert j == pytest.approx(trace.j_achieved_total, abs=1e-12)


def test_performance_index_dimension_check():
    with pytest.raises(ValueError):
        performance_index(np.eye(2), np.zeros(3))


def test_performance_index_linear_mode_equals_chain():
    net = three_bus_toy(q_load_mvar=20.0, b_charging=0.1)
    cfg = ControlConfig(v_min=0.99, v_max=1.01,
                        evaluation_mode=EvaluationMode.LINEAR, clamp_pv=False)
    trace = ovc_run(net, cfg)
    rec = trace.iterations[0]
    assert trace.j_achieved_total == pytest.approx(
        rec.alpha ** 2 * rec.sigma1 ** 2, rel=1e-9)


# ------------------------------------------------------------------- ovc_run


def test_ovc_run_9bus(scenario9):
    trace = ovc_run(scenario9)
    assert trace.outcome is Outcome.RESOLVED
    assert len(trace.iterations) == 1
    e2i = trace.partition.ext_to_int
    assert trace.iterations[0].vm_after[e2i[9]] == pytest.approx(0.993, abs=0.010)


def test_ovc_run_without_line_charging_resolves():
    # B'' of the reactance-only triangle is singular; the law needs a_ctrl only
    trace = ovc_run(three_bus_toy(q_load_mvar=120.0))
    assert trace.outcome is Outcome.RESOLVED
    [rec] = trace.iterations
    assert rec.controlled_bus == 3
    assert trace.initial_solution.vm_at(3) == pytest.approx(0.8416, abs=1e-4)
    after = rec.vm_after[trace.partition.ext_to_int[3]]
    assert after == pytest.approx(0.9613, abs=1e-4)


def test_compare_without_line_charging_reports_both_indices():
    report = compare_ovc_svc(three_bus_toy(q_load_mvar=120.0))
    assert report.controlled_bus == 3
    assert report.j_ovc == pytest.approx(0.01434, abs=1e-5)
    assert report.j_svc == pytest.approx(0.00453, abs=1e-5)


def test_ovc_run_14bus(scenario14):
    trace = ovc_run(scenario14)
    assert trace.outcome is Outcome.RESOLVED
    assert [r.controlled_bus for r in trace.iterations] == [10, 12]
    e2i = trace.partition.ext_to_int
    vm12 = trace.iterations[0].vm_after[e2i[12]]
    assert vm12 < 0.9
    assert vm12 == pytest.approx(0.899, abs=0.010)


def test_ovc_run_30bus(scenario30):
    trace = ovc_run(scenario30)
    assert trace.outcome is Outcome.RESOLVED
    assert len(trace.iterations) == 2
    assert trace.iterations[0].controlled_bus == 25


def test_ovc_run_no_critical_is_immediate(case9):
    trace = ovc_run(netmodel.set_flat_setpoints(case9, 1.0))
    assert trace.outcome is Outcome.RESOLVED
    assert trace.iterations == ()
    assert trace.j_achieved_total == 0.0


def test_ovc_run_iteration_cap(scenario30):
    cfg = ControlConfig(max_iterations=1)
    trace = ovc_run(scenario30, cfg)
    assert trace.outcome is Outcome.ITERATION_CAP_HIT
    assert len(trace.iterations) == 1


def test_ovc_run_monotone_safety(scenarios):
    for net in scenarios.values():
        trace = ovc_run(net)
        for rec in trace.iterations:
            for idx in trace.partition.pv_idx:
                v = rec.vm_after[idx]
                assert CFG.v_min - 1e-12 <= v <= CFG.v_max + 1e-12


def test_ovc_run_eq8_chain_every_iteration(scenarios):
    for net in scenarios.values():
        for rec in ovc_run(net).iterations:
            assert abs(rec.alpha ** 2 * rec.sigma1 ** 2
                       - rec.dv_cb_target ** 2) <= 1e-12


def test_ovc_run_convergence_bound(scenarios):
    # iterations until resolution never exceed the criticals seen at first
    # detection plus those created along the way
    for net in scenarios.values():
        trace = ovc_run(net)
        assert trace.outcome is Outcome.RESOLVED
        seen = set()
        first = len(trace.iterations[0].critical_buses) if trace.iterations else 0
        for rec in trace.iterations:
            seen.update(bus for bus, _ in rec.critical_buses)
        created = len(seen) - first
        assert len(trace.iterations) <= first + created


def test_ovc_run_linear_mode_tracks_power_flow(scenario9):
    fast = ovc_run(scenario9, ControlConfig(evaluation_mode=EvaluationMode.LINEAR))
    slow = ovc_run(scenario9)
    assert fast.outcome is Outcome.RESOLVED
    assert len(fast.iterations) == len(slow.iterations) == 1
    assert np.allclose(fast.iterations[0].dv_pv, slow.iterations[0].dv_pv,
                       atol=1e-12)


def test_run_rejects_diverging_initial_state(case9):
    hopeless = netmodel.apply_disturbance(case9, 9, 5000.0)
    with pytest.raises(powerflow.PowerFlowDivergedError):
        ovc_run(hopeless)


def test_svc_run_9bus(scenario9):
    trace = svc_run(scenario9)
    assert trace.method == "svc"
    assert trace.outcome in (Outcome.RESOLVED, Outcome.ITERATION_CAP_HIT,
                             Outcome.OSCILLATING)
    first = trace.iterations[0]
    moved = [b for b, dv in zip((1, 2, 3), first.dv_pv) if dv != 0.0]
    assert moved == [1]


# -------------------------------------------------------------- optimality


def test_ovc_direction_is_minimum_norm(scenarios):
    rng = np.random.default_rng(333)
    for net in scenarios.values():
        model = build_model(net)
        sol = powerflow.solve_newton(net)
        critical = find_critical_buses(sol, CFG, model.partition)
        cb = select_controlled_bus(critical, CFG)
        record = ovc_step(model, sol, cb, CFG)
        raw_norm = abs(record.alpha)  # = ||alpha * u1||
        row = model.a_ctrl[model.pq_coord(cb)]
        dirs = rng.standard_normal((10_000, model.n_pv))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        gains = dirs @ row
        ok = np.abs(gains) > 1e-12
        scales = np.abs(record.dv_cb_target / gains[ok])
        assert np.all(scales >= raw_norm - 1e-9)


def test_scaling_weight_invariance(scenario9):
    # rescaling the weight matrix must not change the control action: the
    # direction and the applied set-points are invariant, and the recorded
    # spectral norm scales with sqrt(c) while the step length compensates
    model = build_model(scenario9)
    sol = powerflow.solve_newton(scenario9)
    m = build_weight_matrix(9, model.partition)
    base = ovc_step(model, sol, 9, CFG, weight=m)
    for c in (0.25, 4.0, 1000.0):
        scaled = ovc_step(model, sol, 9, CFG, weight=c * m)
        assert np.max(np.abs(scaled.dv_pv - base.dv_pv)) <= 1e-10
        assert np.max(np.abs(scaled.u1 - base.u1)) <= 1e-10
        assert scaled.sigma1 == pytest.approx(base.sigma1 * np.sqrt(c), rel=1e-9)
        assert scaled.alpha * scaled.u1[0] == pytest.approx(
            base.alpha * base.u1[0], rel=1e-9)


def test_rank_one_sigma_equals_row_norm(scenarios):
    for net in scenarios.values():
        model = build_model(net)
        sol = powerflow.solve_newton(net)
        critical = find_critical_buses(sol, CFG, model.partition)
        cb = select_controlled_bus(critical, CFG)
        record = ovc_step(model, sol, cb, CFG)
        row = model.a_ctrl[model.pq_coord(cb)]
        assert abs(record.sigma1 ** 2 - float(row @ row)) <= 1e-9
        u_expected = row / np.linalg.norm(row)
        assert np.max(np.abs(record.u1 - u_expected)) <= 1e-9


@pytest.mark.parametrize("name", ["case9", "case14", "case30"])
def test_closed_form_direction_equals_top_singular_pair(all_cases, name):
    net = all_cases[name]
    model = build_model(net)
    sol = powerflow.solve_newton(net)
    for cb in model.pq_ids:
        record = ovc_step(model, sol, cb, CFG, critical=[])
        sigma_sq, u1 = numerics.top_singular_pair(build_n_matrix(
            model, build_weight_matrix(cb, model.partition)))
        if model.a_ctrl[model.pq_coord(cb)] @ u1 < 0:
            u1 = -u1
        assert abs(record.sigma1 - np.sqrt(sigma_sq)) <= 1e-12, cb
        assert np.max(np.abs(record.u1 - u1)) <= 1e-12, cb


def test_explicit_non_psd_weight_still_raises(scenario9):
    model = build_model(scenario9)
    sol = powerflow.solve_newton(scenario9)
    with pytest.raises(ValueError, match="not PSD"):
        ovc_step(model, sol, 9, CFG,
                 weight=-build_weight_matrix(9, model.partition))


def test_ovc_step_rejects_a_pv_bus(case9):
    model = build_model(case9)
    with pytest.raises(ControllerError, match="not a load"):
        ovc_step(model, powerflow.solve_newton(case9), 2, CFG, critical=[])


def test_both_steps_reject_a_pv_bus_alike(case9):
    model = build_model(case9)
    sol = powerflow.solve_newton(case9)
    weight = build_weight_matrix(9, model.partition)
    steps = {"ovc": lambda: ovc_step(model, sol, 2, CFG, critical=[]),
             "ovc weighted": lambda: ovc_step(model, sol, 2, CFG, weight=weight,
                                              critical=[]),
             "svc": lambda: svc_step(model, sol, 2, CFG, critical=[])}
    for name, step in steps.items():
        with pytest.raises(ControllerError) as err:
            step()
        assert str(err.value) == "bus 2 is not a load (PQ) bus", name


def test_ovc_run_uses_no_full_inverse_and_no_svd(case30, monkeypatch):
    # the model is one B22 solve plus an n_pv x n_pv Schur factorization,
    # and the selector direction is closed-form: an SVD or an eigensolver
    # call on this path fails here, from numerics or direct, and so does
    # any inverse - a solve against the identity - but the re-solves'
    # Newton Jacobians (none of B'', B22 or the Schur complement), one per
    # Jacobian the re-solves record; numpy's inv is never called; nor is
    # the full inverse of B'' assembled from its blocks (np.block)
    calls = {name: [] for name in ("svd", "inv", "eigh", "identity solve",
                                   "lu_factor", "lu_solve_factored", "block")}

    def counting(original, args):
        def wrapper(first, *rest, **kwargs):
            args.append(np.shape(first))
            return original(first, *rest, **kwargs)
        return wrapper

    def solving(original):
        def wrapper(a, b, *rest, **kwargs):
            if np.ndim(b) == 2 and np.array_equal(b, np.eye(len(b))):
                calls["identity solve"].append(np.shape(a))
            return original(a, b, *rest, **kwargs)
        return wrapper
    for name in ("svd", "inv", "eigh"):
        monkeypatch.setattr(np.linalg, name,
                            counting(getattr(np.linalg, name), calls[name]))
    monkeypatch.setattr(np.linalg, "solve", solving(np.linalg.solve))
    monkeypatch.setattr(np, "block", counting(np.block, calls["block"]))
    modules = [m for n, m in list(sys.modules.items())
               if n == "gridvolt" or n.startswith("gridvolt.")]
    for name in ("lu_factor", "lu_solve_factored"):
        original = getattr(numerics, name)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(original, calls[name]))
    net = netmodel.apply_disturbance(
        netmodel.set_flat_setpoints(cold(case30), 1.0), 30, 20.0)
    solves = _recorded_solves(monkeypatch)
    trace = ovc_run(net)
    n_pv = len(trace.partition.pv_idx)
    n_jac = len(trace.partition.pq_idx) + len(trace.initial_solution.ids) - 1
    assert trace.iterations
    assert calls["svd"] == [] and calls["eigh"] == [] and calls["block"] == []
    assert calls["inv"] == []
    inverses = calls["identity solve"]
    assert inverses and all(shape == (n_jac, n_jac) for shape in inverses)
    assert len(inverses) == sum(sol.jacobians for _, sol in solves[1:])
    assert calls["lu_factor"]
    assert all(shape == (n_pv, n_pv) for shape in calls["lu_factor"])
    assert calls["lu_solve_factored"]


# ------------------------------------------------------------------ compare


def test_compare_9bus(scenario9):
    report = compare_ovc_svc(scenario9)
    assert report.controlled_bus == 9
    assert report.j_ovc == pytest.approx(0.0117, rel=0.25)
    assert report.j_svc == pytest.approx(0.0042, rel=0.25)
    assert report.j_ovc > report.j_svc


def test_compare_14bus(scenario14):
    report = compare_ovc_svc(scenario14)
    assert report.j_ovc == pytest.approx(0.0119, rel=0.25)
    assert report.j_ovc > report.j_svc


def test_compare_30bus(scenario30):
    report = compare_ovc_svc(scenario30)
    assert report.j_ovc == pytest.approx(0.0052, rel=0.25)
    assert report.j_ovc > report.j_svc


def test_compare_requires_critical_bus(case9):
    with pytest.raises(ControllerError, match="no critical bus"):
        compare_ovc_svc(netmodel.set_flat_setpoints(case9, 1.0))


def test_compare_traces_are_single_iteration(scenario9):
    report = compare_ovc_svc(scenario9)
    assert len(report.ovc_trace.iterations) == 1
    assert len(report.svc_trace.iterations) == 1
    assert report.ovc_trace.initial_solution.vm == pytest.approx(
        report.svc_trace.initial_solution.vm)


def test_compare_builds_model_and_initial_state_once(scenario30, monkeypatch):
    import gridvolt.controller as controller

    calls = {"build_model": 0, "newton_system": 0, "solve_newton": 0}

    def counting(name):
        original = getattr(controller, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(controller, name, counting(name))
    compare_ovc_svc(cold(scenario30))
    # one system and one initial solve, then one re-solve per method
    assert calls == {"build_model": 1, "newton_system": 1, "solve_newton": 3}


def test_ovc_run_builds_newton_system_once(scenario30, monkeypatch):
    import gridvolt.controller as controller

    calls = {"newton_system": 0, "solve_newton": 0, "validate_network": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(controller, "newton_system")
    counting(controller, "solve_newton")
    counting(netmodel, "validate_network")
    trace = ovc_run(scenario30, ControlConfig(v_min=0.97, v_max=1.03))
    assert len(trace.iterations) > 2
    # one initial solve plus one re-solve per iteration, all on one system
    assert calls == {"newton_system": 1,
                     "solve_newton": 1 + len(trace.iterations),
                     "validate_network": 1}


def _recorded_solves(monkeypatch) -> list:
    """``(system, solution)`` of every Newton solve the controller makes,
    in order: the initial solve, then one re-solve per iteration."""
    import gridvolt.controller as controller

    solves = []

    def recording(system, **kwargs):
        sol = powerflow.solve_newton(system, **kwargs)
        solves.append((system, sol))
        return sol

    monkeypatch.setattr(controller, "solve_newton", recording)
    return solves


def _assert_re_solves_match_flat_start(solves, tol=powerflow.PF_TOLERANCE):
    """Each re-solve reaches, to 1e-9 pu, the solution Newton finds from
    the flat start at the same set-points; returns the totals ``(iterations
    of the re-solves, of the flat starts, Jacobians the re-solves factored,
    the flat starts)``."""
    (base, _), *re_solves = solves
    totals = np.zeros(4, dtype=int)
    for system, sol in re_solves:
        from_flat = powerflow.solve_newton(base.at(system.vm0[system.pv]), tol=tol)
        assert np.max(np.abs(sol.vm - from_flat.vm)) <= 1e-9
        totals += (sol.iterations, from_flat.iterations,
                   sol.jacobians, from_flat.jacobians)
    return tuple(totals.tolist())


def test_loop_re_solves_start_warm(scenario30, monkeypatch):
    # the stress-case30-tight-band run: every re-solve starts from the
    # linear model's prediction - the previous magnitudes moved by the
    # set-point step at the PV buses and by predict_dvpq at the PQ buses,
    # the previous angles - and reaches the flat start's voltages; its
    # chord steps take as many iterations in total as the flat starts'
    # Newton steps, on one Jacobian inverse for all the re-solves instead
    # of one Jacobian per iteration
    solves = _recorded_solves(monkeypatch)
    trace = ovc_run(scenario30, ControlConfig(v_min=0.97, v_max=1.03))
    (base, initial), *re_solves = solves
    assert len(re_solves) == len(trace.iterations) > 2
    assert trace.initial_solution is initial
    model = build_model(scenario30, base.partition)
    pv, pq = list(base.partition.pv_idx), list(base.partition.pq_idx)
    previous = initial
    for record, (system, sol) in zip(trace.iterations, re_solves):
        predicted = previous.vm.copy()
        predicted[pv] += record.dv_pv
        predicted[pq] += predict_dvpq(model, record.dv_pv)
        assert np.array_equal(system.vm0, predicted)
        assert np.array_equal(system.va0, previous.va)
        previous = sol
    assert _assert_re_solves_match_flat_start(solves) == (24, 24, 1, 24)


def test_re_solve_does_not_jump_to_a_low_voltage_solution(monkeypatch):
    # case30 tiled twice, tie-lines of seed 6, with two disturbances: started
    # from the previous solution, the first re-solve used to land on a
    # low-voltage solution (min 0.324 pu, 6 iterations) while the flat start
    # at the same set-points reaches min 0.790 pu; the linear prediction
    # reaches the flat start's solution, in 7 chord iterations on 2
    # Jacobian inverses
    net = caseio.parse_json_case(
        (DATA / "case30-tiled2-seed6.json").read_text(encoding="utf-8"))
    net = netmodel.apply_disturbance(net, 59, 73.5)
    net = netmodel.apply_disturbance(net, 46, -49.1)
    solves = _recorded_solves(monkeypatch)
    trace = ovc_run(net)
    assert len(trace.iterations) == len(solves) - 1 > 0
    _, _, jacobians, flat_jacobians = _assert_re_solves_match_flat_start(solves)
    assert jacobians < flat_jacobians
    first = solves[1][1]
    assert (first.iterations, first.jacobians) == (7, 2)
    assert first.vm.min() == pytest.approx(0.790, abs=5e-4)


# loop-tiled operations whose re-solve has no power-flow solution: the
# case30 tiled twice with the tie-lines of a grid seed, two disturbances, the
# 0.97-1.03 pu band. Newton stalls at the re-solve's set-points from the
# linear prediction, the previous solution and the flat start alike.
DIVERGING_RUNS = {
    "seed 9 op 201": ("case30-tiled2-seed5.json", [(26, 41.1), (54, -77.6)],
                      ovc_run),
    "seed 20 op 94": ("case30-tiled2-seed3.json", [(29, 71.9), (25, -36.1)],
                      svc_run),
}


@pytest.mark.parametrize("name", sorted(DIVERGING_RUNS))
def test_loop_runs_with_no_re_solve_solution_still_diverge(name, monkeypatch):
    # the verdict comes from a Jacobian of the iterate the solve stops at,
    # never from a stale chord factor
    path, disturbances, run = DIVERGING_RUNS[name]
    net = caseio.parse_json_case((DATA / path).read_text(encoding="utf-8"))
    for bus, mvar in disturbances:
        net = netmodel.apply_disturbance(net, bus, mvar)
    formed = []
    original = powerflow._inverse_jacobian

    def recording(system, v, ibus):
        formed.append(v.copy())
        return original(system, v, ibus)

    monkeypatch.setattr(powerflow, "_inverse_jacobian", recording)
    with pytest.raises(powerflow.PowerFlowDivergedError) as exc_info:
        run(net, ControlConfig(v_min=0.97, v_max=1.03))
    partial = exc_info.value.solution
    assert partial.max_mismatch > 1e-3
    assert np.array_equal(formed[-1], partial.vm * np.exp(1j * partial.va))


# A tolerance well below the default: two solves that both just meet 1e-8 pu
# of mismatch can differ by ~1e-8 pu in voltage, so comparing at 1e-9 pu
# asks whether they reached the same solution, not the same round-off.
SWEEP_TOLERANCE = 1e-10


@pytest.mark.parametrize("name, disturbances", [
    ("case9", [(9, 70.0)]),
    ("case9", [(5, -90.0)]),
    ("case9", [(7, 150.0)]),
    ("case14", [(10, -46.4)]),
    ("case14", [(14, 60.0)]),
    ("case14", [(9, 90.0)]),
    ("case30", [(8, 90.0), (25, -100.0)]),
    ("case30", [(30, 40.0)]),
    ("case30", [(19, -90.0)]),
])
def test_every_re_solve_reaches_the_flat_start_solution(all_cases, name,
                                                        disturbances,
                                                        monkeypatch):
    net = netmodel.set_flat_setpoints(all_cases[name], 1.0)
    for bus, mvar in disturbances:
        net = netmodel.apply_disturbance(net, bus, mvar)
    solves = _recorded_solves(monkeypatch)
    n_re_solves = 0
    for v_min, v_max in ((0.9, 1.1), (0.97, 1.03)):
        cfg = ControlConfig(v_min=v_min, v_max=v_max,
                            pf_tolerance=SWEEP_TOLERANCE)
        for run in (ovc_run, svc_run):
            solves.clear()
            trace = run(net, cfg)
            assert len(solves) == 1 + len(trace.iterations)
            _assert_re_solves_match_flat_start(solves, SWEEP_TOLERANCE)
            n_re_solves += len(trace.iterations)
    assert n_re_solves > 0


def test_unclamped_step_outside_setpoint_range_is_an_invalid_network(case30):
    # without clamping, one single-generator step takes bus 13 below 0 pu;
    # the re-solve rejects it exactly as validating the rebuilt network did
    net = netmodel.apply_disturbance(case30, 14, -200.0)
    with pytest.raises(netmodel.NetworkError,
                       match=r"^invalid network: bus 13: set-point -0\.02628501\d* "
                             r"outside \(0, 2\) pu$"):
        svc_run(net, ControlConfig(clamp_pv=False))


# ------------------------------------------------------------ conflict loop


def test_conflict_scenario_resolves_with_clamping(case14):
    # latent conflict: the inductive depression at 14 is critical first;
    # correcting it pushes 7 over the top, and the tug-of-war settles
    # within a handful of iterations thanks to set-point clamping
    net = netmodel.set_flat_setpoints(case14, 1.0)
    net = netmodel.apply_disturbance(net, 7, -120.0)
    net = netmodel.apply_disturbance(net, 14, 60.0)
    trace = ovc_run(net)
    assert trace.outcome is Outcome.RESOLVED
    assert len(trace.iterations) <= 5
    cbs = [rec.controlled_bus for rec in trace.iterations]
    assert set(cbs) == {7, 14}
    final = trace.iterations[-1].vm_after
    assert np.all((final >= CFG.v_min - 1e-12) & (final <= CFG.v_max + 1e-12))


def test_conflict_scenario_oscillation_detected(case14):
    # an extreme opposed pair that one-bus-at-a-time control cannot settle:
    # the loop must stop honestly instead of spinning to the cap
    net = netmodel.set_flat_setpoints(case14, 1.0)
    net = netmodel.apply_disturbance(net, 7, -200.0)
    net = netmodel.apply_disturbance(net, 14, 60.0)
    trace = ovc_run(net)
    assert trace.outcome is Outcome.OSCILLATING
    assert len(trace.iterations) < 20
    pairs = [(rec.controlled_bus, np.sign(rec.dv_cb_target))
             for rec in trace.iterations]
    # the tug-of-war alternates between raising 14 and lowering 7, and no
    # correction runs more than three times after its last progress (a
    # shrink of the critical set resets its budget)
    assert set(p[0] for p in pairs[-4:]) == {7, 14}
    budgets: dict = {}
    for pair, crit_size in zip(pairs, (len(r.critical_buses)
                                       for r in trace.iterations)):
        count, smallest = budgets.get(pair, (0, crit_size))
        if crit_size < smallest:
            count, smallest = 0, crit_size
        budgets[pair] = (count + 1, smallest)
        assert budgets[pair][0] <= 3


def test_config_validation():
    with pytest.raises(ValueError):
        ControlConfig(v_ref=1.2)
    with pytest.raises(ValueError):
        ControlConfig(v_min=1.0, v_max=0.9)


# ------------------------------------------------- full-trajectory audits

# Reference voltage profiles for the two tabulated studies (3-decimal
# precision). The controller must track every bus at every iteration, not
# just the headline values.

NINE_BUS_AFTER = {1: 1.100, 2: 1.086, 3: 1.040, 4: 1.060, 5: 1.045,
                  6: 1.057, 7: 1.051, 8: 1.066, 9: 0.993}

THIRTY_BUS_ITER1 = {
    1: 1.000, 2: 1.000, 3: 0.947, 4: 0.936, 5: 0.950, 6: 0.908, 7: 0.915,
    8: 0.857, 9: 0.932, 10: 0.945, 11: 0.932, 12: 0.964, 13: 1.000,
    14: 0.953, 15: 0.955, 16: 0.948, 17: 0.941, 18: 0.938, 19: 0.932,
    20: 0.934, 21: 0.957, 22: 0.965, 23: 0.972, 24: 0.977, 25: 1.045,
    26: 1.028, 27: 0.900, 28: 0.898, 29: 0.877, 30: 0.864}

THIRTY_BUS_ITER2 = {
    1: 1.037, 2: 1.100, 3: 1.014, 4: 1.010, 5: 1.041, 6: 0.988, 7: 1.000,
    8: 0.941, 9: 0.994, 10: 0.998, 11: 0.994, 12: 1.000, 13: 1.019,
    14: 0.985, 15: 0.984, 16: 0.991, 17: 0.990, 18: 0.976, 19: 0.974,
    20: 0.979, 21: 1.006, 22: 1.013, 23: 0.980, 24: 1.014, 25: 1.096,
    26: 1.079, 27: 0.968, 28: 0.977, 29: 0.947, 30: 0.935}


def test_nine_bus_full_profile_audit(scenario9):
    trace = ovc_run(scenario9)
    e2i = trace.partition.ext_to_int
    after = trace.iterations[0].vm_after
    for bus, expected in NINE_BUS_AFTER.items():
        assert after[e2i[bus]] == pytest.approx(expected, abs=0.010), bus


def test_thirty_bus_full_profile_audit(scenario30):
    trace = ovc_run(scenario30)
    e2i = trace.partition.ext_to_int
    for table, vm in ((THIRTY_BUS_ITER1, trace.iterations[0].vm_after),
                      (THIRTY_BUS_ITER2, trace.iterations[1].vm_after)):
        for bus, expected in table.items():
            assert vm[e2i[bus]] == pytest.approx(expected, abs=0.015), bus


def test_concurrent_runs_match_serial(scenarios):
    # all inputs are immutable and the loop keeps no global state, so
    # parallel runs must reproduce the serial results exactly
    from concurrent.futures import ThreadPoolExecutor

    nets = list(scenarios.values()) * 2
    serial = [ovc_run(net) for net in nets]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(ovc_run, nets))
    for a, b in zip(serial, parallel):
        assert a.outcome == b.outcome
        assert len(a.iterations) == len(b.iterations)
        for ra, rb in zip(a.iterations, b.iterations):
            assert ra.controlled_bus == rb.controlled_bus
            assert np.array_equal(ra.vm_after, rb.vm_after)
            assert np.array_equal(ra.dv_pv, rb.dv_pv)


# ------------------------------------------------------------------ family memo


def _count_builds(monkeypatch) -> dict:
    """Count hand-LU calls wherever gridvolt looks them up, and Ybus and
    B'' assemblies."""
    calls = {"lu_factor": 0, "lu_solve_factored": 0, "ybus": 0, "bpp": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper
    modules = [m for n, m in list(sys.modules.items())
               if n == "gridvolt" or n.startswith("gridvolt.")]
    for name in ("lu_factor", "lu_solve_factored"):
        original = getattr(numerics, name)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))
    for name in ("ybus", "bpp"):
        monkeypatch.setattr(powerflow._Branches, name,
                            counting(name, getattr(powerflow._Branches, name)))
    return calls


@pytest.mark.parametrize("run", [ovc_run, svc_run])
def test_warm_family_builds_nothing_and_matches_a_cold_run(case30, run,
                                                          monkeypatch):
    base = netmodel.set_flat_setpoints(cold(case30), 1.0)
    run(netmodel.apply_disturbance(base, 30, 20.0))
    net = netmodel.apply_disturbance(base, 26, 30.0)
    cfg = ControlConfig(v_min=0.97, v_max=1.03)
    calls = _count_builds(monkeypatch)
    warm = run(net, cfg)
    assert len(warm.iterations) > 1
    assert calls == {"lu_factor": 0, "lu_solve_factored": 0, "ybus": 0, "bpp": 0}
    fresh = run(cold(net), cfg)
    assert calls["lu_factor"] == 1 and calls["ybus"] == 1 and calls["bpp"] == 1
    assert warm.outcome is fresh.outcome
    assert warm.j_achieved_total == fresh.j_achieved_total
    assert len(warm.iterations) == len(fresh.iterations)
    for a, b in zip(warm.iterations, fresh.iterations):
        assert np.array_equal(a.vm_after, b.vm_after)
        assert np.array_equal(a.dv_pv, b.dv_pv)


def test_warm_family_still_validates_every_network(case9):
    base = netmodel.set_flat_setpoints(cold(case9), 1.0)
    ovc_run(netmodel.apply_disturbance(base, 9, 70.0))
    bad = netmodel.apply_disturbance(base, 9, float("nan"))
    for use in (ovc_run, svc_run, compare_ovc_svc, powerflow.newton_system,
                build_model):
        with pytest.raises(netmodel.NetworkError,
                           match="invalid network: bus 9: q_load nan"):
            use(bad)


def test_concurrent_first_use_of_a_family_keeps_one_of_each(case30):
    # threads that first use one cold family at once may each build its
    # entries; every thread must still end up with the one kept model and
    # Ybus, and with the serial results
    import threading

    base = netmodel.set_flat_setpoints(cold(case30), 1.0)
    nets = [netmodel.apply_disturbance(base, bus, 20.0)
            for bus in (30, 26, 29, 24, 19, 30, 26, 29)]
    serial = [ovc_run(cold(net)) for net in nets]
    got = [None] * len(nets)

    def work(i):
        got[i] = (build_model(nets[i]), powerflow.newton_system(nets[i]).ybus,
                  ovc_run(nets[i]))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(nets))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(g is not None for g in got)
    assert all(g[0] is build_model(base) for g in got)
    assert all(g[1] is powerflow.newton_system(base).ybus for g in got)
    for want, (_, _, trace) in zip(serial, got):
        assert trace.outcome is want.outcome
        assert trace.j_achieved_total == want.j_achieved_total
        for a, b in zip(trace.iterations, want.iterations):
            assert np.array_equal(a.vm_after, b.vm_after)
