import cmath
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from gridvolt import netmodel, numerics, powerflow
from gridvolt.netmodel import Branch, Bus, BusKind, Generator, partition_buses
from gridvolt.powerflow import (
    ChordFactor,
    PowerFlowDivergedError,
    PowerFlowError,
    build_bpp_full,
    build_bprime_full,
    build_ybus,
    bus_mismatch,
    newton_system,
    solve_fdlf,
    solve_newton,
)

from conftest import shunted_feeder, three_bus_toy, two_bus_toy, two_bus_voltage

DATA = Path(__file__).parent / "data"


def max_nonslack_mismatch(net, sol):
    part = partition_buses(net)
    dp, dq = bus_mismatch(net, sol.vm, sol.va)
    nonslack = [i for i in range(net.n_bus) if i != part.slack_idx]
    worst = float(np.max(np.abs(dp[nonslack])))
    if part.pq_idx:
        worst = max(worst, float(np.max(np.abs(dq[list(part.pq_idx)]))))
    return worst


# ---------------------------------------------------------------------- ybus


def test_ybus_two_bus_toy():
    y = build_ybus(two_bus_toy())
    assert np.allclose(y.g, 0.0, atol=1e-15)
    assert np.allclose(y.b, [[-10.0, 10.0], [10.0, -10.0]], atol=1e-12)


def test_ybus_three_bus_diagonal():
    y = build_ybus(three_bus_toy())
    assert np.allclose(np.diag(y.b), [-14.0, -15.0, -9.0], atol=1e-12)
    assert y.b[0, 1] == pytest.approx(10.0)
    assert y.b[1, 2] == pytest.approx(5.0)
    assert y.b[0, 2] == pytest.approx(4.0)


def test_ybus_bus_shunt_adds_to_diagonal():
    net = three_bus_toy()
    # +0.05 pu capacitive shunt at bus 2 = 5 MVAr at 1 pu on the 100 MVA base
    buses = tuple(
        dataclasses.replace(b, b_shunt=5.0) if b.id == 2 else b for b in net.buses
    )
    shunted = dataclasses.replace(net, buses=buses)
    base = build_ybus(net)
    plus = build_ybus(shunted)
    assert plus.b[1, 1] - base.b[1, 1] == pytest.approx(0.05, abs=1e-15)
    assert np.allclose(np.delete(plus.b.ravel(), 4), np.delete(base.b.ravel(), 4))


def test_ybus_tap_and_charging():
    net = two_bus_toy()
    branches = (Branch(from_bus=1, to_bus=2, r=0.0, x=0.1, b_charging=0.2,
                       tap=0.95),)
    net = dataclasses.replace(net, branches=branches)
    y = build_ybus(net).complex()
    ys = 1.0 / 0.1j
    assert y[0, 0] == pytest.approx((ys + 0.1j) / 0.95**2)
    assert y[1, 1] == pytest.approx(ys + 0.1j)
    assert y[0, 1] == pytest.approx(-ys / 0.95)
    assert y[1, 0] == pytest.approx(-ys / 0.95)


def test_ybus_parts_are_views_of_one_complex_matrix(case30):
    y = build_ybus(case30)
    assert y.g.base is not None and y.g.base is y.b.base
    assert np.array_equal(y.g + 1j * y.b, y.complex())


def test_ybus_zero_impedance_branch_rejected():
    net = two_bus_toy()
    bad = dataclasses.replace(
        net, branches=(Branch(from_bus=1, to_bus=2, r=0.0, x=0.0),))
    with pytest.raises(PowerFlowError, match="zero impedance"):
        build_ybus(bad)


def test_bpp_doubles_shunt_terms():
    net = three_bus_toy()
    buses = tuple(
        dataclasses.replace(b, b_shunt=5.0) if b.id == 2 else b for b in net.buses
    )
    shunted = dataclasses.replace(net, buses=buses)
    base = build_bpp_full(net)
    plus = build_bpp_full(shunted)
    # capacitive shunt lowers the B'' diagonal; the flat-voltage Jacobian
    # doubles the quadratic shunt term (d(B V^2)/dV = 2 B V at V = 1)
    assert plus[1, 1] - base[1, 1] == pytest.approx(-0.10, abs=1e-13)


def test_bpp_equals_classic_matrix_when_shunt_free():
    # without shunts or charging the quadratic corrections vanish
    full = build_bpp_full(three_bus_toy())
    assert np.allclose(full, [[14.0, -10.0, -4.0],
                              [-10.0, 15.0, -5.0],
                              [-4.0, -5.0, 9.0]], atol=1e-12)


def test_bprime_ignores_charging_and_shunts():
    net = two_bus_toy()
    branches = (Branch(from_bus=1, to_bus=2, r=0.0, x=0.1, b_charging=0.4,
                       tap=0.9),)
    net = dataclasses.replace(net, branches=branches)
    assert np.allclose(build_bprime_full(net), [[10.0, -10.0], [-10.0, 10.0]],
                       atol=1e-12)


# --------------------------------------------- assembly vs the branch loop
# The reference is the branch-by-branch loop the array assembly replaced:
# flags pick which pi-model terms enter, B' and B'' are read off Im(Ybus)
# of the reduced network.


def loop_assembly(net, *, ignore_r=False, ignore_charging=False,
                  ignore_shunts=False, unit_tap=False, zero_shift=False):
    order = netmodel.bus_order(net)
    y = np.zeros((len(order), len(order)), dtype=complex)
    for br in net.branches:
        if not br.in_service:
            continue
        r = 0.0 if ignore_r else br.r
        if r == 0.0 and br.x == 0.0:
            raise PowerFlowError("zero impedance")
        ys = 1.0 / complex(r, br.x)
        bc = 0.0 if ignore_charging else br.b_charging
        tap = 1.0 if unit_tap else br.tap
        shift = 0.0 if zero_shift else math.radians(br.shift)
        t = tap * cmath.exp(1j * shift)
        f, k = order[br.from_bus], order[br.to_bus]
        y[f, f] += (ys + 0.5j * bc) / (tap * tap)
        y[f, k] += -ys / t.conjugate()
        y[k, f] += -ys / t
        y[k, k] += ys + 0.5j * bc
    if not ignore_shunts:
        for bus in net.buses:
            i = order[bus.id]
            y[i, i] += complex(bus.g_shunt, bus.b_shunt) / net.base_mva
    return y


def loop_bprime(net):
    return -loop_assembly(net, ignore_charging=True, ignore_shunts=True,
                          unit_tap=True, zero_shift=True).imag


def loop_bpp(net):
    b = loop_assembly(net, ignore_r=True, unit_tap=True, zero_shift=True).imag
    return -(b + np.diag(b.sum(axis=1)))


def assert_matches_the_loop(got, want):
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def crafted_network():
    """Six buses with what the bundled cases lack: a phase shifter, an
    off-nominal tap, series resistance, a parallel pair and an
    out-of-service branch, plus line charging and bus shunts."""
    return netmodel.Network(
        base_mva=100.0,
        buses=(
            Bus(id=1, kind=BusKind.SLACK, v_setpoint=1.04),
            Bus(id=2, kind=BusKind.PV, v_setpoint=1.02, p_load=20.0),
            Bus(id=4, kind=BusKind.PQ, p_load=40.0, q_load=15.0,
                b_shunt=8.0),
            Bus(id=5, kind=BusKind.PQ, p_load=30.0, q_load=10.0,
                g_shunt=2.0),
            Bus(id=7, kind=BusKind.PQ, p_load=25.0, q_load=12.0),
            Bus(id=9, kind=BusKind.PQ, p_load=15.0, q_load=5.0),
        ),
        branches=(
            Branch(1, 2, r=0.02, x=0.06, b_charging=0.03),
            Branch(1, 4, r=0.05, x=0.19, b_charging=0.02),
            Branch(2, 4, r=0.0, x=0.2, tap=0.97),
            Branch(4, 5, r=0.01, x=0.12, tap=1.02, shift=-4.0),
            Branch(5, 7, r=0.03, x=0.15, b_charging=0.01),
            Branch(5, 7, r=0.04, x=0.18, b_charging=0.01),
            Branch(2, 9, r=0.06, x=0.17, b_charging=0.02),
            Branch(7, 9, r=0.08, x=0.24, in_service=False),
            Branch(9, 7, r=0.02, x=0.1, tap=1.05, shift=3.0),
        ),
        generators=(
            Generator(bus=1, p_gen=0.0, v_setpoint=1.04),
            Generator(bus=2, p_gen=60.0, v_setpoint=1.02),
        ),
    )


def assert_matrices_match_the_loop(net):
    assert_matches_the_loop(build_ybus(net).complex(), loop_assembly(net))
    assert_matches_the_loop(build_bprime_full(net), loop_bprime(net))
    assert_matches_the_loop(build_bpp_full(net), loop_bpp(net))


@pytest.mark.parametrize("name", ["case9", "case14", "case30"])
def test_assembly_matches_the_branch_loop_on_bundled_cases(all_cases, name):
    assert_matrices_match_the_loop(all_cases[name])


def test_assembly_matches_the_branch_loop_on_the_crafted_network():
    net = crafted_network()
    assert_matrices_match_the_loop(net)
    y = build_ybus(net).complex()
    # the 4-5 phase shifter makes Ybus asymmetric; B' and B'' drop shifts
    assert abs(y[2, 3] - y[3, 2]) > 1e-3
    assert np.array_equal(build_bprime_full(net), build_bprime_full(net).T)
    assert np.array_equal(build_bpp_full(net), build_bpp_full(net).T)
    # the out-of-service branch contributes nothing
    dropped = dataclasses.replace(
        net, branches=net.branches[:7] + net.branches[8:])
    assert np.array_equal(build_ybus(dropped).complex(), y)


def test_reactance_free_branch_is_rejected_by_bpp_only():
    base = crafted_network()
    net = dataclasses.replace(
        base, branches=base.branches + (Branch(4, 9, r=0.05, x=0.0),))
    with pytest.raises(PowerFlowError, match="branch 4-9 has zero impedance"):
        build_bpp_full(net)
    assert_matches_the_loop(build_ybus(net).complex(), loop_assembly(net))
    assert_matches_the_loop(build_bprime_full(net), loop_bprime(net))


def test_newton_and_fdlf_solve_the_crafted_network():
    net = crafted_network()
    sol = solve_newton(net)
    assert sol.converged
    assert max_nonslack_mismatch(net, sol) <= 10 * powerflow.PF_TOLERANCE
    fdlf = solve_fdlf(net)
    assert max_nonslack_mismatch(net, fdlf) <= 10 * powerflow.PF_TOLERANCE
    assert np.max(np.abs(fdlf.vm - sol.vm)) <= 1e-7


# ------------------------------------------------------------------- solvers


def test_newton_no_load_flat():
    sol = solve_newton(two_bus_toy())
    assert sol.converged
    assert sol.iterations == 0
    assert np.allclose(sol.vm, 1.0)
    assert np.allclose(sol.va, 0.0)


def test_newton_two_bus_reactive_load_closed_form():
    net = two_bus_toy(q_load_mvar=10.0)  # 0.1 pu
    sol = solve_newton(net)
    assert sol.vm_at(2) == pytest.approx(two_bus_voltage(0.1), abs=1e-10)
    assert sol.vm_at(2) == pytest.approx(0.98990, abs=5e-6)


def test_newton_9bus_disturbed_matches_published(scenario9):
    sol = solve_newton(scenario9)
    assert sol.vm_at(9) == pytest.approx(0.8853, abs=5e-4)


def test_fdlf_matches_newton_on_cases(all_cases):
    for name, net in all_cases.items():
        sn = solve_newton(net)
        sf = solve_fdlf(net)
        assert np.max(np.abs(sn.vm - sf.vm)) <= 1e-6, name
        assert np.max(np.abs(sn.va - sf.va)) <= 1e-6, name


def test_fdlf_two_bus_closed_form():
    sol = solve_fdlf(two_bus_toy(q_load_mvar=10.0))
    assert sol.vm_at(2) == pytest.approx(0.98990, abs=1e-5)


def test_fdlf_lossless_network_matches_newton_tightly():
    net = three_bus_toy(q_load_mvar=20.0)
    sn = solve_newton(net, tol=1e-12)
    sf = solve_fdlf(net, tol=1e-12)
    assert np.max(np.abs(sn.vm - sf.vm)) <= 1e-9
    assert np.max(np.abs(sn.va - sf.va)) <= 1e-9


def test_solution_respects_setpoints(case14):
    sol = solve_newton(case14)
    for bus in case14.buses:
        if bus.kind in (BusKind.SLACK, BusKind.PV):
            assert sol.vm_at(bus.id) == bus.v_setpoint


def test_newton_divergence_raises_with_partial():
    net = two_bus_toy(q_load_mvar=1500.0)  # far beyond loadability
    with pytest.raises(PowerFlowDivergedError) as exc_info:
        solve_newton(net, max_iter=8)
    partial = exc_info.value.solution
    assert partial.converged is False
    assert partial.iterations <= 8
    history = partial.mismatch_history
    assert all(b <= a for a, b in zip(history, history[1:]))


def test_fdlf_divergence_raises():
    with pytest.raises(PowerFlowDivergedError):
        solve_fdlf(two_bus_toy(q_load_mvar=1500.0), max_iter=10)


# -------------------------------------------------------------- bus_mismatch


def test_mismatch_zero_on_no_load_flat():
    net = two_bus_toy()
    dp, dq = bus_mismatch(net, np.ones(2), np.zeros(2))
    assert np.array_equal(dp, np.zeros(2))
    assert np.array_equal(dq, np.zeros(2))


def test_mismatch_audits_converged_solutions(all_cases):
    for name, net in all_cases.items():
        for solver in (solve_newton, solve_fdlf):
            sol = solver(net)
            assert max_nonslack_mismatch(net, sol) <= 1e-8, (name, solver)


def test_mismatch_perturbation_matches_analytic_derivative():
    net = two_bus_toy(q_load_mvar=10.0)
    sol = solve_newton(net)
    v = sol.vm_at(2)
    delta = 0.01
    vm = sol.vm.copy()
    vm[1] += delta
    _, dq = bus_mismatch(net, vm, sol.va)
    _, dq0 = bus_mismatch(net, sol.vm, sol.va)
    # analytic two-bus reactive equation: Q_inj(V) = -10 V (V - 1), so
    # d(dq)/dV = -10 (2V - 1); to first order this is -B'' * dV * V.
    analytic = -10.0 * (2.0 * v - 1.0) * delta
    assert dq[1] - dq0[1] == pytest.approx(analytic, rel=2e-2)
    bpp_form = -10.0 * delta * v
    assert dq[1] - dq0[1] == pytest.approx(bpp_form, rel=2e-2)


def test_conservation_generation_equals_load_plus_losses(all_cases):
    for name, net in all_cases.items():
        sol = solve_newton(net)
        dp, _ = bus_mismatch(net, sol.vm, sol.va)
        # injections actually delivered into the network
        p_sched = np.zeros(net.n_bus)
        order = netmodel.bus_order(net)
        for bus in net.buses:
            p_sched[order[bus.id]] -= bus.p_load / net.base_mva
        for gen in net.generators:
            if gen.in_service:
                p_sched[order[gen.bus]] += gen.p_gen / net.base_mva
        injections = p_sched - dp
        losses = float(np.sum(injections))
        assert losses >= 0.0, name
        # total generation = total load + losses
        total_gen = losses + sum(b.p_load for b in net.buses) / net.base_mva
        gen_from_injection = float(
            sum(injections[order[b.id]] + b.p_load / net.base_mva
                for b in net.buses))
        assert gen_from_injection == pytest.approx(total_gen, abs=1e-6), name


def test_solver_agreement_under_random_disturbances(all_cases):
    rng = np.random.default_rng(2024)
    nets = list(all_cases.values())
    checked = 0
    for k in range(100):
        net = nets[k % len(nets)]
        pq_ids = [b.id for b in net.buses if b.kind is BusKind.PQ]
        bus = int(rng.choice(pq_ids))
        dq = float(rng.uniform(-30.0, 30.0))
        disturbed = netmodel.apply_disturbance(net, bus, dq)
        sn = solve_newton(disturbed)
        sf = solve_fdlf(disturbed)
        assert np.max(np.abs(sn.vm - sf.vm)) <= 1e-6
        assert np.max(np.abs(sn.va - sf.va)) <= 1e-6
        assert max_nonslack_mismatch(disturbed, sn) <= 1e-8
        checked += 1
    assert checked == 100


def test_inductive_load_never_raises_local_voltage(all_cases):
    rng = np.random.default_rng(99)
    for net in all_cases.values():
        base = solve_newton(net)
        pq_ids = [b.id for b in net.buses if b.kind is BusKind.PQ]
        for bus in rng.choice(pq_ids, size=min(5, len(pq_ids)), replace=False):
            disturbed = netmodel.apply_disturbance(net, int(bus), 25.0)
            sol = solve_newton(disturbed)
            assert sol.vm_at(int(bus)) <= base.vm_at(int(bus)) + 1e-12


def test_newton_uses_no_hand_factorization(case30, monkeypatch):
    # nor does the fast-decoupled solver; that powerflow binds neither name
    # itself is test_numerics' guard
    calls = []
    for name in ("lu_factor", "lu_solve_factored"):
        original = getattr(numerics, name)

        def counting(*args, original=original):
            calls.append(original.__name__)
            return original(*args)
        monkeypatch.setattr(numerics, name, counting)
    for solver in (solve_newton, solve_fdlf):
        sol = solver(case30)
        assert sol.converged and sol.iterations > 0
    assert calls == []


def test_mismatch_dimension_check(case9):
    with pytest.raises(ValueError):
        bus_mismatch(case9, np.ones(5), np.zeros(9))


def test_solve_network_without_load_buses():
    # both buses voltage-controlled: the reactive half-iteration moves nothing
    net = two_bus_toy()
    buses = (net.buses[0],
             dataclasses.replace(net.buses[1], kind=BusKind.PV,
                                 v_setpoint=1.02))
    net = dataclasses.replace(
        net, buses=buses,
        generators=net.generators + (Generator(bus=2, p_gen=10.0,
                                               v_setpoint=1.02),))
    for solver in (solve_newton, solve_fdlf):
        sol = solver(net)
        assert sol.converged
        assert sol.vm_at(2) == 1.02
    # B'' is 0 x 0 here, and the fast-decoupled solver inverts it all the same
    assert sol.iterations > 0 and sol.jacobians == 2


# ----------------------------------------------------------- newton system


def dense_reference_jacobian(ybus, vm, va, pvpq, pq):
    """The Jacobian from dense diagonal-matrix products, as first written."""
    v = vm * np.exp(1j * va)
    ibus = ybus @ v
    diag_v = np.diag(v)
    diag_i = np.diag(ibus)
    diag_vn = np.diag(v / np.abs(v))
    ds_dva = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
    ds_dvm = diag_v @ np.conj(ybus @ diag_vn) + np.conj(diag_i) @ diag_vn
    return np.vstack([
        np.hstack([ds_dva[np.ix_(pvpq, pvpq)].real,
                   ds_dvm[np.ix_(pvpq, pq)].real]),
        np.hstack([ds_dva[np.ix_(pq, pvpq)].imag,
                   ds_dvm[np.ix_(pq, pq)].imag]),
    ])


def broadcast_reference_jacobian(ybus, vm, va, pvpq, pq):
    """The broadcast Jacobian on the full Ybus, cut with ``ix_``, as the
    kernel was before it read precomputed row blocks."""
    v = vm * np.exp(1j * va)
    ibus = ybus @ v
    vn = v / np.abs(v)
    ds_dva = 1j * v[:, None] * np.conj(np.diag(ibus) - ybus * v)
    ds_dvm = v[:, None] * np.conj(ybus * vn) + np.diag(np.conj(ibus) * vn)
    return np.vstack([
        np.hstack([ds_dva[np.ix_(pvpq, pvpq)].real,
                   ds_dvm[np.ix_(pvpq, pq)].real]),
        np.hstack([ds_dva[np.ix_(pq, pvpq)].imag,
                   ds_dvm[np.ix_(pq, pq)].imag]),
    ])


def kernel_jacobian(system, vm, va):
    v = vm * np.exp(1j * va)
    return powerflow._jacobian(system, v, system.ybus @ v)


def with_setpoints(net, setpoints):
    """``net`` rebuilt with new slack/PV magnitudes, given by bus id."""
    buses = tuple(dataclasses.replace(b, v_setpoint=setpoints[b.id])
                  if b.id in setpoints else b for b in net.buses)
    gens = tuple(dataclasses.replace(g, v_setpoint=setpoints[g.bus])
                 if g.bus in setpoints else g for g in net.generators)
    return dataclasses.replace(net, buses=buses, generators=gens)


@pytest.mark.parametrize("name", ["case30", "case14"])
def test_broadcast_jacobian_matches_dense_products(all_cases, name):
    net = all_cases[name]
    if name == "case14":
        net = netmodel.apply_disturbance(net, 10, -46.4)
    system = newton_system(net)
    sol = solve_newton(system)
    # a non-flat state away from the solution, so that no term vanishes
    rng = np.random.default_rng(7)
    vm = sol.vm * rng.uniform(0.97, 1.03, sol.vm.size)
    va = sol.va + rng.uniform(-0.05, 0.05, sol.va.size)
    got = kernel_jacobian(system, vm, va)
    want = dense_reference_jacobian(system.ybus, vm, va, system.pvpq, system.pq)
    assert got.shape == want.shape == (len(system.pvpq) + len(system.pq),) * 2
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["case9", "case14", "case30", "case14-disturbed"])
def test_row_block_jacobian_equals_broadcast_reference(all_cases, name):
    # same arithmetic in the same order, so equal to the last bit
    net = all_cases[name.split("-")[0]]
    if name.endswith("disturbed"):
        net = netmodel.apply_disturbance(net, 10, -46.4)
    system = newton_system(net)
    sol = solve_newton(system)
    rng = np.random.default_rng(11)
    for _ in range(5):
        vm = sol.vm * rng.uniform(0.9, 1.1, sol.vm.size)
        va = sol.va + rng.uniform(-0.2, 0.2, sol.va.size)
        want = broadcast_reference_jacobian(system.ybus, vm, va,
                                            system.pvpq, system.pq)
        assert np.array_equal(kernel_jacobian(system, vm, va), want)


def test_moved_system_shares_every_precomputed_array(case30):
    system = newton_system(case30)
    moved = system.at(system.vm0[system.pv] + 0.01)
    arrays = [f.name for f in dataclasses.fields(system)
              if isinstance(getattr(system, f.name), np.ndarray)]
    assert {"y_va", "y_vm", "pq_pos", "vm0"} <= set(arrays)
    for name in arrays:
        shared = getattr(moved, name) is getattr(system, name)
        assert shared is (name != "vm0"), name
    assert moved.partition is system.partition


def test_mismatch_history_records_every_iteration(case30):
    for solver in (solve_newton, solve_fdlf):
        sol = solver(case30)
        history = sol.mismatch_history
        assert len(history) == sol.iterations + 1
        assert history[-1] == sol.max_mismatch
    history = solve_newton(case30).mismatch_history
    assert all(b < a for a, b in zip(history, history[1:]))


def test_line_search_ends_the_blowup_repro_bounded(case9):
    # with full steps only, this solve grew its mismatch from 2.8 to 4e10 pu
    # over 30 iterations; the line search stops once no step length helps
    net = netmodel.apply_disturbance(netmodel.set_flat_setpoints(case9, 1.0),
                                     9, 250.0)
    with pytest.raises(PowerFlowDivergedError) as exc_info:
        solve_newton(net)
    partial = exc_info.value.solution
    history = partial.mismatch_history
    assert len(history) == partial.iterations + 1
    assert history[-1] == partial.max_mismatch
    assert all(b <= a for a, b in zip(history, history[1:]))
    assert partial.iterations < powerflow.NEWTON_MAX_ITER
    assert f"did not converge in {partial.iterations} iterations" in str(exc_info.value)


def plain_newton(system):
    """Reference: Newton with full steps only, from the system's start."""
    vm, va = system.vm0.copy(), system.va0.copy()
    npvpq = len(system.pvpq)
    v, ibus, f = powerflow._mismatch(system, vm, va)
    history = [powerflow._max_abs(f)]
    while (history[-1] > powerflow.PF_TOLERANCE
           and len(history) <= powerflow.NEWTON_MAX_ITER):
        step = powerflow.lu_solve(powerflow._jacobian(system, v, ibus), f)
        va[system.pvpq] += step[:npvpq]
        vm[system.pq] += step[npvpq:]
        v, ibus, f = powerflow._mismatch(system, vm, va)
        history.append(powerflow._max_abs(f))
    return vm, va, history


@pytest.mark.parametrize("name", ["case9", "case14", "case30"])
def test_full_steps_are_taken_exactly_when_the_mismatch_falls(all_cases, name):
    # every solve whose full-step mismatch never grows keeps its iterates to
    # the last bit
    base = all_cases[name]
    pq = [b.id for b in base.buses if b.kind is BusKind.PQ]
    for bus, mvar in [(pq[0], 0.0), (pq[-1], 60.0), (pq[len(pq) // 2], -90.0)]:
        system = newton_system(netmodel.apply_disturbance(base, bus, mvar))
        vm, va, history = plain_newton(system)
        assert all(b < a for a, b in zip(history, history[1:]))
        sol = solve_newton(system)
        assert sol.mismatch_history == tuple(history)
        assert np.array_equal(sol.vm, vm)
        assert np.array_equal(sol.va, va)


# The bundled solves whose first full Newton step raises max|f| (by at most
# 2x), with their iteration counts under full steps only.
FIRST_STEP_UP = [(26, -150.0, 5), (26, -200.0, 5), (26, -260.0, 6), (30, -260.0, 5)]


@pytest.mark.parametrize("flat", [False, True])
@pytest.mark.parametrize("bus,mvar,full_step_iterations", FIRST_STEP_UP)
def test_line_search_converges_in_no_more_iterations(case30, flat, bus, mvar,
                                                     full_step_iterations):
    net = netmodel.set_flat_setpoints(case30, 1.0) if flat else case30
    system = newton_system(netmodel.apply_disturbance(net, bus, mvar))
    _, _, full = plain_newton(system)
    assert full[1] > full[0]
    assert len(full) - 1 == full_step_iterations
    sol = solve_newton(system)
    assert sol.converged
    assert sol.iterations <= full_step_iterations
    history = sol.mismatch_history
    assert all(b <= a for a, b in zip(history, history[1:]))
    assert max_nonslack_mismatch(netmodel.apply_disturbance(net, bus, mvar),
                                 sol) <= 1e-8


@pytest.mark.parametrize("name", ["case9", "case14", "case30"])
def test_warm_start_matches_flat_start_in_no_more_iterations(all_cases, name):
    system = newton_system(all_cases[name])
    start = solve_newton(system)
    stock = system.vm0[system.pv]
    for k in range(3):
        setpoints = stock + 0.02 * np.sin(np.arange(stock.size) + k)
        flat = solve_newton(system.at(setpoints))
        warm = solve_newton(system.at(setpoints, start=start))
        assert warm.iterations <= flat.iterations
        assert np.max(np.abs(warm.vm - flat.vm)) <= 1e-9
        assert np.max(np.abs(warm.va - flat.va)) <= 1e-9
        assert np.array_equal(warm.vm[system.pv], setpoints)


def test_warm_started_system_starts_from_the_solution(case14):
    system = newton_system(case14)
    start = solve_newton(system)
    setpoints = system.vm0[system.pv] + 0.01
    warm = system.at(setpoints, start=start)
    assert np.array_equal(warm.va0, start.va)
    assert np.array_equal(warm.vm0[system.pq], start.vm[system.pq])
    assert np.array_equal(warm.vm0[system.pv], setpoints)
    assert not warm.va0.flags.writeable and not warm.vm0.flags.writeable
    assert warm.va0 is not start.va and warm.vm0 is not start.vm
    assert not np.any(system.va0)
    other = solve_newton(newton_system(three_bus_toy(q_load_mvar=20.0)))
    with pytest.raises(ValueError, match="other buses"):
        system.at(setpoints, start=other)
    with pytest.raises(netmodel.NetworkError):
        system.at(np.full(setpoints.shape, 2.5), start=start)


@pytest.mark.parametrize("name", ["case9", "case14", "case30"])
def test_system_solve_at_setpoints_matches_rebuilt_network(all_cases, name):
    net = all_cases[name]
    system = newton_system(net)
    pv_ids = [system.partition.int_to_ext[i] for i in system.partition.pv_idx]
    stock = np.array([net.bus(b).v_setpoint for b in pv_ids])
    for k in range(3):
        setpoints = stock + 0.02 * np.sin(np.arange(stock.size) + k)
        got = solve_newton(system.at(setpoints))
        want = solve_newton(with_setpoints(net, dict(zip(pv_ids, setpoints))))
        assert got.ids == want.ids
        assert got.iterations == want.iterations
        assert np.max(np.abs(got.vm - want.vm)) <= 1e-12
        assert np.max(np.abs(got.va - want.va)) <= 1e-12
    # the system is untouched by its solves
    again = solve_newton(system)
    first = solve_newton(net)
    assert np.array_equal(again.vm, first.vm)
    assert np.array_equal(again.va, first.va)


def test_newton_system_is_read_only_and_checks_setpoints(case9):
    system = newton_system(case9)
    assert system.ids == tuple(range(1, 10))
    assert np.array_equal(system.ybus, build_ybus(case9).complex())
    for field in dataclasses.fields(system):
        arr = getattr(system, field.name)
        if isinstance(arr, np.ndarray):
            assert not arr.flags.writeable, field.name
    with pytest.raises(ValueError):
        solve_newton(system.at(np.ones(len(system.pv) + 1)))


@pytest.mark.parametrize("bad", [2.0, 2.5, 0.0, -0.03, np.nan, np.inf])
def test_setpoint_outside_range_fails_as_on_the_rebuilt_network(case9, bad):
    system = newton_system(case9)
    pv_ids = [system.partition.int_to_ext[i] for i in system.partition.pv_idx]
    setpoints = np.array([case9.bus(b).v_setpoint for b in pv_ids])
    setpoints[1] = bad
    with pytest.raises(netmodel.NetworkError) as rebuilt:
        newton_system(with_setpoints(case9, dict(zip(pv_ids, setpoints))))
    for solve in (lambda: system.at(setpoints),
                  lambda: solve_newton(system.at(setpoints))):
        with pytest.raises(netmodel.NetworkError) as got:
            solve()
        assert str(got.value) == str(rebuilt.value)
    assert f"bus {pv_ids[1]}: set-point {bad} outside (0, 2) pu" in str(rebuilt.value)


def test_solve_newton_on_a_system_skips_validation(case30, monkeypatch):
    system = newton_system(case30)
    moved = system.at(system.vm0[system.pv] + 0.01)
    calls = []
    monkeypatch.setattr(netmodel, "validate_network",
                        lambda net: calls.append(net) or [])
    sol = solve_newton(moved)
    assert calls == []
    assert sol.ids == system.ids
    assert np.array_equal(sol.vm[system.pv], moved.vm0[system.pv])
    assert np.array_equal(sol.vm, solve_newton(
        system.at(system.vm0[system.pv] + 0.01)).vm)


@pytest.mark.parametrize("name", ["case9", "case14", "case30"])
def test_bundled_voltages_match_pinned_solution(scenarios, name):
    # the pinned solve report of each bundled scenario, written by the
    # dense-Jacobian solver
    golden = Path(__file__).parent / "golden" / f"{name}-solve-json.out"
    want = json.loads(golden.read_text(encoding="utf-8"))["buses"]
    sol = solve_newton(scenarios[name])
    assert list(sol.ids) == [row["bus"] for row in want]
    vm = np.array([row["vm_pu"] for row in want])
    va = np.radians([row["va_deg"] for row in want])
    assert np.max(np.abs(sol.vm - vm)) <= 1e-10
    assert np.max(np.abs(sol.va - va)) <= 1e-10


# ----------------------------------------------------------------- chord steps


def inverse_jacobian_at(system, vm, va):
    v, ibus, _ = powerflow._mismatch(system, vm, va)
    return numerics.inverse(powerflow._jacobian(system, v, ibus))


def far_off_inverse(system):
    """The inverse Jacobian at a state far from any solution: 0.8 pu at the
    load buses and -0.3 rad at every non-slack bus."""
    vm, va = system.vm0.copy(), system.va0.copy()
    vm[system.pq] = 0.8
    va[system.pvpq] = -0.3
    return inverse_jacobian_at(system, vm, va)


def moved_setpoints(system, k):
    return system.vm0[system.pv] + 0.02 * np.sin(np.arange(len(system.pv)) + k)


def test_solutions_count_the_jacobians_they_factor(case30):
    flat = solve_newton(case30)
    assert flat.jacobians == flat.iterations > 0
    assert solve_fdlf(case30).jacobians == 2  # B' and B''
    system = newton_system(case30)
    chord = ChordFactor()
    sol = solve_newton(system.at(moved_setpoints(system, 0), start=flat),
                       chord=chord)
    assert sol.converged and chord.inverse is not None
    assert 1 <= sol.jacobians < sol.iterations


@pytest.mark.parametrize("name", ["case9", "case14", "case30"])
def test_chord_refreshes_a_far_off_factor_and_reaches_the_flat_start_solution(
        all_cases, name):
    system = newton_system(all_cases[name])
    start = solve_newton(system)
    for k in range(3):
        chord = ChordFactor()
        far = chord.inverse = far_off_inverse(system)
        sol = solve_newton(system.at(moved_setpoints(system, k), start=start),
                           tol=1e-10, chord=chord)
        flat = solve_newton(system.at(moved_setpoints(system, k)), tol=1e-10)
        assert chord.inverse is not far and sol.jacobians >= 1
        assert np.max(np.abs(sol.vm - flat.vm)) <= 1e-9
        assert np.max(np.abs(sol.va - flat.va)) <= 1e-9


@pytest.mark.parametrize("stale", ["negated", "shrunk", "far"])
def test_a_stale_factor_alone_never_raises_divergence(case30, stale):
    # a factor that steps uphill, one that barely moves and one from far
    # away: each is refreshed, and every solve converges
    system = newton_system(case30)
    start = solve_newton(system)
    exact = inverse_jacobian_at(system, start.vm, start.va)
    seeded = {"negated": -exact, "shrunk": 1e-6 * exact,
              "far": far_off_inverse(system)}[stale]
    for k in range(3):
        chord = ChordFactor()
        chord.inverse = seeded
        sol = solve_newton(system.at(moved_setpoints(system, k), start=start),
                           chord=chord)
        assert sol.converged and chord.inverse is not seeded
        history = sol.mismatch_history
        assert all(b <= a for a, b in zip(history, history[1:]))


def test_chord_divergence_is_decided_at_a_fresh_jacobian(case9, monkeypatch):
    # the +250 MVAr repro has no solution: the solve that ends it has just
    # formed its inverse at the iterate it stops at
    net = netmodel.apply_disturbance(netmodel.set_flat_setpoints(case9, 1.0),
                                     9, 250.0)
    system = newton_system(net)
    formed = []
    original = powerflow._inverse_jacobian

    def recording(system, v, ibus):
        formed.append(v.copy())
        return original(system, v, ibus)

    monkeypatch.setattr(powerflow, "_inverse_jacobian", recording)
    chord = ChordFactor()
    chord.inverse = far_off_inverse(system)
    with pytest.raises(PowerFlowDivergedError) as exc_info:
        solve_newton(system, chord=chord)
    partial = exc_info.value.solution
    assert np.array_equal(formed[-1], partial.vm * np.exp(1j * partial.va))
    assert partial.jacobians == len(formed)
    history = partial.mismatch_history
    assert all(b <= a for a, b in zip(history, history[1:]))


@pytest.mark.parametrize("scale", [0.0, 1e-310])
def test_singular_or_overflowing_jacobian_inverse_is_a_power_flow_error(
        case9, monkeypatch, scale):
    # exactly singular, or an inverse beyond float range: an error, never a
    # warning (warnings are errors in this suite)
    system = newton_system(case9)
    n = len(system.pvpq) + len(system.pq)
    monkeypatch.setattr(powerflow, "_jacobian",
                        lambda system, v, ibus: scale * np.eye(n))
    with pytest.raises(PowerFlowError, match="^Newton Jacobian: ") as exc_info:
        solve_newton(system, chord=ChordFactor())
    assert isinstance(exc_info.value.__cause__, numerics.SingularMatrixError)


def test_singular_jacobian_is_one_power_flow_error_with_or_without_chord(
        case9, monkeypatch):
    system = newton_system(case9)
    n = len(system.pvpq) + len(system.pq)
    monkeypatch.setattr(powerflow, "_jacobian",
                        lambda system, v, ibus: np.zeros((n, n)))
    texts = []
    for chord in (None, ChordFactor()):
        with pytest.raises(PowerFlowError, match="^Newton Jacobian: ") as exc:
            solve_newton(system, chord=chord)
        assert not isinstance(exc.value, PowerFlowDivergedError)
        assert isinstance(exc.value.__cause__, numerics.SingularMatrixError)
        texts.append(str(exc.value))
    assert texts[0] == texts[1]


@pytest.mark.parametrize("b_shunt", [250.0, 250.0 + 1e-11])
def test_fdlf_singular_bpp_is_a_power_flow_error(b_shunt):
    # B'' over the load buses is singular, exactly or to working precision
    with pytest.raises(PowerFlowError, match="^B'': ") as exc:
        solve_fdlf(shunted_feeder(b_shunt))
    assert isinstance(exc.value.__cause__, numerics.SingularMatrixError)


@pytest.mark.parametrize("matrix", ["bprime", "bpp"])
@pytest.mark.parametrize("how", ["zero", "tiny", "one tiny column"])
def test_fdlf_singular_or_overflowing_matrix_is_a_power_flow_error(
        case9, monkeypatch, matrix, how):
    # exactly singular, an inverse beyond float range, or a condition
    # number of ~1e200: an error naming the matrix, never a warning
    # (warnings are errors in this suite)
    original = getattr(powerflow._Branches, matrix)

    def degenerate(self):
        m = original(self)
        if how == "one tiny column":
            m[:, 3] *= 1e-200  # bus 4, a load bus
            return m
        return (0.0 if how == "zero" else 1e-310) * m
    monkeypatch.setattr(powerflow._Branches, matrix, degenerate)
    name = "B'" if matrix == "bprime" else "B''"
    text = {"zero": "singular matrix", "tiny": "solution is not finite",
            "one tiny column": "condition estimate >= "}[how]
    with pytest.raises(PowerFlowError, match=f"^{name}: {text}"):
        solve_fdlf(case9)


def test_fdlf_matches_newton_on_a_tiled_grid():
    from gridvolt import caseio
    net = caseio.parse_json_case(
        (DATA / "case30-tiled2-seed6.json").read_text(encoding="utf-8"))
    sn, sf = solve_newton(net), solve_fdlf(net)
    assert sf.converged and sf.jacobians == 2
    assert np.max(np.abs(sn.vm - sf.vm)) <= 1e-6
    assert np.max(np.abs(sn.va - sf.va)) <= 1e-6


def test_max_abs_propagates_nan_and_is_zero_when_empty():
    assert powerflow._max_abs(np.array([0.5, -2.0, 1.0])) == 2.0
    assert powerflow._max_abs(np.empty(0)) == 0.0
    assert math.isnan(powerflow._max_abs(np.array([1.0, np.nan, -3.0])))
    assert math.isnan(powerflow._max_abs(np.array([np.nan])))
