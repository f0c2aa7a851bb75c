import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from gridvolt import caseio, netmodel
from gridvolt.netmodel import Branch, Bus, BusKind, BusPartition, Generator, Network
from gridvolt.numerics import lu_factor, lu_solve_factored

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def load_case(name: str) -> Network:
    with open(caseio.bundled_case_path(name), encoding="utf-8") as fh:
        return caseio.parse_matpower_case(fh.read())


def cold(net: Network) -> Network:
    """``net`` as the first network of a new family: an equal network with
    an empty memo, so a test that counts what a run builds or factors does
    not depend on what earlier tests ran on the session's networks."""
    return dataclasses.replace(net)


@pytest.fixture(scope="session")
def case9() -> Network:
    return load_case("case9")


@pytest.fixture(scope="session")
def case14() -> Network:
    return load_case("case14")


@pytest.fixture(scope="session")
def case30() -> Network:
    return load_case("case30")


@pytest.fixture(scope="session")
def all_cases(case9, case14, case30):
    return {"case9": case9, "case14": case14, "case30": case30}


# --- published reproduction scenarios ---------------------------------------
# case9 / case30 use flat 1.0 set-points (equal to the stock ones); the
# case14 scenario keeps the stock set-points: its disturbed state
# (1.051 -> 1.112 at bus 10) only exists from the stock profile.


@pytest.fixture(scope="session")
def scenario9(case9) -> Network:
    net = netmodel.set_flat_setpoints(case9, 1.0)
    return netmodel.apply_disturbance(net, 9, 70.0)


@pytest.fixture(scope="session")
def scenario14(case14) -> Network:
    return netmodel.apply_disturbance(case14, 10, -46.4)


@pytest.fixture(scope="session")
def scenario30(case30) -> Network:
    net = netmodel.set_flat_setpoints(case30, 1.0)
    net = netmodel.apply_disturbance(net, 8, 90.0)
    return netmodel.apply_disturbance(net, 25, -100.0)


@pytest.fixture(scope="session")
def scenarios(scenario9, scenario14, scenario30):
    return {"case9": scenario9, "case14": scenario14, "case30": scenario30}


# --- hand-built toys ---------------------------------------------------------


def two_bus_toy(q_load_mvar: float = 0.0, x: float = 0.1) -> Network:
    """Slack feeding one load bus over a single lossless reactance."""
    return Network(
        base_mva=100.0,
        buses=(
            Bus(id=1, kind=BusKind.SLACK, v_setpoint=1.0),
            Bus(id=2, kind=BusKind.PQ, q_load=q_load_mvar),
        ),
        branches=(Branch(from_bus=1, to_bus=2, r=0.0, x=x),),
        generators=(Generator(bus=1, p_gen=0.0, v_setpoint=1.0),),
    )


def three_bus_toy(q_load_mvar: float = 0.0, b_charging: float = 0.0) -> Network:
    """Lossless triangle: line susceptances b12=10, b23=5, b13=4.

    Bus 1 slack, bus 2 generator, bus 3 load. With ``b_charging`` zero the
    slack-included B'' is singular (nothing pins the overall voltage
    level): the control blocks exist, so control runs work, but
    ``full_sensitivity`` is refused; pass some charging for a nonsingular
    B''.
    """
    return Network(
        base_mva=100.0,
        buses=(
            Bus(id=1, kind=BusKind.SLACK, v_setpoint=1.0),
            Bus(id=2, kind=BusKind.PV, v_setpoint=1.0),
            Bus(id=3, kind=BusKind.PQ, q_load=q_load_mvar),
        ),
        branches=(
            Branch(from_bus=1, to_bus=2, r=0.0, x=0.1, b_charging=b_charging),
            Branch(from_bus=2, to_bus=3, r=0.0, x=0.2, b_charging=b_charging),
            Branch(from_bus=1, to_bus=3, r=0.0, x=0.25, b_charging=b_charging),
        ),
        generators=(
            Generator(bus=1, p_gen=0.0, v_setpoint=1.0),
            Generator(bus=2, p_gen=0.0, v_setpoint=1.0),
        ),
    )


def classic_partition_23() -> BusPartition:
    """The slack-excluded partition of the 3-bus toy: PV = {2}, PQ = {3}.

    Used to exercise the classic no-slack sensitivity blocks; the shipped
    partition_buses always includes the slack in the PV set.
    """
    return BusPartition(slack_idx=0, pv_idx=(1,), pq_idx=(2,),
                        ext_to_int={1: 0, 2: 1, 3: 2})


def shunted_feeder(b_shunt_3: float) -> Network:
    """Slack 1 - load 2 - load 3 over two x = 0.1 lines, a capacitive shunt
    at bus 3. B22 = [[20, -10], [-10, 10 - 2 b]] with b = b_shunt_3 / 100,
    singular at 250 MVAr although the full B'' is not."""
    return Network(
        base_mva=100.0,
        buses=(Bus(id=1, kind=BusKind.SLACK, v_setpoint=1.0),
               Bus(id=2, kind=BusKind.PQ),
               Bus(id=3, kind=BusKind.PQ, b_shunt=b_shunt_3)),
        branches=(Branch(from_bus=1, to_bus=2, r=0.0, x=0.1),
                  Branch(from_bus=2, to_bus=3, r=0.0, x=0.1)),
        generators=(Generator(bus=1, p_gen=0.0, v_setpoint=1.0),),
    )


def two_bus_voltage(q_pu: float, x: float = 0.1) -> float:
    """Closed-form load voltage of the lossless two-bus toy.

    From V^2 - V + x*q = 0 (pure reactive load q in pu):
    V = (1 + sqrt(1 - 4 x q)) / 2.
    """
    return 0.5 * (1.0 + np.sqrt(1.0 - 4.0 * x * q_pu))


# --- numerics reference ------------------------------------------------------


def lu_inverse(a) -> np.ndarray:
    """Full inverse of a nonsingular matrix through the hand LU: the
    factorization solved against the identity."""
    fac = lu_factor(a)
    return lu_solve_factored(fac, np.eye(fac.lu.shape[0]))
