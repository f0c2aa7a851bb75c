import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridvolt import netmodel
from gridvolt.netmodel import (
    Branch,
    Bus,
    BusKind,
    Generator,
    Network,
    NetworkError,
    apply_disturbance,
    partition_buses,
    set_flat_setpoints,
    validate_network,
)
from gridvolt.sensitivity import build_model

from conftest import cold, two_bus_toy


def test_validate_shipped_cases_clean(all_cases):
    for name, net in all_cases.items():
        assert validate_network(net) == [], name


def test_validate_reports_multiple_slack(case9):
    buses = tuple(
        dataclasses.replace(b, kind=BusKind.SLACK) if b.id == 2 else b
        for b in case9.buses
    )
    report = validate_network(dataclasses.replace(case9, buses=buses))
    assert any("multiple slack" in entry for entry in report)


def test_validate_reports_dangling_branch(case9):
    bad = dataclasses.replace(
        case9, branches=case9.branches + (Branch(from_bus=1, to_bus=99, r=0.0, x=0.1),)
    )
    report = validate_network(bad)
    assert any("99" in entry and "exist" in entry for entry in report)


def test_validate_reports_zero_impedance_and_bad_tap():
    net = two_bus_toy()
    bad = dataclasses.replace(
        net,
        branches=net.branches + (
            Branch(from_bus=1, to_bus=2, r=0.0, x=0.0),
            Branch(from_bus=1, to_bus=2, r=0.0, x=0.1, tap=-1.0),
        ),
    )
    report = validate_network(bad)
    assert any("zero impedance" in entry for entry in report)
    assert any("tap" in entry for entry in report)


def test_validate_reports_every_non_finite_field(case9):
    nan, inf = float("nan"), float("inf")
    bad = dataclasses.replace(
        case9, base_mva=inf,
        buses=tuple(dataclasses.replace(b, q_load=nan, v_max=inf) if b.id == 9
                    else b for b in case9.buses),
        branches=(dataclasses.replace(case9.branches[0], tap=nan, shift=-inf),)
        + case9.branches[1:],
        generators=(dataclasses.replace(case9.generators[0], p_gen=nan),)
        + case9.generators[1:])
    assert validate_network(bad) == [
        "base_mva must be finite, got inf",
        "bus 9: q_load nan is not finite",
        "bus 9: v_max inf is not finite",
        "branch 0 (1-4): tap nan is not finite",
        "branch 0 (1-4): shift -inf is not finite",
        "generator at bus 1: p_gen nan is not finite",
    ]
    # finite fields whose sum overflows are not reported
    huge = dataclasses.replace(case9, buses=tuple(
        dataclasses.replace(b, p_load=1e308, q_load=1e308) for b in case9.buses))
    assert validate_network(huge) == []


def test_validate_rejects_island(case9):
    # Dropping the only branch into bus 9 (8-9 and 9-4) islands it.
    branches = tuple(
        dataclasses.replace(br, in_service=False)
        if 9 in (br.from_bus, br.to_bus) else br
        for br in case9.branches
    )
    report = validate_network(dataclasses.replace(case9, branches=branches))
    assert any("not connected" in entry for entry in report)


def test_validate_generator_bus_kind_mismatch():
    net = two_bus_toy()
    bad = dataclasses.replace(
        net, generators=net.generators + (Generator(bus=2, p_gen=5.0),)
    )
    report = validate_network(bad)
    assert any("pq" in entry for entry in report)


def test_partition_case9(case9):
    part = partition_buses(case9)
    int_to_ext = part.int_to_ext
    assert [int_to_ext[i] for i in part.pv_idx] == [1, 2, 3]
    assert [int_to_ext[i] for i in part.pq_idx] == [4, 5, 6, 7, 8, 9]
    assert int_to_ext[part.slack_idx] == 1


def test_int_to_ext_is_built_once_and_inverts_ext_to_int(case30):
    part = partition_buses(case30)
    assert part.int_to_ext is part.int_to_ext
    assert {e: i for i, e in part.int_to_ext.items()} == part.ext_to_int
    assert sorted(part.int_to_ext) == list(range(case30.n_bus))


def test_partition_case14(case14):
    part = partition_buses(case14)
    int_to_ext = part.int_to_ext
    assert [int_to_ext[i] for i in part.pv_idx] == [1, 2, 3, 6, 8]
    assert [int_to_ext[i] for i in part.pq_idx] == [4, 5, 7, 9, 10, 11, 12, 13, 14]


def test_partition_case30(case30):
    part = partition_buses(case30)
    int_to_ext = part.int_to_ext
    assert [int_to_ext[i] for i in part.pv_idx] == [1, 2, 13, 22, 23, 27]
    assert len(part.pq_idx) == 24


def test_partition_two_bus_toy():
    part = partition_buses(two_bus_toy())
    assert part.pv_idx == (0,)
    assert part.pq_idx == (1,)


def test_partition_covers_all_buses(all_cases):
    for net in all_cases.values():
        part = partition_buses(net)
        assert len(part.pv_idx) + len(part.pq_idx) == net.n_bus
        assert partition_buses(net) == partition_buses(net)


def test_partition_rejects_invalid_network():
    net = two_bus_toy()
    headless = dataclasses.replace(net, generators=())
    with pytest.raises(NetworkError):
        partition_buses(headless)


def test_apply_disturbance_case9(case9):
    disturbed = apply_disturbance(case9, 9, 70.0)
    assert disturbed.bus(9).q_load == case9.bus(9).q_load + 70.0
    # everything else untouched
    for before, after in zip(case9.buses, disturbed.buses):
        if before.id != 9:
            assert before == after
    assert case9.bus(9).q_load == 50.0  # input not mutated


def test_apply_disturbance_capacitive(case14):
    disturbed = apply_disturbance(case14, 10, -46.4)
    assert disturbed.bus(10).q_load == pytest.approx(5.8 - 46.4)


def test_apply_disturbance_zero_is_identity(case9):
    assert apply_disturbance(case9, 4, 0.0) == case9


def test_apply_disturbance_unknown_bus(case9):
    with pytest.raises(NetworkError):
        apply_disturbance(case9, 99, 10.0)


@given(bus=st.sampled_from([4, 5, 6, 7, 8, 9]),
       dq=st.integers(min_value=-200, max_value=200).map(float))
def test_disturbance_roundtrip_restores_network(bus, dq):
    net = two_bus_toy(q_load_mvar=30.0)
    net = dataclasses.replace(
        net,
        buses=net.buses + tuple(
            Bus(id=i, kind=BusKind.PQ, q_load=10.0) for i in (4, 5, 6, 7, 8, 9)
        ),
        branches=net.branches + tuple(
            Branch(from_bus=2, to_bus=i, r=0.01, x=0.1) for i in (4, 5, 6, 7, 8, 9)
        ),
    )
    assert apply_disturbance(apply_disturbance(net, bus, dq), bus, -dq) == net


def test_set_flat_setpoints_case9(case9):
    flat = set_flat_setpoints(case9, 1.0)
    for bus_id in (1, 2, 3):
        assert flat.bus(bus_id).v_setpoint == 1.0
    for gen in flat.generators:
        assert gen.v_setpoint == 1.0


def test_set_flat_setpoints_case30(case30):
    flat = set_flat_setpoints(case30, 1.0)
    for bus_id in (1, 2, 13, 22, 23, 27):
        assert flat.bus(bus_id).v_setpoint == 1.0


def test_set_flat_setpoints_roundtrip(case14):
    value = 1.02
    flat = set_flat_setpoints(case14, value)
    for bus in flat.buses:
        if bus.kind in (BusKind.SLACK, BusKind.PV):
            assert bus.v_setpoint == value


def test_set_flat_setpoints_rejects_out_of_range(case9):
    with pytest.raises(ValueError):
        set_flat_setpoints(case9, 2.5)
    with pytest.raises(ValueError):
        set_flat_setpoints(case9, 0.0)


def test_partition_disjoint_invariant_enforced():
    with pytest.raises(NetworkError):
        netmodel.BusPartition(slack_idx=0, pv_idx=(0, 1), pq_idx=(1, 2),
                              ext_to_int={1: 0, 2: 1, 3: 2})


def test_network_types_are_immutable(case9):
    with pytest.raises(dataclasses.FrozenInstanceError):
        case9.buses[0].v_setpoint = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        case9.base_mva = 50.0


def _warm(net):
    """``net`` with its family memo filled by a control model build."""
    build_model(net)
    assert net._memo
    return net


def test_disturbance_and_setpoints_keep_the_family_memo(case9):
    base = _warm(cold(case9))
    derived = netmodel.apply_disturbance(
        netmodel.set_flat_setpoints(base, 1.02), 5, 10.0)
    assert derived._memo is base._memo


def test_other_constructions_start_an_empty_memo(case9):
    base = _warm(cold(case9))
    rebuilt = Network(base.base_mva, base.buses, base.branches, base.generators)
    for other in (dataclasses.replace(base), rebuilt):
        assert other == base and other._memo == {}
        assert other._memo is not base._memo


def test_pickle_and_deepcopy_leave_the_memo_behind(case9):
    import copy
    import pickle

    base = _warm(cold(case9))
    assert b"a_ctrl" not in pickle.dumps(base)
    for other in (pickle.loads(pickle.dumps(base)), copy.deepcopy(base)):
        assert other == base and other._memo == {}
        assert hash(other) == hash(base)
    assert base._memo


def _with_setpoint(net, bus_id, v):
    return dataclasses.replace(net, buses=tuple(
        dataclasses.replace(b, v_setpoint=v) if b.id == bus_id else b
        for b in net.buses))


@given(v=st.floats(allow_nan=True, allow_infinity=True),
       bus=st.sampled_from([4, 5, 6, 7, 8, 9]),
       dq=st.one_of(st.floats(-300, 300), st.sampled_from(
           [float("nan"), float("inf"), -float("inf")])))
def test_member_report_equals_the_full_walk(case9, v, bus, dq):
    # once a flat member has passed in full, the family is checked member
    # by member; each report must still be the one a cold network gets
    root = _with_setpoint(cold(case9), 2, v)
    validate_network(root)
    flat = set_flat_setpoints(root, 1.0)
    assert validate_network(flat) == []
    assert flat._memo["valid"]
    for net in (root, flat, apply_disturbance(root, bus, dq),
                apply_disturbance(flat, bus, dq)):
        assert validate_network(net) == validate_network(cold(net))


def test_structure_is_walked_once_per_valid_family(case9, monkeypatch):
    calls = []
    original = netmodel._connected
    monkeypatch.setattr(netmodel, "_connected",
                        lambda net: calls.append(net) or original(net))
    base = cold(case9)
    assert validate_network(base) == []
    assert validate_network(apply_disturbance(base, 5, 40.0)) == []
    assert len(calls) == 1
    # an invalid structure is walked in full on every call
    islanded = dataclasses.replace(base, branches=tuple(
        dataclasses.replace(br, in_service=False)
        if 9 in (br.from_bus, br.to_bus) else br for br in base.branches))
    for net in (islanded, apply_disturbance(islanded, 5, 40.0)):
        assert validate_network(net) == [
            "network is not connected over in-service branches"]
    assert len(calls) == 3
    assert "valid" not in islanded._memo


def test_partition_is_kept_for_the_family(case9):
    base = cold(case9)
    part = partition_buses(base)
    derived = apply_disturbance(set_flat_setpoints(base, 1.02), 5, 10.0)
    assert partition_buses(derived) is part
    assert partition_buses(cold(derived)) == part
