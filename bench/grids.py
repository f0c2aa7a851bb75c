"""Synthetic grids tiled from a bundled case.

K copies of a base case are chained together with seeded tie-lines between
load (PQ) buses, in the spirit of the ACTIVSg synthetic grids (Birchfield
et al., "Grid structural characteristics as validation criteria for
synthetic networks", IEEE TPWRS 2017): every tile keeps the base case's
realistic B'' structure, and the ties give the whole a long, sparse,
chain-like topology.

Tile 0 keeps the base slack bus. In every other tile the slack bus becomes
a PV bus whose generator produces the base case's solved slack output, so
each tile balances its own load and the ties carry little flow however long
the chain; without it, tile 0's slack would feed every other tile through
the chain.
"""

from __future__ import annotations

import random
from dataclasses import replace

TIES_PER_JOIN = 2


def slack_output_mw(gv, net) -> float:
    """Active output (MW) of the slack generator in the solved base case."""
    np = gv.np
    sol = gv.powerflow.solve_newton(net)
    y = gv.powerflow.build_ybus(net).complex()
    v = sol.vm * np.exp(1j * sol.va)
    s = v * np.conj(y @ v)
    slack = next(b for b in net.buses if b.kind is gv.netmodel.BusKind.SLACK)
    i = sol.index_of(slack.id)
    return float(s[i].real) * net.base_mva + slack.p_load


def stride(base) -> int:
    """Bus ``b`` of tile ``i`` gets id ``i * stride(base) + b``."""
    return max(b.id for b in base.buses)


def tile(gv, base, k: int, seed: int, slack_mw: float):
    """K copies of ``base`` joined into one chain; deterministic in
    (base, k, seed).

    Bus ``b`` of tile ``i`` gets id ``i * stride(base) + b``. Neighbouring tiles
    are joined by ``TIES_PER_JOIN`` tie-lines between PQ buses drawn from
    ``random.Random`` seeded by (k, seed), with impedances drawn from the
    range of the base case's own lines.
    """
    if k < 1:
        raise ValueError(f"need at least one tile, got {k}")
    nm = gv.netmodel
    rng = random.Random(f"tile:{k}:{seed}")
    step = stride(base)
    slack_id = next(b.id for b in base.buses if b.kind is nm.BusKind.SLACK)
    pq_ids = [b.id for b in base.buses if b.kind is nm.BusKind.PQ]

    buses, branches, gens = [], [], []
    for i in range(k):
        off = i * step
        for b in base.buses:
            kind = nm.BusKind.PV if (i and b.kind is nm.BusKind.SLACK) else b.kind
            buses.append(replace(b, id=b.id + off, kind=kind))
        for br in base.branches:
            branches.append(replace(br, from_bus=br.from_bus + off,
                                    to_bus=br.to_bus + off))
        for g in base.generators:
            p_gen = slack_mw if (i and g.bus == slack_id) else g.p_gen
            gens.append(replace(g, bus=g.bus + off, p_gen=p_gen))
        if i:
            for _ in range(TIES_PER_JOIN):
                a = rng.choice(pq_ids) + off - step
                b = rng.choice(pq_ids) + off
                branches.append(nm.Branch(
                    from_bus=a, to_bus=b,
                    r=round(rng.uniform(0.01, 0.06), 4),
                    x=round(rng.uniform(0.05, 0.20), 4),
                    b_charging=round(rng.uniform(0.0, 0.04), 4)))
    return nm.Network(base_mva=base.base_mva, buses=tuple(buses),
                      branches=tuple(branches), generators=tuple(gens))
