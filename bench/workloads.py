"""The three benchmark workloads.

Each workload is closed-loop with one client: the next operation starts
when the previous one has returned. A workload

* ``prepare(gv, seed)`` - the one-time library calls before the first
  timed operation (counted in ``setup_s``);
* ``make_op(state, i)`` - draws operation ``i`` from the seed, outside
  the timed region; the sequence of operations depends on the seed only;
* ``run(state, op)`` - the timed public calls;
* ``check(state, op, out)`` - an independent check of the output, outside
  the timed region; returns an error message or ``None``;
* ``digest(op, out)`` - the bytes hashed into the output digest;
* ``observe(state, op, out)`` - ``(resolved, j_ratio)``: whether a control
  run ended RESOLVED (``None`` for other operations) and the achieved
  OVC/SVC performance-index ratio (``None`` where there is none).

A workload may also keep a ``"diverged"`` list in its state: operations
that ended in a defined divergence outcome, which the report lists.

``gv`` is a namespace holding numpy and the gridvolt modules, re-imported
for every set-up.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace

import grids

CANARY_ARGS = dict(case_path="case9", method="ovc", disturbances=((9, 70.0),),
                   flat_setpoints=1.0, output="csv")
RECHECK_FACTOR = 10.0   # oracle residual allowed, in solver tolerances


# ---------------------------------------------------------------------------
# Shared checks


def canary(gv) -> str | None:
    """The paper's 9-bus study through the CLI: +70 MVAr at bus 9 from flat
    1.0 pu set-points sinks bus 9 to 0.885 pu; one OVC iteration lifts it
    to 0.993 pu."""
    res = gv.cli.run(gv.cli.RunSpec(**CANARY_ARGS))
    if res.exit_code != 0:
        return f"canary exit {res.exit_code}: {res.error.strip()}"
    at_bus9 = {int(it): float(v) for it, bus, v, _ in
               (line.split(",") for line in res.output.splitlines()[1:])
               if bus == "9"}
    got = [round(at_bus9[k], 3) for k in sorted(at_bus9)]
    if got != [0.885, 0.993]:
        return f"canary bus 9 went {got}, expected [0.885, 0.993]"
    return None


def recheck_resolved(gv, net, setpoints: dict, cfg, vm_claimed: dict,
                     vm_tol: float) -> str | None:
    """Independent re-check of a power-flow RESOLVED result.

    Re-solves the network at the final set-points, requires every PQ
    magnitude inside the band (and the claimed final voltages to match to
    ``vm_tol``), and requires the scalar branch-walk oracle
    ``powerflow.bus_mismatch`` to agree within ``RECHECK_FACTOR`` solver
    tolerances.
    """
    nm, pf = gv.netmodel, gv.powerflow
    buses = tuple(replace(b, v_setpoint=setpoints[b.id]) if b.id in setpoints
                  else b for b in net.buses)
    gens = tuple(replace(g, v_setpoint=setpoints[g.bus]) if g.bus in setpoints
                 else g for g in net.generators)
    net = replace(net, buses=buses, generators=gens)
    try:
        sol = pf.solve_newton(net, tol=cfg.pf_tolerance)
    except pf.PowerFlowError as exc:
        return f"re-solve at the final set-points failed: {exc}"
    kinds = {b.id: b.kind for b in net.buses}
    for i, bus_id in enumerate(sol.ids):
        v = float(sol.vm[i])
        if kinds[bus_id] is nm.BusKind.PQ and not (
                cfg.v_min - vm_tol <= v <= cfg.v_max + vm_tol):
            return f"bus {bus_id} at {v:.6f} pu is outside the band"
        if bus_id in vm_claimed and abs(vm_claimed[bus_id] - v) > vm_tol:
            return (f"bus {bus_id}: claimed {vm_claimed[bus_id]:.8f} pu, "
                    f"re-solved {v:.8f} pu")
    return oracle_residual(gv, net, sol.vm, sol.va, RECHECK_FACTOR * cfg.pf_tolerance)


def oracle_residual(gv, net, vm, va, tol: float) -> str | None:
    """Scheduled-minus-injected power from the branch-walk oracle must be
    within ``tol`` at every non-slack bus (P) and every PQ bus (Q)."""
    dp, dq = gv.powerflow.bus_mismatch(net, vm, va)
    order = gv.netmodel.bus_order(net)
    kind = gv.netmodel.BusKind
    worst = 0.0
    for b in net.buses:
        i = order[b.id]
        if b.kind is not kind.SLACK:
            worst = max(worst, abs(float(dp[i])))
        if b.kind is kind.PQ:
            worst = max(worst, abs(float(dq[i])))
    if not worst <= tol:
        return f"oracle mismatch {worst:.3e} pu above {tol:.1e} pu"
    return None


def _g(x: float) -> str:
    return format(float(x), ".10g")


# ---------------------------------------------------------------------------
# cli-bundled


CLI_CASES = ("case9", "case14", "case30")
CLI_METHODS = ("ovc", "svc", "compare", "solve", "sens")
CLI_OUTPUTS = ("table", "csv", "json")
CLI_MVAR = (20.0, 260.0)  # reaches the +250 MVAr Newton blow-up on purpose
# Tolerances for values read back from each rendering (table prints 4
# decimals, csv 10 significant digits, json full precision).
VM_TOL = {"table": 1e-4, "csv": 1e-8, "json": 1e-8}
ORACLE_TOL = {"table": 2e-2, "csv": 1e-6, "json": 1e-7}
OUTCOME_EXIT = {"resolved": 0, "iteration_cap_hit": 2, "oscillating": 2,
                "infeasible": 3}


class CliBundled:
    name = "cli-bundled"

    def prepare(self, gv, seed):
        cases = {name: gv.caseio.parse_case(gv.caseio.CaseSource.from_path(
            gv.caseio.bundled_case_path(name))) for name in CLI_CASES}
        return {"gv": gv, "cases": cases,
                "pq": {n: [b.id for b in net.buses
                           if b.kind is gv.netmodel.BusKind.PQ]
                       for n, net in cases.items()},
                "rng": random.Random(f"cli-bundled:{seed}")}

    def make_op(self, state, i):
        gv, rng = state["gv"], state["rng"]
        case = CLI_CASES[i % 3]
        method = CLI_METHODS[(i // 3) % 5]
        output = CLI_OUTPUTS[(i // 15) % 3]
        bus = rng.choice(state["pq"][case])
        dq = round(rng.choice((1, -1)) * rng.uniform(*CLI_MVAR), 1)
        flat = rng.choice((None, 1.0))
        return gv.cli.RunSpec(case_path=case, method=method,
                              disturbances=((bus, dq),), flat_setpoints=flat,
                              output=output)

    def run(self, state, spec):
        return state["gv"].cli.run(spec)

    def digest(self, spec, res):
        return f"{res.exit_code}\n{res.output}\n{res.error}".encode()

    def _network(self, state, spec):
        nm = state["gv"].netmodel
        net = state["cases"][spec.case_path]
        if spec.flat_setpoints is not None:
            net = nm.set_flat_setpoints(net, spec.flat_setpoints)
        for bus, dq in spec.disturbances:
            net = nm.apply_disturbance(net, bus, dq)
        return net

    def check(self, state, spec, res):
        gv = state["gv"]
        if res.exit_code not in (0, 1, 2, 3):
            return f"undefined exit code {res.exit_code}"
        if not res.output:
            if res.exit_code == 0 or not res.error.startswith("error: "):
                return "no output and no error message"
            return None
        if spec.method == "sens":
            return self._check_sens(gv, res.output)
        if spec.method == "solve":
            vm, va = _parse_solution(res.output, spec.output)
            net = self._network(state, spec)
            order = gv.netmodel.bus_order(net)
            np = gv.np
            vm_arr, va_arr = np.zeros(len(order)), np.zeros(len(order))
            for bus_id, i in order.items():
                vm_arr[i], va_arr[i] = vm[bus_id], math.radians(va[bus_id])
            return oracle_residual(gv, net, vm_arr, va_arr, ORACLE_TOL[spec.output])
        if spec.method == "compare":
            j_ovc, j_svc = _parse_comparison(res.output, spec.output)
            if not (j_ovc >= 0 and j_svc >= 0 and math.isfinite(j_ovc + j_svc)):
                return f"bad performance indices {j_ovc}, {j_svc}"
            return None
        outcome, final = _parse_trace(res.output, spec.output)
        if outcome is None:  # the csv carries no outcome; the exit code does
            outcome = "resolved" if res.exit_code == 0 else None
        elif OUTCOME_EXIT.get(outcome) != res.exit_code:
            return f"outcome {outcome!r} with exit code {res.exit_code}"
        if outcome != "resolved":
            return None
        net = self._network(state, spec)
        ctrl = {b.id for b in net.buses
                if b.kind is not gv.netmodel.BusKind.PQ}
        setpoints = ({b: final[b] for b in ctrl} if final
                     else {b.id: b.v_setpoint for b in net.buses if b.id in ctrl})
        return recheck_resolved(gv, net, setpoints, spec.config, final,
                                VM_TOL[spec.output])

    def _check_sens(self, gv, text):
        np = gv.np
        rows = [line.split(",") for line in text.splitlines()[1:]]
        s = {(int(r), int(c)): float(v) for m, r, c, v in rows if m == "s_vq"}
        a = {(int(r), int(c)): float(v) for m, r, c, v in rows if m == "a_ctrl"}
        ids = sorted({r for r, _ in s})
        pq = sorted({r for r, _ in a})
        pv = [i for i in ids if i not in pq]
        S = np.array([[s[r, c] for c in ids] for r in ids])
        scale = float(np.max(np.abs(S)))
        if float(np.max(np.abs(S - S.T))) > 1e-8 * scale:
            return "s_vq is not symmetric"
        s11 = np.array([[s[r, c] for c in pv] for r in pv])
        s21 = np.array([[s[r, c] for c in pv] for r in pq])
        A = np.array([[a[r, c] for c in pv] for r in pq])
        if float(np.max(np.abs(A @ s11 - s21))) > 1e-7 * scale:
            return "a_ctrl @ s11 differs from s21"
        return None

    def observe(self, state, spec, res):
        resolved = res.exit_code == 0 if spec.method in ("ovc", "svc") else None
        ratio = None
        if spec.method == "compare" and res.exit_code == 0 and spec.output != "table":
            j_ovc, j_svc = _parse_comparison(res.output, spec.output)
            if j_ovc > 0 and j_svc > 0:
                ratio = j_ovc / j_svc
        return resolved, ratio


def _parse_solution(text, fmt):
    if fmt == "json":
        doc = json.loads(text)
        return ({b["bus"]: b["vm_pu"] for b in doc["buses"]},
                {b["bus"]: b["va_deg"] for b in doc["buses"]})
    if fmt == "csv":
        rows = [line.split(",") for line in text.splitlines()[1:]]
        return ({int(r[0]): float(r[2]) for r in rows},
                {int(r[0]): float(r[3]) for r in rows})
    rows = [line.split() for line in text.splitlines()[3:] if line.strip()]
    return ({int(r[0]): float(r[2]) for r in rows},
            {int(r[0]): float(r[3]) for r in rows})


def _parse_comparison(text, fmt):
    if fmt == "json":
        doc = json.loads(text)
        return doc["j_ovc_pu2"], doc["j_svc_pu2"]
    if fmt == "csv":
        rows = [line.split(",") for line in text.splitlines()[1:]]
        return float(rows[0][2]), float(rows[1][2])
    lines = text.splitlines()
    return float(lines[3].split()[1]), float(lines[4].split()[1])


def _parse_trace(text, fmt):
    """Outcome and final bus voltages (empty when json shows no iteration)
    from a rendered control trace."""
    if fmt == "json":
        doc = json.loads(text)
        its = doc["iterations"]
        final = {int(k): v for k, v in its[-1]["vm_after"].items()} if its else {}
        return doc["outcome"], final
    if fmt == "csv":
        rows = [line.split(",") for line in text.splitlines()[1:]]
        last = max(int(r[0]) for r in rows)
        final = {int(r[1]): float(r[2]) for r in rows if int(r[0]) == last}
        return None, final
    lines = text.splitlines()
    outcome = next(l for l in lines if l.startswith("Outcome: ")).split()[1]
    final = {}
    for line in lines[1:]:
        if not line.strip():
            break
        cols = line.split()
        final[int(cols[0])] = float(cols[-1])
    return outcome, final


# ---------------------------------------------------------------------------
# loop-tiled


LOOP_TILES = 2                  # case30 tiled: 60 buses
# Tile seeds of the grid variants, fixed for every run (see the README).
# Their number is odd, so that cycling through them operation by operation
# mixes evenly with the other cycles (period 16).
LOOP_GRID_SEEDS = tuple(range(7))
LOOP_MVAR = (20.0, 90.0)
LOOP_MVAR_WIDE = (40.0, 120.0)  # the default band needs more to be left
DRAWS_PER_CLASS = 8
TIGHT_BAND = (0.97, 1.03)


@dataclass
class LoopOp:
    index: int
    method: str
    net: object
    cfg: object


@dataclass
class Diverged:
    """A control run whose power-flow re-solve after a set-point move
    diverged. ``ovc_run``/``svc_run`` raise ``PowerFlowDivergedError``
    for it; ``cli.run`` reports the same run as exit 2, a defined outcome,
    so it is one here too (see the README's known defects)."""
    message: str


class LoopTiled:
    name = "loop-tiled"

    def prepare(self, gv, seed):
        base = gv.caseio.parse_case(gv.caseio.CaseSource.from_path(
            gv.caseio.bundled_case_path("case30")))
        slack_mw = grids.slack_output_mw(gv, base)
        nets = []
        for grid_seed in LOOP_GRID_SEEDS:
            net = grids.tile(gv, base, LOOP_TILES, grid_seed, slack_mw)
            problems = gv.netmodel.validate_network(net)
            if problems:
                raise RuntimeError(f"tiled grid {grid_seed} is invalid: {problems}")
            nets.append(net)
        return {"gv": gv, "nets": nets, "rng": random.Random(f"loop-tiled:{seed}"),
                "base_pq": [b.id for b in base.buses
                            if b.kind is gv.netmodel.BusKind.PQ],
                "stride": grids.stride(base),
                "classes": [], "rejected": 0, "diverged": []}

    def make_op(self, state, i):
        """Operation ``i`` runs ``ovc_run`` or ``svc_run`` on scenario ``i``.

        Every fourth operation uses the default band, the others the tight
        band; then the method and the number of disturbances (one or two)
        cycle, and the grid variant changes every operation. The first
        disturbance takes the next (load bus of the base case, sign) class
        from a seeded shuffle that deals every class once before any
        repeats, so each run disturbs every bus position alike; in the
        default band it is always inductive, since a capacitive one of this
        size never lifts a bus above 1.1 pu. The tile it lands in, its size
        and any second disturbance are drawn from the seed. A draw is kept only if the disturbed grid has a
        power-flow solution with a load bus outside the band, i.e. if there
        is something to control; a class with no such draw in
        ``DRAWS_PER_CLASS`` tries is passed over.
        """
        gv, rng = state["gv"], state["rng"]
        wide = i % 4 == 0
        cfg = (gv.controller.ControlConfig() if wide else
               gv.controller.ControlConfig(v_min=TIGHT_BAND[0], v_max=TIGHT_BAND[1]))
        method = ("ovc", "svc")[(i // 4) % 2]
        n_dist = 1 + (i // 8) % 2
        grid = state["nets"][i % len(LOOP_GRID_SEEDS)]
        mvar = LOOP_MVAR_WIDE if wide else LOOP_MVAR
        pq = [b.id for b in grid.buses if b.kind is gv.netmodel.BusKind.PQ]
        part = gv.netmodel.partition_buses(grid)
        for _ in range(4 * len(state["base_pq"])):
            if not state["classes"]:
                state["classes"] = [(b, s) for b in state["base_pq"] for s in (1, -1)]
                rng.shuffle(state["classes"])
            bus, sign = state["classes"].pop()
            sign = 1 if wide else sign
            for _ in range(DRAWS_PER_CLASS):
                dist = ((bus + state["stride"] * rng.randrange(LOOP_TILES),
                         round(sign * rng.uniform(*mvar), 1)),)
                dist += tuple((rng.choice(pq),
                               round(rng.choice((1, -1)) * rng.uniform(*mvar), 1))
                              for _ in range(n_dist - 1))
                net = grid
                for b, dq in dist:
                    net = gv.netmodel.apply_disturbance(net, b, dq)
                try:
                    sol = gv.powerflow.solve_newton(net, tol=cfg.pf_tolerance)
                except (gv.powerflow.PowerFlowError, ValueError):
                    state["rejected"] += 1
                    continue
                if gv.controller.find_critical_buses(sol, cfg, part):
                    return LoopOp(i, method, net, cfg)
                state["rejected"] += 1
        raise RuntimeError("no controllable scenario in two passes over the classes")

    def run(self, state, op):
        gv = state["gv"]
        runner = gv.controller.ovc_run if op.method == "ovc" else gv.controller.svc_run
        try:
            trace = runner(op.net, op.cfg)
        except gv.powerflow.PowerFlowDivergedError as exc:
            return Diverged(str(exc)), ""
        return trace, gv.caseio.write_trace_csv(trace)

    def digest(self, op, out):
        trace, csv = out
        if isinstance(trace, Diverged):
            return f"diverged\n{trace.message}".encode()
        return f"{trace.outcome.value}\n{_g(trace.j_achieved_total)}\n{csv}".encode()

    def check(self, state, op, out):
        gv = state["gv"]
        trace, _ = out
        if isinstance(trace, Diverged):
            # make_op solved this grid before the loop, so the divergence
            # came from a re-solve inside it
            state["diverged"].append((op.index, trace.message))
            return None
        if len(trace.iterations) > op.cfg.max_iterations:
            return f"{len(trace.iterations)} iterations above the cap"
        if not (trace.j_achieved_total >= 0 and math.isfinite(trace.j_achieved_total)):
            return f"bad performance index {trace.j_achieved_total}"
        if trace.outcome is not gv.controller.Outcome.RESOLVED:
            return None
        vm = trace.iterations[-1].vm_after if trace.iterations else trace.initial_solution.vm
        ids = trace.initial_solution.ids
        final = {bus_id: float(vm[i]) for i, bus_id in enumerate(ids)}
        ctrl = {b.id for b in op.net.buses if b.kind is not gv.netmodel.BusKind.PQ}
        return recheck_resolved(gv, op.net, {b: final[b] for b in ctrl}, op.cfg,
                                final, 1e-6)

    def observe(self, state, op, out):
        trace = out[0]
        if isinstance(trace, Diverged):
            return False, None
        return trace.outcome is state["gv"].controller.Outcome.RESOLVED, None


# ---------------------------------------------------------------------------
# decide-tiled


DECIDE_TILES = 8                # case30 tiled: 240 buses
DECIDE_GRID_SEED = 0            # one fixed grid for every run (see the README)
DECIDE_MVAR = (30.0, 150.0)
MAX_DRAWS = 1000


@dataclass
class DecideOp:
    column: int                 # PQ coordinate the disturbance hits
    dq_pu: float                # reactive load added, pu on the system base
    cfg: object


class DecideTiled:
    name = "decide-tiled"

    def prepare(self, gv, seed):
        base = gv.caseio.parse_case(gv.caseio.CaseSource.from_path(
            gv.caseio.bundled_case_path("case30")))
        net = grids.tile(gv, base, DECIDE_TILES, DECIDE_GRID_SEED,
                         grids.slack_output_mw(gv, base))
        sol = gv.powerflow.solve_newton(net)
        model = gv.sensitivity.build_model(net)
        return {"gv": gv, "net": net, "sol": sol, "model": model,
                "pq_idx": gv.np.array(model.partition.pq_idx),
                "rng": random.Random(f"decide-tiled:{seed}"), "rejected": 0}

    def make_op(self, state, i):
        """Alternates the default and the tight band; the disturbed bus,
        sign and size come from the seed. A draw is kept only if some load
        bus ends up outside the band."""
        gv, rng, model = state["gv"], state["rng"], state["model"]
        cfg = (gv.controller.ControlConfig(v_min=TIGHT_BAND[0], v_max=TIGHT_BAND[1])
               if i % 2 else gv.controller.ControlConfig())
        for _ in range(MAX_DRAWS):
            op = DecideOp(rng.randrange(model.n_pq),
                          rng.choice((1, -1)) * rng.uniform(*DECIDE_MVAR)
                          / state["net"].base_mva, cfg)
            vm = _disturbed_vm(state, op)
            pq_vm = vm[state["pq_idx"]]
            if ((pq_vm < cfg.v_min) | (pq_vm > cfg.v_max)).any():
                return op
            state["rejected"] += 1
        raise RuntimeError(f"no disturbance in {MAX_DRAWS} draws leaves the band")

    def run(self, state, op):
        gv, model = state["gv"], state["model"]
        ctl = gv.controller
        sol = replace(state["sol"], vm=_disturbed_vm(state, op))
        critical = ctl.find_critical_buses(sol, op.cfg, model.partition)
        cb = ctl.select_controlled_bus(critical, op.cfg)
        r_ovc = ctl.ovc_step(model, sol, cb, op.cfg, critical=critical)
        r_svc = ctl.svc_step(model, sol, cb, op.cfg, critical=critical)
        return (sol.vm, critical, cb, r_ovc, r_svc,
                gv.sensitivity.predict_dvpq(model, r_ovc.dv_pv),
                gv.sensitivity.predict_dvpq(model, r_svc.dv_pv))

    def digest(self, op, out):
        _, _, cb, r_ovc, r_svc, p_ovc, p_svc = out
        parts = [str(cb)] + [_g(x) for rec in (r_ovc, r_svc)
                             for x in (rec.sigma1, rec.alpha, *rec.dv_pv)]
        parts += [_g(x) for x in (*p_ovc, *p_svc)]
        return ",".join(parts).encode()

    def check(self, state, op, out):
        """The rank-one closed form: ``sigma1 = ||a_k||`` and ``u1`` is a
        unit vector; each unclamped step lands the controlled bus on
        ``v_ref`` in the linear model; the prediction is ``A dv``."""
        np, model = state["gv"].np, state["model"]
        vm, critical, cb, r_ovc, r_svc, p_ovc, p_svc = out
        part = model.partition
        want_cb = min(critical, key=lambda bv: (abs(bv[1] - op.cfg.v_ref), bv[0]))[0]
        if cb != want_cb:
            return f"controlled bus {cb}, expected {want_cb}"
        k = model.pq_coord(cb)
        a_k = model.a_ctrl[k]
        norm = float(np.linalg.norm(a_k))
        if abs(r_ovc.sigma1 - norm) > 1e-9 * norm:
            return f"sigma1 {r_ovc.sigma1!r} differs from ||a_k|| {norm!r}"
        if abs(float(np.linalg.norm(r_ovc.u1)) - 1.0) > 1e-10:
            return "u1 is not a unit vector"
        v_cb = float(vm[part.ext_to_int[cb]])
        for rec in (r_ovc, r_svc):
            landed = v_cb + float(a_k @ (rec.alpha * rec.u1))
            if abs(landed - op.cfg.v_ref) > 1e-9:
                return f"{rec.controlled_bus}: unclamped step lands at {landed!r}"
        for rec, pred in ((r_ovc, p_ovc), (r_svc, p_svc)):
            if float(np.max(np.abs(pred - model.a_ctrl @ rec.dv_pv))) > 1e-12:
                return "predict_dvpq differs from a_ctrl @ dv_pv"
        return None

    def observe(self, state, op, out):
        """No control run; the J ratio of the decision: the squared
        controlled-bus move each clamped step achieves in the linear model,
        OVC over SVC."""
        _, _, cb, _, _, p_ovc, p_svc = out
        k = state["model"].pq_coord(cb)
        if p_ovc[k] == 0 or p_svc[k] == 0:
            return None, None
        return None, float(p_ovc[k] ** 2 / p_svc[k] ** 2)


def _disturbed_vm(state, op):
    """Voltages after ``op``'s reactive load, through the disturbance gain
    (an added load is a negative injection)."""
    vm = state["sol"].vm.copy()
    vm[state["pq_idx"]] -= state["model"].d_gain[:, op.column] * op.dq_pu
    return vm
