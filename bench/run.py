"""gridvolt benchmark: three closed-loop workloads, end to end and per layer.

    python3 bench/run.py --workload cli-bundled --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

Runs from the root of a source checkout and imports gridvolt from its
``src`` directory. With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics, from spans the
benchmark records around gridvolt's public functions. Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The full
result, with the machine description and (traced) the spans, is written
to ``bench/out/<workload>-trace<0|1>.json``.

See ``bench/README.md`` for the metrics, the workloads and the baseline.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

# The benchmark's own modules import neither numpy nor gridvolt.
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

# Pinned before numpy is imported: one BLAS / OpenMP thread, so a run does
# not depend on how many cores the machine lends it at the moment.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# setup_s is the median of SETUP_REPEATS set-ups before the timed loop and
# SETUP_SPREAD more at evenly spaced points of it (their results are thrown
# away): the host's speed drifts within a run, and one burst of set-ups at
# the start would catch only the speed of that moment.
SETUP_REPEATS = 3
SETUP_SPREAD = 16
END_TO_END = {"op_ms.p50": "ms", "op_ms.p90": "ms", "ops_per_s": "1/s",
              "setup_s": "s", "peak_rss_mb": "MB"}
MIN_BEYOND_P90 = 10    # samples that must lie beyond a reported p90
DIGEST_OPS = 40         # the digest covers the first operations of the seed
LISTED_FAILURES = 20
# Operations run until --seconds have been spent inside them; drawing and
# checking them costs wall time on top, and a run gives up drawing new
# operations after WALL_FACTOR times --seconds of wall time.
WALL_FACTOR = 3


def timing_summary(seconds: list[float]) -> dict:
    """Median and 90th percentile in ms, the sample count and how many
    samples lie beyond the 90th percentile.

    The percentile is ``statistics.quantiles(..., n=10)[8]`` (the default
    exclusive method). ``p90_ok`` says whether at least ``MIN_BEYOND_P90``
    samples lie beyond it, the condition under which the p90 is worth
    reporting.
    """
    if not seconds:
        raise ValueError("no samples")
    ms = [1e3 * s for s in seconds]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    beyond = sum(1 for v in ms if v > p90)
    return {"p50": statistics.median(ms), "p90": p90, "n": len(ms),
            "beyond_p90": beyond, "p90_ok": beyond >= MIN_BEYOND_P90}


def gmean(values: list[float]) -> float:
    """Geometric mean of positive values; NaN when there are none."""
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def load_gridvolt(np):
    """Import gridvolt afresh (dropping any earlier import) and return a
    namespace of numpy and its modules."""
    for name in [m for m in sys.modules if m == "gridvolt" or m.startswith("gridvolt.")]:
        del sys.modules[name]
    importlib.import_module("gridvolt")
    mods = {m: importlib.import_module(f"gridvolt.{m}") for m in tracing.TRACED_MODULES}
    return SimpleNamespace(np=np, **mods)


def environment(np) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _timed(wl, state, op):
    start = time.perf_counter()
    out = wl.run(state, op)
    return out, time.perf_counter() - start


def _timed_setup(wl, np, seed):
    start = time.perf_counter()
    gv = load_gridvolt(np)
    state = wl.prepare(gv, seed)
    return gv, state, time.perf_counter() - start


def run_workload(wl, np, seed: int, seconds: float, trace: bool) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        gv, state, dt = _timed_setup(wl, np, seed)
        setups.append(dt)

    check_failures = []
    canary_error = workloads.canary(gv)
    if canary_error:
        check_failures.append(("canary", canary_error))

    tracer = None
    if trace:
        tracer = tracing.Tracer({m: getattr(gv, m) for m in tracing.TRACED_MODULES})
        tracer.install()
        try:
            tracer.op = "setup"
            wl.prepare(gv, seed)
            tracer.op = "canary"
            workloads.canary(gv)
        finally:
            tracer.restore()

    op_seconds: list[float] = []
    traced_seconds: list[float] = []
    observed: list[tuple] = []
    raised: list[tuple[int, str]] = []
    failed_ops: set[int] = set()
    digest = hashlib.sha256()
    spent = 0.0   # seconds inside operations: the measured time
    gc.collect()
    wall_limit = time.perf_counter() + WALL_FACTOR * seconds
    i = 0
    while spent < seconds and time.perf_counter() < wall_limit:
        if len(setups) < SETUP_REPEATS + SETUP_SPREAD and (
                spent >= seconds * (len(setups) - SETUP_REPEATS + 1)
                / (SETUP_SPREAD + 1)):
            # operations keep the modules and state of the first set-ups
            setups.append(_timed_setup(wl, np, seed)[2])
        op = wl.make_op(state, i)
        start = time.perf_counter()
        try:
            if tracer is None:
                out, dt = _timed(wl, state, op)
            else:
                # untraced and traced twin, alternating which goes first
                twin = {}
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    if traced:
                        tracer.op = f"op{i}"
                        tracer.install()
                    try:
                        twin[traced] = _timed(wl, state, op)
                    finally:
                        if traced:
                            tracer.restore()
                out, dt = twin[False]
                traced_seconds.append(twin[True][1])
                if wl.digest(op, out) != wl.digest(op, twin[True][0]):
                    check_failures.append((f"op{i}", "traced output differs"))
                    failed_ops.add(i)
        except Exception as exc:  # an operation that raises is a failure
            spent += time.perf_counter() - start
            message = "".join(traceback.format_exception_only(exc)).strip()
            raised.append((i, message))
            failed_ops.add(i)
            if i < DIGEST_OPS:
                digest.update(message.encode() + b"\0")
            i += 1
            continue
        spent += time.perf_counter() - start
        op_seconds.append(dt)
        # checked and summarised now, so no output outlives its operation
        try:
            error = wl.check(state, op, out)
        except Exception as exc:  # output the check cannot even read
            error = f"check raised {exc!r}"
        if error:
            check_failures.append((f"op{i}", error))
            failed_ops.add(i)
        if i < DIGEST_OPS:
            digest.update(wl.digest(op, out) + b"\0")
        observed.append(wl.observe(state, op, out))
        i += 1

    if not op_seconds:
        raise RuntimeError(f"{wl.name}: no operation completed")
    times = timing_summary(op_seconds)
    runs = [res for res, _ in observed if res is not None]
    ratios = [r for _, r in observed if r is not None]
    result = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": i, "failed": len(failed_ops), "spent_s": spent,
        "correct": not check_failures,
        "raised": raised, "check_failures": check_failures,
        "rejected_draws": state.get("rejected", 0),
        "diverged": state.get("diverged"),
        "digest": {"sha256": digest.hexdigest(), "ops": min(i, DIGEST_OPS)},
        "timing": times,
        "op_ms": [1e3 * t for t in op_seconds],
        "setup_runs_s": setups,
        "resolved": sum(runs), "runs": len(runs),
        "j_ratio_gmean": gmean(ratios), "j_ratio_n": len(ratios),
    }
    if not trace:
        values = {
            "op_ms.p50": times["p50"],
            "op_ms.p90": times["p90"],
            "ops_per_s": len(op_seconds) / spent,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["metrics"] = {name: (values[name], unit)
                             for name, unit in END_TO_END.items()}
    else:
        layers = tracing.layer_metrics(tracer.spans, tracer.counts, len(op_seconds))
        traced_p50 = timing_summary(traced_seconds)["p50"]
        layers["trace.overhead_frac"] = traced_p50 / times["p50"] - 1.0
        result["metrics"] = {name: (value, tracing.layer_unit(name))
                             for name, value in layers.items()}
        by_fn, by_mod = tracing.self_shares(tracer.spans)
        result["self_share_by_function"] = dict(
            sorted(by_fn.items(), key=lambda kv: -kv[1]))
        result["self_share_by_module"] = dict(
            sorted(by_mod.items(), key=lambda kv: -kv[1]))
        result["outcomes"] = tracer.counts.outcomes
        result["spans"] = [list(sp) for sp in tracer.spans]
    return result


def report(result: dict, env: dict) -> list[str]:
    """Human-readable lines: every metric with its unit and its base."""
    r = result
    lines = [f"# {r['workload']} seed={r['seed']} seconds={r['seconds']} "
             f"trace={int(r['trace'])}"]
    frac = r["failed"] / r["attempted"] if r["attempted"] else float("nan")
    lines.append(f"failed_frac = {frac:.4g} ratio ({r['failed']} failed / "
                 f"{r['attempted']} attempted)")
    t = r["timing"]
    for name, (value, unit) in r["metrics"].items():
        extra = ""
        if name == "op_ms.p90":
            extra = (f" (n={t['n']}, {t['beyond_p90']} beyond"
                     f"{'' if t['p90_ok'] else '; fewer than 10: p90 is unreliable'})")
        lines.append(f"{name} = {value:.6g} {unit}{extra}")
    if r["runs"]:
        lines.append(f"resolved_frac = {r['resolved'] / r['runs']:.4g} ratio "
                     f"({r['resolved']} resolved / {r['runs']} control runs)")
    if r["j_ratio_n"]:
        lines.append(f"j_ratio.gmean = {r['j_ratio_gmean']:.4g} ratio "
                     f"(over {r['j_ratio_n']} OVC/SVC pairs)")
    if "self_share_by_module" in r:
        top = list(r["self_share_by_function"].items())[:6]
        lines.append("self-time share by function: " +
                     ", ".join(f"{k} {v:.1%}" for k, v in top))
        lines.append("self-time share by module: " + ", ".join(
            f"{k} {v:.1%}" for k, v in r["self_share_by_module"].items()))
    lines.append(f"rejected draws = {r['rejected_draws']} count")
    if r["diverged"] is not None:
        lines.append(f"diverged = {len(r['diverged'])} count (control runs whose "
                     f"re-solve diverged, a defined outcome; not failures)")
        for i, msg in r["diverged"][:LISTED_FAILURES]:
            lines.append(f"diverged: op{i}: {msg}")
    lines.append(f"digest sha256 (first {r['digest']['ops']} ops) = "
                 f"{r['digest']['sha256']}")
    for i, msg in r["raised"][:LISTED_FAILURES]:
        lines.append(f"raised: op{i}: {msg}")
    for who, msg in r["check_failures"][:LISTED_FAILURES]:
        lines.append(f"check failed: {who}: {msg}")
    lines.append("env: " + json.dumps(env, sort_keys=True))
    return lines


def main(argv: list[str] | None = None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["cli-bundled", "loop-tiled", "decide-tiled", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "gridvolt" / "__init__.py").is_file():
        sys.stderr.write(f"error: no gridvolt sources under {SRC_DIR}\n")
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import numpy as np

    chosen = {w.name: w for w in (workloads.CliBundled(), workloads.LoopTiled(),
                                  workloads.DecideTiled())}
    if args.workload != "all":
        chosen = {args.workload: chosen[args.workload]}
    env = environment(np)
    OUT_DIR.mkdir(exist_ok=True)
    results = {}
    for name, wl in chosen.items():
        result = run_workload(wl, np, args.seed, args.seconds, bool(args.trace))
        result["env"] = env
        with open(OUT_DIR / f"{name}-trace{args.trace}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(result, fh)
        print("\n".join(report(result, env)), flush=True)
        results[name] = result

    def metrics(r):
        return {k: {"value": v, "unit": u} for k, (v, u) in r["metrics"].items()}

    rs = list(results.values())
    line = {"correct": all(r["correct"] for r in rs),
            "attempted": sum(r["attempted"] for r in rs),
            "failed": sum(r["failed"] for r in rs)}
    if len(rs) == 1:
        line["metrics"] = metrics(rs[0])
    else:
        line["metrics"] = {f"{r['workload']}/{k}": v
                           for r in rs for k, v in metrics(r).items()}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
