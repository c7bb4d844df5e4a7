#!/usr/bin/env python3
"""Run one timcolor benchmark workload and print its metrics.

    python3 bench/run.py --workload link-flap-convex --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a separate traced run. The
lines before it are informational: run metadata, the unscaled wall-clock
figures, the north-star ratio, the tail, locality counts and the first
failures or cut-off events. Scratch files (CLI state files, spans, result records) go
to ``.bench_work/`` in the checkout. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
CASES = ("I-1", "I-2-1", "I-2-2", "I-3-1", "I-3-2", "D-1", "D-2")

# Timings scaled to the reference task's nominal speed (bench/reference.py).
END_TO_END = {
    "event_ms_p50_norm": "ms",
    "events_per_s_norm": "1/s",
    "static_ms_p50_norm": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

TRACED_LAYERS = (
    "graph.contract_pair", "graph.insert_edge", "graph.delete_edge", "graph.complement",
    "recognition.stays_weakly_chordal", "recognition.find_two_pair", "recognition.is_two_pair",
    "static_coloring.static_color", "static_coloring.lift", "static_coloring.verify_state",
    "dynamic_coloring.insert_update", "dynamic_coloring.delete_update",
    "dynamic_coloring.replay_repair",
    "tim.topology_event_to_conflict_deltas", "tim.emit_schedule",
    "harness.gen_event",
)


def _per_layer_units() -> dict[str, str]:
    units = {"event_ms_p90": "ms"}
    for layer in TRACED_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units["recognition.admission_accept_ratio"] = "ratio"
    units["dynamic_coloring.replays_per_update"] = "ratio"
    for case in CASES:
        units[f"dynamic_coloring.case.{case}.count"] = "count"
        units[f"dynamic_coloring.case.{case}.ms_p50"] = "ms"
    units["dynamic_coloring.order_len_mean"] = "records"
    units["dynamic_coloring.pairs_changed_max"] = "pairs"
    units["dynamic_coloring.recolored_max"] = "msgs"
    units["tim.deltas_per_event"] = "deltas"
    units["machine.ref_ms_p50"] = "ms"
    units["cli.interpreter_s"] = "s"
    units["cli.import_s"] = "s"
    units["cli.main_s"] = "s"
    units["cli_step_ms_p50"] = "ms"
    units["recolored_mean"] = "msgs/event"
    units["over_bound_share"] = "ratio"
    units["failed_share"] = "ratio"
    units["events_over_limit"] = "count"
    return units


PER_LAYER = _per_layer_units()
SETUP_REF_TASKS = 10  # reference tasks timed before and after each set-up probe


def _import_workloads():
    if not (ROOT / "src" / "timcolor" / "__init__.py").is_file():
        sys.exit(f"bench: no timcolor sources under {ROOT / 'src'}; run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import reference
    import workloads

    return workloads, reference


def _pct(values, q: float) -> float:
    """Interpolated q-quantile (0 < q < 1); 0.0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


# ---------------------------------------------------------------------------
# child-process probes
# ---------------------------------------------------------------------------

def setup_seconds(workloads, reference, workload: str, seed: int) -> tuple[float, list[float]]:
    """Median wall time from process start to a workload's first event, and
    the reference task times taken around the probes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    probes, ref_s = [], []
    for _ in range(workloads.PROBES):
        ref_s += [reference.time_task() for _ in range(SETUP_REF_TASKS)]
        probes.append(workloads.time_until_ready(cmd))
    ref_s += [reference.time_task() for _ in range(SETUP_REF_TASKS)]
    return statistics.median(probes), ref_s


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def wall_clock(run, setup_s: float) -> dict[str, float]:
    rates = run.block_rates or [run.attempted / run.stream_s]
    return {
        "event_ms_p50": 1e3 * _pct(run.event_s, 0.5),
        "events_per_s": _pct(rates, 0.5),
        "static_ms_p50": 1e3 * _pct(run.static_s, 0.5),
        "setup_s": setup_s,
    }


def end_to_end(wall: dict[str, float], speed: float, setup_speed: float) -> dict[str, float]:
    """Wall-clock figures scaled by the reference task's speed factors."""
    return {
        "event_ms_p50_norm": wall["event_ms_p50"] * speed,
        "events_per_s_norm": wall["events_per_s"] / speed,
        "static_ms_p50_norm": wall["static_ms_p50"] * speed,
        "setup_s": wall["setup_s"] * setup_speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(run, tracer, cli_probes: dict[str, float]) -> dict[str, float]:
    layers = tracer.by_layer()
    m = {"event_ms_p90": 1e3 * _pct(run.event_s, 0.90)}
    for layer in TRACED_LAYERS:
        calls, self_s = layers.get(layer, (0, 0.0))
        m[f"{layer}.calls"] = calls
        m[f"{layer}.self_s"] = self_s
    admissions = m["recognition.stays_weakly_chordal.calls"]
    m["recognition.admission_accept_ratio"] = (
        tracer.true_count["recognition.stays_weakly_chordal"] / admissions if admissions else 0.0
    )
    updates = m["dynamic_coloring.insert_update.calls"] + m["dynamic_coloring.delete_update.calls"]
    m["dynamic_coloring.replays_per_update"] = (
        m["dynamic_coloring.replay_repair.calls"] / updates if updates else 0.0
    )
    for case in CASES:
        samples = run.case_s.get(case, [])
        m[f"dynamic_coloring.case.{case}.count"] = len(samples)
        m[f"dynamic_coloring.case.{case}.ms_p50"] = 1e3 * _pct(samples, 0.5)
    m["dynamic_coloring.order_len_mean"] = _mean(run.order_len)
    m["dynamic_coloring.pairs_changed_max"] = max(run.pairs_changed, default=0)
    m["dynamic_coloring.recolored_max"] = max(run.recolored, default=0)
    m["tim.deltas_per_event"] = _mean(run.deltas)
    m["machine.ref_ms_p50"] = 1e3 * _pct(run.ref_s, 0.5)
    m.update(cli_probes)
    m.update(quality(run))
    return m


def quality(run) -> dict[str, float]:
    return {
        "recolored_mean": _mean(run.recolored),
        "over_bound_share": run.over_bound / run.updates if run.updates else 0.0,
        "failed_share": run.failed / run.attempted if run.attempted else 0.0,
        "events_over_limit": run.over_limit,
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def metadata(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def north_star(run) -> str:
    ev, st = _pct(run.event_s, 0.5), _pct(run.static_s, 0.5)
    cases = " ".join(
        f"{c}={1e3 * statistics.median(run.case_s[c]):.2f}ms(n={len(run.case_s[c])})"
        for c in CASES if c in run.case_s
    )
    return (f"north-star (informational): event_ms_p50 / static_ms_p50 = {ev / (st or 1):.3f} "
            f"[{1e3 * ev:.2f} ms over {len(run.event_s)} events / {1e3 * st:.2f} ms over "
            f"{len(run.static_s)} graphs]; per-case update p50: {cases}")


def coverage(tracer, run) -> str:
    """How the traced layers' self time adds up to the measured event time."""
    inside = tracer.within("bench.event")
    total = sum(inside.values()) or 1.0
    top = sorted(inside.items(), key=lambda kv: -kv[1])[:8]
    shown = ", ".join(f"{k} {100 * v / total:.1f}%" for k, v in top)
    glue = inside.get("bench.event", 0.0)
    return (f"bench.event spans {total:.3f} s (measured events {sum(run.event_s):.3f} s) = "
            f"sum of self times; benchmark glue {100 * glue / total:.1f}%; top: {shown}")


def overhead(workloads, args, run, tracer) -> str:
    """Traced against untraced throughput over the same first quarter of the
    stream, and the wrapper cost per span times the spans recorded; machine
    noise over the short replay can exceed the overhead itself."""
    n = max(1, run.attempted // 4)
    plain = workloads.run_workload(args.workload, args.seed, 3600.0, max_events=n)
    traced_rate, plain_rate = n / run.done_s[n - 1], n / plain.stream_s
    cost = tracer.span_cost()
    spans_s = cost * len(tracer.start)
    return (f"tracing overhead: traced {traced_rate:.3f} events/s vs untraced "
            f"{plain_rate:.3f} events/s over the same first {n} events; "
            f"{len(tracer.start)} spans x {1e6 * cost:.2f} us = {spans_s:.3f} s, "
            f"{100 * spans_s / run.stream_s:.2f}% of the traced stream")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: set the workload up, print one line and exit")
    args = ap.parse_args()
    workloads, reference = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        workloads.setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    WORK.mkdir(exist_ok=True)
    meta = metadata(args)
    print("meta " + json.dumps(meta, sort_keys=True))
    if args.trace:
        from tracing import Tracer

        cli_run = workloads.Run()
        cold = workloads.cli_cycles(args.seed, 1, cold=True, run=cli_run)
        warm = workloads.cli_cycles(args.seed, 2, cold=False, run=cli_run)
        probes = {"cli.interpreter_s": workloads.interpreter_seconds(),
                  "cli.import_s": workloads.import_seconds(),
                  "cli.main_s": statistics.median(warm),
                  "cli_step_ms_p50": 1e3 * statistics.median(cold)}
        tracer = Tracer()
        tracer.install()
        try:
            run = workloads.run_workload(args.workload, args.seed, args.seconds, tracer=tracer)
        finally:
            tracer.uninstall()
        spans = WORK / f"spans-{args.workload}-{args.seed}.csv"
        tracer.write(spans)
        print(f"spans: {len(tracer.start)} written to {spans.relative_to(ROOT)}")
        print("self time: " + coverage(tracer, run))
        print(overhead(workloads, args, run, tracer))
        run.attempted += cli_run.attempted
        run.failed += cli_run.failed
        run.notes += cli_run.notes
        metrics, units = per_layer(run, tracer, probes), PER_LAYER
    else:
        setup_s, setup_ref = setup_seconds(workloads, reference, args.workload, args.seed)
        run = workloads.run_workload(args.workload, args.seed, args.seconds)
        wall = wall_clock(run, setup_s)
        speed, setup_speed = reference.speed_factor(run.ref_s), reference.speed_factor(setup_ref)
        metrics, units = end_to_end(wall, speed, setup_speed), END_TO_END
        print("wall clock (not normalised): " + ", ".join(f"{k} {v:.4g}" for k, v in wall.items())
              + f"; reference task p50 {1e3 * _pct(run.ref_s, 0.5):.3f} ms over {len(run.ref_s)} "
              f"(set-up {1e3 * _pct(setup_ref, 0.5):.3f} ms over {len(setup_ref)}), nominal "
              f"{reference.REF_NOMINAL_MS} ms: speed factors {speed:.4f} stream, "
              f"{setup_speed:.4f} set-up")
    print(north_star(run))
    beyond = len(run.event_s) - int(0.9 * len(run.event_s))
    print(f"tail: event_ms_p90 {1e3 * _pct(run.event_s, 0.90):.2f} ms over {len(run.event_s)} "
          f"events ({beyond} beyond it)")
    q = quality(run)
    print(f"locality: {run.updates} conflict-edge updates, recolored_mean {q['recolored_mean']:.4f}, "
          f"over_bound_share {q['over_bound_share']:.4f} (bound {workloads.BOUND}, "
          f"{run.over_bound} updates over), rejected candidates {run.rejected}, "
          f"events cut off at {workloads.EVENT_LIMIT_S:g} s {run.over_limit}, "
          f"failed {run.failed}/{run.attempted}")
    for note in run.notes:
        print(f"note: {note}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, **result}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
