#!/usr/bin/env python3
"""Batch adversarial trials across seeds.

Runs seeded insert/delete perturbation trials on conflict graphs of
random chordal-bipartite topologies and aggregates the per-trial
summaries. This is the evidence-gathering loop behind the dynamic-vs-
static equivalence and locality-bound claims. A trial that fails a check
is named with its seed and event on stderr and counted in the aggregate
line, and the script then exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from timcolor import TrialConfig, run_simulation
from timcolor.harness import TrialAssertionError


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=50, help="number of trials")
    ap.add_argument("--events", type=int, default=200, help="events per trial")
    ap.add_argument("--M", type=int, default=6, help="sources per topology")
    ap.add_argument("--N", type=int, default=6, help="destinations per topology")
    ap.add_argument("--density", type=float, default=0.5)
    ap.add_argument("--insert-fraction", type=float, default=0.5)
    ap.add_argument("--bound", type=int, default=8)
    ap.add_argument("--no-verify", action="store_true",
                    help="skip per-event static recompute (faster)")
    ap.add_argument("--out", help="directory for per-trial JSONL/CSV logs")
    args = ap.parse_args()

    total_events = 0
    max_recolored = 0
    max_pairs = 0
    fallbacks = 0
    equivalence = 0
    failed = 0
    for seed in range(args.seeds):
        cfg = TrialConfig(
            seed=seed,
            M=args.M,
            N=args.N,
            density=args.density,
            event_count=args.events,
            insert_fraction=args.insert_fraction,
            bound=args.bound,
            verification_mode=not args.no_verify,
        )
        try:
            report = run_simulation(cfg, out_dir=args.out)
        except TrialAssertionError as exc:
            failed += 1
            at = f" at event {exc.event['seq']}" if exc.event else ""
            print(f"trial seed {seed} failed{at}: {exc}", file=sys.stderr)
            continue
        s = report.summary()
        total_events += s["events"]
        max_recolored = max(max_recolored, s["max_recolored"])
        max_pairs = max(max_pairs, s["max_pairs_changed"])
        fallbacks += s["fallbacks"]
        equivalence += s["equivalence_checks"]
        print(json.dumps(s, sort_keys=True))

    print(json.dumps({
        "trials": args.seeds,
        "total_events": total_events,
        "equivalence_checks": equivalence,
        "max_recolored": max_recolored,
        "max_pairs_changed": max_pairs,
        "fallbacks": fallbacks,
        "failed_trials": failed,
    }, sort_keys=True))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
