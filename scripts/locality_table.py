#!/usr/bin/env python3
"""Empirical locality of insertions as the conflict graph grows.

For topology sizes 4x4 through 10x10, runs insertion-heavy adversarial
trials (density 0.5, 70 % inserts, no static recompute) and prints one
row per size: the largest message count, the number of insertions, the
maximum number of recolored messages and of changed solution-order pairs
per insertion, and how many insertions went over --bound (recolored or
pairs changed). The bound is reported, not asserted, so a trial that
breaks it still finishes its row.
"""

from __future__ import annotations

import argparse

from timcolor import TrialConfig, run_simulation
from timcolor.harness import build_trial_graph


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--events", type=int, default=300, help="events per trial")
    ap.add_argument("--seeds-per-size", type=int, default=4)
    ap.add_argument("--bound", type=int, default=8)
    args = ap.parse_args()

    sizes = [(4, 4), (5, 5), (6, 6), (7, 7), (8, 8), (9, 9), (10, 10)]
    print(f"{'M x N':>7} {'messages':>9} {'insertions':>11} "
          f"{'max recolored':>14} {'max pairs':>10} {'over bound':>11}")
    for m, n in sizes:
        inserted = 0
        max_recolored = 0
        max_pairs = 0
        over_bound = 0
        messages = 0
        for seed in range(args.seeds_per_size):
            cfg = TrialConfig(
                seed=1000 * m + seed,
                M=m,
                N=n,
                density=0.5,
                event_count=args.events,
                insert_fraction=0.7,
                bound=args.bound,
                verification_mode=False,
                assert_bound=False,
            )
            report = run_simulation(cfg)
            messages = max(messages, build_trial_graph(cfg).n)
            for ev in report.events:
                if ev.kind != "insert":
                    continue
                inserted += 1
                max_recolored = max(max_recolored, len(ev.recolored))
                max_pairs = max(max_pairs, ev.pairs_changed)
                over_bound += max(len(ev.recolored), ev.pairs_changed) > args.bound
        print(f"{m}x{n:>4} {messages:>9} {inserted:>11} "
              f"{max_recolored:>14} {max_pairs:>10} {over_bound:>11}")


if __name__ == "__main__":
    main()
