"""Adversary simulation: seeded event streams, cross-checks, reporting.

A trial builds a conflict graph (from a topology file or the random
chordal-bipartite generator), colors it statically, then streams
weak-chordality-preserving edge events through the dynamic updates. In
verification mode every event is cross-checked against a fresh static
recompute and, under the oracle cap, against brute-force chromatic/clique
oracles. Events are logged as JSONL, summarized as CSV.
"""

from __future__ import annotations

import bisect
import csv
import io
import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, get_type_hints

from .dynamic_coloring import UpdateReport, delete_update, insert_update
from .generators import random_chordal_bipartite
from .graph import Graph
from .oracles import oracle_chromatic, oracle_max_clique
from .recognition import (
    ORACLE_CAP,
    is_weakly_chordal,
    stays_weakly_chordal_after_delete,
    stays_weakly_chordal_after_insert,
)
from .static_coloring import ColoringState, static_color, verify_state
from .tim import all_unicast_messages, build_conflict_graph, load_topology

CSV_COLUMNS = [
    "seq", "kind", "u", "v", "case", "recolored", "pairs_removed", "pairs_added",
    "colors_before", "colors_after", "fallback", "wall_us",
]

DEFAULT_BOUND = 8  # 4 + 4 candidate two-pair neighbors per endpoint


class TrialAssertionError(AssertionError):
    """A per-event runtime assertion failed; carries the offending event."""

    def __init__(self, message: str, event: Optional[dict] = None):
        super().__init__(message)
        self.event = event


@dataclass(frozen=True)
class PerturbationEvent:
    kind: str  # "insert" | "delete"
    u: int
    v: int
    seq: int


# accepted JSON values per declared field type, and how an error names them
_FIELD_TYPES = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    bool: (bool, "true or false"),
    Optional[str]: ((str, type(None)), "a string or null"),
}

# inclusive ranges of the numeric fields
_FIELD_RANGES = {
    **dict.fromkeys(("M", "N", "rejection_cap_factor"), (1, math.inf)),
    **dict.fromkeys(("event_count", "oracle_cap", "bound"), (0, math.inf)),
    **dict.fromkeys(("density", "insert_fraction"), (0, 1)),
}


@dataclass
class TrialConfig:
    seed: int = 0
    topology_file: Optional[str] = None
    M: int = 5
    N: int = 5
    density: float = 0.5
    event_count: int = 100
    insert_fraction: float = 0.5
    oracle_cap: int = ORACLE_CAP
    bound: int = DEFAULT_BOUND
    verification_mode: bool = True
    assert_bound: bool = True
    rejection_cap_factor: int = 50  # attempts per event: factor * |V|^2

    @staticmethod
    def from_dict(d: dict) -> "TrialConfig":
        """A config from a JSON object; a non-object, an unknown field, a
        value of the wrong type or a number out of its field's range raises
        ``ValueError``. A bool is not an int, and an int is accepted as a
        float."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, not {type(d).__name__}")
        hints = get_type_hints(TrialConfig)
        unknown = set(d) - set(hints)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for name, value in d.items():
            types, what = _FIELD_TYPES[hints[name]]
            if isinstance(value, bool) != (hints[name] is bool) or not isinstance(value, types):
                raise ValueError(f"config field {name} must be {what}, not {json.dumps(value)}")
            low, high = _FIELD_RANGES.get(name, (None, None))
            if low is not None and not low <= value <= high:
                span = f"at least {low}" if high == math.inf else f"between {low} and {high}"
                raise ValueError(f"config field {name} must be {span}, not {json.dumps(value)}")
        return TrialConfig(**d)

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class TrialReport:
    config: TrialConfig
    events: list[UpdateReport] = field(default_factory=list)
    wall_us: list[int] = field(default_factory=list)
    saturated: bool = False
    equivalence_checks: int = 0

    @property
    def mean_recolored(self) -> float:
        return (
            sum(len(e.recolored) for e in self.events) / len(self.events)
            if self.events
            else 0.0
        )

    @property
    def max_recolored(self) -> int:
        return max((len(e.recolored) for e in self.events), default=0)

    @property
    def max_pairs_changed(self) -> int:
        return max((e.pairs_changed for e in self.events), default=0)

    @property
    def fallback_count(self) -> int:
        return sum(e.fallback_used for e in self.events)

    def summary(self) -> dict:
        return {
            "seed": self.config.seed,
            "events": len(self.events),
            "saturated": self.saturated,
            "equivalence_checks": self.equivalence_checks,
            "max_recolored": self.max_recolored,
            "mean_recolored": round(self.mean_recolored, 4),
            "max_pairs_changed": self.max_pairs_changed,
            "fallbacks": self.fallback_count,
        }

    def events_jsonl(self) -> str:
        return "".join(json.dumps(e.to_dict(), sort_keys=True) + "\n" for e in self.events)

    def events_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(CSV_COLUMNS)
        for e, us in zip(self.events, self.wall_us):
            w.writerow([
                e.seq, e.kind, e.u, e.v, e.case_label, len(e.recolored),
                len(e.pairs_removed), len(e.pairs_added), e.colors_before,
                e.colors_after, int(e.fallback_used), us,
            ])
        return buf.getvalue()


class _Pairs:
    """The pairs of a graph that one mask per position selects, as a sequence.

    ``rows[p]`` holds the later positions paired with position p, and the
    pairs run in (position, later position) order, as ``Graph.edges``
    lists edges. Only the per-row counts are kept: item i is found by a
    bisection over their running sums, then a walk to the right bit of
    its row, so no pair is listed.
    """

    __slots__ = ("_ids", "_rows", "_ends")

    def __init__(self, ids: tuple[int, ...], rows: list[int]):
        self._ids, self._rows = ids, rows
        self._ends = list(itertools.accumulate(m.bit_count() for m in rows))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, i: int) -> tuple[int, int]:
        p = bisect.bisect_right(self._ends, i)
        m = self._rows[p]
        for _ in range(i - (self._ends[p - 1] if p else 0)):
            m &= m - 1
        return self._ids[p], self._ids[(m & -m).bit_length() - 1]


def gen_event(
    g: Graph, rng: random.Random, insert_fraction: float, seq: int, cap: int
) -> Optional[PerturbationEvent]:
    """A uniformly sampled admissible event, or None when saturated.

    Candidates are rejection-sampled until the perturbed graph stays weakly
    chordal, up to `cap` attempts. ``rng.choice`` draws from the edges and
    the non-edges in (position, later position) order, read off the masks.
    """
    ids = g.vertices
    full = (1 << len(ids)) - 1
    adj = g.adj_masks()
    edges = _Pairs(ids, [m & -(2 << p) for p, m in enumerate(adj)])
    non_edges = _Pairs(ids, [full & ~m & -(2 << p) for p, m in enumerate(adj)])
    for _ in range(cap):
        want_insert = rng.random() < insert_fraction
        if want_insert and not non_edges:
            want_insert = False
        if not want_insert and not edges:
            want_insert = True
            if not non_edges:
                return None
        if want_insert:
            u, v = rng.choice(non_edges)
            if stays_weakly_chordal_after_insert(g, u, v):
                return PerturbationEvent("insert", u, v, seq)
        else:
            u, v = rng.choice(edges)
            if stays_weakly_chordal_after_delete(g, u, v):
                return PerturbationEvent("delete", u, v, seq)
    return None


def build_trial_graph(cfg: TrialConfig) -> Graph:
    if cfg.topology_file:
        try:
            topo = load_topology(Path(cfg.topology_file).read_text())
        except OSError as exc:
            raise ValueError(f"cannot read {cfg.topology_file}: {exc}") from exc
    else:
        topo = random_chordal_bipartite(cfg.M, cfg.N, cfg.density, random.Random(cfg.seed))
    msgs = all_unicast_messages(topo)
    return build_conflict_graph(topo, msgs).graph


def _check_event(state: ColoringState, report: UpdateReport, cfg: TrialConfig) -> int:
    """Per-event assertions; returns 1 if the static equivalence ran."""
    ev = report.to_dict()
    if not verify_state(state):
        raise TrialAssertionError("state invariants violated after event", ev)
    if report.fallback_used:
        raise TrialAssertionError("fallback fired on a compliant workload", ev)
    if cfg.assert_bound and report.kind == "insert":
        if report.pairs_changed > cfg.bound:
            raise TrialAssertionError(
                f"pairs changed {report.pairs_changed} > bound {cfg.bound}", ev
            )
        if len(report.recolored) > cfg.bound:
            raise TrialAssertionError(
                f"recolored {len(report.recolored)} > bound {cfg.bound}", ev
            )
    if not cfg.verification_mode:
        return 0
    fresh = static_color(state.graph)
    if fresh.color_count != state.color_count:
        raise TrialAssertionError(
            f"dynamic colors {state.color_count} != static {fresh.color_count}", ev
        )
    if state.graph.n <= cfg.oracle_cap:
        chi = oracle_chromatic(state.graph, cfg.oracle_cap)
        omega = len(oracle_max_clique(state.graph, cfg.oracle_cap))
        if not (chi == omega == state.color_count):
            raise TrialAssertionError(
                f"oracle mismatch: chi={chi} omega={omega} maintained={state.color_count}", ev
            )
    return 1


def run_simulation(cfg: TrialConfig, out_dir: Optional[str] = None) -> TrialReport:
    """Run one seeded adversarial trial; optionally write JSONL + CSV files.

    Once the event loop has started, the files are written even when an
    event check raises: the failing event is the log's last line.
    """
    rng = random.Random(cfg.seed)
    graph = build_trial_graph(cfg)
    if not is_weakly_chordal(graph):
        raise TrialAssertionError("initial conflict graph is not weakly chordal")
    state = static_color(graph)
    if not verify_state(state):
        raise TrialAssertionError("initial static state failed verification")
    report = TrialReport(cfg)
    cap = cfg.rejection_cap_factor * max(1, graph.n) ** 2
    try:
        for seq in range(cfg.event_count):
            event = gen_event(state.graph, rng, cfg.insert_fraction, seq, cap)
            if event is None:
                report.saturated = True
                break
            t0 = time.perf_counter()
            if event.kind == "insert":
                state, ev_report = insert_update(state, event.u, event.v)
            else:
                state, ev_report = delete_update(state, event.u, event.v)
            ev_report.seq = event.seq
            report.wall_us.append(int((time.perf_counter() - t0) * 1e6))
            report.events.append(ev_report)
            report.equivalence_checks += _check_event(state, ev_report, cfg)
    finally:
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            stem = f"trial-seed{cfg.seed}"
            (out / f"{stem}.jsonl").write_text(report.events_jsonl())
            (out / f"{stem}.csv").write_text(report.events_csv())
            (out / f"{stem}.summary.json").write_text(
                json.dumps(report.summary(), sort_keys=True, indent=2) + "\n"
            )
    return report
