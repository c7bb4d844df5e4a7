"""In-memory span tracing of timcolor's public functions, from outside.

``Tracer.install`` replaces each traced function on every module attribute
that holds it (``dynamic_coloring.lift`` as well as ``static_coloring.lift``,
``harness.static_color`` as well as ``static_coloring.static_color``), because
callers look a name up in their own module's globals at call time. Graph
primitives are methods, so they are replaced on the ``Graph`` class.

A span is (name, start, end, parent span, event id); spans are kept in flat
arrays while the run lasts and written out once at the end. Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

# (metric layer name, module, attribute). Several attributes may share one
# layer name: lift_coloring is reported as part of lift, and both admission
# checks as one recognition.stays_weakly_chordal layer.
TARGETS = [
    ("graph.contract_pair", "graph.Graph", "contract_pair"),
    ("graph.insert_edge", "graph.Graph", "insert_edge"),
    ("graph.delete_edge", "graph.Graph", "delete_edge"),
    ("graph.complement", "graph.Graph", "complement"),
    ("recognition.stays_weakly_chordal", "recognition", "stays_weakly_chordal_after_insert"),
    ("recognition.stays_weakly_chordal", "recognition", "stays_weakly_chordal_after_delete"),
    ("recognition.find_two_pair", "recognition", "find_two_pair"),
    ("recognition.is_two_pair", "recognition", "is_two_pair"),
    ("static_coloring.static_color", "static_coloring", "static_color"),
    ("static_coloring.lift", "static_coloring", "lift"),
    ("static_coloring.lift", "static_coloring", "lift_coloring"),
    ("static_coloring.verify_state", "static_coloring", "verify_state"),
    ("dynamic_coloring.insert_update", "dynamic_coloring", "insert_update"),
    ("dynamic_coloring.delete_update", "dynamic_coloring", "delete_update"),
    ("dynamic_coloring.replay_repair", "dynamic_coloring", "replay_repair"),
    ("tim.topology_event_to_conflict_deltas", "tim", "topology_event_to_conflict_deltas"),
    ("tim.emit_schedule", "tim", "emit_schedule"),
    ("harness.gen_event", "harness", "gen_event"),
]

# layers whose boolean results are counted (accepted admission candidates)
COUNT_TRUE = {"recognition.stays_weakly_chordal"}


def _resolve(dotted: str):
    mod, _, cls = dotted.partition(".")
    obj = sys.modules[f"timcolor.{mod}"]
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Span recorder; ``span`` is also usable directly by the benchmark."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.event = array("q")
        self.start = array("d")
        self.end = array("d")
        self.true_count: dict[str, int] = defaultdict(int)
        self.event_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _open(self, idx: int) -> int:
        i = len(self.start)
        self.name.append(idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.event.append(self.event_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def wrap(self, layer: str, fn):
        idx = self._intern(layer)
        count_true = layer in COUNT_TRUE

        def traced(*args, **kwargs):
            i = self._open(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter()
                self.start[i] = t0
                self._stack.pop()
            if count_true and result:
                self.true_count[layer] += 1
            return result

        return traced

    def span(self, name: str):
        return _Span(self, self._intern(name))

    @staticmethod
    def span_cost(calls: int = 20000) -> float:
        """Seconds a wrapper adds to one call, timed on a no-op function."""

        def noop():
            return None

        traced = Tracer().wrap("noop", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        return max(0.0, (time.perf_counter() - t1) - (t1 - t0)) / calls

    def install(self) -> None:
        """Patch every traced function wherever a timcolor module holds it."""
        modules = [m for k, m in sys.modules.items() if k == "timcolor" or k.startswith("timcolor.")]
        for layer, owner, attr in TARGETS:
            holder = _resolve(owner)
            original = getattr(holder, attr)
            wrapped = self.wrap(layer, original)
            if isinstance(holder, type):
                self._patch(holder, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, obj, attr, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def by_layer(self) -> dict[str, tuple[int, float]]:
        """Layer name -> (calls, total self seconds) over the whole run."""
        out: dict[str, list] = {n: [0, 0.0] for n in self.names}
        for idx, st in zip(self.name, self.self_times()):
            acc = out[self.names[idx]]
            acc[0] += 1
            acc[1] += st
        return {k: (c, s) for k, (c, s) in out.items()}

    def within(self, root: str) -> dict[str, float]:
        """Self seconds per layer, counted only inside spans named `root`."""
        root_idx = self._index.get(root)
        inside = [False] * len(self.start)
        out: dict[str, float] = defaultdict(float)
        for i, st in enumerate(self.self_times()):
            p = self.parent[i]
            inside[i] = self.name[i] == root_idx or (p >= 0 and inside[p])
            if inside[i]:
                out[self.names[self.name[i]]] += st
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("name,start,end,parent,event\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                f.write(
                    f"{self.names[self.name[i]]},{self.start[i] - t0:.7f},"
                    f"{self.end[i] - t0:.7f},{self.parent[i]},{self.event[i]}\n"
                )


class _Span:
    __slots__ = ("tracer", "idx", "i", "t0")

    def __init__(self, tracer: Tracer, idx: int):
        self.tracer, self.idx = tracer, idx

    def __enter__(self):
        self.i = self.tracer._open(self.idx)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.end[self.i] = time.perf_counter()
        tr.start[self.i] = self.t0
        tr._stack.pop()
        return False
