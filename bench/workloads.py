"""The benchmark workloads, each a seeded closed loop with one client.

Every workload pools a fixed set of networks and draws its events from the
run seed alone; it sends the next event only after the previous one has
completed and passed the correctness gate. The gate (``verify_state``, a fresh ``static_color`` with the same
color count, no fallback, parseable CLI output) runs outside the timed
event but inside the stream, so ``events_per_s_norm`` is the throughput of a
verified trial. A failed gate is counted and the loop goes on from a fresh
static state; it never aborts the run.

The library is reached only through module attributes looked up at call
time (``static_coloring.static_color(...)``), so a ``Tracer`` installed on
those attributes sees every call the workload makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference
from timcolor import cli, dynamic_coloring, generators, harness, recognition, static_coloring, tim

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"  # scratch files, inside the checkout
CHILD_ENV = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin", "PYTHONHASHSEED": "0"}
BOUND = harness.DEFAULT_BOUND  # locality bound counted, never asserted, per update
# The dynamic updates have multi-minute outliers (I-3-1 drop ladders, D-2
# clique recounts). An event still running after EVENT_LIMIT_S is cut off,
# timed at the limit and counted in events_over_limit, so a run stays
# within its time budget and the outlier still shows.
EVENT_LIMIT_S = 10.0
MIN_EVENTS = 100  # a stream measures past its deadline until p90 has 10 samples beyond it
NETWORKS = 16  # fixed networks pooled round-robin in one stream run
STREAM_STRIDE = 1000  # network k draws its events from run seed + 1000 k
BLOCK = 4  # events per throughput block; events_per_s_norm is the median block rate
CANDIDATES = 1000  # link-flap draws before an instance counts as stuck

LINK_FLAP_SIZE = 30  # random_convex M = N
FLAPPING = 4  # absent links per link-flap network that appear and disappear
EDGE_CHURN = dict(M=10, N=10, density=0.5)
CLI_SIZE = 22  # random_convex M = N for the cold-start network
CLI_NETWORK_SEED = 1  # one fixed network (n = 46); the run seed picks its edge events


@dataclass
class Run:
    """Everything one workload run measured, before it becomes metrics."""

    event_s: list[float] = field(default_factory=list)
    static_s: list[float] = field(default_factory=list)
    block_rates: list[float] = field(default_factory=list)
    done_s: list[float] = field(default_factory=list)  # stream time at each event's end
    ref_s: list[float] = field(default_factory=list)  # reference task after each event
    stream_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    rejected: int = 0
    over_limit: int = 0
    updates: int = 0
    over_bound: int = 0
    recolored: list[int] = field(default_factory=list)
    pairs_changed: list[int] = field(default_factory=list)
    order_len: list[int] = field(default_factory=list)
    deltas: list[int] = field(default_factory=list)
    case_s: dict[str, list[float]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)  # first failures and cut-offs

    def record_update(self, state, report, seconds: float) -> None:
        """Locality counters of one conflict-edge update; `state` is pre-update."""
        self.updates += 1
        self.order_len.append(len(state.order))
        self.recolored.append(len(report.recolored))
        self.pairs_changed.append(report.pairs_changed)
        if len(report.recolored) > BOUND or report.pairs_changed > BOUND:
            self.over_bound += 1
        self.case_s.setdefault(report.case_label, []).append(seconds)

    def cut_off(self, what: str) -> None:
        """An event stopped at EVENT_LIMIT_S: not failed, timed at the limit."""
        self.over_limit += 1
        self.event_s.append(EVENT_LIMIT_S)
        if len(self.notes) < 20:
            self.notes.append(f"cut off at {EVENT_LIMIT_S:g} s: {what}")

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(f"failed: {why}")


class _Stream:
    """Deadline, block throughput and event ids for one closed loop.

    After each event the reference task is timed; the stream clocks pause
    for it, so it counts in neither the stream time nor a block's rate.
    """

    def __init__(self, run: Run, seconds: float, tracer):
        self.run, self.tracer = run, tracer
        self.t0 = self.block_t0 = time.perf_counter()
        self.deadline = self.t0 + seconds
        self.block_n = 0

    def more(self) -> bool:
        return time.perf_counter() < self.deadline or self.run.attempted < MIN_EVENTS

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def begin(self) -> None:
        if self.tracer:
            self.tracer.event_id = self.run.attempted

    def accepted(self) -> None:
        """Close one accepted event (after its gate)."""
        now = time.perf_counter()
        self.run.done_s.append(now - self.t0)
        self.block_n += 1
        if self.block_n == BLOCK:
            self.run.block_rates.append(BLOCK / (now - self.block_t0))
            self.block_t0, self.block_n = now, 0
        self.run.ref_s.append(reference.time_task())
        paused = time.perf_counter() - now
        self.t0 += paused
        self.block_t0 += paused

    def close(self) -> None:
        self.run.stream_s = time.perf_counter() - self.t0


def _gate(run: Run, state, fallback: bool, tracer=None) -> object:
    """Check a post-event state; returns the state the loop continues from."""
    with tracer.span("bench.gate") if tracer else contextlib.nullcontext():
        ok = True
        if fallback:
            run.fail("fallback fired")
            ok = False
        if not static_coloring.verify_state(state):
            run.fail("verify_state rejected the post-event state")
            ok = False
        t0 = time.perf_counter()
        fresh = static_coloring.static_color(state.graph)
        run.static_s.append(time.perf_counter() - t0)
        if fresh.color_count != state.color_count:
            run.fail(f"dynamic {state.color_count} colors != static {fresh.color_count}")
            ok = False
    return state if ok else fresh


def corrupt(state):
    """A copy of `state` whose first edge has both endpoints in one color."""
    u, v = next(state.graph.edges())
    coloring = dict(state.coloring)
    coloring[v] = coloring[u]
    return static_coloring.ColoringState(
        state.graph, coloring, state.color_count, state.clique, state.order
    )


class EventOverLimit(Exception):
    """Raised inside an event still running EVENT_LIMIT_S after it started."""


def _on_alarm(signum, frame):
    raise EventOverLimit()


@contextlib.contextmanager
def _limited():
    """Cut the enclosed event off at EVENT_LIMIT_S (needs _on_alarm installed)."""
    signal.setitimer(signal.ITIMER_REAL, EVENT_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _admit(graph, deltas) -> bool:
    """Whether every delta, applied in turn to `graph`, keeps it weakly chordal."""
    for d in deltas:
        if d.kind == "insert":
            if not recognition.stays_weakly_chordal_after_insert(graph, d.u, d.v):
                return False
            graph = graph.insert_edge(d.u, d.v)
        else:
            if not recognition.stays_weakly_chordal_after_delete(graph, d.u, d.v):
                return False
            graph = graph.delete_edge(d.u, d.v)
    return True


def _update(kind: str):
    return dynamic_coloring.insert_update if kind == "insert" else dynamic_coloring.delete_update


# ---------------------------------------------------------------------------
# link-flap-convex
# ---------------------------------------------------------------------------

class LinkFlap:
    """Interference links appear and disappear on one convex network.

    Each network has FLAPPING fixed absent links, drawn from the network's
    seed, that flap. Events alternate between inserting one of them and
    deleting a link this stream inserted earlier. The inserts walk the
    flapping links in cycles, each a fresh shuffle from the stream seed, so
    every run flaps every link about equally often and the seed decides
    the order. An event is admitted only if every conflict delta it implies
    keeps the graph weakly chordal, checked delta by delta on a tentative
    graph; otherwise it is rejected whole and a new candidate is drawn.
    """

    def __init__(self, network: int, seed: int):
        self.topo = generators.random_convex(LINK_FLAP_SIZE, LINK_FLAP_SIZE, random.Random(network))
        self.rng = random.Random(seed)
        self.msgs = tim.all_unicast_messages(self.topo)
        graph = tim.build_conflict_graph(self.topo, self.msgs).graph
        self.state = static_coloring.static_color(graph)
        absent = sorted({(j, i) for j in range(self.topo.N) for i in range(self.topo.M)}
                        - self.topo.links)
        self.flapping = random.Random(f"flapping-{network}").sample(absent, FLAPPING)
        self.cycle: list[tuple[int, int]] = []
        self.inserted: list[tuple[int, int]] = []
        self.want_insert = True

    def _candidate(self) -> tuple[str, int, int]:
        if (self.want_insert and len(self.inserted) < FLAPPING) or not self.inserted:
            while True:
                if not self.cycle:
                    self.cycle = self.rng.sample(self.flapping, FLAPPING)
                link = self.cycle.pop()
                if link not in self.inserted:
                    return ("insert", *link)
        return ("delete", *self.rng.choice(self.inserted))

    def step(self, run: Run, stream: _Stream, corrupt_at) -> None:
        """Draw candidates until one event is admitted, then apply and gate it."""
        stream.begin()
        for _ in range(CANDIDATES):
            kind, j, i = self._candidate()
            try:
                with stream.span("bench.event"), _limited():
                    t0 = time.perf_counter()
                    deltas = tim.topology_event_to_conflict_deltas(self.topo, self.msgs, kind, j, i)
                    if not _admit(self.state.graph, deltas):
                        run.rejected += 1
                        self.want_insert |= kind == "delete"
                        continue
                    new, updates = self.state, []
                    for d in deltas:
                        t1 = time.perf_counter()
                        after, report = _update(d.kind)(new, d.u, d.v)
                        updates.append((new, report, time.perf_counter() - t1))
                        new = after
                    slots = tim.emit_schedule(new, self.msgs)
                    run.event_s.append(time.perf_counter() - t0)
            except EventOverLimit:
                run.attempted += 1
                run.cut_off(f"{kind} link ({j},{i})")
                stream.accepted()
                return
            except Exception as exc:  # a failing event is counted, the stream goes on
                run.attempted += 1
                run.fail(f"{kind} link ({j},{i}): {type(exc).__name__}: {exc}")
                stream.accepted()
                return
            break
        else:
            run.attempted += 1
            run.fail(f"no admissible link event in {CANDIDATES} candidates")
            stream.accepted()
            return
        for pre, report, seconds in updates:
            run.record_update(pre, report, seconds)
        fallback = any(report.fallback_used for _, report, _ in updates)
        run.attempted += 1
        run.deltas.append(len(deltas))
        if kind == "insert":
            self.topo = self.topo.insert_link(j, i)
            self.inserted.append((j, i))
        else:
            self.topo = self.topo.delete_link(j, i)
            self.inserted.remove((j, i))
        self.want_insert = kind == "delete"
        if corrupt_at == run.attempted:
            new = corrupt(new)
        if len(slots) != new.color_count or sum(map(len, slots)) != len(self.msgs):
            run.fail("schedule does not partition the messages into color_count slots")
        self.state = _gate(run, new, fallback, stream.tracer)
        stream.accepted()


# ---------------------------------------------------------------------------
# edge-churn-dense
# ---------------------------------------------------------------------------

class EdgeChurn:
    """The ``timcolor simulate`` adversary on one dense random network.

    ``harness.gen_event`` rejection-samples conflict-edge inserts and
    deletes that keep the graph weakly chordal; the timed event is the one
    ``insert_update`` or ``delete_update`` call.
    """

    def __init__(self, network: int, seed: int):
        self.cfg = harness.TrialConfig(seed=network, **EDGE_CHURN)
        self.state = static_coloring.static_color(harness.build_trial_graph(self.cfg))
        self.rng = random.Random(seed)
        self.cap = self.cfg.rejection_cap_factor * max(1, self.state.graph.n) ** 2
        self.seq = 0

    def step(self, run: Run, stream: _Stream, corrupt_at) -> None:
        stream.begin()
        with stream.span("bench.gen"):
            ev = harness.gen_event(self.state.graph, self.rng, self.cfg.insert_fraction,
                                   self.seq, self.cap)
        self.seq += 1
        run.attempted += 1
        if ev is None:
            run.fail("event generator saturated")
            stream.accepted()
            return
        try:
            with stream.span("bench.event"), _limited():
                t0 = time.perf_counter()
                new, report = _update(ev.kind)(self.state, ev.u, ev.v)
                dt = time.perf_counter() - t0
        except EventOverLimit:
            run.cut_off(f"{ev.kind} ({ev.u},{ev.v})")
            stream.accepted()
            return
        except Exception as exc:  # a failing event is counted, the stream goes on
            run.fail(f"{ev.kind} ({ev.u},{ev.v}): {type(exc).__name__}: {exc}")
            stream.accepted()
            return
        run.event_s.append(dt)
        run.record_update(self.state, report, dt)
        if corrupt_at == run.attempted:
            new = corrupt(new)
        self.state = _gate(run, new, report.fallback_used, stream.tracer)
        stream.accepted()


# ---------------------------------------------------------------------------
# CLI round trips (measured in the traced run only)
# ---------------------------------------------------------------------------

def cli_setup(seed: int, work: Path):
    """Write the CLI network's topology and initial state; returns the event rng."""
    topo = generators.random_convex(CLI_SIZE, CLI_SIZE, random.Random(CLI_NETWORK_SEED))
    msgs = tim.all_unicast_messages(topo)
    state = static_coloring.static_color(tim.build_conflict_graph(topo, msgs).graph)
    work.mkdir(parents=True, exist_ok=True)
    (work / "topology.json").write_text(json.dumps(topo.to_dict()))
    (work / "state.json").write_text(json.dumps(cli.state_to_dict(state)))
    return random.Random(seed), state


def cli_cycles(seed: int, cycles: int, cold: bool, run: Run) -> list[float]:
    """Wall seconds of each step of `cycles` schedule/insert/delete/verify cycles.

    A cold step is a fresh ``python -m timcolor.cli`` process, a warm one a
    ``cli.main`` call in this process. The state an insert or delete writes
    is the state file of the next step. Every step must exit 0 and write
    parseable output, verify must report ok, and each new state must pass
    the gate; failures are counted in `run`.
    """
    work = WORK / f"cli-{'cold' if cold else 'warm'}-{seed}"
    rng, state = cli_setup(seed, work)
    chi0, out = state.color_count, work / "out.json"
    times = []
    for step in range(4 * cycles):
        kind = ("schedule", "insert", "delete", "verify")[step % 4]
        args = [kind, str(work / ("topology.json" if kind == "schedule" else "state.json"))]
        if kind in ("insert", "delete"):
            g = state.graph
            ev = harness.gen_event(g, rng, float(kind == "insert"), step, 50 * g.n ** 2)
            args += [str(ev.u), str(ev.v)]
        args += ["--out", str(out)]
        out.unlink(missing_ok=True)
        run.attempted += 1
        t0 = time.perf_counter()
        if cold:
            code = subprocess.run([sys.executable, "-m", "timcolor.cli", *args], cwd=ROOT,
                                  env=CHILD_ENV, capture_output=True, timeout=120).returncode
        else:
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(args)
        times.append(time.perf_counter() - t0)
        try:
            payload = json.loads(out.read_text())
        except (OSError, json.JSONDecodeError):
            payload = None
        if code != 0 or not isinstance(payload, dict):
            run.fail(f"cli {kind} exited {code} with output {payload!r:.200}")
        elif kind == "schedule" and len(payload["slots"]) != chi0:
            run.fail(f"cli schedule has {len(payload['slots'])} slots, expected {chi0}")
        elif kind == "verify" and not payload.get("ok"):
            run.fail(f"cli verify reported {payload.get('problems')}")
        elif kind in ("insert", "delete"):
            state = _gate(run, cli.state_from_dict(payload["state"]), payload["report"]["fallback"])
            (work / "state.json").write_text(json.dumps(cli.state_to_dict(state)))
    return times


PROBES = 3  # child-process probes are run this many times, median reported


def time_until_ready(cmd: list[str]) -> float:
    """Wall seconds from spawning `cmd` until it prints its first line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if code != 0 or not line:
        raise RuntimeError(f"probe {cmd[1:]} exited {code}")
    return elapsed


def interpreter_seconds() -> float:
    """Median start-up time of a bare interpreter."""
    return statistics.median(time_until_ready([sys.executable, "-c", "print()"])
                             for _ in range(PROBES))


def import_seconds() -> float:
    """Median time of a fresh ``import timcolor``."""
    code = "import time; t = time.perf_counter(); import timcolor; print(time.perf_counter() - t)"
    values = []
    for _ in range(PROBES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=CHILD_ENV,
                             capture_output=True, text=True, timeout=120, check=True)
        values.append(float(out.stdout))
    return statistics.median(values)


WORKLOADS = {
    "link-flap-convex": LinkFlap,
    "edge-churn-dense": EdgeChurn,
}


def run_workload(name: str, seed: int, seconds: float, tracer=None, corrupt_at=None,
                 max_events=None) -> Run:
    """One closed-loop run of workload `name`, round-robin over NETWORKS networks.

    The networks are fixed: network k is generated from seed k + 1. The run
    seed drives the event streams: network k draws its events from seed +
    STREAM_STRIDE * k, so on edge-churn-dense with run seed 1, network 0
    replays the ``timcolor simulate`` trial of seed 1. Pooling a fixed set
    of networks keeps a run's figures from hanging on one network's shape.
    """
    instances = setup(name, seed)
    run = Run()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        stream = _Stream(run, seconds, tracer)
        while stream.more() and (max_events is None or run.attempted < max_events):
            instances[run.attempted % NETWORKS].step(run, stream, corrupt_at)
        stream.close()
    finally:
        signal.signal(signal.SIGALRM, previous)
    return run


def setup(name: str, seed: int) -> list:
    """Everything a run of workload `name` does before its first event."""
    return [WORKLOADS[name](k + 1, seed + STREAM_STRIDE * k) for k in range(NETWORKS)]
