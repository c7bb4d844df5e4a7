"""Acceptance gates: seven end-to-end criteria for the dynamic TIM coloring stack.

Each test prints a PASS line with its measured statistics (visible with
``pytest -s`` or on failure); budgets are asserted with wall-clock checks.
The criteria, in order:

1. chi == omega on random weakly chordal graphs (perfection at n <= 12).
2. Dynamic == static after every event, zero fallbacks, at >= 10^4 events.
3. Constant-locality bound: per-insertion recolorings and order-pair churn
   both <= 8 at 100% on topology-driven insertions, with a flat max-vs-n
   table as conflict graphs grow.
4. Exact replays of the three worked figure examples.
5. Conflict graph == square of the line graph on random bipartite topologies.
6. Conflict graphs of convex topologies are weakly chordal and free of all
   seven forbidden patterns.
7. Contraction-order independence of the static color count.
"""

import random
import time
from collections import defaultdict

from timcolor.dynamic_coloring import delete_update, insert_update
from timcolor.generators import (
    random_chordal_bipartite,
    random_convex,
    random_weakly_chordal,
)
from timcolor.graph import make_graph
from timcolor.harness import TrialConfig, build_trial_graph, run_simulation
from timcolor.oracles import oracle_chromatic, oracle_max_clique
from timcolor.patterns import load_pattern_library
from timcolor.recognition import (
    is_weakly_chordal,
    scan_forbidden,
    stays_weakly_chordal_after_insert,
)
from timcolor.static_coloring import static_color, verify_state
from timcolor.tim import (
    all_unicast_messages,
    build_conflict_graph,
    topology_event_to_conflict_deltas,
)

from conftest import fixture_graph, random_order_state, replay_chain

BOUND = 8


def merged_classes(graph, records):
    """Member sets of the ids the records merge, on a ``Graph`` replay."""
    _, members = replay_chain(graph, records)
    return [members[r.z] for r in records]


def test_criterion_1_perfection():
    """chi == omega == maintained count on >= 500 weakly chordal graphs."""
    t0 = time.monotonic()
    rng = random.Random(101)
    checked = 0
    while checked < 500:
        n = rng.randint(1, 12)
        g = random_weakly_chordal(n, rng.randint(0, n * (n - 1) // 2), rng)
        k = static_color(g, verify=True).color_count
        assert k == oracle_chromatic(g) == len(oracle_max_clique(g))
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"PASS criterion 1: {checked} graphs, chi == omega throughout, {elapsed:.1f}s")


def test_criterion_2_dynamic_equals_static():
    """>= 10^4 events across >= 50 seeds: equivalence holds, zero fallbacks.

    The trial harness re-runs static_color after every event and cross-checks
    the brute-force oracles; bound assertions are criterion 3's claim under
    its own adversary, so they are disabled here.
    """
    t0 = time.monotonic()
    events = 0
    seeds = 0
    while events < 10_000 or seeds < 50:
        seeds += 1
        rng = random.Random(seeds * 991)
        cfg = TrialConfig(
            seed=seeds,
            M=rng.randint(4, 10),
            N=rng.randint(4, 10),
            density=0.5,
            event_count=200,
            assert_bound=False,
        )
        graph = build_trial_graph(cfg)
        assert graph.n <= 60
        report = run_simulation(cfg)  # raises TrialAssertionError on any mismatch
        assert report.fallback_count == 0
        assert report.equivalence_checks == len(report.events)
        events += len(report.events)
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    print(f"PASS criterion 2: {events} events over {seeds} seeds, "
          f"0 fallbacks, {elapsed:.1f}s")


def test_criterion_3_constant_locality():
    """100% of >= 5*10^3 insertions stay within the constant bound.

    Insertions are topology events: a new link on a random chordal-bipartite
    topology (M, N in 4..10), expanded into conflict-edge insertions.  The
    per-size maxima are reported and must not grow with the graph.
    """
    t0 = time.monotonic()
    rng = random.Random(303)
    total = 0
    max_pc = defaultdict(int)
    max_rc = defaultdict(int)
    while total < 5_000:
        m, n = rng.randint(4, 10), rng.randint(4, 10)
        density = rng.choice([0.4, 0.5, 0.6, 0.7])
        topo = random_chordal_bipartite(m, n, density, rng)
        msgs = all_unicast_messages(topo)
        if not msgs:
            continue
        g = build_conflict_graph(topo, msgs).graph
        if not is_weakly_chordal(g):
            continue
        state = static_color(g)
        absent = [(j, i) for j in range(topo.N) for i in range(topo.M)
                  if not topo.connected(j, i)]
        rng.shuffle(absent)
        for (j, i) in absent[:2]:
            deltas = topology_event_to_conflict_deltas(topo, msgs, "insert", j, i)
            st, reports, ok = state, [], True
            for d in deltas:
                if st.graph.has_edge(d.u, d.v):
                    continue
                if not stays_weakly_chordal_after_insert(st.graph, d.u, d.v):
                    ok = False
                    break
                st, rep = insert_update(st, d.u, d.v)
                reports.append((st.graph.n, rep))
            if not ok:
                continue
            for size, rep in reports:
                total += 1
                bucket = min(size // 10 * 10, 50)
                max_pc[bucket] = max(max_pc[bucket], rep.pairs_changed)
                max_rc[bucket] = max(max_rc[bucket], len(rep.recolored))
                assert rep.pairs_changed <= BOUND, (size, rep.to_dict())
                assert len(rep.recolored) <= BOUND, (size, rep.to_dict())
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    buckets = sorted(max_pc)
    print(f"PASS criterion 3: {total} insertions, all within bound {BOUND}, "
          f"{elapsed:.1f}s")
    print("  n bucket   max pairs_changed   max recolored")
    for b in buckets:
        print(f"  {b:>2}-{b + 9:<7} {max_pc[b]:>17} {max_rc[b]:>15}")
    # flatness: the maxima over the larger half must not exceed the bound
    # observed on the smaller half by more than a constant already capped
    assert max(max_pc[b] for b in buckets) <= BOUND
    assert max(max_rc[b] for b in buckets) <= BOUND


def test_criterion_4_figure_replays():
    """The three worked examples reproduce exactly."""
    # six-vertex example: 3 colors from the pairs (v2,v5), (v1,v4), (v3,v6)
    fig6 = fixture_graph("fig6.json")
    base = static_color(fig6)
    assert base.color_count == 3
    pairs = {frozenset((r.x, r.y)) for r in base.order}
    assert pairs == {frozenset({1, 4}), frozenset({0, 3}), frozenset({2, 5})}
    classes = set(merged_classes(fig6, base.order))
    assert classes == {frozenset({1, 4}), frozenset({0, 3}), frozenset({2, 5})}

    # inserting the (v2,v5) diagonal: case I-3-1, repaired pairs, still 3 colors
    state, rep = insert_update(base, 1, 4)
    assert rep.case_label == "I-3-1"
    added = {frozenset((r.x, r.y)) for r in rep.pairs_added}
    assert added == {frozenset({1, 3}), frozenset({0, 4})}
    assert rep.colors_after == 3 and verify_state(state)

    # deletion example: case D-2, the extra pair merges v1 into {v4,v7}, 3 -> 2
    fig9 = fixture_graph("fig9.json")
    state, rep = delete_update(static_color(fig9), 0, 3)
    assert rep.case_label == "D-2"
    assert (rep.colors_before, rep.colors_after) == (3, 2)
    assert frozenset({0, 3, 6}) in merged_classes(state.graph, state.order)
    assert verify_state(state)

    # growth example: case I-3-2 adds a color
    fig8 = fixture_graph("fig8.json")
    state, rep = insert_update(static_color(fig8), 0, 3)
    assert rep.case_label == "I-3-2"
    assert (rep.colors_before, rep.colors_after) == (2, 3)
    assert verify_state(state)
    print("PASS criterion 4: figure replays exact (I-3-1 pairs, D-2 merge, I-3-2)")


def test_criterion_5_line_graph_square():
    """Conflict graph == square(line_graph) on >= 200 bipartite topologies."""
    t0 = time.monotonic()
    rng = random.Random(505)
    checked = 0
    while checked < 200:
        m, n = rng.randint(2, 6), rng.randint(2, 7)
        links = frozenset(
            (j, i) for j in range(n) for i in range(m)
            if rng.random() < rng.choice([0.2, 0.5, 0.8])
        )
        if not links:
            continue
        from timcolor.tim import TopologyGraph

        topo = TopologyGraph(m, n, links)
        msgs = all_unicast_messages(topo)
        cg = build_conflict_graph(topo, msgs)
        sq = topo.bipartite_graph().line_graph().square()
        # line-graph vertices follow sorted bipartite edges (i, M+j);
        # messages are destination-major — map through the shared labels
        order = sorted(range(len(msgs)),
                       key=lambda k: (msgs[k].source, msgs[k].destination))
        pos = {k: r for r, k in enumerate(order)}
        expect = {frozenset((pos[a], pos[b])) for a, b in cg.graph.edges()}
        got = {frozenset(e) for e in sq.edges()}
        assert got == expect, (m, n, sorted(links))
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    print(f"PASS criterion 5: identity on {checked} topologies, {elapsed:.1f}s")


def test_criterion_6_closure_and_forbidden_patterns():
    """Convex conflict graphs: weakly chordal, no forbidden pattern embeds."""
    t0 = time.monotonic()
    library = list(load_pattern_library())
    assert len(library) == 7
    rng = random.Random(606)
    checked = 0
    while checked < 200:
        topo = random_convex(rng.randint(4, 10), rng.randint(4, 10), rng)
        msgs = all_unicast_messages(topo)
        if not msgs:
            continue
        g = build_conflict_graph(topo, msgs).graph
        assert is_weakly_chordal(g)
        assert scan_forbidden(g, library) == []
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    print(f"PASS criterion 6: {checked} convex topologies clean of "
          f"{len(library)} patterns, {elapsed:.1f}s")


def test_criterion_7_order_independence():
    """10 random two-pair orders each give static_color's count on 100 graphs.

    The draws must differ on most graphs, or the criterion would hold
    vacuously; only near-cliques with at most one order may repeat one.
    """
    t0 = time.monotonic()
    rng = random.Random(707)
    varied = 0
    for _ in range(100):
        n = rng.randint(2, 12)
        g = random_weakly_chordal(n, rng.randint(0, 2 * n), rng)
        k = static_color(g).color_count
        draws = [random_order_state(g, random.Random(seed)) for seed in range(10)]
        assert all(d.color_count == k for d in draws), g.to_dict()
        varied += len({d.order for d in draws}) > 1
    assert varied > 50
    elapsed = time.monotonic() - t0
    print(f"PASS criterion 7: 100 graphs x 10 orders, identical counts, "
          f"{varied} graphs with distinct orders, {elapsed:.1f}s")
