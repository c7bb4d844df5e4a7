"""Adversary simulation harness: event sampling, oracles, determinism, files."""

import csv
import io
import json
import random

import pytest

from timcolor.dynamic_coloring import delete_update, insert_update
from timcolor.generators import random_weakly_chordal
from timcolor.graph import make_graph
from timcolor.harness import (
    CSV_COLUMNS,
    DEFAULT_BOUND,
    TrialAssertionError,
    TrialConfig,
    TrialReport,
    build_trial_graph,
    gen_event,
    run_simulation,
)
from timcolor.oracles import (
    ORACLE_CAP,
    OracleCapExceeded,
    brute_is_weakly_chordal,
    oracle_chromatic,
    oracle_max_clique,
)
from timcolor.static_coloring import static_color

from conftest import reference_gen_event


def cycle(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def clique(n):
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path(n):
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


class TestOracles:
    def test_c5(self, c5):
        assert oracle_chromatic(c5) == 3
        assert len(oracle_max_clique(c5)) == 2
        assert not brute_is_weakly_chordal(c5)

    def test_k4(self):
        g = clique(4)
        assert oracle_chromatic(g) == 4
        assert oracle_max_clique(g) == frozenset(range(4))

    def test_cap_enforced(self):
        g = path(ORACLE_CAP + 1)
        with pytest.raises(OracleCapExceeded):
            oracle_chromatic(g)
        assert oracle_chromatic(g, cap=g.n) == 2


class TestGenEvent:
    def test_c4_inserts_chords(self):
        # every chord of C4 keeps the graph weakly chordal
        rng = random.Random(0)
        ev = gen_event(cycle(4), rng, insert_fraction=1.0, seq=0, cap=100)
        assert ev is not None and ev.kind == "insert"
        assert frozenset((ev.u, ev.v)) in (frozenset((0, 2)), frozenset((1, 3)))

    def test_k4_insert_side_saturated(self):
        # no non-edges left: insert requests degrade to deletions
        rng = random.Random(1)
        ev = gen_event(clique(4), rng, insert_fraction=1.0, seq=0, cap=100)
        assert ev is not None and ev.kind == "delete"

    def test_empty_graph_saturated(self):
        rng = random.Random(2)
        assert gen_event(make_graph(1, []), rng, 0.5, 0, 100) is None

    def test_p5_endpoint_closure_rejected(self):
        # P5 + (0,4) is C5; the sampler must never emit it
        rng = random.Random(3)
        for _ in range(50):
            ev = gen_event(path(5), rng, 1.0, 0, 500)
            assert ev is not None
            assert frozenset((ev.u, ev.v)) != frozenset((0, 4))

    def test_all_events_admissible(self):
        from timcolor.recognition import is_weakly_chordal

        rng = random.Random(4)
        g = cycle(4)
        for _ in range(30):
            ev = gen_event(g, rng, 0.5, 0, 500)
            if ev is None:
                break
            h = g.insert_edge(ev.u, ev.v) if ev.kind == "insert" else g.delete_edge(ev.u, ev.v)
            assert is_weakly_chordal(h)
            g = h

    @pytest.mark.parametrize("seed", range(8))
    def test_candidates_in_reference_order(self, seed):
        """Candidates are drawn from ``g.edges()`` and from a ``has_edge`` scan
        of every pair, in those orders, so a seeded stream draws the events
        it always drew; on graphs with sparse ids too. The sequences drawn
        from are read item by item."""
        rng = random.Random(seed)
        g = random_weakly_chordal(rng.randint(2, 14), rng.randint(0, 40), rng)
        g = g.induced_subgraph(rng.sample(g.vertices, g.n - rng.randint(0, g.n // 3)))
        drawn = []

        class Recording(random.Random):
            def choice(self, seq):
                drawn.append(seq)
                return super().choice(seq)

        events = Recording(seed)
        for seq in range(10):
            ids = g.vertices
            pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]]
            lists = (list(g.edges()), [p for p in pairs if not g.has_edge(*p)])
            drawn.clear()
            ev = gen_event(g, events, 0.5, seq, 50)
            assert all(list(cands) in lists for cands in drawn)
            if ev is None:
                break
            assert drawn
            g = g.insert_edge(ev.u, ev.v) if ev.kind == "insert" else g.delete_edge(ev.u, ev.v)


    @pytest.mark.parametrize("kind", ["sparse", "dense", "edgeless", "complete", "trial"])
    def test_draws_match_reference(self, kind):
        """Seeded calls return the reference's events and leave the rng in
        the reference's state, for every insert fraction and caps of 1 and
        more."""
        rng = random.Random(kind)
        graphs = {
            "sparse": lambda: random_weakly_chordal(rng.randint(2, 16), rng.randint(0, 12), rng),
            "dense": lambda: random_weakly_chordal(rng.randint(2, 16), rng.randint(40, 100), rng),
            "edgeless": lambda: make_graph(rng.randint(0, 9), []),
            "complete": lambda: clique(rng.randint(0, 9)),
            "trial": lambda: build_trial_graph(TrialConfig(seed=rng.randint(1, 4), M=8, N=8)),
        }
        for _ in range(12):
            g = graphs[kind]()
            if rng.random() < 0.5 and g.n:
                g = g.induced_subgraph(rng.sample(g.vertices, g.n - rng.randint(0, g.n // 3)))
            for seed in range(100):
                fraction = (0.0, 0.5, 1.0, rng.random())[seed % 4]
                cap = (1, 2, 50)[seed % 3]
                ours, theirs = random.Random(seed), random.Random(seed)
                got = gen_event(g, ours, fraction, seed, cap)
                assert got == reference_gen_event(g, theirs, fraction, seed, cap)
                assert ours.getstate() == theirs.getstate()


class TestTrialConfig:
    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            TrialConfig.from_dict({"seed": 1, "turbo": True})

    def test_roundtrip(self):
        cfg = TrialConfig(seed=9, M=3, N=4, event_count=5)
        assert TrialConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize(
        "d, message",
        [
            ({"M": "5"}, 'config field M must be an integer, not "5"'),
            ({"M": True}, "config field M must be an integer, not true"),
            ({"event_count": 5.0}, "config field event_count must be an integer, not 5.0"),
            ({"insert_fraction": "x"}, 'config field insert_fraction must be a number, not "x"'),
            ({"density": False}, "config field density must be a number, not false"),
            ({"verification_mode": 1}, "config field verification_mode must be true or false, not 1"),
            ({"topology_file": 3}, "config field topology_file must be a string or null, not 3"),
            ({"topology_file": True}, "config field topology_file must be a string or null, not true"),
            ([1], "config must be a JSON object, not list"),
            ("M", "config must be a JSON object, not str"),
            ({"M": 0}, "config field M must be at least 1, not 0"),
            ({"N": -2}, "config field N must be at least 1, not -2"),
            ({"event_count": -1}, "config field event_count must be at least 0, not -1"),
            ({"density": 2}, "config field density must be between 0 and 1, not 2"),
            ({"density": -0.5}, "config field density must be between 0 and 1, not -0.5"),
            ({"insert_fraction": 5}, "config field insert_fraction must be between 0 and 1, not 5"),
            ({"oracle_cap": -1}, "config field oracle_cap must be at least 0, not -1"),
            ({"bound": -1}, "config field bound must be at least 0, not -1"),
            (
                {"rejection_cap_factor": 0},
                "config field rejection_cap_factor must be at least 1, not 0",
            ),
        ],
    )
    def test_rejects_mistyped_input(self, d, message):
        with pytest.raises(ValueError) as exc:
            TrialConfig.from_dict(d)
        assert str(exc.value) == message

    def test_accepts_declared_types(self):
        d = {"density": 1, "insert_fraction": 0.25, "topology_file": None, "assert_bound": False}
        cfg = TrialConfig.from_dict(d)
        assert (cfg.density, cfg.insert_fraction, cfg.topology_file) == (1, 0.25, None)
        assert cfg.assert_bound is False
        assert TrialConfig.from_dict({"topology_file": "t.json"}).topology_file == "t.json"
        d = {  # the ends of every range
            "M": 1, "N": 1, "density": 0, "insert_fraction": 1, "event_count": 0,
            "oracle_cap": 0, "bound": 0, "rejection_cap_factor": 1,
        }
        assert TrialConfig.from_dict(d) == TrialConfig(**d)


class TestRunSimulation:
    CFG = dict(seed=42, M=3, N=4, density=0.5, event_count=25, insert_fraction=0.5)

    def test_compliant_workload_clean(self):
        rep = run_simulation(TrialConfig(**self.CFG))
        assert rep.fallback_count == 0
        assert rep.equivalence_checks == len(rep.events)
        assert rep.events or rep.saturated

    def test_determinism(self):
        a = run_simulation(TrialConfig(**self.CFG))
        b = run_simulation(TrialConfig(**self.CFG))
        assert a.events_jsonl() == b.events_jsonl()
        assert a.summary() == b.summary()
        # CSV rows match except the wall-clock column, which is real time
        ra = list(csv.reader(io.StringIO(a.events_csv())))
        rb = list(csv.reader(io.StringIO(b.events_csv())))
        assert [r[:-1] for r in ra] == [r[:-1] for r in rb]
        assert ra[0] == CSV_COLUMNS and CSV_COLUMNS[-1] == "wall_us"

    def test_seed_changes_stream(self):
        a = run_simulation(TrialConfig(**self.CFG))
        b = run_simulation(TrialConfig(**{**self.CFG, "seed": 43}))
        assert a.events_jsonl() != b.events_jsonl()

    def test_output_files(self, tmp_path):
        cfg = TrialConfig(**self.CFG)
        rep = run_simulation(cfg, out_dir=str(tmp_path))
        stem = tmp_path / "trial-seed42"
        jsonl = (tmp_path / "trial-seed42.jsonl").read_text()
        assert jsonl == rep.events_jsonl()
        rows = list(csv.reader(io.StringIO((tmp_path / "trial-seed42.csv").read_text())))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) - 1 == len(rep.events)  # one row per event
        summary = json.loads((tmp_path / "trial-seed42.summary.json").read_text())
        assert summary == rep.summary()
        assert summary["seed"] == 42 and summary["fallbacks"] == 0

    def test_summary_maxima_read_the_events(self):
        """The summary's maxima and fallback count are read off the events,
        and a report with none gives zeros."""
        rep = run_simulation(TrialConfig(**{**self.CFG, "event_count": 60}))
        summary = rep.summary()
        assert summary["max_recolored"] == max(len(e.recolored) for e in rep.events) > 0
        assert summary["max_pairs_changed"] == max(e.pairs_changed for e in rep.events) > 0
        assert summary["fallbacks"] == sum(e.fallback_used for e in rep.events) == 0
        empty = TrialReport(rep.config).summary()
        assert (empty["max_recolored"], empty["max_pairs_changed"], empty["fallbacks"]) == (0, 0, 0)

    def test_jsonl_rows_are_reports(self):
        rep = run_simulation(TrialConfig(**self.CFG))
        for line in rep.events_jsonl().splitlines():
            d = json.loads(line)
            assert d["case"] in ("I-1", "I-2-1", "I-2-2", "I-3-1", "I-3-2", "D-1", "D-2")
            assert d["kind"] in ("insert", "delete")

    def test_topology_file_source(self, tmp_path):
        import importlib.resources as res

        topo = res.files("timcolor.fixtures").joinpath("fig1_topology.json").read_text()
        p = tmp_path / "topo.json"
        p.write_text(topo)
        cfg = TrialConfig(seed=7, topology_file=str(p), event_count=5)
        rep = run_simulation(cfg)
        assert rep.events and rep.fallback_count == 0


class TestInitialGraphCheck:
    # the 8-cycle network S1-D1-S2-D2-S3-D3-S4-D4: not chordal bipartite, and
    # its conflict graph is not weakly chordal
    C8 = {"M": 4, "N": 4, "links": [[0, 0], [1, 1], [2, 2], [3, 3], [0, 1], [1, 2], [2, 3], [3, 0]]}

    @pytest.mark.parametrize("verification_mode", [True, False])
    def test_non_weakly_chordal_topology_refused_in_every_mode(self, tmp_path, verification_mode):
        p = tmp_path / "c8.json"
        p.write_text(json.dumps(self.C8))
        cfg = TrialConfig(topology_file=str(p), event_count=20, verification_mode=verification_mode)
        with pytest.raises(TrialAssertionError, match="^initial conflict graph is not weakly chordal$"):
            run_simulation(cfg, out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()


class TestScale:
    N84 = dict(seed=2, M=13, N=13, density=0.5, event_count=100)

    def test_n84_dynamic_equals_static(self):
        """At n = 84 every state verifies, matches a fresh static_color, no fallback."""
        report = run_simulation(TrialConfig(**self.N84, assert_bound=False))
        assert len(report.events) == 100
        assert report.equivalence_checks == 100
        assert report.fallback_count == 0

    @pytest.mark.xfail(
        strict=True,
        raises=TrialAssertionError,
        reason="known locality defect: at n = 84, 7 of 100 updates go over the default "
        "bound of 8, all D-2 deletions, with up to 25 changed order pairs",
    )
    def test_n84_default_bound(self):
        """The bound over every update: the harness itself gates only insertions."""
        cfg = TrialConfig(**self.N84)
        for event in run_simulation(cfg).events:
            if max(event.pairs_changed, len(event.recolored)) > cfg.bound:
                message = f"{event.case_label} over bound {cfg.bound}"
                raise TrialAssertionError(message, event.to_dict())


class TestKnownDefects:
    @pytest.mark.xfail(
        strict=True,
        raises=TrialAssertionError,
        reason="known locality defect: the I-3-1 insert at event 55 changes 12 order "
        "pairs under the strict replay, over the default bound of 8",
    )
    def test_seed3_default_bound(self):
        run_simulation(TrialConfig(seed=3, M=9, N=9, event_count=60, verification_mode=False))

    @pytest.mark.xfail(
        strict=True,
        raises=TrialAssertionError,
        reason="known locality defect: the criterion-2 I-3-1 insert at event 185 changes "
        "10 order pairs, its best rung-1 drop breaking 5 records, over the default bound of 8",
    )
    def test_seed21_default_bound(self):
        run_simulation(
            TrialConfig(seed=21, M=10, N=8, density=0.5, event_count=186, verification_mode=False)
        )

    @pytest.mark.parametrize(
        "network, event, pairs, recolored",
        [
            pytest.param(1, 115, 20, 7, marks=pytest.mark.xfail(
                strict=True,
                raises=TrialAssertionError,
                reason="known locality defect: the edge-churn I-3-1 insert at event 115 of "
                "network 1 changes 20 order pairs under the strict replay, over the default "
                "bound of 8",
            )),
            pytest.param(13, 100, 16, 8, marks=pytest.mark.xfail(
                strict=True,
                raises=TrialAssertionError,
                reason="known locality defect: the edge-churn I-3-1 insert at event 100 of "
                "network 13 changes 16 order pairs under the strict replay, over the default "
                "bound of 8",
            )),
        ],
    )
    def test_edge_churn_default_bound(self, network, event, pairs, recolored):
        """The benchmark's edge-churn stream on one network, with its events
        drawn from Random(1000 + network), up to one I-3-1 insert. Its exact
        counts are asserted first, so a change to the strict replay's
        records fails here instead of passing as an expected failure."""
        cfg = TrialConfig(seed=network, M=10, N=10, density=0.5)
        state = static_color(build_trial_graph(cfg))
        rng = random.Random(1000 + network)
        cap = cfg.rejection_cap_factor * state.graph.n ** 2
        for seq in range(event + 1):
            ev = gen_event(state.graph, rng, cfg.insert_fraction, seq, cap)
            state, report = (insert_update if ev.kind == "insert" else delete_update)(
                state, ev.u, ev.v
            )
        counts = (report.case_label, report.pairs_changed, len(report.recolored))
        assert counts == ("I-3-1", pairs, recolored)
        if max(report.pairs_changed, len(report.recolored)) > DEFAULT_BOUND:
            raise TrialAssertionError(f"event {event} of network {network}: {counts} over bound")

    @pytest.mark.xfail(
        strict=True,
        raises=TrialAssertionError,
        reason="known locality defect: the I-3-1 insert at event 148 of the default "
        "run_trials.py trial at seed 3 (M = N = 6) changes 10 order pairs and recolours 4, "
        "over the default bound of 8",
    )
    def test_run_trials_seed3_default_bound(self):
        """The trial ``scripts/run_trials.py`` runs at seed 3 with its defaults,
        up to event 148, with the bound off. Its exact counts are asserted
        first, so a change to that event fails here instead of passing as an
        expected failure."""
        event = 148
        trial = run_simulation(
            TrialConfig(seed=3, M=6, N=6, event_count=event + 1, verification_mode=False,
                        assert_bound=False)
        )
        report = trial.events[event]
        counts = (report.seq, report.case_label, report.pairs_changed, len(report.recolored))
        assert counts == (event, "I-3-1", 10, 4)
        if max(report.pairs_changed, len(report.recolored)) > DEFAULT_BOUND:
            raise TrialAssertionError(f"event {event} of seed 3: {counts} over bound")
