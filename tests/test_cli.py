"""End-to-end tests for the ``timcolor`` command line interface.

Every test drives ``timcolor.cli.main`` with an argv list and asserts on the
exit code plus the JSON payload written to stdout (or ``--out``).
"""

import json
import os
import subprocess
import sys
from functools import reduce
from importlib import resources
from operator import getitem
from pathlib import Path

import pytest

import timcolor
from timcolor.cli import EXIT_ASSERTION, EXIT_OK, EXIT_USAGE, build_parser, main
from timcolor.harness import TrialConfig, run_simulation

from conftest import load_fixture


def fixture_path(tmp_path, name):
    text = resources.files("timcolor.fixtures").joinpath(name).read_text("utf-8")
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


class TestColor:
    def test_fig6_three_colors(self, capsys, tmp_path):
        code, payload, _ = run_json(capsys, "color", fixture_path(tmp_path, "fig6.json"))
        assert code == EXIT_OK
        assert payload["color_count"] == 3
        assert len(payload["clique"]) == 3
        assert set(payload) >= {"colors", "color_count", "clique", "order", "graph"}

    def test_state_file_roundtrips_through_verify(self, capsys, tmp_path):
        state_file = tmp_path / "state.json"
        code, _, _ = run(capsys, "color", fixture_path(tmp_path, "fig6.json"),
                         "--out", str(state_file))
        assert code == EXIT_OK
        code, payload, _ = run_json(capsys, "verify", str(state_file))
        assert code == EXIT_OK
        assert payload == {"ok": True, "problems": []}

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "color", str(tmp_path / "nope.json"))
        assert code == EXIT_USAGE
        assert not out and "cannot read" in err

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "color", str(bad))
        assert code == EXIT_USAGE
        assert "not valid JSON" in err

    def test_non_weakly_chordal_rejected_with_verify(self, capsys, tmp_path):
        code, out, err = run(capsys, "color", fixture_path(tmp_path, "c5.json"),
                             "--verify")
        assert code == EXIT_USAGE
        assert not out

    def test_negative_vertex_count_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "neg.json"
        bad.write_text('{"n": -1, "edges": []}')
        code, out, err = run(capsys, "color", str(bad))
        assert code == EXIT_USAGE
        assert not out
        assert err == f"timcolor: error: {bad} is not a valid graph file: negative vertex count -1\n"

    def test_json_error_format(self, capsys, tmp_path):
        code, out, err = run(capsys, "--json", "color", str(tmp_path / "nope.json"))
        assert code == EXIT_USAGE
        blob = json.loads(err)
        assert blob["exit_code"] == EXIT_USAGE
        assert blob["error"] == "CliError"
        assert "message" in blob


class TestSteps:
    @pytest.fixture
    def fig6_state(self, capsys, tmp_path):
        state_file = tmp_path / "state.json"
        assert main(["color", fixture_path(tmp_path, "fig6.json"),
                     "--out", str(state_file)]) == EXIT_OK
        capsys.readouterr()
        return state_file

    def test_insert_then_delete_roundtrip(self, capsys, tmp_path, fig6_state):
        code, payload, _ = run_json(capsys, "insert", str(fig6_state), "1", "4",
                                    "--verify")
        assert code == EXIT_OK
        assert payload["report"]["kind"] == "insert"
        assert payload["report"]["colors_after"] == 3

        mid = tmp_path / "mid.json"
        mid.write_text(json.dumps(payload["state"]))
        code, payload, _ = run_json(capsys, "delete", str(mid), "1", "4", "--verify")
        assert code == EXIT_OK
        assert payload["report"]["kind"] == "delete"
        assert payload["report"]["colors_after"] == 3

    def test_bound_violation_exits_2(self, capsys, fig6_state):
        code, payload, _ = run_json(capsys, "insert", str(fig6_state), "1", "4",
                                    "--bound", "0")
        assert code == EXIT_ASSERTION
        assert "locality bound" in payload["error"]

    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize("kind", ["insert", "delete"])
    def test_invalid_input_state_exits_2(self, capsys, fig6_state, kind, as_json):
        """A state file that verify rejects is reported, not replayed."""
        blob = json.loads(fig6_state.read_text())
        (x, y, z), (x1, y1, z1) = blob["order"][:2]
        live = min(set(range(6)) - {x, y})
        corruptions = {
            # a record naming an id that no record made
            "references dead vertex": [[x, y, z], [99, y1, z1]] + blob["order"][2:],
            # a record whose z is a live base vertex
            f"reuses live id {live}": [[x, y, live]] + blob["order"][1:],
        }
        u, v = (1, 4) if kind == "insert" else load_fixture("fig6.json")["edges"][0]
        for problem, order in corruptions.items():
            fig6_state.write_text(json.dumps({**blob, "order": order}))
            argv = ["--json"] * as_json + [kind, str(fig6_state), str(u), str(v)]
            code, payload, err = run_json(capsys, *argv)
            assert code == EXIT_ASSERTION and not err
            assert payload["error"] == "input state failed verification"
            assert len(payload["problems"]) == 1 and problem in payload["problems"][0]

    def test_inserting_existing_edge_is_an_error(self, capsys, fig6_state):
        edge = load_fixture("fig6.json")["edges"][0]
        code, out, err = run(capsys, "insert", str(fig6_state),
                             str(edge[0]), str(edge[1]))
        assert code == EXIT_USAGE
        assert not out

    @pytest.mark.parametrize("n", [5, 6])
    def test_inadmissible_event_is_refused(self, capsys, caplog, tmp_path, n):
        """Closing a path into a hole is refused before any repair runs.

        Without the admission check, P6 + (0,5) was repaired into a state of
        the hole C6, and P5 + (0,4) fell back to a static recompute that failed.
        """
        graph, state, bad = (tmp_path / name for name in ("path.json", "state.json", "bad.json"))
        graph.write_text(json.dumps({"n": n, "edges": [[i, i + 1] for i in range(n - 1)]}))
        assert main(["color", str(graph), "--out", str(state)]) == EXIT_OK
        code, out, err = run(capsys, "insert", str(state), "0", str(n - 1),
                             "--verify", "--out", str(bad))
        assert code == EXIT_USAGE and not out
        assert f"insert (0,{n - 1}) would leave the graph not weakly chordal" in err
        assert not bad.exists()
        assert "falling back" not in caplog.text


class TestVerify:
    def test_corrupt_state_exits_2(self, capsys, tmp_path):
        state_file = tmp_path / "state.json"
        assert main(["color", fixture_path(tmp_path, "fig6.json"),
                     "--out", str(state_file)]) == EXIT_OK
        capsys.readouterr()
        blob = json.loads(state_file.read_text())
        blob["color_count"] += 1
        state_file.write_text(json.dumps(blob))
        code, payload, _ = run_json(capsys, "verify", str(state_file))
        assert code == EXIT_ASSERTION
        assert payload["ok"] is False and payload["problems"]

    def test_record_reusing_live_id_exits_2(self, capsys, tmp_path):
        state_file = tmp_path / "state.json"
        assert main(["color", fixture_path(tmp_path, "fig6.json"),
                     "--out", str(state_file)]) == EXIT_OK
        capsys.readouterr()
        blob = json.loads(state_file.read_text())
        x, y, _ = blob["order"][0]
        blob["order"][0] = [x, y, x]
        state_file.write_text(json.dumps(blob))
        code, payload, err = run_json(capsys, "verify", str(state_file))
        assert code == EXIT_ASSERTION and not err
        assert payload == {"ok": False,
                           "problems": [f"order record ({x},{y},{x}) reuses live id {x}"]}


    def test_record_reusing_dead_id_exits_2(self, capsys, tmp_path):
        """An order that reuses a dead id is rejected by verify and by insert."""
        state_file = tmp_path / "state.json"
        state_file.write_text(json.dumps({
            "graph": {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]},
            "colors": {"0": 1, "1": 2, "2": 1, "3": 2, "4": 1},
            "color_count": 2,
            "clique": [0, 1],
            "order": [[0, 2, 5], [1, 3, 0], [4, 5, 7]],
        }))
        problems = ["order record (1,3,0) reuses dead id 0"]
        code, payload, err = run_json(capsys, "verify", str(state_file))
        assert code == EXIT_ASSERTION and not err
        assert payload == {"ok": False, "problems": problems}
        code, payload, err = run_json(capsys, "insert", str(state_file), "0", "4")
        assert code == EXIT_ASSERTION and not err
        assert payload["problems"] == problems


    @pytest.mark.parametrize("relabel", [str, lambda c: c + 0.5, lambda c: True, lambda c: 5])
    def test_colors_off_the_palette_exit_2(self, capsys, tmp_path, relabel):
        """A state whose top color is not an int in 1..k is refused by verify
        and by insert with the problem list; a string or float color used to
        pass verify and end insert in a TypeError."""
        state_file = tmp_path / "state.json"
        assert main(["color", fixture_path(tmp_path, "fig6.json"),
                     "--out", str(state_file)]) == EXIT_OK
        capsys.readouterr()
        blob = json.loads(state_file.read_text())
        k = blob["color_count"]
        off = sorted(int(v) for v, c in blob["colors"].items() if c == k)
        blob["colors"] = {v: relabel(c) if c == k else c for v, c in blob["colors"].items()}
        state_file.write_text(json.dumps(blob))
        problems = [f"vertex {v} has color {relabel(k)!r}, not one of 1..{k}" for v in off]
        code, payload, err = run_json(capsys, "verify", str(state_file))
        assert code == EXIT_ASSERTION and not err
        assert payload == {"ok": False, "problems": problems}
        code, payload, err = run_json(capsys, "insert", str(state_file), "1", "4")
        assert code == EXIT_ASSERTION and not err
        assert payload["problems"] == problems


class TestNonIntegers:
    """A size or index that is not a JSON integer is a usage error with one
    line: none is truncated, and a bool is not an integer."""

    @pytest.mark.parametrize("command, blob, message", [
        ("color", {"n": 2.5, "edges": [[0, 1]]}, "vertex count must be an integer, not 2.5"),
        ("color", {"n": 3, "edges": [[True, 2]]}, "edge endpoint must be an integer, not true"),
        ("color", {"n": 3, "edges": [[1.0, 2]]}, "edge endpoint must be an integer, not 1.0"),
        ("schedule", {"M": 1.9, "N": True, "links": [[0, 0]]}, "M must be an integer, not 1.9"),
        ("schedule", {"M": 2, "N": 2, "links": [[1.7, 1]]},
         "link index must be an integer, not 1.7"),
    ])
    def test_input_files(self, capsys, tmp_path, command, blob, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        code, out, err = run(capsys, command, str(bad))
        assert code == EXIT_USAGE and not out
        assert err.startswith("timcolor: error: ") and err.endswith(f": {message}\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["verify", "insert", "delete"])
    @pytest.mark.parametrize("where, value, message", [
        (("order", 0, 2), 99.5, "order id must be an integer, not 99.5"),
        (("color_count",), 3.0, "color_count must be an integer, not 3.0"),
        (("clique", 0), True, "clique member must be an integer, not true"),
        (("colors",), [1, 2, 3], "colors must be an object, not [1, 2, 3]"),
    ])
    def test_state_files(self, capsys, tmp_path, command, where, value, message):
        def edit(blob):
            *inner, last = where
            reduce(getitem, inner, blob)[last] = value

        self.check_state_file(capsys, tmp_path, command, edit, message)

    @pytest.mark.parametrize("command", ["verify", "insert", "delete"])
    @pytest.mark.parametrize("key", [" 1 ", "1_0", "01", "+1", "1.0", "one"])
    def test_color_keys(self, capsys, tmp_path, command, key):
        """A colors key names a vertex only as str(id): vertex 1's color
        under any other spelling is refused, not read as vertex 1 or 10."""
        def edit(blob):
            blob["colors"][key] = blob["colors"].pop("1")

        message = f"color key must be an integer, not {json.dumps(key)}"
        self.check_state_file(capsys, tmp_path, command, edit, message)

    @staticmethod
    def check_state_file(capsys, tmp_path, command, edit, message):
        """`command` on fig6's state after `edit` exits 1 with one line."""
        state_file = tmp_path / "state.json"
        assert main(["color", fixture_path(tmp_path, "fig6.json"),
                     "--out", str(state_file)]) == EXIT_OK
        capsys.readouterr()
        blob = json.loads(state_file.read_text())
        edit(blob)
        state_file.write_text(json.dumps(blob))
        event = {"verify": [], "insert": ["1", "4"], "delete": ["0", "1"]}[command]
        code, out, err = run(capsys, command, str(state_file), *event)
        assert code == EXIT_USAGE and not out
        assert err == f"timcolor: error: {state_file} is not a valid state file: {message}\n"


class TestTopology:
    def test_negative_size_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "neg.json"
        bad.write_text('{"M": -2, "N": 3, "links": []}')
        code, out, err = run(capsys, "schedule", str(bad))
        assert code == EXIT_USAGE
        assert not out and err == "timcolor: error: negative size M=-2, N=3\n"

    def test_conflict_emits_labeled_graph(self, capsys, tmp_path):
        code, payload, _ = run_json(
            capsys, "conflict", fixture_path(tmp_path, "fig1_topology.json"))
        assert code == EXIT_OK
        assert set(payload) == {"topology", "graph"}
        labels = payload["graph"]["labels"]
        assert all("->" in lab for lab in labels.values())

    def test_schedule_partitions_messages(self, capsys, tmp_path):
        code, payload, _ = run_json(
            capsys, "schedule", fixture_path(tmp_path, "fig1_topology.json"))
        assert code == EXIT_OK
        assert payload["dof"]["color_count"] == len(payload["slots"])
        scheduled = [m for slot in payload["slots"] for m in slot]
        assert sorted(scheduled) == sorted(set(scheduled))
        assert payload["dof"]["message_count"] == len(scheduled)
        assert payload["dof"]["symmetric_dof"]


class TestOracle:
    def test_c5_chromatic_and_clique(self, capsys, tmp_path):
        code, payload, _ = run_json(capsys, "oracle", fixture_path(tmp_path, "c5.json"))
        assert code == EXIT_OK
        assert payload["chromatic_number"] == 3
        assert payload["clique_number"] == 2

    def test_cap_exceeded(self, capsys, tmp_path):
        code, out, err = run(capsys, "--json", "oracle",
                             fixture_path(tmp_path, "c5.json"), "--oracle-cap", "2")
        assert code == EXIT_USAGE
        assert json.loads(err)["error"] == "OracleCapExceeded"


class TestSimulate:
    def test_trial_runs_and_writes_artifacts(self, capsys, tmp_path):
        cfg = {"seed": 7, "M": 4, "N": 4, "density": 0.5, "event_count": 5}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        out_dir = tmp_path / "runs"
        code, payload, _ = run_json(capsys, "simulate", str(cfg_file),
                                    "--out", str(out_dir))
        assert code == EXIT_OK
        assert payload["fallbacks"] == 0
        assert payload["events"] == 5
        for suffix in (".jsonl", ".csv", ".summary.json"):
            assert (out_dir / f"trial-seed7{suffix}").exists()

    def test_seed_override(self, capsys, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"M": 4, "N": 4, "event_count": 3}))
        out_dir = tmp_path / "runs"
        code, payload, _ = run_json(capsys, "simulate", str(cfg_file),
                                    "--out", str(out_dir), "--seed", "11")
        assert code == EXIT_OK
        assert (out_dir / "trial-seed11.jsonl").exists()

    def test_unknown_config_field_is_usage_error(self, capsys, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"bogus": 1}))
        code, out, err = run(capsys, "simulate", str(cfg_file))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "cfg", [{"M": "5"}, {"insert_fraction": "x"}, [1], {"event_count": -1}]
    )
    def test_mistyped_config_is_usage_error(self, capsys, tmp_path, cfg):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "simulate", str(cfg_file))
        assert code == EXIT_USAGE
        assert not out and err.startswith("timcolor: error: config ")

    @pytest.mark.parametrize(
        "option, message",
        [
            (("--bound", "-1"), "config field bound must be at least 0, not -1"),
            (("--oracle-cap", "-2"), "config field oracle_cap must be at least 0, not -2"),
        ],
    )
    def test_out_of_range_option_is_usage_error(self, capsys, tmp_path, option, message):
        """The options pass the config's range checks, as the same values in the file do."""
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"M": 4, "N": 4, "event_count": 5}))
        code, out, err = run(capsys, "simulate", str(cfg_file), *option)
        assert code == EXIT_USAGE
        assert not out and err == f"timcolor: error: {message}\n"
        name, value = option[0].lstrip("-").replace("-", "_"), int(option[1])
        cfg_file.write_text(json.dumps({"M": 4, "N": 4, "event_count": 5, name: value}))
        assert run(capsys, "simulate", str(cfg_file)) == (code, out, err)

    def test_negative_insert_bound_is_usage_error(self, capsys, tmp_path):
        """``insert --bound`` has ``simulate --bound``'s range: a negative
        bound is refused before the step, with no output file, instead of
        failing fig6's insertion (1, 4) as a locality violation."""
        state_file, out_file = tmp_path / "state.json", tmp_path / "bad.json"
        assert main(["color", fixture_path(tmp_path, "fig6.json"), "--out", str(state_file)]) == 0
        capsys.readouterr()
        code, out, err = run(capsys, "insert", str(state_file), "1", "4", "--bound", "-1",
                             "--out", str(out_file))
        assert code == EXIT_USAGE
        assert not out and err == "timcolor: error: bound must be at least 0, not -1\n"
        assert not out_file.exists()

    @pytest.mark.parametrize("verification_mode", [True, False])
    def test_non_weakly_chordal_topology_is_assertion_error(self, capsys, tmp_path, verification_mode):
        topo = tmp_path / "c8.json"
        topo.write_text(json.dumps(
            {"M": 4, "N": 4, "links": [[0, 0], [1, 1], [2, 2], [3, 3], [0, 1], [1, 2], [2, 3], [3, 0]]}))
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"topology_file": str(topo), "verification_mode": verification_mode, "event_count": 20}))
        code, out, err = run(capsys, "simulate", str(cfg_file))
        assert code == EXIT_ASSERTION
        assert not out and err == "timcolor: error: initial conflict graph is not weakly chordal\n"

    def test_failing_event_is_named(self, capsys, tmp_path):
        """A failing trial names the event that failed: its seq, kind,
        endpoints and case in the message, its report as ``"event"`` under
        ``--json``. Bound 0 fails at the first insert that changes a pair or
        a colour, the one an unbounded run of the same trial reports."""
        cfg = {"M": 6, "N": 6, "event_count": 40}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        argv = ["simulate", str(cfg_file), "--seed", "3", "--bound", "0"]
        code, out, err = run(capsys, "--json", *argv)
        assert code == EXIT_ASSERTION and not out
        payload = json.loads(err)
        event = payload["event"]
        unbounded = run_simulation(TrialConfig(seed=3, assert_bound=False, **cfg))
        first = next(e for e in unbounded.events if e.kind == "insert" and (e.pairs_changed or e.recolored))
        assert event == first.to_dict()
        assert payload["message"] == f"pairs changed {first.pairs_changed} > bound 0"
        code, out, err = run(capsys, *argv)
        assert code == EXIT_ASSERTION and not out
        assert err == (
            f"timcolor: error: {payload['message']} at event {first.seq}: insert"
            f" ({first.u},{first.v}), case {first.case_label}\n"
        )

    def test_failing_trial_keeps_its_log(self, capsys, tmp_path):
        """``--out`` logs every event up to the failing one, which is the last
        line of the JSONL and the CSV and is counted in the summary."""
        cfg = {"M": 6, "N": 6, "event_count": 40}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        out_dir = tmp_path / "failout"
        code, out, err = run(capsys, "--json", "simulate", str(cfg_file), "--seed", "3",
                             "--bound", "0", "--out", str(out_dir))
        assert code == EXIT_ASSERTION and not out
        lines = (out_dir / "trial-seed3.jsonl").read_text().splitlines()
        logged = [json.loads(line) for line in lines]
        assert [e["seq"] for e in logged] == [0, 1, 2, 3]
        assert logged[-1] == json.loads(err)["event"]
        assert (logged[-1]["kind"], logged[-1]["u"], logged[-1]["v"], logged[-1]["case"]) == (
            "insert", 0, 9, "I-3-1")
        unbounded = run_simulation(TrialConfig(seed=3, assert_bound=False, **cfg))
        assert logged == [e.to_dict() for e in unbounded.events[:4]]
        rows = (out_dir / "trial-seed3.csv").read_text().splitlines()
        assert [row.split(",")[:4] for row in rows[1:]] == [
            [str(e["seq"]), e["kind"], str(e["u"]), str(e["v"])] for e in logged]
        summary = json.loads((out_dir / "trial-seed3.summary.json").read_text())
        assert summary["events"] == 4 and summary["max_pairs_changed"] == 2

    def test_missing_topology_file_is_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"topology_file": str(missing)}))
        code, out, err = run(capsys, "simulate", str(cfg_file))
        assert code == EXIT_USAGE
        assert not out and err.startswith(f"timcolor: error: cannot read {missing}: ")


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("timcolor ")

    def test_missing_subcommand_is_parse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


    def test_subcommands_register_only_the_options_they_read(self):
        sub = next(a for a in build_parser()._actions if a.choices and a.dest == "command")
        options = {
            name: {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
            for name, sp in sub.choices.items()
        }
        assert options == {
            "color": {"--out", "--verify"},
            "conflict": {"--out"},
            "schedule": {"--out", "--verify"},
            "insert": {"--out", "--verify", "--bound"},
            "delete": {"--out", "--verify"},
            "simulate": {"--out", "--verify", "--seed", "--oracle-cap", "--bound"},
            "verify": {"--out"},
            "oracle": {"--out", "--oracle-cap"},
        }

    def test_option_a_command_does_not_read_is_a_parse_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["conflict", fixture_path(tmp_path, "fig1_topology.json"), "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_import_loads_no_numpy_or_scipy():
    """Every CLI call pays the import of the package, the CLI and the
    harness, so they stay dependency-free."""
    src = str(Path(timcolor.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, timcolor, timcolor.cli, timcolor.harness; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert not {m.split(".")[0] for m in out.split()} & {"numpy", "scipy"}
