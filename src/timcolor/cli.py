"""Command-line interface.

Subcommands::

    color <graph.json>            optimal static coloring of a graph
    conflict <topology.json>      build + emit the message conflict graph
    schedule <topology.json>      TDMA slots and DoF report
    insert <state.json> u v       one dynamic edge-insertion step
    delete <state.json> u v       one dynamic edge-deletion step
    simulate <config.json>        full seeded adversarial trial
    verify <state.json>           check a saved coloring state
    oracle <graph.json>           brute-force chromatic/clique numbers

Exit codes: 0 = success, 1 = usage or I/O error (including a graph not
weakly chordal under ``--verify`` or after an ``insert``/``delete``
event), 2 = assertion failure (including a state ``verify`` rejects,
given to ``insert``/``delete`` or produced under ``--verify``).
State JSON (written by ``color``, consumed by ``insert``/``delete``/
``verify``) bundles the graph with the coloring so a step is replayable
from a single file.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import __version__
from .graph import Graph, GraphError, from_dict, require_int
from .harness import TrialAssertionError, TrialConfig, run_simulation
from .oracles import oracle_chromatic, oracle_max_clique
from .recognition import (
    ORACLE_CAP,
    OracleCapExceeded,
    is_weakly_chordal,
    stays_weakly_chordal_after_delete,
    stays_weakly_chordal_after_insert,
)
from .static_coloring import (
    ColoringState,
    ContractionRecord,
    NotWeaklyChordalError,
    diagnose_state,
    static_color,
)
from .dynamic_coloring import delete_update, insert_update
from .tim import (
    TopologyError,
    all_unicast_messages,
    build_conflict_graph,
    dof_report,
    emit_schedule,
    load_topology,
    schedule_to_dict,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSERTION = 2


class CliError(Exception):
    """Usage or I/O failure (exit code 1)."""


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc


def _load_graph(path: str) -> Graph:
    try:
        return from_dict(_load_json(path))
    except (KeyError, TypeError, ValueError, GraphError) as exc:
        raise CliError(f"{path} is not a valid graph file: {exc}") from exc


def state_to_dict(state: ColoringState) -> dict:
    d = state.to_dict()
    d["graph"] = state.graph.to_dict()
    return d


def _vertex_key(key: str) -> int:
    """The vertex id a ``colors`` key names; only ``str(id)`` itself names one."""
    try:
        if str(int(key)) == key:
            return int(key)
    except ValueError:
        pass
    raise CliError(f"color key must be an integer, not {json.dumps(key)}")


def state_from_dict(d: dict) -> ColoringState:
    """A count, clique member, order id or color key that is not a JSON
    integer, and colors that are not an object, raise ``CliError``; the
    colors themselves are ``diagnose_state``'s to check."""
    graph = from_dict(d["graph"])
    colors = d["colors"]
    if not isinstance(colors, dict):
        raise CliError(f"colors must be an object, not {json.dumps(colors)}")
    return ColoringState(
        graph=graph,
        coloring={_vertex_key(k): v for k, v in colors.items()},
        color_count=require_int(d["color_count"], "color_count", CliError),
        clique=frozenset(require_int(v, "clique member", CliError) for v in d["clique"]),
        order=tuple(
            ContractionRecord(*(require_int(i, "order id", CliError) for i in r)) for r in d["order"]
        ),
    )


def _load_state(path: str) -> ColoringState:
    try:
        return state_from_dict(_load_json(path))
    except (KeyError, TypeError, ValueError, CliError) as exc:
        raise CliError(f"{path} is not a valid state file: {exc}") from exc


def _emit(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as f:
                f.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _static_state(g: Graph, verify: bool) -> ColoringState:
    """``static_color`` of g; ``verify`` checks that g is weakly chordal first,
    and ``diagnose_state`` the state before anything is emitted or scheduled."""
    if verify and not is_weakly_chordal(g):
        raise NotWeaklyChordalError("input graph is not weakly chordal")
    state = static_color(g)
    problems = diagnose_state(state) if verify else []
    if problems:
        raise AssertionError("produced state failed verification: " + "; ".join(problems))
    return state


def _cmd_color(args) -> int:
    state = _static_state(_load_graph(args.graph), args.verify)
    _emit(state_to_dict(state), args.out)
    return EXIT_OK


def _cmd_conflict(args) -> int:
    t = load_topology(_load_json(args.topology))
    cg = build_conflict_graph(t, all_unicast_messages(t))
    labels = {v: m.label() for v, m in cg.labels.items()}
    _emit({"topology": t.to_dict(), "graph": cg.graph.to_dict(labels)}, args.out)
    return EXIT_OK


def _cmd_schedule(args) -> int:
    t = load_topology(_load_json(args.topology))
    msgs = all_unicast_messages(t)
    cg = build_conflict_graph(t, msgs)
    state = _static_state(cg.graph, args.verify)
    payload = schedule_to_dict(emit_schedule(state, msgs))
    payload["dof"] = dof_report(state, msgs).to_dict()
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_step(args, kind: str) -> int:
    bound = getattr(args, "bound", None)  # only insert takes --bound
    if bound is not None and bound < 0:
        raise CliError(f"bound must be at least 0, not {bound}")
    state = _load_state(args.state)
    problems = diagnose_state(state)
    if problems:
        _emit({"error": "input state failed verification", "problems": problems}, args.out)
        return EXIT_ASSERTION
    step, admissible = (
        (insert_update, stays_weakly_chordal_after_insert) if kind == "insert"
        else (delete_update, stays_weakly_chordal_after_delete)
    )
    if not admissible(state.graph, args.u, args.v):
        raise NotWeaklyChordalError(
            f"{kind} ({args.u},{args.v}) would leave the graph not weakly chordal")
    new_state, report = step(state, args.u, args.v)
    problems = diagnose_state(new_state) if args.verify else []
    if problems:
        _emit({"error": "post-step verification failed", "problems": problems,
               "report": report.to_dict()}, args.out)
        return EXIT_ASSERTION
    if bound is not None:
        if len(report.recolored) > bound or report.pairs_changed > bound:
            _emit({"error": f"locality bound {bound} exceeded",
                   "report": report.to_dict()}, args.out)
            return EXIT_ASSERTION
    _emit({"report": report.to_dict(), "state": state_to_dict(new_state)}, args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    # The options join the file's fields before from_dict, so they pass
    # its type and range checks too.
    d = _load_json(args.config)
    options = {"seed": args.seed, "oracle_cap": args.oracle_cap, "bound": args.bound}
    options = {k: v for k, v in options.items() if v is not None}
    if args.verify:
        options["verification_mode"] = True
    if isinstance(d, dict):
        d = {**d, **options}
    report = run_simulation(TrialConfig.from_dict(d), out_dir=args.out)
    _emit(report.summary(), None)
    return EXIT_OK


def _cmd_verify(args) -> int:
    state = _load_state(args.state)
    problems = diagnose_state(state)
    payload = {"ok": not problems, "problems": problems}
    _emit(payload, args.out)
    return EXIT_OK if not problems else EXIT_ASSERTION


def _cmd_oracle(args) -> int:
    g = _load_graph(args.graph)
    cap = args.oracle_cap if args.oracle_cap is not None else ORACLE_CAP
    clique = oracle_max_clique(g, cap=cap)
    payload = {
        "chromatic_number": oracle_chromatic(g, cap=cap),
        "clique_number": len(clique),
        "max_clique": sorted(clique),
    }
    _emit(payload, args.out)
    return EXIT_OK


# Each subcommand registers only the options it reads.
OPTIONS = {
    "--out": dict(help="write the result to this file (or dir for simulate)"),
    "--verify": dict(action="store_true", help="run full verification on produced states"),
    "--seed": dict(type=int, default=None, help="RNG seed override"),
    "--oracle-cap": dict(type=int, default=None, help="vertex cap for brute-force oracles"),
    "--bound": dict(type=int, default=None, help="asserted locality bound for insertions"),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="timcolor",
        description="Dynamic optimal coloring for TIM conflict graphs.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable error JSON on stderr")
    sub = p.add_subparsers(dest="command", required=True)

    def options(sp, *names):
        for name in names:
            sp.add_argument(name, **OPTIONS[name])

    sp = sub.add_parser("color", help="optimal static coloring")
    sp.add_argument("graph")
    options(sp, "--out", "--verify")
    sp.set_defaults(func=_cmd_color)

    sp = sub.add_parser("conflict", help="build the message conflict graph")
    sp.add_argument("topology")
    options(sp, "--out")
    sp.set_defaults(func=_cmd_conflict)

    sp = sub.add_parser("schedule", help="TDMA schedule and DoF report")
    sp.add_argument("topology")
    options(sp, "--out", "--verify")
    sp.set_defaults(func=_cmd_schedule)

    for kind, names in (("insert", ("--out", "--verify", "--bound")),
                        ("delete", ("--out", "--verify"))):
        sp = sub.add_parser(kind, help=f"one dynamic edge-{kind} step")
        sp.add_argument("state")
        sp.add_argument("u", type=int)
        sp.add_argument("v", type=int)
        options(sp, *names)
        sp.set_defaults(func=lambda a, k=kind: _cmd_step(a, k))

    sp = sub.add_parser("simulate", help="run a seeded adversarial trial")
    sp.add_argument("config")
    options(sp, *OPTIONS)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("verify", help="check a saved coloring state")
    sp.add_argument("state")
    options(sp, "--out")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("oracle", help="brute-force chromatic and clique numbers")
    sp.add_argument("graph")
    options(sp, "--out", "--oracle-cap")
    sp.set_defaults(func=_cmd_oracle)
    return p


def _report_error(exc: Exception, as_json: bool, code: int) -> int:
    event = getattr(exc, "event", None)  # the report of a trial's failing event
    if as_json:
        payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
        if event is not None:
            payload["event"] = event
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        where = "" if event is None else (
            f" at event {event['seq']}: {event['kind']} ({event['u']},{event['v']}),"
            f" case {event['case']}")
        sys.stderr.write(f"timcolor: error: {exc}{where}\n")
    return code


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    as_json = getattr(args, "json", False)
    try:
        return args.func(args)
    except CliError as exc:
        return _report_error(exc, as_json, EXIT_USAGE)
    except (TopologyError, GraphError, NotWeaklyChordalError,
            OracleCapExceeded, ValueError) as exc:
        return _report_error(exc, as_json, EXIT_USAGE)
    except (TrialAssertionError, AssertionError) as exc:
        return _report_error(exc, as_json, EXIT_ASSERTION)


if __name__ == "__main__":
    sys.exit(main())
