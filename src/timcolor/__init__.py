"""timcolor: dynamic optimal coloring of weakly chordal conflict graphs.

Library for topological interference management on chordal bipartite
networks: build message conflict graphs, color them optimally via
two-pair contraction, and maintain the optimum under edge insertions
and deletions with constant-bounded local updates.
"""

from .graph import Graph, GraphError, from_dict, from_json, make_graph
from .recognition import (
    OracleCapExceeded,
    TwoPair,
    enumerate_two_pairs,
    find_two_pair,
    has_forbidden,
    is_chordal_bipartite,
    is_two_pair,
    is_weakly_chordal,
    scan_forbidden,
)
from .patterns import PatternLibrary, load_pattern_library
from .static_coloring import (
    ColoringState,
    ContractionRecord,
    InvalidContractionError,
    NotWeaklyChordalError,
    chromatic_number,
    static_color,
    verify_state,
)
from .dynamic_coloring import UpdateReport, delete_update, insert_update
from .tim import (
    ConflictDelta,
    ConflictGraph,
    DofReport,
    Message,
    TopologyError,
    TopologyGraph,
    all_unicast_messages,
    build_conflict_graph,
    dof_report,
    emit_schedule,
    load_topology,
    messages_conflict,
    schedule_to_dict,
    topology_event_to_conflict_deltas,
)
from .harness import TrialConfig, TrialReport, run_simulation

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "GraphError",
    "from_dict",
    "from_json",
    "make_graph",
    "OracleCapExceeded",
    "TwoPair",
    "enumerate_two_pairs",
    "find_two_pair",
    "has_forbidden",
    "is_chordal_bipartite",
    "is_two_pair",
    "is_weakly_chordal",
    "scan_forbidden",
    "PatternLibrary",
    "load_pattern_library",
    "ColoringState",
    "ContractionRecord",
    "InvalidContractionError",
    "NotWeaklyChordalError",
    "chromatic_number",
    "static_color",
    "verify_state",
    "UpdateReport",
    "delete_update",
    "insert_update",
    "ConflictDelta",
    "ConflictGraph",
    "DofReport",
    "Message",
    "TopologyError",
    "TopologyGraph",
    "all_unicast_messages",
    "build_conflict_graph",
    "dof_report",
    "emit_schedule",
    "load_topology",
    "messages_conflict",
    "schedule_to_dict",
    "topology_event_to_conflict_deltas",
    "TrialConfig",
    "TrialReport",
    "run_simulation",
    "__version__",
]
