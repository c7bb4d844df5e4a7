"""Forbidden-pattern library for the (4,4,2)-representation precondition.

A graph admits a (4,4,2) intersection representation when it is weakly
chordal and contains none of seven small forbidden induced subgraphs.
The library is stored as data (``data/forbidden_patterns.json``) rather
than hardcoded: the patterns originate from figures, so keeping them in
an interchange file isolates transcription risk and lets them be
re-validated or swapped without touching code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .graph import Graph, from_dict

PATTERN_RESOURCE = "forbidden_patterns.json"
MAX_PATTERN_VERTICES = 8


class PatternError(ValueError):
    """Raised when a pattern file violates the library invariants."""


@dataclass(frozen=True)
class PatternLibrary:
    """Named list of small forbidden graphs."""

    patterns: tuple[tuple[str, Graph], ...]

    def __iter__(self):
        return iter(self.patterns)

    def __len__(self) -> int:
        return len(self.patterns)

    @property
    def names(self) -> list[str]:
        return [name for name, _ in self.patterns]

    def get(self, name: str) -> Graph:
        for n, g in self.patterns:
            if n == name:
                return g
        raise KeyError(name)

    @classmethod
    def from_json(cls, text: str) -> "PatternLibrary":
        raw = json.loads(text)
        if not isinstance(raw, list):
            raise PatternError("pattern file must be a JSON array")
        patterns = []
        seen = set()
        for i, entry in enumerate(raw):
            if not isinstance(entry, dict):
                raise PatternError(f"pattern entry {i} must be an object, not {json.dumps(entry)}")
            name = entry.get("name")
            if not isinstance(name, str) or not name:
                raise PatternError("every pattern needs a non-empty name")
            if name in seen:
                raise PatternError(f"duplicate pattern name {name!r}")
            seen.add(name)
            try:
                g = from_dict(entry)
            except KeyError as exc:
                raise PatternError(f"pattern {name!r} has no {exc.args[0]!r} field") from exc
            if g.n > MAX_PATTERN_VERTICES:
                raise PatternError(
                    f"pattern {name!r} has {g.n} vertices "
                    f"(limit {MAX_PATTERN_VERTICES})"
                )
            patterns.append((name, g))
        return cls(tuple(patterns))


def load_pattern_library(path: Optional[str] = None) -> PatternLibrary:
    """Load the bundled library, or a library from an explicit file."""
    if path is not None:
        with open(path, encoding="utf-8") as f:
            return PatternLibrary.from_json(f.read())
    text = (
        resources.files("timcolor.data").joinpath(PATTERN_RESOURCE).read_text("utf-8")
    )
    return PatternLibrary.from_json(text)
