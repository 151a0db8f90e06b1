"""Bounded exploration of the move graph.

States are canonical strings; the representative of a state is rebuilt
deterministically by parsing the string, so stored move sites always
refer to the representative's labels and every path replays.  The move
set here includes R2+stab, the stabilizing addition across distinct
faces, without which genus-changing transitions would be unreachable.

Honest verdicts only: bounded meeting proves equivalence (the path is
replayed before being returned), an invariant mismatch proves
inequivalence, and everything else is Unknown.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .codec import parse_gauss, to_diagram
from .diagram import Diagram, canonical_string, require_valid, stats
from .invariants import Quandle, dihedral_quandle, f_poly, quandle_colorings
from .moves import MoveSite, _apply_unchecked, _site_applies, enumerate_moves
from .surface import genus

DEFAULT_QUANDLES: tuple[tuple[str, Quandle], ...] = (
    ("R3", dihedral_quandle(3)),
    ("R5", dihedral_quandle(5)),
)


class SearchError(RuntimeError):
    """A path the search found did not replay; no verdict is returned."""


@dataclass(frozen=True)
class SearchBounds:
    max_crossings: int
    max_depth: int | None = None
    max_states: int | None = 20000

    def check(self, *diagrams: Diagram) -> None:
        if self.max_crossings <= 0:
            raise ValueError("max_crossings must be positive")
        if self.max_depth is not None and self.max_depth <= 0:
            raise ValueError("max_depth must be positive")
        if self.max_states is not None and self.max_states <= 0:
            raise ValueError("max_states must be positive")
        for d in diagrams:
            if d.n_vertices > self.max_crossings:
                raise ValueError(
                    f"input has {d.n_vertices} crossings, above max_crossings={self.max_crossings}")


@dataclass(frozen=True)
class OrbitResult:
    states: frozenset[str]
    truncated: bool
    explored: int


@dataclass(frozen=True)
class SearchOutcome:
    verdict: str  # "equivalent" | "distinguished" | "unknown"
    path: tuple[tuple[MoveSite, str], ...] | None
    distinguishers: tuple[tuple[str, str, str], ...]
    explored: int
    truncated: bool
    witness: Diagram | None = None


@dataclass(frozen=True)
class MinimizeResult:
    witness: Diagram
    total_genus: int
    crossings: int
    certified: bool
    explored: int


def _rep(cs: str) -> Diagram:
    return to_diagram(parse_gauss(cs))


def _kinds_for(v: int, bounds: SearchBounds) -> set[str]:
    kinds = {"R1-", "R2-", "R3"}
    if v + 1 <= bounds.max_crossings:
        kinds.add("R1+")
    if v + 2 <= bounds.max_crossings:
        kinds.update(("R2+", "R2+stab"))
    return kinds


def _expand(rep: Diagram, bounds: SearchBounds):
    """Deterministic (site, canonical result) successors within the crossing cap."""
    for site in enumerate_moves(rep, _kinds_for(rep.n_vertices, bounds)):
        result = _apply_unchecked(rep, site)
        if result.n_vertices <= bounds.max_crossings:
            yield site, canonical_string(result)


def _bfs_closure(start_cs: str, bounds: SearchBounds):
    """Breadth-first closure; returns (visited set, parents, truncated).

    parents maps each reached state to (previous state, site applied on
    the previous state's representative); the start maps to None.
    """
    visited = {start_cs}
    parents: dict[str, tuple[str, MoveSite] | None] = {start_cs: None}
    frontier = [start_cs]
    truncated = False
    depth = 0
    while frontier:
        if bounds.max_depth is not None and depth >= bounds.max_depth:
            truncated = True
            break
        next_frontier = []
        for cs in sorted(frontier):
            rep = _rep(cs)
            for site, cs2 in _expand(rep, bounds):
                if cs2 in visited:
                    continue
                if bounds.max_states is not None and len(visited) >= bounds.max_states:
                    truncated = True
                    continue
                visited.add(cs2)
                parents[cs2] = (cs, site)
                next_frontier.append(cs2)
        frontier = next_frontier
        depth += 1
    return visited, parents, truncated


def orbit(d: Diagram, bounds: SearchBounds) -> OrbitResult:
    """Canonical strings reachable through moves (R2+stab included) without
    exceeding the crossing cap; truncated marks depth or state exhaustion."""
    require_valid(d)
    bounds.check(d)
    visited, _, truncated = _bfs_closure(canonical_string(d), bounds)
    return OrbitResult(frozenset(visited), truncated, len(visited))


def invariant_table(d: Diagram, quandles=DEFAULT_QUANDLES) -> tuple[tuple[str, str], ...]:
    """Named invariant values used for Distinguished verdicts, as strings."""
    rows = [("components", str(stats(d).components))]
    for name, q in quandles:
        rows.append((f"colorings[{name}]", str(quandle_colorings(d, q))))
    rows.append(("f_poly", str(f_poly(d))))
    return tuple(rows)


def _replay(start_cs: str, path, end_cs: str) -> bool:
    cs = start_cs
    for site, expected in path:
        rep = _rep(cs)
        if not _site_applies(rep, site):
            return False
        result = _apply_unchecked(rep, site)
        if not result.is_valid or canonical_string(result) != expected:
            return False
        cs = expected
    return cs == end_cs


def _chain_to(parents, cs: str) -> list[tuple[str, MoveSite, str]]:
    """(previous, site, state) steps from the BFS root to ``cs``."""
    steps = []
    while parents[cs] is not None:
        prev, site = parents[cs]
        steps.append((prev, site, cs))
        cs = prev
    steps.reverse()
    return steps


def _invert_step(prev_cs: str, site: MoveSite, cs: str, bounds: SearchBounds):
    """A site on cs's representative that moves back to prev_cs."""
    rep = _rep(cs)
    for cand in enumerate_moves(rep, _kinds_for(rep.n_vertices, bounds)):
        result = _apply_unchecked(rep, cand)
        if result.n_vertices <= bounds.max_crossings and canonical_string(result) == prev_cs:
            return cand
    return None


def equivalent(d1: Diagram, d2: Diagram, bounds: SearchBounds,
               quandles=DEFAULT_QUANDLES) -> SearchOutcome:
    """Equivalent (replayable path) / Distinguished (invariant mismatch,
    every differing invariant reported) / Unknown (bounds exhausted)."""
    require_valid(d1)
    require_valid(d2)
    bounds.check(d1, d2)
    cs1, cs2 = canonical_string(d1), canonical_string(d2)
    if cs1 == cs2:
        return SearchOutcome("equivalent", (), (), 1, False)

    t1, t2 = invariant_table(d1, quandles), invariant_table(d2, quandles)
    differs = tuple((n1, v1, v2) for (n1, v1), (_, v2) in zip(t1, t2) if v1 != v2)
    if differs:
        return SearchOutcome("distinguished", None, differs, 2, False)

    # bidirectional meet: expand the smaller frontier first
    sides = {
        "f": ({cs1: None}, [cs1]),
        "b": ({cs2: None}, [cs2]),
    }
    parents_f, frontier_f = sides["f"]
    parents_b, frontier_b = sides["b"]
    truncated = False
    depth = 0
    meet = None
    while frontier_f and frontier_b and meet is None:
        if bounds.max_depth is not None and depth >= bounds.max_depth:
            truncated = True
            break
        if bounds.max_states is not None and len(parents_f) + len(parents_b) >= bounds.max_states:
            truncated = True
            break
        if len(frontier_f) <= len(frontier_b):
            parents, frontier, other = parents_f, frontier_f, parents_b
        else:
            parents, frontier, other = parents_b, frontier_b, parents_f
        next_frontier = []
        for cs in sorted(frontier):
            rep = _rep(cs)
            for site, cs_next in _expand(rep, bounds):
                if cs_next in parents:
                    continue
                parents[cs_next] = (cs, site)
                next_frontier.append(cs_next)
                if cs_next in other:
                    meet = cs_next
                    break
            if meet:
                break
        if parents is parents_f:
            frontier_f = next_frontier
        else:
            frontier_b = next_frontier
        depth += 1

    explored = len(parents_f) + len(parents_b)
    if meet is None:
        return SearchOutcome("unknown", None, (), explored, True)

    path = [(site, cs) for _, site, cs in _chain_to(parents_f, meet)]
    for prev, site, cs in reversed(_chain_to(parents_b, meet)):
        inv = _invert_step(prev, site, cs, bounds)
        if inv is None:
            return SearchOutcome("unknown", None, (), explored, True)
        path.append((inv, prev))
    path_t = tuple(path)
    if not _replay(cs1, path_t, cs2):
        raise SearchError("equivalence path failed to replay")
    return SearchOutcome("equivalent", path_t, (), explored, truncated)


def minimize(d: Diagram, bounds: SearchBounds) -> MinimizeResult:
    """Orbit element minimizing (total genus, crossings, canonical string);
    certified only when the bounded orbit closed without truncation."""
    require_valid(d)
    bounds.check(d)
    visited, _, truncated = _bfs_closure(canonical_string(d), bounds)

    def key(cs: str):
        rep = _rep(cs)
        return (genus(rep).total, rep.n_vertices, cs)

    best = min(visited, key=key)
    g, v, _ = key(best)
    return MinimizeResult(
        witness=_rep(best),
        total_genus=g,
        crossings=v,
        certified=not truncated,
        explored=len(visited),
    )


@dataclass(frozen=True)
class ClassifyReport:
    classes: tuple[tuple[str, ...], ...]          # canonical strings per class
    invariants: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    witnesses: tuple[tuple[str, str], ...]        # class representative -> witness string
    unresolved: tuple[tuple[str, str], ...]       # same-invariant pairs left unknown
    violations: tuple[str, ...]
    explored: int

    def to_text(self) -> str:
        lines = [f"diagrams: {sum(len(c) for c in self.classes)}",
                 f"classes: {len(self.classes)}"]
        for i, cls in enumerate(self.classes, start=1):
            lines.append(f"class {i}: size {len(cls)}")
            for cs in cls:
                lines.append(f"  member: {cs if cs else '(empty)'}")
            for rep_cs, wit in self.witnesses:
                if rep_cs == cls[0]:
                    lines.append(f"  minimal: {wit if wit else '(empty)'}")
        lines.append("invariants:")
        for cs, table in self.invariants:
            row = " ".join(f"{name}={val}" for name, val in table)
            lines.append(f"  {cs if cs else '(empty)'} :: {row}")
        if self.unresolved:
            lines.append("unresolved:")
            for a, b in self.unresolved:
                lines.append(f"  {a} ~? {b}")
        else:
            lines.append("unresolved: none")
        if self.violations:
            lines.append("violations:")
            lines.extend(f"  {v}" for v in self.violations)
        else:
            lines.append("violations: none")
        return "\n".join(lines)


def classify_corpus(diagrams, bounds: SearchBounds,
                    quandles=DEFAULT_QUANDLES) -> ClassifyReport:
    """Partition a corpus by bounded equivalence search.

    Diagrams are deduplicated by canonical string, grouped by invariant
    table, and groups are refined by pairwise search.  Pairs that share
    invariants but neither meet nor split are reported unresolved.
    """
    entries: dict[str, Diagram] = {}
    for d in diagrams:
        require_valid(d)
        entries.setdefault(canonical_string(d), d)
    keys = sorted(entries)
    tables = {cs: invariant_table(entries[cs], quandles) for cs in keys}

    parent = {cs: cs for cs in keys}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    explored = 0
    unresolved = []
    by_table: dict[tuple, list[str]] = {}
    for cs in keys:
        by_table.setdefault(tables[cs], []).append(cs)
    for group in by_table.values():
        for a, b in itertools.combinations(group, 2):
            if find(a) == find(b):
                continue
            outcome = equivalent(entries[a], entries[b], bounds, quandles)
            explored += outcome.explored
            if outcome.verdict == "equivalent":
                parent[find(b)] = find(a)
            elif outcome.verdict == "unknown":
                unresolved.append((a, b))

    classes_map: dict[str, list[str]] = {}
    for cs in keys:
        classes_map.setdefault(find(cs), []).append(cs)
    classes = tuple(tuple(sorted(v)) for v in
                    sorted(classes_map.values(), key=lambda v: min(v)))

    violations = []
    for cls in classes:
        base = tables[cls[0]]
        for cs in cls[1:]:
            if tables[cs] != base:
                violations.append(
                    f"equivalent diagrams with differing invariants: {cls[0]} vs {cs}")

    witnesses = []
    for cls in classes:
        rep_cs = cls[0]
        res = minimize(entries.get(rep_cs) or _rep(rep_cs), bounds)
        witnesses.append((rep_cs, canonical_string(res.witness)))

    return ClassifyReport(
        classes=classes,
        invariants=tuple((cs, tables[cs]) for cs in keys),
        witnesses=tuple(witnesses),
        unresolved=tuple(unresolved),
        violations=tuple(violations),
        explored=explored,
    )
