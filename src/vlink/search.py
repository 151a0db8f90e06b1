"""Bounded exploration of the move graph.

States are canonical strings; the representative of a state is rebuilt
deterministically by parsing the string, so stored move sites always
refer to the representative's labels and every path replays.  The move
set here includes R2+stab, the stabilizing addition across distinct
faces, without which genus-changing transitions would be unreachable.

Each distinct state's successors, and its minimize rank, are computed
once per process and kept in bounded memos (``_successors``, ``_rank``)
that every search shares.  Replay does not use them: it re-derives each
step from a freshly parsed representative.

Honest verdicts only: bounded meeting proves equivalence (the path is
replayed before being returned), an invariant mismatch proves
inequivalence, and everything else is Unknown.
"""

from __future__ import annotations

import functools
import itertools
import math
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


# crossings each move kind adds
_GROWTH = {"R1-": -1, "R2-": -2, "R3": 0, "R1+": 1, "R2+": 2, "R2+stab": 2}


def _expand(rep: Diagram, max_crossings: int):
    """Deterministic (site, result, canonical result) successors within the
    crossing cap.  The negative curl on a free loop, which
    ``enumerate_moves`` lists only beside R2+stab, is offered whenever R1+
    fits, so every kink removal stays invertible at the cap."""
    room = max_crossings - rep.n_vertices
    kinds = {kind for kind, growth in _GROWTH.items() if growth <= room}
    sites = enumerate_moves(rep, kinds)
    if room == 1 and rep.free_loops:  # R1+ fits, R2+stab does not
        sites += [MoveSite("R1+", ("loop", i), "ro") for i in range(rep.free_loops)]
        sites.sort(key=MoveSite.sort_key)
    for site in sites:
        result = _apply_unchecked(rep, site)
        yield site, result, canonical_string(result)


class _Listing:
    """``_expand``'s (site, canonical result) pairs for one state, computed
    only as far as some search has read them: a search whose budget runs
    out part-way through a state's successors builds no more of them than
    it reads.  The sites refer to the labels of ``_rep(cs)``, which is
    deterministic."""

    def __init__(self, cs: str, max_crossings: int):
        self._cs, self._cap = cs, max_crossings
        self._read: list[tuple[MoveSite, str]] = []
        self._rest = _expand(_rep(cs), max_crossings)

    def __iter__(self):
        read, i = self._read, 0
        while True:
            if i == len(read):
                try:
                    step = next(self._rest, None)
                except BaseException:
                    # an expansion that raised (or was interrupted) resumes
                    # after the pairs already read instead of ending early
                    self._rest = itertools.islice(
                        _expand(_rep(self._cs), self._cap), len(read), None)
                    raise
                if step is None:
                    return
                read.append((step[0], step[2]))
            yield read[i]
            i += 1


# distinct states whose successors (per crossing cap) and ranks are kept
_MEMO_SIZE = 2**12


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _successors(cs: str, max_crossings: int) -> _Listing:
    return _Listing(cs, max_crossings)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _rank(cs: str) -> tuple[int, int, str]:
    """(total genus, crossings, canonical string) of a state; genus and
    crossings do not change under isomorphism."""
    rep = _rep(cs)
    return genus(rep).total, rep.n_vertices, cs


class _Budget:
    """States and layers the searches sharing it may still add;
    ``truncated`` records that one of them was refused."""

    def __init__(self, bounds: SearchBounds, starts: int):
        self.bounds = bounds
        self.states = math.inf if bounds.max_states is None else bounds.max_states - starts
        self.layers = math.inf if bounds.max_depth is None else bounds.max_depth
        self.truncated = False


class _Search:
    """Breadth-first search of the move graph from one state.

    ``parents`` maps each reached state to (previous state, site applied
    on the previous state's representative); the start maps to None.
    Each layer expands the frontier in sorted order and successors in
    ``_successors`` order, and the search stops at the first new state
    the budget refuses.
    """

    def __init__(self, cs: str, budget: _Budget):
        self.parents: dict[str, tuple[str, MoveSite] | None] = {cs: None}
        self.frontier = [cs]
        self.budget = budget

    def layer(self):
        """Expand the frontier by one move; yields each new state."""
        budget = self.budget
        if budget.layers <= 0:
            budget.truncated = True
            return
        budget.layers -= 1
        parents, frontier, cap = self.parents, [], budget.bounds.max_crossings
        for cs in sorted(self.frontier):
            for site, cs2 in _successors(cs, cap):
                if cs2 in parents:
                    continue
                if budget.states <= 0:
                    budget.truncated = True
                    return
                budget.states -= 1
                parents[cs2] = (cs, site)
                frontier.append(cs2)
                yield cs2
        self.frontier = frontier

    def run(self):
        """Every layer until the orbit closes or the budget runs out."""
        while self.frontier and not self.budget.truncated:
            yield from self.layer()


def _path(parents, cs: str):
    """The search's start and its (site, state) steps to ``cs``."""
    steps = []
    while parents[cs] is not None:
        prev, site = parents[cs]
        steps.append((site, cs))
        cs = prev
    return cs, steps[::-1]


def _certify(parents, cs: str) -> None:
    start, steps = _path(parents, cs)
    if not _replay(start, steps, cs):
        raise SearchError("equivalence path failed to replay")


def orbit(d: Diagram, bounds: SearchBounds) -> OrbitResult:
    """Canonical strings reachable through moves (R2+stab included) without
    exceeding the crossing cap; truncated marks depth or state exhaustion."""
    require_valid(d)
    bounds.check(d)
    search = _Search(canonical_string(d), _Budget(bounds, 1))
    for _ in search.run():
        pass
    return OrbitResult(frozenset(search.parents), search.budget.truncated, len(search.parents))


def invariant_table(d: Diagram, quandles=DEFAULT_QUANDLES) -> tuple[tuple[str, str], ...]:
    """Named invariant values used for Distinguished verdicts, as strings.

    ``f_poly`` is computed first so that a diagram above the state-sum
    cap fails before any coloring count is spent on it.
    """
    f = str(f_poly(d))
    rows = [("components", str(stats(d).components))]
    for name, q in quandles:
        rows.append((f"colorings[{name}]", str(quandle_colorings(d, q))))
    rows.append(("f_poly", f))
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

    # meet in the middle: expand the smaller frontier first, stop at the first meet
    budget = _Budget(bounds, 2)
    fwd, bwd = _Search(cs1, budget), _Search(cs2, budget)
    meet = None
    while meet is None and fwd.frontier and bwd.frontier and not budget.truncated:
        side, other = (fwd, bwd) if len(fwd.frontier) <= len(bwd.frontier) else (bwd, fwd)
        meet = next((cs for cs in side.layer() if cs in other.parents), None)

    explored = len(fwd.parents) + len(bwd.parents)
    if meet is None:
        return SearchOutcome("unknown", None, (), explored, budget.truncated)

    path = _path(fwd.parents, meet)[1]
    cs = meet
    while bwd.parents[cs] is not None:
        prev = bwd.parents[cs][0]
        back = next((site for site, cs3 in _successors(cs, bounds.max_crossings)
                     if cs3 == prev), None)
        if back is None:
            return SearchOutcome("unknown", None, (), explored, False)
        path.append((back, prev))
        cs = prev
    path_t = tuple(path)
    if not _replay(cs1, path_t, cs2):
        raise SearchError("equivalence path failed to replay")
    return SearchOutcome("equivalent", path_t, (), explored, False)


def _minimal_orbit(d: Diagram, bounds: SearchBounds):
    """The search of ``d``'s orbit and its least (total genus, crossings,
    canonical string)."""
    search = _Search(canonical_string(d), _Budget(bounds, 1))
    for _ in search.run():
        pass
    return search, min(map(_rank, search.parents))


def minimize(d: Diagram, bounds: SearchBounds) -> MinimizeResult:
    """Orbit element minimizing (total genus, crossings, canonical string);
    certified only when the bounded orbit closed without truncation."""
    require_valid(d)
    bounds.check(d)
    search, (g, v, best) = _minimal_orbit(d, bounds)
    return MinimizeResult(
        witness=_rep(best),
        total_genus=g,
        crossings=v,
        certified=not search.budget.truncated,
        explored=len(search.parents),
    )


@dataclass(frozen=True)
class ClassifyReport:
    classes: tuple[tuple[str, ...], ...]          # canonical strings per class
    invariants: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    witnesses: tuple[tuple[str, str], ...]        # class representative -> witness string
    unresolved: tuple[tuple[str, str], ...]       # representatives of same-invariant classes left apart
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
    """Partition a corpus by bounded orbits.

    Diagrams are deduplicated by canonical string and grouped by
    invariant table.  In sorted order, a diagram that the orbit of an
    earlier class of its group contains joins that class; any other
    diagram gets one orbit search, which also yields its class's witness,
    and joins every earlier class of its group whose orbit it meets.
    Every merge is certified by replaying its paths.  Each pair of
    classes left apart within a group is reported unresolved, and each
    corpus member of another group that a class's orbit reaches is
    reported as a violation.
    """
    entries: dict[str, Diagram] = {}
    for d in diagrams:
        require_valid(d)
        entries.setdefault(canonical_string(d), d)
    bounds.check(*entries.values())
    keys = sorted(entries)
    tables = {cs: invariant_table(entries[cs], quandles) for cs in keys}

    explored = 0
    witness_of: dict[str, str] = {}
    # per invariant table, its classes as (members, searches), least member first
    groups: dict[tuple, list[tuple[list[str], list[_Search]]]] = {}
    for cs in keys:
        group = groups.setdefault(tables[cs], [])
        found = next(((cls, s) for cls in group for s in cls[1] if cs in s.parents), None)
        if found is not None:
            _certify(found[1].parents, cs)
            found[0][0].append(cs)
            continue
        search, (_, _, witness_of[cs]) = _minimal_orbit(entries[cs], bounds)
        explored += len(search.parents)
        met = []
        for cls in group:
            meet = next(((s, m) for s in cls[1] for m in search.parents if m in s.parents), None)
            if meet is not None:
                _certify(meet[0].parents, meet[1])
                _certify(search.parents, meet[1])
                met.append(cls)
        group.append(([cs], [search]))
        # the earliest class met keeps its place and its least member
        home, *rest = met + group[-1:]
        for cls in rest:
            home[0].extend(cls[0])
            home[1].extend(cls[1])
            group.remove(cls)

    classes = tuple(sorted(tuple(sorted(members)) for group in groups.values()
                           for members, _ in group))

    # an orbit that reaches a member of another invariant group would
    # refute an invariant; such a member is certified and reported
    violations = []
    for table, group in groups.items():
        for members, searches in group:
            for cs in (k for k in keys if tables[k] != table):
                s = next((s for s in searches if cs in s.parents), None)
                if s is not None:
                    _certify(s.parents, cs)
                    violations.append(
                        f"equivalent diagrams with differing invariants: {members[0]} vs {cs}")

    return ClassifyReport(
        classes=classes,
        invariants=tuple((cs, tables[cs]) for cs in keys),
        witnesses=tuple((cls[0], witness_of[cls[0]]) for cls in classes),
        unresolved=tuple((a[0][0], b[0][0]) for group in groups.values()
                         for a, b in itertools.combinations(group, 2)),
        violations=tuple(sorted(violations)),
        explored=explored,
    )
