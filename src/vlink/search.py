"""Bounded exploration of the move graph.

States are canonical strings; the representative of a state is rebuilt
deterministically from the string by ``codec._from_canonical``, which
reads it with ``codec._read``, the one reader of signed Gauss text, so
stored move sites always refer to the representative's labels and every
path replays.  The move set here includes R2+stab, the
stabilizing addition across distinct faces, without which
genus-changing transitions would be unreachable.

A search that lists a state builds its representative and reads its
listing, ``_listing``: a generator of the state's successors that
labels each site only when the search reaches it, so a search whose
budget runs out part-way labels no more successors than it reads.  A
breadth-first search lists each state once, so no listing is kept for
another reader, and none outlives the search's pass over its state.
The successors come from ``moves.enumerate_moves``, which lists each
distinct move once: a site it leaves out repeats the state of a site it
lists earlier, so leaving it out changes no result.  Each is labelled
from ``moves._edit``'s Gauss code, checked by ``diagram._check_passes``,
without building a ``Diagram``, except an R1- or R2- that undoes a
recorded up move: every R1+, R2+ and R2+stab result, when labelled,
records which state its R1- or R2- on the crossings the move added
gives (the state it came from), and that down move is read from the
record, not labelled.  Records sit in the bounded store ``_undone``,
keyed by a state and the crossings the move adds or removes, in
increasing order, and are popped when read; a missing record costs only
a label.  ``equivalent`` walks back the backward half of a path with a
fresh listing of each state on it, read only as far as the site that
gives the previous state.  Only ``minimize`` and ``classify_corpus``
rank states: their search reads each state's rank from the
representative it lists the state from, and ranks the states it reached
but never listed from representatives built for the rank alone.  Their
closed orbits are kept in the bounded memo ``_closed``, which a later
search of theirs from any state of one reads instead of searching (see
``_minimal_orbit``); ``orbit`` and ``equivalent`` neither read nor fill
it.  ``invariant_table`` keeps each state's rows in ``_tables``.
Replay reads none of these memos: it builds each step's representative
afresh, applies the step with ``moves.apply_move``, which looks for the
site among its kind's sites as they are generated and validates the
result, and labels the result.  It keeps only the steps it verified
itself, in the bounded record ``_replayed`` of (state, site) -> the state
the step gives, oldest dropped first; a step whose record names the state
its path names is not applied again, and any other step, unrecorded or
naming another state, is replayed in full.  By Kuperberg's theorem a
verified step is a fact about the state, true for the rest of the
process.

Honest verdicts only: bounded meeting proves equivalence (the path is
replayed before being returned), an invariant mismatch proves
inequivalence, and everything else is Unknown.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass

from .codec import _from_canonical
from .diagram import (
    Diagram, DiagramError, _check_passes, _label, canonical_string, require_valid, stats,
)
from .invariants import Quandle, check_state_sum_cap, dihedral_quandle, f_poly, quandle_colorings
from .moves import _GROWTH, MoveError, MoveSite, _edit, _removed, apply_move, enumerate_moves
from .surface import genus

DEFAULT_QUANDLES: tuple[tuple[str, Quandle], ...] = (
    ("R3", dihedral_quandle(3)),
    ("R5", dihedral_quandle(5)),
)


class SearchError(RuntimeError):
    """A path the search found did not replay, or has a step that no move
    undoes; no verdict is returned."""


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


@dataclass(frozen=True)
class MinimizeResult:
    witness: Diagram
    total_genus: int
    crossings: int
    certified: bool
    explored: int


def _rank(rep: Diagram, cs: str):
    """(total genus, crossings, canonical string) of state ``cs`` from its
    representative; genus and crossings do not change under isomorphism."""
    return (genus(rep).total, rep.n_vertices, cs)


def _listing(rep: Diagram, cs: str, max_crossings: int):
    """State ``cs``'s (site, canonical result) pairs, from its
    representative ``rep``, each labelled only when its reader reaches it.

    Built only where a search lists the state or ``equivalent`` walks
    back a path, and read there alone, it takes the sites of the moves
    that fit the crossing cap from ``enumerate_moves``, which keeps the
    first site giving each state, so searches record the same parents
    and paths as with every site applied.  A label that raises raises to
    the reader.

    An R1- or R2- site that undoes an up move some listing labelled is
    read, not labelled: labelling the up move's result records, in
    ``_undone`` under the result's state and the crossings the move
    added, in increasing order, the state it came from, and the site
    pops the record under its own state and the crossings
    ``moves._removed`` names.
    Excising the passes an up move spliced in restores its code, whatever
    the curl variant or the bigon, so a record only saves a label, and
    the pairs are the same.
    """
    room = max_crossings - rep.n_vertices
    for site in enumerate_moves(rep, {kind for kind, growth in _GROWTH.items() if growth <= room}):
        growth = _GROWTH[site.kind]
        if growth < 0:
            undone = _undone.pop((cs, _removed(rep, site)), None)
            if undone is not None:
                yield site, undone
                continue
        rows, free_loops = _edit(rep, site)
        cs2, named = _label(rows, _check_passes(rows), free_loops)
        if growth > 0:
            # the edit numbers the new crossings last, and crossing k of
            # cs2 is vertex k - 1 of its representative
            n = len(named)
            _undone[cs2, tuple(sorted(int(named[v]) - 1 for v in range(n - growth, n)))] = cs
            if len(_undone) > _UNDONE_SIZE:
                _undone.popitem(last=False)
        yield site, cs2


# (state, removed crossings) -> the state R1- or R2- on them gives, recorded
# by the up moves they undo and popped when read; oldest dropped first, by
# an OrderedDict, since taking a plain dict's first key rescans the slots
# of the keys deleted before it
_UNDONE_SIZE = 2**16
_undone: OrderedDict[tuple[str, tuple[int, ...]], str] = OrderedDict()

# (state, crossing cap) -> (parents, least rank) of the closed ranking
# search whose orbit holds the state: one entry per orbit, which each of
# its states names; whole orbits are dropped, the oldest first, to keep
# at most _CLOSED_SIZE states
_CLOSED_SIZE = 2**15
_closed: OrderedDict[tuple[str, int], tuple[dict, tuple]] = OrderedDict()

# (state, site) -> the state it gives, for each step _replay applied and
# found to give the state its path names; oldest dropped first
_REPLAYED_SIZE = 2**14
_replayed: OrderedDict[tuple[str, MoveSite], str] = OrderedDict()

# (canonical string, quandles) -> invariant_table's rows, for at most
# _MEMO_SIZE states; oldest dropped first
_MEMO_SIZE = 2**12
_tables: OrderedDict[tuple[str, tuple], tuple[tuple[str, str], ...]] = OrderedDict()


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
    Each layer expands the frontier in sorted order, each state from a
    representative and a ``_listing`` that the layer alone reads and
    drops before it lists the next state, and the search stops at the
    first new state the budget refuses.

    ``least`` is None unless a ranking search (``_minimal_orbit``) set
    it before ``run``; it then holds the least rank of the states listed
    so far.  After ``run``, ``frontier`` holds exactly the states reached
    but never listed (none when the orbit closed), so ``minimize`` ranks
    only those beside ``least``.
    """

    def __init__(self, cs: str, budget: _Budget):
        self.parents: dict[str, tuple[str, MoveSite] | None] = {cs: None}
        self.frontier = [cs]
        self.budget = budget
        self.least = None

    def layer(self):
        """Expand the frontier by one move; yields each new state."""
        budget = self.budget
        if budget.layers <= 0:
            budget.truncated = True
            return
        budget.layers -= 1
        parents, frontier, cap = self.parents, [], budget.bounds.max_crossings
        order = sorted(self.frontier)
        for i, cs in enumerate(order):
            rep = _from_canonical(cs)
            if self.least is not None:
                self.least = min(self.least, _rank(rep, cs))
            for site, cs2 in _listing(rep, cs, cap):
                if cs2 in parents:
                    continue
                if budget.states <= 0:
                    budget.truncated = True
                    self.frontier = order[i + 1:] + frontier
                    return
                budget.states -= 1
                parents[cs2] = (cs, site)
                frontier.append(cs2)
                yield cs2
        self.frontier = frontier

    def run(self) -> None:
        """Every layer until the orbit closes or the budget runs out."""
        while self.frontier and not self.budget.truncated:
            for _ in self.layer():
                pass


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
    search.run()
    return OrbitResult(frozenset(search.parents), search.budget.truncated, len(search.parents))


def invariant_rows(quandles=DEFAULT_QUANDLES):
    """The invariants a Distinguished verdict may name, in report order:
    ``(name, function of a valid diagram)`` rows.

    Each row reads only the signed Gauss code, on which R2+stab acts as
    R2+ does, so each move that keeps a row's value under R2+ keeps it
    under R2+stab (Kuperberg, What is a virtual link?, 2003).
    """
    return (
        # every move maps each circuit to one circuit (Kauffman, Virtual knot theory, 1999)
        ("components", lambda d: stats(d).components),
        # colorings count maps from the link quandle, an invariant (Joyce 1982; Kauffman 1999)
        *((f"colorings[{name}]", functools.partial(quandle_colorings, q=q))
          for name, q in quandles),
        # the writhe-normalized bracket is invariant (Kauffman, Virtual knot theory, 1999)
        ("f_poly", f_poly),
    )


def invariant_table(d: Diagram, quandles=DEFAULT_QUANDLES) -> tuple[tuple[str, str], ...]:
    """Each row of :func:`invariant_rows` with its value on ``d`` as a
    string.  An invalid diagram raises ``DiagramError``, and one above the
    state-sum cap ``StateSumLimitError``, before any row is computed or
    read from ``_tables``."""
    require_valid(d)
    check_state_sum_cap(d)
    quandles = tuple(quandles)
    key = (canonical_string(d), quandles)
    table = _tables.get(key)
    if table is None:
        # every row is an isomorphism invariant: the table is the state's
        table = _tables[key] = tuple((name, str(value(d)))
                                     for name, value in invariant_rows(quandles))
        if len(_tables) > _MEMO_SIZE:
            _tables.popitem(last=False)
    return table


def _replay(start_cs: str, path, end_cs: str) -> bool:
    """True when each step, applied by ``apply_move`` to the state
    before it, gives the state it names, and the last is ``end_cs``.

    A step ``_replayed`` records with the state it names is not applied
    again; any other step is, and is recorded once it gives that state.
    A site that cannot be a key is applied and not recorded."""
    cs = start_cs
    for site, expected in path:
        key = (cs, site)
        try:
            known = _replayed.get(key)
        except TypeError:
            known = key = None
        if known is None or known != expected:
            try:
                result = apply_move(_from_canonical(cs), site)
            except (MoveError, DiagramError):
                return False
            if canonical_string(result) != expected:
                return False
            if key is not None:
                _replayed[key] = expected
                if len(_replayed) > _REPLAYED_SIZE:
                    _replayed.popitem(last=False)
        cs = expected
    return cs == end_cs


def equivalent(d1: Diagram, d2: Diagram, bounds: SearchBounds,
               quandles=DEFAULT_QUANDLES) -> SearchOutcome:
    """Equivalent (replayable path) / Distinguished (invariant mismatch,
    every differing invariant reported) / Unknown (bounds exhausted).
    ``max_states`` below 2, one state per start, raises ``ValueError``."""
    require_valid(d1)
    require_valid(d2)
    bounds.check(d1, d2)
    if bounds.max_states is not None and bounds.max_states < 2:
        raise ValueError("max_states must be at least 2, one per start")
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
    cs, cap = meet, bounds.max_crossings
    while bwd.parents[cs] is not None:
        prev = bwd.parents[cs][0]
        back = next((site for site, cs3 in _listing(_from_canonical(cs), cs, cap)
                     if cs3 == prev), None)
        if back is None:
            raise SearchError("equivalence path has a step with no inverse move")
        path.append((back, prev))
        cs = prev
    path_t = tuple(path)
    if not _replay(cs1, path_t, cs2):
        raise SearchError("equivalence path failed to replay")
    return SearchOutcome("equivalent", path_t, (), explored, False)


def _minimal_orbit(d: Diagram, bounds: SearchBounds):
    """The search of ``d``'s orbit and its least ``_rank``; a state the
    search reached but never listed is ranked with no listing.

    A closed orbit is kept in ``_closed``, and a later search from any of
    its states that could not stop sooner (no ``max_depth``, and a
    ``max_states`` that admits the whole orbit) takes a copy of its
    parents and its least rank instead of searching.  Every listed move
    has a listed inverse within the cap, so a search from any member
    closes on the same states with the same least rank; the copy's walks
    back end at the orbit's first start, which need not be ``d``."""
    cs, cap = canonical_string(d), bounds.max_crossings
    search = _Search(cs, _Budget(bounds, 1))
    closed = _closed.get((cs, cap))
    if (closed is not None and bounds.max_depth is None
            and search.budget.states >= len(closed[0]) - 1):
        search.parents, search.frontier = dict(closed[0]), []
        return search, closed[1]
    search.least = (math.inf,)
    search.run()
    if search.budget.truncated:
        return search, min([search.least, *(_rank(_from_canonical(state), state)
                                            for state in search.frontier)])
    if len(search.parents) <= _CLOSED_SIZE:
        entry = (dict(search.parents), search.least)
        for state in search.parents:
            _closed[state, cap] = entry
        while len(_closed) > _CLOSED_SIZE:
            (_, old_cap), (parents, _) = _closed.popitem(last=False)
            for state in parents:
                _closed.pop((state, old_cap), None)
    return search, search.least


def minimize(d: Diagram, bounds: SearchBounds) -> MinimizeResult:
    """Orbit element minimizing (total genus, crossings, canonical string);
    certified only when the bounded orbit closed without truncation."""
    require_valid(d)
    bounds.check(d)
    search, (g, v, best) = _minimal_orbit(d, bounds)
    return MinimizeResult(
        witness=_from_canonical(best),
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
        witness_of = dict(self.witnesses)
        for i, cls in enumerate(self.classes, start=1):
            lines.append(f"class {i}: size {len(cls)}")
            for cs in cls:
                lines.append(f"  member: {cs if cs else '(empty)'}")
            if cls[0] in witness_of:
                lines.append(f"  minimal: {witness_of[cls[0]] or '(empty)'}")
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
    and joins every earlier class of its group whose orbit it meets.  A
    class is its members and one map of paths, its first search's
    parents, to which each class it absorbs adds the states it lacks;
    every walk back ends at a member, or at the start of an orbit that
    ``_minimal_orbit`` kept, whose path to the member is replayed first.
    Every merge is certified by replaying its paths.  Each pair of
    classes left apart within a group is reported unresolved, and each
    corpus member of another group that a class's orbit reaches is
    reported as a violation.  Every diagram is validated, and checked
    against the bounds and then the state-sum cap, before any is
    labelled; the first offender in corpus order is named.
    """
    diagrams = [require_valid(d) for d in diagrams]
    bounds.check(*diagrams)
    for d in diagrams:
        check_state_sum_cap(d)
    entries: dict[str, Diagram] = {}
    for d in diagrams:
        entries.setdefault(canonical_string(d), d)
    keys = sorted(entries)
    tables = {cs: invariant_table(entries[cs], quandles) for cs in keys}

    explored = 0
    witness_of: dict[str, str] = {}
    # per invariant table, its classes as (members, paths), least member first
    groups: dict[tuple, list[tuple[list[str], dict]]] = {}
    for cs in keys:
        group = groups.setdefault(tables[cs], [])
        home = next((cls for cls in group if cs in cls[1]), None)
        if home is not None:
            _certify(home[1], cs)
            home[0].append(cs)
            continue
        search, (_, _, witness_of[cs]) = _minimal_orbit(entries[cs], bounds)
        if search.parents[cs] is not None:
            _certify(search.parents, cs)  # a kept orbit, searched from another start
        explored += len(search.parents)
        met = []
        for cls in group:
            meet = next((m for m in search.parents if m in cls[1]), None)
            if meet is not None:
                _certify(cls[1], meet)
                _certify(search.parents, meet)
                met.append(cls)
        group.append(([cs], search.parents))
        # the earliest class met keeps its place, its least member and its paths
        home, *rest = met + group[-1:]
        for cls in rest:
            home[0].extend(cls[0])
            for state, step in cls[1].items():
                home[1].setdefault(state, step)
            group.remove(cls)

    classes = tuple(sorted(tuple(sorted(members)) for group in groups.values()
                           for members, _ in group))

    # an orbit that reaches a member of another invariant group would
    # refute an invariant; such a member is certified and reported
    violations = []
    for table, group in groups.items():
        for members, paths in group:
            for cs in (k for k in keys if tables[k] != table and k in paths):
                _certify(paths, cs)
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
