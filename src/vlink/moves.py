"""Reidemeister moves on decorated maps, enumerated from local patterns.

Pattern dictionary (faces are :attr:`Diagram.faces`, the orbits of
sigma o alpha, which :func:`enumerate_moves` reads in one pass):

* R1-: a monogon face, i.e. an edge joining two rotation-adjacent darts
  of one vertex; one site per vertex carrying such a loop.
* R2-: a bigon face on two distinct vertices whose decoration is
  coherent (the same strand is over at both crossings).
* R3: a triangular face on three distinct vertices whose three pairwise
  height relations are acyclic; the move swaps the order of the two
  triangle crossings along each of the three strands and keeps every
  vertex's rotation and decoration.
* R1+: insert a curl on an edge (four decorated variants) or on a free
  loop (the positive and the negative curl, so every kink removal is
  undone by a curl).
* R2+: push one edge side across a face over/under another side of the
  same face, including a side over itself (forward fold); pushing
  across two *distinct* faces is the stabilizing variant R2+stab, which
  also covers attaching free loops, crossing an edge over its own other
  side through a handle, and folding a free loop through a handle.

:func:`enumerate_moves` lists each distinct move once, by its local
picture.  Three kinds of site would repeat another's result and are not
listed: pushing ``x`` over ``y`` is pushing ``y`` under ``x``, so of the
two pushes the one whose ``y`` sorts before its ``x`` is left out; the
free loops are interchangeable, so only loop 0 (and the join of loops 0
and 1) carries sites; and the two bigons on one vertex pair remove the
same crossings, so only the one whose site sorts first is listed.

A move edits the signed Gauss code, :attr:`Diagram.passes` (Polyak,
*Minimal generating sets of Reidemeister moves*, 2010): R1- and R2- drop
the removed crossings' passes, R3 swaps the two passes of each triangle
side, and the other moves splice new crossings' passes into circuits or
add circuits.  The search labels :func:`_edit`'s code directly;
:func:`apply_move` builds it with :func:`vlink.diagram._from_passes`.
The angles only fix the signs of new crossings: in the local picture
(face walk on the right) a builder names the compass angles (east,
north, west, south, counterclockwise) of each new crossing's two out
darts and which pass is over, each pass enters opposite its out dart,
and the crossing is positive when the under pass enters a quarter turn
counterclockwise after the over pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .diagram import Diagram, DiagramError, _check_passes, _from_passes, require_valid

# crossings each move kind adds
_GROWTH = {"R1-": -1, "R2-": -2, "R3": 0, "R1+": 1, "R2+": 2, "R2+stab": 2}
ALL_KINDS = frozenset(_GROWTH)
PLAIN_KINDS = ALL_KINDS - {"R2+stab"}


class MoveError(ValueError):
    """Stale or malformed move site; the input diagram is unchanged."""


@dataclass(frozen=True, slots=True)
class MoveSite:
    kind: str
    where: tuple
    variant: str = ""

    def sort_key(self) -> tuple:
        return (self.kind, tuple(str(x) for x in self.where), self.variant)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def enumerate_moves(d: Diagram, kinds=PLAIN_KINDS) -> list[MoveSite]:
    """Every distinct applicable move of the requested kinds, one site
    each (see the module docstring), sorted by :meth:`MoveSite.sort_key`."""
    return sorted(_sites(d, kinds), key=MoveSite.sort_key)


def _sites(d: Diagram, kinds):
    """The sites :func:`enumerate_moves` lists, unsorted: the diagram
    and the kinds are checked, and the faces read, before the first is
    yielded, and a reader that stops early lists no further site."""
    require_valid(d)
    kinds = set(kinds)
    bad = kinds - ALL_KINDS
    if bad:
        raise MoveError(f"unknown move kinds: {sorted(bad)}")
    out_darts = [x for x in range(d.n_darts) if not d.inbound[x]]

    # one pass over the faces: each dart's face, for the pushes, and the
    # faces of at most three darts the reducing moves and R3 act in
    vertex_of, edge_pair = d.vertex_of, d.edge_pair
    face_of = [0] * d.n_darts
    monogons, bigons, triangles = set(), {}, []
    for i, face in enumerate(d.faces):
        for x in face:
            face_of[x] = i
        size = len(face)
        if size > 3:
            continue
        corners = frozenset(vertex_of[x] for x in face)
        if size == 1:
            monogons |= corners
        elif len(corners) < size:
            continue  # a face through one vertex twice
        elif size == 2:
            # coherent: the same strand is over at both crossings; of
            # two on one vertex pair, which excise the same crossings,
            # the one whose site sorts first
            if d.is_over(face[0]) == d.is_over(edge_pair[face[0]]) and (
                    corners not in bigons
                    or tuple(map(str, face)) < tuple(map(str, bigons[corners]))):
                bigons[corners] = face
        elif len({d.is_over(edge_pair[x]) for x in face}) == 2:
            triangles.append(face)  # acyclic heights; equal ones are forbidden

    if "R1-" in kinds:
        yield from (MoveSite("R1-", (v,)) for v in monogons)

    if "R2-" in kinds:
        yield from (MoveSite("R2-", face) for face in bigons.values())

    if "R3" in kinds:
        yield from (MoveSite("R3", face) for face in triangles)

    if "R1+" in kinds:
        for src in out_darts:
            for variant in ("lo", "lu", "ro", "ru"):
                yield MoveSite("R1+", (src,), variant)
        if d.free_loops:
            # both curls, so that every kink removal is undone by a curl
            yield MoveSite("R1+", ("loop", 0), "lo")
            yield MoveSite("R1+", ("loop", 0), "ro")

    if "R2+" in kinds or "R2+stab" in kinds:
        for x, y in itertools.product(range(d.n_darts), repeat=2):
            if y == d.edge_pair[x]:
                # crossing an edge over its own other side needs a handle
                if "R2+stab" in kinds:
                    yield MoveSite("R2+stab", (x, y), "over")
                    yield MoveSite("R2+stab", (x, y), "under")
                continue
            if x == y:
                if "R2+" in kinds:
                    yield MoveSite("R2+", (x, x), "over")
                    yield MoveSite("R2+", (x, x), "under")
                continue
            if str(y) < str(x):
                continue  # the mirror push (y, x) is listed
            kind = "R2+" if face_of[x] == face_of[y] else "R2+stab"
            if kind in kinds:
                yield MoveSite(kind, (x, y), "over")
                yield MoveSite(kind, (x, y), "under")
        if "R2+stab" in kinds and d.free_loops:
            for src in out_darts:
                for variant in ("a_over", "a_under", "b_over", "b_under"):
                    yield MoveSite("R2+stab", ("loop", 0, src), variant)
            yield MoveSite("R2+stab", ("loopself", 0), "over")
            yield MoveSite("R2+stab", ("loopself", 0), "under")
            if d.free_loops > 1:
                for variant in ("a_over", "a_under", "b_over", "b_under"):
                    yield MoveSite("R2+stab", ("loops", 0, 1), variant)


# ---------------------------------------------------------------------------
# Gauss code edits
# ---------------------------------------------------------------------------


_E, _N, _W, _S = 0, 1, 2, 3  # counterclockwise quarter-turn angles


def _removed(d: Diagram, site: MoveSite) -> tuple[int, ...]:
    """The crossings an R1- or R2- site removes, in increasing order."""
    if site.kind == "R1-":
        return tuple(site.where)
    return tuple(sorted(d.vertex_of[x] for x in site.where))


def _excise(d: Diagram, removed: tuple[int, ...]):
    """Drop the passes of the given vertices and renumber the rest in
    order, each kept vertex by the count of kept vertices before it;
    circuits left with no pass become free loops."""
    keep = (v not in removed for v in range(d.n_vertices))
    label = list(itertools.accumulate(keep, initial=0))
    rows = [[(label[v], role, sgn) for v, role, sgn in row if v not in removed]
            for row in d.passes]
    kept = [row for row in rows if row]
    return kept, d.free_loops + len(rows) - len(kept)


def _splice(d: Diagram, outs, runs, over):
    """Add crossings ``d.n_vertices + c``: ``outs[c]`` gives the angles
    of the out darts of passes 0 and 1, ``over[c]`` the pass on top.
    Each run ``(x, passes)`` threads a ``(crossing, pass)`` list along the
    edge through dart ``x``, before the pass that edge enters, or when
    ``x`` is None as a new circuit, which takes the place of a free loop."""
    n = d.n_vertices
    new = []
    for c, (out, p) in enumerate(zip(outs, over)):
        sgn = "+" if (out[1 - p] - out[p]) % 4 == 1 else "-"
        new.append([(n + c, "O" if q == p else "U", sgn) for q in (0, 1)])
    rows, free_loops = list(d.passes), d.free_loops
    inserts = {}
    for x, passes in runs:
        seq = [new[c][p] for c, p in passes]
        if x is None:
            rows.append(seq)
            free_loops -= 1
        else:
            inserts[d._slots[x]] = seq
    for ci, i in sorted(inserts, reverse=True):
        rows[ci] = [*rows[ci][:i], *inserts[ci, i], *rows[ci][i:]]
    return rows, free_loops


def _apply_r1_plus(d: Diagram, site: MoveSite):
    """A curl: the strand enters from the east and re-enters from the north
    (``l``) or the south (``r``); ``o`` puts the first pass on top."""
    outs = [(_W, _S if site.variant[0] == "l" else _N)]
    over = [0 if site.variant[1] == "o" else 1]
    x = None if site.where[0] == "loop" else site.where[0]
    return _splice(d, outs, [(x, [(0, 0), (0, 1)])], over)


def _apply_r2_fold(d: Diagram, x: int, finger_over: bool):
    """Push the side x forward over/under its own edge (nested fold)."""
    line = _S if d.inbound[x] else _N  # north when the strand runs with the face walk
    outs = [(_W, line), (_E, line)]
    run = (x, [(0, 0), (1, 0), (1, 1), (0, 1)])
    return _splice(d, outs, [run], [0 if finger_over else 1] * 2)


def _apply_r2_push(d: Diagram, pushed: int, crossed: int, pushed_over: bool):
    """Push the side ``pushed`` across to cross the side ``crossed`` twice."""
    ax = not d.inbound[pushed]
    ay = not d.inbound[crossed]
    c = _S if ay else _N    # crossed direction at both crossings
    outs = [(_E, c), (_W, c)] if ax else [(_W, c), (_E, c)]
    runs = [
        (pushed, [(0, 0), (1, 0)] if ax else [(1, 0), (0, 0)]),
        (crossed, [(1, 1), (0, 1)] if ay else [(0, 1), (1, 1)]),
    ]
    return _splice(d, outs, runs, [0 if pushed_over else 1] * 2)


def _apply_r2_loop(d: Diagram, crossed: int | None, variant: str):
    """Attach a free loop across the edge through ``crossed``, or across a
    second free loop when ``crossed`` is None; the attached loop is pass 0."""
    outs = [(_E, _N), (_W, _N)] if variant[0] == "a" else [(_W, _N), (_E, _N)]
    runs = [(crossed, [(0, 1), (1, 1)]), (None, [(0, 0), (1, 0)])]
    return _splice(d, outs, runs, [0 if variant.endswith("over") else 1] * 2)


def _apply_r2_interleave(d: Diagram, pushed: int | None, finger_over: bool):
    """Push side ``pushed`` through a handle across its own edge's other
    side, or fold a free loop over itself when ``pushed`` is None; the
    four passes interleave (finger, finger, line, line)."""
    line = _S if pushed is not None and d.inbound[pushed] else _N
    outs = [(_E, line), (_W, line)]
    run = (pushed, [(0, 0), (1, 0), (0, 1), (1, 1)])
    return _splice(d, outs, [run], [0 if finger_over else 1] * 2)


def _apply_r3(d: Diagram, face: tuple[int, int, int]):
    """Swap the order of the two triangle crossings along each strand:
    each side's two passes are adjacent in its circuit."""
    rows = [list(row) for row in d.passes]
    for x in face:
        ci, i = d._slots[x]
        row = rows[ci]
        row[i - 1], row[i] = row[i], row[i - 1]
    return rows, d.free_loops


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------


def _edit(d: Diagram, site: MoveSite):
    """``site``'s result as per-circuit ``(vertex, role, sign)`` rows on
    vertices ``0 ..`` and a free-loop count, unchecked."""
    if site.kind in ("R1-", "R2-"):
        return _excise(d, _removed(d, site))
    if site.kind == "R3":
        return _apply_r3(d, site.where)
    if site.kind == "R1+":
        return _apply_r1_plus(d, site)
    if site.kind in ("R2+", "R2+stab"):
        if site.where[0] == "loop":
            return _apply_r2_loop(d, site.where[2], site.variant)
        if site.where[0] == "loops":
            return _apply_r2_loop(d, None, site.variant)
        if site.where[0] == "loopself":
            return _apply_r2_interleave(d, None, site.variant == "over")
        x, y = site.where
        if x == y:
            return _apply_r2_fold(d, x, site.variant == "over")
        if y == d.edge_pair[x]:
            return _apply_r2_interleave(d, x, site.variant == "over")
        return _apply_r2_push(d, x, y, site.variant == "over")
    raise MoveError(f"unknown move kind {site.kind!r}")


def _apply_unchecked(d: Diagram, site: MoveSite) -> Diagram:
    rows, free_loops = _edit(d, site)
    _check_passes(rows)
    return _from_passes(rows, free_loops)


def apply_move(d: Diagram, site: MoveSite) -> Diagram:
    """Apply a site :func:`enumerate_moves` lists; rejects any other site,
    stale or repeating a listed one, and returns a valid diagram laid out
    as :func:`vlink.codec.to_diagram` lays out a code.  The site is looked
    for among its kind's sites as they are generated, unsorted, and the
    search stops where it is found."""
    require_valid(d)
    if site not in _sites(d, {site.kind}):
        raise MoveError(f"site {site} is not applicable")
    out = _apply_unchecked(d, site)
    if not out.is_valid:
        raise DiagramError(f"move {site} produced an invalid diagram: "
                           + "; ".join(out.violations))
    return out

