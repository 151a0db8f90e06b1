"""Reidemeister moves on decorated maps, enumerated from local patterns.

Pattern dictionary (faces are orbits of sigma o alpha, see vlink.surface):

* R1-: a monogon face, i.e. an edge joining two rotation-adjacent darts
  of one vertex; one site per vertex carrying such a loop.
* R2-: a bigon face on two distinct vertices whose decoration is
  coherent (the same strand is over at both crossings).
* R3: a triangular face on three distinct vertices whose three pairwise
  height relations are acyclic; the move swaps the order of the two
  triangle crossings along each of the three strands and keeps every
  vertex's rotation and decoration.
* R1+: insert a curl on an edge (four decorated variants) or on a free
  loop (one canonical positive curl; the stabilizing move set also
  offers the negative curl so every kink removal stays invertible).
* R2+: push one edge side across a face over/under another side of the
  same face, including a side over itself (forward fold); pushing
  across two *distinct* faces is the stabilizing variant R2+stab, which
  also covers attaching free loops, crossing an edge over its own other
  side through a handle, and folding a free loop through a handle.

Every new crossing is appended by :func:`vlink.diagram._insert`.  In
the local picture (face walk on the right) crossing ``c`` owns darts
``n_darts + 4c + angle`` at the compass angles east, north, west, south,
counterclockwise.  A builder names the angles of its two passes' out
darts and which pass is over; each pass enters on the dart opposite its
out dart.  Strands are threaded as runs from an existing out dart to an
existing in dart, or as closed runs for free loops.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .diagram import _E, _N, _S, _W, Diagram, DiagramError, _insert, relabel, require_valid
from .surface import trace_faces

PLAIN_KINDS = frozenset({"R1+", "R1-", "R2+", "R2-", "R3"})
ALL_KINDS = PLAIN_KINDS | {"R2+stab"}


class MoveError(ValueError):
    """Stale or malformed move site; the input diagram is unchanged."""


@dataclass(frozen=True)
class MoveSite:
    kind: str
    where: tuple
    variant: str = ""

    def sort_key(self) -> tuple:
        return (self.kind, tuple(str(x) for x in self.where), self.variant)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _face_of(d: Diagram) -> dict[int, int]:
    return {x: i for i, face in enumerate(trace_faces(d)) for x in face}


def _monogon_vertices(d: Diagram) -> list[int]:
    out = []
    for v in range(d.n_vertices):
        if any(d.sigma[d.edge_pair[x]] == x for x in d.rotations[v]):
            out.append(v)
    return out


def _bigon_faces(d: Diagram) -> list[tuple[int, int]]:
    """Coherent two-vertex bigon faces, as normalized face dart pairs."""
    out = []
    for face in trace_faces(d):
        if len(face) != 2:
            continue
        d1, d2 = face
        if d.vertex_of[d1] == d.vertex_of[d2]:
            continue
        if d.is_over(d1) == d.is_over(d.edge_pair[d1]):
            out.append(face)
    return out


def _triangle_faces(d: Diagram) -> list[tuple[int, int, int]]:
    """Acyclic (R3-admissible) triangular faces on three distinct vertices."""
    out = []
    for face in trace_faces(d):
        if len(face) != 3:
            continue
        p, q, r = face
        corners = {d.vertex_of[d.edge_pair[x]] for x in face}
        if len(corners) != 3:
            continue
        rel = [d.is_over(d.edge_pair[x]) for x in face]
        if rel[0] == rel[1] == rel[2]:
            continue  # cyclic heights: the forbidden triangle
        out.append(face)
    return out


def enumerate_moves(d: Diagram, kinds=PLAIN_KINDS) -> list[MoveSite]:
    """All applicable sites of the requested kinds, duplicate-free and sorted."""
    require_valid(d)
    kinds = set(kinds)
    bad = kinds - ALL_KINDS
    if bad:
        raise MoveError(f"unknown move kinds: {sorted(bad)}")
    sites: list[MoveSite] = []

    out_darts = [x for x in range(d.n_darts) if not d.inbound[x]]

    if "R1-" in kinds:
        sites.extend(MoveSite("R1-", (v,)) for v in _monogon_vertices(d))

    if "R2-" in kinds:
        sites.extend(MoveSite("R2-", face) for face in _bigon_faces(d))

    if "R3" in kinds:
        sites.extend(MoveSite("R3", face) for face in _triangle_faces(d))

    if "R1+" in kinds:
        for src in out_darts:
            for variant in ("lo", "lu", "ro", "ru"):
                sites.append(MoveSite("R1+", (src,), variant))
        # one canonical positive curl per loop; the stabilizing move set
        # also gets the negative curl so kink removals stay invertible
        loop_variants = ("lo", "ro") if "R2+stab" in kinds else ("lo",)
        for i in range(d.free_loops):
            for variant in loop_variants:
                sites.append(MoveSite("R1+", ("loop", i), variant))

    if "R2+" in kinds or "R2+stab" in kinds:
        face_of = _face_of(d)
        for x, y in itertools.product(range(d.n_darts), repeat=2):
            if y == d.edge_pair[x]:
                # crossing an edge over its own other side needs a handle
                if "R2+stab" in kinds:
                    sites.append(MoveSite("R2+stab", (x, y), "over"))
                    sites.append(MoveSite("R2+stab", (x, y), "under"))
                continue
            cofacial = face_of[x] == face_of[y]
            if x == y:
                if "R2+" in kinds:
                    sites.append(MoveSite("R2+", (x, x), "over"))
                    sites.append(MoveSite("R2+", (x, x), "under"))
                continue
            kind = "R2+" if cofacial else "R2+stab"
            if kind in kinds:
                sites.append(MoveSite(kind, (x, y), "over"))
                sites.append(MoveSite(kind, (x, y), "under"))
        if "R2+stab" in kinds:
            for i in range(d.free_loops):
                for src in out_darts:
                    for variant in ("a_over", "a_under", "b_over", "b_under"):
                        sites.append(MoveSite("R2+stab", ("loop", i, src), variant))
                sites.append(MoveSite("R2+stab", ("loopself", i), "over"))
                sites.append(MoveSite("R2+stab", ("loopself", i), "under"))
            for i, j in itertools.combinations(range(d.free_loops), 2):
                for variant in ("a_over", "a_under", "b_over", "b_under"):
                    sites.append(MoveSite("R2+stab", ("loops", i, j), variant))

    sites.sort(key=MoveSite.sort_key)
    return sites


def _unrepeated(d: Diagram, sites: list[MoveSite]):
    """The sites of ``d``'s sorted listing ``sites`` less each one known,
    before it is applied, to give the same state as an earlier site:

    * Mirrored push sites: pushing ``x`` over ``y`` (R2+ or R2+stab,
      ``x != y`` and ``y`` not ``x``'s edge partner) is pushing ``y``
      under ``x``, so ``(x, y, v)`` and ``(y, x, other variant)`` give
      isomorphic results.  Both are listed, with the same kind, and the
      one whose ``x`` sorts first by ``MoveSite.sort_key`` is kept.
      Folds and handle interleaves have no such partner.
    * Free-loop indices: the builders ignore which free loop they use, so
      every index gives the same ``Diagram``; only loop 0 (and the pair
      ``(0, 1)``) is kept, for curls, attachments and self-folds alike.
    * R2- bigons on one vertex pair excise the same vertices, so give the
      same ``Diagram``; only the first is kept.
    """
    bigons = set()
    for site in sites:
        where = site.where
        if site.kind == "R2-":
            pair = frozenset(d.vertex_of[x] for x in where)
            if pair in bigons:
                continue
            bigons.add(pair)
        elif where[0] in ("loop", "loopself", "loops"):
            if where[1] != 0 or (where[0] == "loops" and where[2] != 1):
                continue
        elif site.kind in ("R2+", "R2+stab"):
            x, y = where
            if x != y and y != d.edge_pair[x] and str(y) < str(x):
                continue
        yield site


# ---------------------------------------------------------------------------
# surgery helpers
# ---------------------------------------------------------------------------


def _excise(d: Diagram, removed: frozenset[int]) -> Diagram:
    """Delete the given vertices, running every strand straight through
    them; circuits living entirely on removed vertices become free loops."""
    extra = sum(1 for row in d.passes if all(v in removed for v, _, _ in row))
    kept = [v for v in range(d.n_vertices) if v not in removed]
    edge = list(d.edge_pair)
    for v in kept:
        for x in d.rotations[v]:
            if d.inbound[x]:
                continue
            z = d.edge_pair[x]
            while d.vertex_of[z] in removed:
                z = d.edge_pair[d.opposite[z]]
            edge[x] = z
            edge[z] = x
    rerouted = Diagram(d.rotations, tuple(edge), d.over_pair, d.inbound, d.free_loops + extra)
    return relabel(rerouted, kept)


def _endpoints(d: Diagram, dart: int) -> tuple[int, int]:
    """(src, dst) of the edge through ``dart``: outbound end, inbound end."""
    other = d.edge_pair[dart]
    return (other, dart) if d.inbound[dart] else (dart, other)


def _apply_r1_plus(d: Diagram, site: MoveSite) -> Diagram:
    """A curl: the strand enters from the east and re-enters from the north
    (``l``) or the south (``r``); ``o`` puts the first pass on top."""
    outs = [(_W, _S if site.variant[0] == "l" else _N)]
    over = [0 if site.variant[1] == "o" else 1]
    if site.where[0] == "loop":
        return _insert(d, outs, [(None, [(0, 0), (0, 1)], None)], over, free_delta=-1)
    src, dst = _endpoints(d, site.where[0])
    return _insert(d, outs, [(src, [(0, 0), (0, 1)], dst)], over)


def _apply_r2_fold(d: Diagram, x: int, finger_over: bool) -> Diagram:
    """Push the side x forward over/under its own edge (nested fold)."""
    src, dst = _endpoints(d, x)
    line = _S if d.inbound[x] else _N  # north when the strand runs with the face walk
    outs = [(_W, line), (_E, line)]
    run = (src, [(0, 0), (1, 0), (1, 1), (0, 1)], dst)
    return _insert(d, outs, [run], [0 if finger_over else 1] * 2)


def _apply_r2_push(d: Diagram, pushed: int, crossed: int, pushed_over: bool) -> Diagram:
    """Push the side ``pushed`` across to cross the side ``crossed`` twice."""
    ax = not d.inbound[pushed]
    ay = not d.inbound[crossed]
    c = _S if ay else _N    # crossed direction at both crossings
    outs = [(_E, c), (_W, c)] if ax else [(_W, c), (_E, c)]
    src_p, dst_p = _endpoints(d, pushed)
    src_c, dst_c = _endpoints(d, crossed)
    runs = [
        (src_p, [(0, 0), (1, 0)] if ax else [(1, 0), (0, 0)], dst_p),
        (src_c, [(1, 1), (0, 1)] if ay else [(0, 1), (1, 1)], dst_c),
    ]
    return _insert(d, outs, runs, [0 if pushed_over else 1] * 2)


def _apply_r2_loop(d: Diagram, crossed: int | None, variant: str) -> Diagram:
    """Attach a free loop across the edge through ``crossed``, or across a
    second free loop when ``crossed`` is None; the attached loop is pass 0."""
    outs = [(_E, _N), (_W, _N)] if variant[0] == "a" else [(_W, _N), (_E, _N)]
    src, dst = (None, None) if crossed is None else _endpoints(d, crossed)
    runs = [(src, [(0, 1), (1, 1)], dst), (None, [(0, 0), (1, 0)], None)]
    return _insert(d, outs, runs, [0 if variant.endswith("over") else 1] * 2,
                   free_delta=-2 if crossed is None else -1)


def _apply_r2_interleave(d: Diagram, pushed: int | None, finger_over: bool) -> Diagram:
    """Push side ``pushed`` through a handle across its own edge's other
    side, or fold a free loop over itself when ``pushed`` is None; the
    four passes interleave (finger, finger, line, line)."""
    line = _S if pushed is not None and d.inbound[pushed] else _N
    outs = [(_E, line), (_W, line)]
    src, dst = (None, None) if pushed is None else _endpoints(d, pushed)
    run = (src, [(0, 0), (1, 0), (0, 1), (1, 1)], dst)
    return _insert(d, outs, [run], [0 if finger_over else 1] * 2,
                   free_delta=-1 if pushed is None else 0)


def _apply_r3(d: Diagram, face: tuple[int, int, int]) -> Diagram:
    """Swap the order of the two triangle crossings along each strand."""
    segs = []
    for p in face:
        a, b = p, d.edge_pair[p]
        if d.inbound[a]:
            a, b = b, a  # a is now the outbound side dart
        segs.append({
            "f_out": a, "f_in": d.opposite[a],
            "l_in": b, "l_out": d.opposite[b],
        })
    redirect = {s["f_in"]: s["l_in"] for s in segs}
    updates: dict[int, int] = {}
    for s in segs:
        updates[s["l_out"]] = s["f_in"]
    for s in segs:
        tgt = d.edge_pair[s["l_out"]]
        updates[s["f_out"]] = redirect.get(tgt, tgt)
    handled = {s["l_out"] for s in segs} | {s["f_out"] for s in segs}
    for s in segs:
        o = d.edge_pair[s["f_in"]]
        if o not in handled:
            updates[o] = s["l_in"]
    edge = list(d.edge_pair)
    for a, b in updates.items():
        edge[a] = b
        edge[b] = a
    return Diagram(d.rotations, tuple(edge), d.over_pair, d.inbound, d.free_loops)


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------


def _apply_unchecked(d: Diagram, site: MoveSite) -> Diagram:
    if site.kind == "R1-":
        return _excise(d, frozenset(site.where))
    if site.kind == "R2-":
        d1, d2 = site.where
        return _excise(d, frozenset({d.vertex_of[d1], d.vertex_of[d2]}))
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


def _site_applies(d: Diagram, site: MoveSite) -> bool:
    """True when ``site`` is one that :func:`enumerate_moves` lists for ``d``.

    A curl on a free loop is checked directly: ``enumerate_moves`` lists
    the positive one, and beside R2+stab also the negative one.
    """
    if site.kind == "R1+" and site.where[:1] == ("loop",):
        return (len(site.where) == 2 and site.where[1] in range(d.free_loops)
                and site.variant in ("lo", "ro"))
    return site in enumerate_moves(d, {site.kind})


def apply_move(d: Diagram, site: MoveSite) -> Diagram:
    """Apply an enumerated site; rejects stale sites, returns a valid diagram."""
    require_valid(d)
    if not _site_applies(d, site):
        raise MoveError(f"site {site} is not applicable")
    out = _apply_unchecked(d, site)
    if not out.is_valid:
        raise DiagramError(f"move {site} produced an invalid diagram: "
                           + "; ".join(out.violations))
    return out


def simplify_greedy(d: Diagram) -> Diagram:
    """Apply reducing moves (R1-, R2-) until none remains.  Crossing count
    never increases; the result has no monogon and no coherent bigon."""
    require_valid(d)
    while True:
        sites = enumerate_moves(d, {"R1-", "R2-"})
        if not sites:
            return d
        d = _apply_unchecked(d, sites[0])
