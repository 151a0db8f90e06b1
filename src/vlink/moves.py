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

New-crossing rotations are assembled from strand compass directions in
the local picture, counterclockwise = increasing angle with the face
walk on the right.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .diagram import Diagram, DiagramError, require_valid
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


# ---------------------------------------------------------------------------
# surgery helpers
# ---------------------------------------------------------------------------


def _excise(d: Diagram, removed: frozenset[int]) -> Diagram:
    """Delete the given vertices, running every strand straight through
    them; circuits living entirely on removed vertices become free loops."""
    extra = sum(1 for circ in d.strand_circuits
                if all(d.vertex_of[p] in removed for p in circ))
    kept = [v for v in range(d.n_vertices) if v not in removed]
    dart_map: dict[int, int] = {}
    for nv, v in enumerate(kept):
        for i, x in enumerate(d.rotations[v]):
            dart_map[x] = 4 * nv + i
    n = 4 * len(kept)
    edge = [0] * n
    inbound = [False] * n
    for v in kept:
        for x in d.rotations[v]:
            inbound[dart_map[x]] = d.inbound[x]
            if d.inbound[x]:
                continue
            z = d.edge_pair[x]
            while d.vertex_of[z] in removed:
                z = d.edge_pair[d.opposite[z]]
            edge[dart_map[x]] = dart_map[z]
            edge[dart_map[z]] = dart_map[x]
    return Diagram(
        rotations=tuple(tuple(range(4 * v, 4 * v + 4)) for v in range(len(kept))),
        edge_pair=tuple(edge),
        over_pair=tuple(tuple(sorted((dart_map[a], dart_map[b])))
                        for v, (a, b) in enumerate(d.over_pair) if v not in removed),
        inbound=tuple(inbound),
        free_loops=d.free_loops + extra,
    )


def _grow(d: Diagram, new_rotations, new_over, new_inbound, edges, free_delta=0) -> Diagram:
    """Append new vertices and rewrite edges.

    ``new_rotations``/``new_over`` describe the appended vertices;
    ``new_inbound`` maps new darts to flags; ``edges`` lists (out, in)
    pairs that overwrite both endpoints.
    """
    k = len(new_rotations)
    n = d.n_darts + 4 * k
    edge = list(d.edge_pair) + [0] * (4 * k)
    inbound = list(d.inbound) + [False] * (4 * k)
    for dart, flag in new_inbound.items():
        inbound[dart] = flag
    for a, b in edges:
        edge[a] = b
        edge[b] = a
    return Diagram(
        rotations=d.rotations + tuple(new_rotations),
        edge_pair=tuple(edge),
        over_pair=d.over_pair + tuple(tuple(sorted(p)) for p in new_over),
        inbound=tuple(inbound),
        free_loops=d.free_loops + free_delta,
    )


def _endpoints(d: Diagram, dart: int) -> tuple[int, int]:
    """(src, dst) of the edge through ``dart``: outbound end, inbound end."""
    other = d.edge_pair[dart]
    return (other, dart) if d.inbound[dart] else (dart, other)


_E, _N, _W, _S = 0, 1, 2, 3  # counterclockwise quarter-turn angles


def _cross(roles_at_angles: dict[int, str], base: int) -> tuple[tuple[int, ...], dict[str, int]]:
    """Rotation tuple (counterclockwise from angle 0) for a new vertex whose
    darts play the given roles at the given compass angles."""
    rot = tuple(base + a for a in range(4))
    names = {roles_at_angles[a]: base + a for a in range(4)}
    return rot, names


def _apply_r1_plus(d: Diagram, site: MoveSite) -> Diagram:
    left = site.variant[0] == "l"      # second pass enters at slot 1, else slot 3
    over1 = site.variant[1] == "o"     # first pass carries the overstrand
    base = d.n_darts
    n0, n1, n2, n3 = base, base + 1, base + 2, base + 3
    s_in = n1 if left else n3
    s_out = n3 if left else n1
    inbound = {n0: True, n2: False, s_in: True, s_out: False}
    over = (n0, n2) if over1 else (n1, n3)
    if site.where[0] == "loop":
        edges = [(n2, s_in), (s_out, n0)]
        free_delta = -1
    else:
        src, dst = _endpoints(d, site.where[0])
        edges = [(src, n0), (n2, s_in), (s_out, dst)]
        free_delta = 0
    return _grow(d, [(n0, n1, n2, n3)], [over], inbound, edges, free_delta)


def _apply_r2_fold(d: Diagram, x: int, finger_over: bool) -> Diagram:
    """Push the side x forward over/under its own edge (nested fold)."""
    src, dst = _endpoints(d, x)
    aligned = not d.inbound[x]
    base = d.n_darts
    if aligned:  # strand runs with the face walk
        rot1, w1 = _cross({_E: "f_in", _N: "l_out", _W: "f_out", _S: "l_in"}, base)
        rot2, w2 = _cross({_E: "f_out", _N: "l_out", _W: "f_in", _S: "l_in"}, base + 4)
    else:
        rot1, w1 = _cross({_E: "f_in", _N: "l_in", _W: "f_out", _S: "l_out"}, base)
        rot2, w2 = _cross({_E: "f_out", _N: "l_in", _W: "f_in", _S: "l_out"}, base + 4)
    edges = [
        (src, w1["f_in"]),
        (w1["f_out"], w2["f_in"]),
        (w2["f_out"], w2["l_in"]),
        (w2["l_out"], w1["l_in"]),
        (w1["l_out"], dst),
    ]
    inbound = {}
    for w in (w1, w2):
        inbound.update({w["f_in"]: True, w["l_in"]: True, w["f_out"]: False, w["l_out"]: False})
    over = []
    for w in (w1, w2):
        over.append((w["f_in"], w["f_out"]) if finger_over else (w["l_in"], w["l_out"]))
    return _grow(d, [rot1, rot2], over, inbound, edges)


def _apply_r2_push(d: Diagram, pushed: int, crossed: int, pushed_over: bool) -> Diagram:
    """Push the side ``pushed`` across to cross the side ``crossed`` twice."""
    ax = not d.inbound[pushed]
    ay = not d.inbound[crossed]
    base = d.n_darts
    p1 = _E if ax else _W   # pushed direction at the lower-rail crossing u1
    p2 = _W if ax else _E
    c = _S if ay else _N    # crossed direction at both crossings
    rot1, u1 = _cross({p1: "p_out", (p1 + 2) % 4: "p_in", c: "c_out", (c + 2) % 4: "c_in"}, base)
    rot2, u2 = _cross({p2: "p_out", (p2 + 2) % 4: "p_in", c: "c_out", (c + 2) % 4: "c_in"}, base + 4)
    p_first, p_second = (u1, u2) if ax else (u2, u1)
    c_first, c_second = (u2, u1) if ay else (u1, u2)
    src_p, dst_p = _endpoints(d, pushed)
    src_c, dst_c = _endpoints(d, crossed)
    edges = [
        (src_p, p_first["p_in"]),
        (p_first["p_out"], p_second["p_in"]),
        (p_second["p_out"], dst_p),
        (src_c, c_first["c_in"]),
        (c_first["c_out"], c_second["c_in"]),
        (c_second["c_out"], dst_c),
    ]
    inbound = {}
    for u in (u1, u2):
        inbound.update({u["p_in"]: True, u["c_in"]: True, u["p_out"]: False, u["c_out"]: False})
    over = []
    for u in (u1, u2):
        over.append((u["p_in"], u["p_out"]) if pushed_over else (u["c_in"], u["c_out"]))
    return _grow(d, [rot1, rot2], over, inbound, edges)


def _apply_r2_loop_edge(d: Diagram, loop: int, crossed: int, variant: str) -> Diagram:
    """Attach free loop ``loop`` across the edge through ``crossed``."""
    dir_a = variant[0] == "a"
    loop_over = variant.endswith("over")
    base = d.n_darts
    l1 = _E if dir_a else _W  # loop direction at u1; reversed at u2
    l2 = _W if dir_a else _E
    rot1, u1 = _cross({l1: "L_out", (l1 + 2) % 4: "L_in", _N: "y_out", _S: "y_in"}, base)
    rot2, u2 = _cross({l2: "L_out", (l2 + 2) % 4: "L_in", _N: "y_out", _S: "y_in"}, base + 4)
    src, dst = _endpoints(d, crossed)
    edges = [
        (src, u1["y_in"]),
        (u1["y_out"], u2["y_in"]),
        (u2["y_out"], dst),
        (u1["L_out"], u2["L_in"]),
        (u2["L_out"], u1["L_in"]),
    ]
    inbound = {}
    for u in (u1, u2):
        inbound.update({u["L_in"]: True, u["y_in"]: True, u["L_out"]: False, u["y_out"]: False})
    over = []
    for u in (u1, u2):
        over.append((u["L_in"], u["L_out"]) if loop_over else (u["y_in"], u["y_out"]))
    return _grow(d, [rot1, rot2], over, inbound, edges, free_delta=-1)


def _apply_r2_same_edge(d: Diagram, pushed: int, finger_over: bool) -> Diagram:
    """Push side ``pushed`` through a handle across its own edge's other
    side; the four passes interleave (finger, finger, line, line)."""
    src, dst = _endpoints(d, pushed)
    aligned = not d.inbound[pushed]
    base = d.n_darts
    if aligned:  # line runs north
        rot1, c1 = _cross({_E: "f_out", _N: "l_out", _W: "f_in", _S: "l_in"}, base)
        rot2, c2 = _cross({_E: "f_in", _N: "l_out", _W: "f_out", _S: "l_in"}, base + 4)
    else:
        rot1, c1 = _cross({_E: "f_out", _N: "l_in", _W: "f_in", _S: "l_out"}, base)
        rot2, c2 = _cross({_E: "f_in", _N: "l_in", _W: "f_out", _S: "l_out"}, base + 4)
    edges = [
        (src, c1["f_in"]),
        (c1["f_out"], c2["f_in"]),
        (c2["f_out"], c1["l_in"]),
        (c1["l_out"], c2["l_in"]),
        (c2["l_out"], dst),
    ]
    inbound = {}
    for c in (c1, c2):
        inbound.update({c["f_in"]: True, c["l_in"]: True, c["f_out"]: False, c["l_out"]: False})
    over = []
    for c in (c1, c2):
        over.append((c["f_in"], c["f_out"]) if finger_over else (c["l_in"], c["l_out"]))
    return _grow(d, [rot1, rot2], over, inbound, edges)


def _apply_r2_loop_self(d: Diagram, finger_over: bool) -> Diagram:
    """Fold a free loop over itself through a handle (interleaved passes)."""
    base = d.n_darts
    rot1, c1 = _cross({_E: "f_out", _N: "l_out", _W: "f_in", _S: "l_in"}, base)
    rot2, c2 = _cross({_E: "f_in", _N: "l_out", _W: "f_out", _S: "l_in"}, base + 4)
    edges = [
        (c1["f_out"], c2["f_in"]),
        (c2["f_out"], c1["l_in"]),
        (c1["l_out"], c2["l_in"]),
        (c2["l_out"], c1["f_in"]),
    ]
    inbound = {}
    for c in (c1, c2):
        inbound.update({c["f_in"]: True, c["l_in"]: True, c["f_out"]: False, c["l_out"]: False})
    over = []
    for c in (c1, c2):
        over.append((c["f_in"], c["f_out"]) if finger_over else (c["l_in"], c["l_out"]))
    return _grow(d, [rot1, rot2], over, inbound, edges, free_delta=-1)


def _apply_r2_loop_loop(d: Diagram, variant: str) -> Diagram:
    """Cross two free loops over each other twice (loop A plays the line)."""
    dir_a = variant[0] == "a"
    b_over = variant.endswith("over")
    base = d.n_darts
    l1 = _E if dir_a else _W
    l2 = _W if dir_a else _E
    rot1, u1 = _cross({l1: "B_out", (l1 + 2) % 4: "B_in", _N: "A_out", _S: "A_in"}, base)
    rot2, u2 = _cross({l2: "B_out", (l2 + 2) % 4: "B_in", _N: "A_out", _S: "A_in"}, base + 4)
    edges = [
        (u1["A_out"], u2["A_in"]),
        (u2["A_out"], u1["A_in"]),
        (u1["B_out"], u2["B_in"]),
        (u2["B_out"], u1["B_in"]),
    ]
    inbound = {}
    for u in (u1, u2):
        inbound.update({u["A_in"]: True, u["B_in"]: True, u["A_out"]: False, u["B_out"]: False})
    over = []
    for u in (u1, u2):
        over.append((u["B_in"], u["B_out"]) if b_over else (u["A_in"], u["A_out"]))
    return _grow(d, [rot1, rot2], over, inbound, edges, free_delta=-2)


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
            return _apply_r2_loop_edge(d, site.where[1], site.where[2], site.variant)
        if site.where[0] == "loops":
            return _apply_r2_loop_loop(d, site.variant)
        if site.where[0] == "loopself":
            return _apply_r2_loop_self(d, site.variant == "over")
        x, y = site.where
        if x == y:
            return _apply_r2_fold(d, x, site.variant == "over")
        if y == d.edge_pair[x]:
            return _apply_r2_same_edge(d, x, site.variant == "over")
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
