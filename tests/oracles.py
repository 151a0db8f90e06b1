"""Independent brute-force oracles the production code is checked against.

Everything here recomputes from first principles: full 2^V state
enumeration for the bracket, raw permutation orbits for faces, a
union-find over the raw edges for graph components, an explicit
decorated-map isomorphism search, exhaustive arc-coloring scans, ranks
over GF(p) for Alexander-quandle colorings, canonical strings emitted
in full for every component order and start, and a signed Gauss code
check that sorts every pass.  Strand
circuits, crossing signs and arcs are read from a diagram's raw fields
here, not from ``Diagram.passes``.  None of it shares code paths with
the production algorithms, except that the search oracles apply the
production moves: ``every_site`` lists every move site from the raw
fields and ``naive_faces``, repeats included, where
``vlink.moves.enumerate_moves`` lists each distinct move once, and
``full_listing`` applies all of those within the crossing cap.  It
shares ``vlink.moves._edit`` with the search, but builds each result
with ``vlink.diagram._from_passes`` (through ``_apply_unchecked``) and
labels it with ``canonical_string``, where the search labels the edited
code directly.  So they pin the breadth-first loop, the budget, the
ranking, the listing's leaving out of repeated sites and the search's
labelling, not the moves.  Their representatives come from the text
parser, ``to_diagram(parse_gauss(cs))``, not from the search's own
builder ``vlink.codec._from_canonical``.
"""

from __future__ import annotations

import itertools

from vlink.codec import parse_gauss, to_diagram
from vlink.diagram import Diagram, DiagramError, canonical_string
from vlink.invariants import DELTA, LaurentPoly, Quandle
from vlink.moves import MoveSite, _apply_unchecked
from vlink.surface import genus


def _rep(cs: str) -> Diagram:
    return to_diagram(parse_gauss(cs))


def naive_bracket(d: Diagram) -> LaurentPoly:
    """Sum A^(a-b) * delta^(loops-1) over all 2^V smoothing states."""
    v = d.n_vertices
    if v == 0 and d.free_loops == 0:
        return LaurentPoly.one()
    total = LaurentPoly.zero()
    for state in range(1 << v):
        sm: dict[int, int] = {}
        for vert in range(v):
            rot = d.rotations[vert]
            o1, o2 = d.over_pair[vert]
            sigma = {rot[i]: rot[(i + 1) % 4] for i in range(4)}
            sigma_inv = {b: a for a, b in sigma.items()}
            if (state >> vert) & 1:  # B: over dart joined to its successor
                pairs = [(o1, sigma[o1]), (o2, sigma[o2])]
            else:                    # A: over dart joined to its predecessor
                pairs = [(sigma_inv[o1], o1), (sigma_inv[o2], o2)]
            for a, b in pairs:
                sm[a] = b
                sm[b] = a
        seen: set[int] = set()
        orbits = 0
        for start in range(d.n_darts):
            if start in seen:
                continue
            orbits += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = sm[d.edge_pair[x]]
        loops = orbits // 2 + d.free_loops
        b_count = bin(state).count("1")
        total = total + LaurentPoly.monomial(v - 2 * b_count) * DELTA ** (loops - 1)
    return total


def naive_faces(d: Diagram) -> list[tuple[int, ...]]:
    """Orbits of the composed permutation sigma o alpha, built as arrays."""
    n = d.n_darts
    sigma = [0] * n
    for rot in d.rotations:
        for i in range(4):
            sigma[rot[i]] = rot[(i + 1) % 4]
    phi = [sigma[d.edge_pair[x]] for x in range(n)]
    seen = [False] * n
    faces = []
    for s in range(n):
        if seen[s]:
            continue
        cyc = []
        x = s
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = phi[x]
        k = cyc.index(min(cyc))
        faces.append(tuple(cyc[k:] + cyc[:k]))
    faces.sort(key=lambda f: f[0])
    return faces


def naive_graph_components(d: Diagram) -> tuple[tuple[int, ...], ...]:
    """Vertex classes of a union-find that joins the vertices at the two
    ends of every edge, read from the raw rotations and edge pairing; each
    class sorted, classes in order of their least vertices."""
    parent = list(range(d.n_vertices))

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    owner = {x: v for v, rot in enumerate(d.rotations) for x in rot}
    for x, y in enumerate(d.edge_pair):
        a, b = find(owner[x]), find(owner[y])
        parent[max(a, b)] = min(a, b)
    classes: dict[int, list[int]] = {}
    for v in range(d.n_vertices):
        classes.setdefault(find(v), []).append(v)
    return tuple(tuple(c) for _, c in sorted(classes.items()))


def naive_check_passes(rows) -> int:
    """The crossing count of per-circuit ``(vertex, role, sign)`` rows, by
    sorting every pass: vertex ``v``'s two passes must sort to places
    ``2v`` and ``2v + 1`` as ``(v, "O", s)`` and ``(v, "U", s)``."""
    flat = sorted(p for row in rows for p in row)
    n = len(flat) // 2
    if not (all(rows) and 2 * n == len(flat) and all(
            o == (v, "O", o[2]) and u == (v, "U", o[2]) and o[2] in ("+", "-")
            for v, o, u in zip(range(n), flat[::2], flat[1::2]))):
        raise DiagramError(f"invalid signed Gauss code: {rows!r}")
    return n


def map_mirror(d: Diagram) -> Diagram:
    """The mirror image made on the raw map: each vertex keeps its
    rotation and its over pair becomes the other two darts.  On a
    ``_from_passes`` layout the new over pairs sit at slots 1 and 3, so
    the over-in dart is never at slot 0, where ``vlink.diagram.mirror``,
    which rebuilds the map from the mirrored code, puts it."""
    if d.violations:
        raise DiagramError("invalid diagram: " + "; ".join(d.violations))
    over = tuple(tuple(x for x in rot if x not in d.over_pair[v])
                 for v, rot in enumerate(d.rotations))
    return Diagram(d.rotations, d.edge_pair, over, d.inbound, d.free_loops)


def _sigma(d: Diagram) -> dict[int, int]:
    """Counterclockwise next dart at the same vertex."""
    return {rot[i]: rot[(i + 1) % 4] for rot in d.rotations for i in range(4)}


def _ins(d: Diagram, v: int) -> tuple[int, int]:
    """The over-in and under-in darts of vertex ``v``."""
    over = d.over_pair[v]
    over_in = next(x for x in over if d.inbound[x])
    under_in = next(x for x in d.rotations[v] if x not in over and d.inbound[x])
    return over_in, under_in


def _circuits(d: Diagram) -> list[list[int]]:
    """Closed strand walks, each the list of its passes' in-darts from its
    least one, in order of that dart; free loops are not included."""
    sigma = _sigma(d)
    seen: set[int] = set()
    circuits = []
    for start in range(d.n_darts):
        if start in seen or not d.inbound[start]:
            continue
        walk = []
        x = start
        while x not in seen:
            seen.add(x)
            walk.append(x)
            x = d.edge_pair[sigma[sigma[x]]]
        circuits.append(walk)
    return circuits


def _passes(d: Diagram, circuits) -> list[list[tuple[int, str, str]]]:
    """Per circuit, the ``(vertex, role, sign)`` of each pass of its walk."""
    sigma = _sigma(d)
    vertex_of = {x: v for v, rot in enumerate(d.rotations) for x in rot}
    ins = [_ins(d, v) for v in range(d.n_vertices)]
    rows = []
    for circ in circuits:
        row = []
        for p in circ:
            v = vertex_of[p]
            over_in, under_in = ins[v]
            row.append((v, "O" if p == over_in else "U",
                        "+" if sigma[over_in] == under_in else "-"))
        rows.append(row)
    return rows


def _serialize(d: Diagram, rows, comp_order: tuple[int, ...], starts: tuple[int, ...]) -> str:
    """Emit a signed Gauss string for one choice of component order and
    starting pass per component; crossings renumbered by first traversal."""
    names: dict[int, int] = {}
    parts = []
    for ci, si in zip(comp_order, starts):
        row = rows[ci]
        toks = []
        for j in range(len(row)):
            v, role, sgn = row[(si + j) % len(row)]
            if v not in names:
                names[v] = len(names) + 1
            toks.append(f"{role}{names[v]}{sgn}")
        parts.append(" ".join(toks))
    parts.extend("*" * d.free_loops)
    return " / ".join(parts)


def naive_serialize_default(d: Diagram) -> str:
    """Circuits in order, each from its least dart."""
    rows = _passes(d, _circuits(d))
    c = len(rows)
    return _serialize(d, rows, tuple(range(c)), (0,) * c)


def naive_canonical_string(d: Diagram) -> str:
    """Lexicographic minimum of the serializations over every component
    order and every starting pass, each one emitted in full."""
    rows = _passes(d, _circuits(d))
    c = len(rows)
    if c == 0:
        return _serialize(d, rows, (), ())
    best = None
    for comp_order in itertools.permutations(range(c)):
        for starts in itertools.product(*(range(len(rows[i])) for i in comp_order)):
            s = _serialize(d, rows, comp_order, starts)
            if best is None or s < best:
                best = s
    return best


def find_isomorphism(d1: Diagram, d2: Diagram):
    """Explicit decorated-map isomorphism (vertex bijection + rotation
    offsets) or None.  Exponential; only for small diagrams."""
    if (d1.n_vertices != d2.n_vertices or d1.free_loops != d2.free_loops):
        return None
    v = d1.n_vertices
    if v == 0:
        return {}
    for perm in itertools.permutations(range(v)):
        for offsets in itertools.product(range(4), repeat=v):
            dart_map = {}
            for a in range(v):
                rot1, rot2 = d1.rotations[a], d2.rotations[perm[a]]
                for i in range(4):
                    dart_map[rot1[i]] = rot2[(i + offsets[a]) % 4]
            ok = True
            for x in range(d1.n_darts):
                if dart_map[d1.edge_pair[x]] != d2.edge_pair[dart_map[x]]:
                    ok = False
                    break
                if d1.inbound[x] != d2.inbound[dart_map[x]]:
                    ok = False
                    break
            if not ok:
                continue
            for a in range(v):
                img = {dart_map[x] for x in d1.over_pair[a]}
                if img != set(d2.over_pair[perm[a]]):
                    ok = False
                    break
            if ok:
                return dart_map
    return None


def _arcs(d: Diagram):
    """(n_arcs, per vertex (under-in arc, over arc, under-out arc)): arcs
    are the classes of darts joined by edges and by overpasses, so they
    end at underpasses; free loops add unconstrained arcs."""
    root = list(range(d.n_darts))

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    for x in range(d.n_darts):
        root[find(x)] = find(d.edge_pair[x])
    for a, b in d.over_pair:
        root[find(a)] = find(b)
    arc: dict[int, int] = {}
    for x in range(d.n_darts):
        arc.setdefault(find(x), len(arc))
    sigma = _sigma(d)
    constraints = []
    for v in range(d.n_vertices):
        over_in, under_in = _ins(d, v)
        under_out = sigma[sigma[under_in]]
        constraints.append((arc[find(under_in)], arc[find(over_in)], arc[find(under_out)]))
    return len(arc) + d.free_loops, constraints


def naive_colorings(d: Diagram, q: Quandle) -> int:
    """Count colorings by scanning all n^arcs assignments."""
    n_arcs, constraints = _arcs(d)
    count = 0
    for combo in itertools.product(range(q.size), repeat=n_arcs):
        if all(q.table[combo[ai]][combo[ao]] == combo[au]
               for ai, ao, au in constraints):
            count += 1
    return count


def linear_colorings(d: Diagram, p: int, t: int) -> int:
    """Count colorings by the Alexander quandle x <| y = t*x + (1-t)*y
    over GF(p), p prime and t a unit, as p ** (arcs - rank) of the
    linear system under_out = t*under_in + (1-t)*over.  The dihedral
    quandle R_p is t = -1."""
    n_arcs, constraints = _arcs(d)
    rows = []
    for ai, ao, au in constraints:
        row = [0] * n_arcs
        row[ai] += t
        row[ao] += 1 - t
        row[au] -= 1
        rows.append([x % p for x in row])
    rank = 0
    for col in range(n_arcs):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        scale = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * scale % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return p ** (n_arcs - rank)


def every_site(d: Diagram, kinds) -> list[MoveSite]:
    """Every move site of the requested kinds, in ``MoveSite.sort_key``
    order, repeats included: both pushes of each mirrored pair, both
    bigons on one vertex pair, and the sites of every free loop, both
    curls on each whenever R1+ is asked.  Joins of two free loops are
    listed with loop 0 only: every pair gives one diagram.  Faces come
    from :func:`naive_faces`, everything else from the raw fields."""
    sigma = _sigma(d)
    vertex_of = {x: v for v, rot in enumerate(d.rotations) for x in rot}
    over = {x for pair in d.over_pair for x in pair}
    faces = naive_faces(d)
    face_of = {x: i for i, face in enumerate(faces) for x in face}
    out_darts = [x for x in range(d.n_darts) if not d.inbound[x]]
    edge = d.edge_pair
    sites = []
    if "R1-" in kinds:
        sites += [MoveSite("R1-", (v,)) for v, rot in enumerate(d.rotations)
                  if any(sigma[edge[x]] == x for x in rot)]
    for face in faces:
        corners = {vertex_of[edge[x]] for x in face}
        if "R2-" in kinds and len(face) == 2 and len(corners) == 2 \
                and (face[0] in over) == (edge[face[0]] in over):
            sites.append(MoveSite("R2-", face))
        if "R3" in kinds and len(face) == 3 and len(corners) == 3 \
                and len({edge[x] in over for x in face}) == 2:
            sites.append(MoveSite("R3", face))
    if "R1+" in kinds:
        sites += [MoveSite("R1+", (x,), v) for x in out_darts for v in ("lo", "lu", "ro", "ru")]
        sites += [MoveSite("R1+", ("loop", i), v) for i in range(d.free_loops) for v in ("lo", "ro")]
    for x, y in itertools.product(range(d.n_darts), repeat=2):
        # a fold or a push within one face; a push across two faces, or
        # across its own edge's other side, needs a handle
        cofacial = y != edge[x] and (x == y or face_of[x] == face_of[y])
        kind = "R2+" if cofacial else "R2+stab"
        if kind in kinds:
            sites += [MoveSite(kind, (x, y), "over"), MoveSite(kind, (x, y), "under")]
    if "R2+stab" in kinds:
        ends = ("a_over", "a_under", "b_over", "b_under")
        for i in range(d.free_loops):
            sites += [MoveSite("R2+stab", ("loop", i, x), v) for x in out_darts for v in ends]
            sites += [MoveSite("R2+stab", ("loopself", i), v) for v in ("over", "under")]
        sites += [MoveSite("R2+stab", ("loops", 0, j), v) for j in range(1, d.free_loops) for v in ends]
    return sorted(sites, key=MoveSite.sort_key)


# crossings each move kind adds
GROWTH = {"R1-": -1, "R2-": -2, "R3": 0, "R1+": 1, "R2+": 2, "R2+stab": 2}


def full_listing(rep: Diagram, max_crossings: int) -> list[tuple[MoveSite, str]]:
    """(site, canonical result) for every site of the moves that fit under
    the crossing cap, in ``MoveSite.sort_key`` order, repeats included."""
    room = max_crossings - rep.n_vertices
    sites = every_site(rep, {kind for kind, g in GROWTH.items() if g <= room})
    return [(site, canonical_string(_apply_unchecked(rep, site))) for site in sites]


def _bfs_closure(start_cs: str, bounds):
    """Layer-by-layer closure that keeps expanding after the state budget
    is spent and discards what it finds; returns (visited, truncated)."""
    visited = {start_cs}
    frontier = [start_cs]
    truncated = False
    depth = 0
    while frontier:
        if bounds.max_depth is not None and depth >= bounds.max_depth:
            truncated = True
            break
        next_frontier = []
        for cs in sorted(frontier):
            for _, cs2 in full_listing(_rep(cs), bounds.max_crossings):
                if cs2 in visited:
                    continue
                if bounds.max_states is not None and len(visited) >= bounds.max_states:
                    truncated = True
                    continue
                visited.add(cs2)
                next_frontier.append(cs2)
        frontier = next_frontier
        depth += 1
    return visited, truncated


def naive_orbit(d: Diagram, bounds):
    """(states, truncated, explored) of the bounded orbit."""
    visited, truncated = _bfs_closure(canonical_string(d), bounds)
    return frozenset(visited), truncated, len(visited)


def naive_minimize(states, truncated: bool):
    """(witness string, total genus, crossings, certified, explored) of an
    orbit, each state ranked on its re-parsed representative."""

    def key(cs: str):
        rep = _rep(cs)
        return (genus(rep).total, rep.n_vertices, cs)

    g, v, best = min(key(cs) for cs in states)
    return best, g, v, not truncated, len(states)
