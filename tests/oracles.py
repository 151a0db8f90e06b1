"""Independent brute-force oracles the production code is checked against.

Everything here recomputes from first principles: full 2^V state
enumeration for the bracket, raw permutation orbits for faces, an
explicit decorated-map isomorphism search, exhaustive arc-coloring
scans, and canonical strings emitted in full for every component order
and start.  None of it shares code paths with the production algorithms,
except that the search oracles take their successors from the production
move set, ``vlink.search._expand``: they pin the breadth-first loop, the
budget and the ranking, not the moves.
"""

from __future__ import annotations

import itertools

from vlink.diagram import Diagram, canonical_string
from vlink.invariants import DELTA, LaurentPoly, Quandle
from vlink.search import _expand, _rep
from vlink.surface import genus


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


def _serialize(d: Diagram, comp_order: tuple[int, ...], starts: tuple[int, ...]) -> str:
    """Emit a signed Gauss string for one choice of component order and
    starting pass per component; crossings renumbered by first traversal."""
    names: dict[int, int] = {}
    parts = []
    for ci, si in zip(comp_order, starts):
        circ = d.strand_circuits[ci]
        toks = []
        for j in range(len(circ)):
            p = circ[(si + j) % len(circ)]
            v = d.vertex_of[p]
            if v not in names:
                names[v] = len(names) + 1
            role = "O" if d.is_over(p) else "U"
            sgn = "+" if d.sign(v) > 0 else "-"
            toks.append(f"{role}{names[v]}{sgn}")
        parts.append(" ".join(toks))
    parts.extend("*" * d.free_loops)
    return " / ".join(parts)


def naive_serialize_default(d: Diagram) -> str:
    """Circuits in order, each from its least dart."""
    c = len(d.strand_circuits)
    return _serialize(d, tuple(range(c)), (0,) * c)


def naive_canonical_string(d: Diagram) -> str:
    """Lexicographic minimum of the serializations over every component
    order and every starting pass, each one emitted in full."""
    circuits = d.strand_circuits
    c = len(circuits)
    if c == 0:
        return _serialize(d, (), ())
    best = None
    for comp_order in itertools.permutations(range(c)):
        for starts in itertools.product(*(range(len(circuits[i])) for i in comp_order)):
            s = _serialize(d, comp_order, starts)
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


def naive_colorings(d: Diagram, q: Quandle) -> int:
    """Count colorings by scanning all n^arcs assignments."""
    from vlink.invariants import _arcs

    n_arcs, constraints = _arcs(d)
    count = 0
    for combo in itertools.product(range(q.size), repeat=n_arcs):
        if all(q.table[combo[ai]][combo[ao]] == combo[au]
               for ai, ao, au in constraints):
            count += 1
    return count


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
            for _, _, cs2 in _expand(_rep(cs), bounds.max_crossings):
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
