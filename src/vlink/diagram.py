"""Virtual link diagrams as decorated combinatorial maps.

A diagram is an oriented 4-valent combinatorial map with over/under
decorations, the purely combinatorial stand-in for a link projection on
a closed oriented surface.  The encoding:

* darts are ``0 .. 4V-1``; every vertex owns exactly four of them and
  ``rotations[v]`` lists its darts in counterclockwise cyclic order;
* ``edge_pair`` is a fixed-point-free involution pairing an outbound
  dart with the inbound dart it feeds (each orbit is one edge);
* at a vertex the two sigma^2-opposite dart pairs are the two strand
  passes; ``over_pair[v]`` names the pass carried by the overstrand;
* ``inbound[d]`` is True when the strand enters the vertex through
  dart ``d``; a strand enters on an inbound dart and leaves on the
  opposite dart of the same pass;
* ``free_loops`` counts crossing-free circle components, which carry
  no graph structure at all.

Crossing sign convention (this fixes the embedding produced from signed
Gauss codes): sign +1 when the under-in dart immediately follows the
over-in dart counterclockwise, -1 when it immediately precedes it.

Diagrams are immutable values; arbitrary field values may represent
broken maps, which :func:`validate` reports as data.  One scan of the
fields, cached on the diagram, finds those violations and, on a valid
diagram, reads the signed Gauss code (:attr:`Diagram.passes`) and builds
every per-dart table: ``vertex_of``, ``sigma``, ``opposite`` and each
in-dart's place in the code.  Every diagram the library builds (parsed,
a move result, or an edit of a code such as :func:`mirror`) goes through
:func:`_from_passes`, which alone lays out darts; ``codec.diagram_from_json``
is the one reader that takes a map as given.

:func:`canonical_string` is the least signed Gauss string of a diagram.
Every such string opens with a role, the crossing name 1 and a sign,
and a crossing's over pass carries its sign, so the least string opens
with ``O1+`` when some crossing is positive and with ``O1-`` otherwise:
only the over passes of the least sign are tried as its first pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain


class DiagramError(ValueError):
    """Raised when an operation requires a valid diagram and gets a broken one."""


@dataclass(frozen=True)
class Diagram:
    rotations: tuple[tuple[int, int, int, int], ...]
    edge_pair: tuple[int, ...]
    over_pair: tuple[tuple[int, int], ...]
    inbound: tuple[bool, ...]
    free_loops: int = 0

    @property
    def n_vertices(self) -> int:
        return len(self.rotations)

    @property
    def n_darts(self) -> int:
        return 4 * len(self.rotations)

    @cached_property
    def _scanned(self):
        errs, tables = _scan(self)
        return tuple(errs), tables

    @property
    def violations(self) -> tuple[str, ...]:
        return self._scanned[0]

    @property
    def _tables(self):
        """The tables :func:`_scan` read, after :func:`require_valid`."""
        require_valid(self)
        return self._scanned[1]

    @cached_property
    def passes(self) -> tuple[tuple[tuple[int, str, str], ...], ...]:
        """Per strand circuit, one ``(vertex, role, sign)`` triple per pass
        in strand order.  This and each dart table below raise
        :class:`DiagramError` on an invalid diagram, as :func:`require_valid`
        does."""
        return self._tables[0]

    @cached_property
    def vertex_of(self) -> tuple[int, ...]:
        """Map dart -> vertex, from the rotation partition."""
        return self._tables[1]

    @cached_property
    def sigma(self) -> tuple[int, ...]:
        """Counterclockwise next dart at the same vertex."""
        return self._tables[2]

    @cached_property
    def opposite(self) -> tuple[int, ...]:
        """The dart across the vertex: sigma twice."""
        return self._tables[3]

    @cached_property
    def _slots(self) -> dict[int, tuple[int, int]]:
        """Dart -> (circuit, position) in :attr:`passes` of the pass its edge enters."""
        return self._tables[4]

    @property
    def is_valid(self) -> bool:
        return not self.violations

    def is_over(self, dart: int) -> bool:
        """True when the pass through ``dart`` is the overstrand of its vertex."""
        return dart in self.over_pair[self.vertex_of[dart]]

    def over_in(self, v: int) -> int:
        a, b = self.over_pair[v]
        return a if self.inbound[a] else b

    def under_in(self, v: int) -> int:
        rot = self.rotations[v]
        under = [d for d in rot if d not in self.over_pair[v]]
        return under[0] if self.inbound[under[0]] else under[1]

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Boundary walks of the ribbon neighbourhood: orbits of sigma o alpha.

        Each face starts at its least dart, and faces are sorted by that
        dart: a walk starts at the least dart on no earlier face, and every
        smaller dart lies on an earlier face.  Free loops contribute no faces.
        """
        sigma, edge_pair = self.sigma, self.edge_pair
        seen = [False] * self.n_darts
        faces = []
        for start in range(self.n_darts):
            if seen[start]:
                continue
            walk = []
            x = start
            while not seen[x]:
                seen[x] = True
                walk.append(x)
                x = sigma[edge_pair[x]]
            faces.append(tuple(walk))
        return tuple(faces)

    @cached_property
    def graph_components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components of the underlying graph, as sorted vertex
        tuples in order of their least vertices."""
        rotations, vertex_of, edge_pair = self.rotations, self.vertex_of, self.edge_pair
        seen = [False] * self.n_vertices
        comps = []
        for root in range(self.n_vertices):
            if seen[root]:
                continue
            seen[root] = True
            stack, comp = [root], [root]
            while stack:
                for x in rotations[stack.pop()]:
                    w = vertex_of[edge_pair[x]]
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
                        comp.append(w)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)


EMPTY = Diagram(rotations=(), edge_pair=(), over_pair=(), inbound=())

UNKNOT = Diagram(rotations=(), edge_pair=(), over_pair=(), inbound=(), free_loops=1)


@dataclass(frozen=True)
class DiagramStats:
    crossings: int
    components: int
    writhe: int


def _scan(d: Diagram) -> tuple[list[str], tuple | None]:
    """The invariant violations of ``d`` and, when there are none, its
    tables: the passes, ``vertex_of``, ``sigma``, ``opposite`` and the
    slots of :class:`Diagram`.

    The passes are per strand circuit one ``(vertex, role, sign)`` triple
    per pass, role ``"O"``/``"U"`` and sign ``"+"``/``"-"``; the slots map
    each in-dart, and its edge partner, to the (circuit, position) of its
    pass.  One pass over the raw fields checks every condition, fills the
    per-dart tables from the rotations and reads the circuits in order of
    their least in-darts: each starts at the least in-dart not on an
    earlier one.  Free loops have no circuit.  The over-in and under-in
    darts of a vertex are its circuit entries, and the sign is ``+`` when
    the dart counterclockwise after the over-in is inbound.  A message is
    formatted only for a condition that fails; a failed length check ends
    the scan, a broken rotation partition ends it after every rotation is
    read, and otherwise it reports every edge and vertex.
    """
    errs: list[str] = []
    rotations, edge_pair, over_pair, inbound = d.rotations, d.edge_pair, d.over_pair, d.inbound
    nv = len(rotations)
    n = 4 * nv
    if d.free_loops < 0:
        errs.append("free loop count is negative")
    if len(edge_pair) != n:
        errs.append(f"edge involution has {len(edge_pair)} entries, expected {n}")
    if len(inbound) != n:
        errs.append(f"orientation has {len(inbound)} entries, expected {n}")
    if len(over_pair) != nv:
        errs.append("strand decoration does not cover every vertex")
    if errs:
        return errs, None

    layout = _layout(nv)
    if rotations == layout[0]:
        # the layout of every map _from_passes builds, whose rotation
        # partition holds: its tables are shared
        owner, sigma, opposite = layout[2:]
    else:
        owner = [-1] * n  # dart -> the vertex whose rotation lists it
        sigma, opposite = [0] * n, [0] * n
        for v, rot in enumerate(rotations):
            if len(rot) != 4:
                errs.append(f"rotation of vertex {v} has {len(rot)} darts, expected 4")
            for x in rot:
                if not (0 <= x < n):
                    errs.append(f"rotation of vertex {v} names dart {x} out of range")
                elif owner[x] >= 0:
                    errs.append(f"dart {x} appears in rotations of vertices {owner[x]} and {v}")
                else:
                    owner[x] = v
            if not errs:
                r0, r1, r2, r3 = rot
                sigma[r0], sigma[r1], sigma[r2], sigma[r3] = r1, r2, r3, r0
                opposite[r0], opposite[r1], opposite[r2], opposite[r3] = r2, r3, r0, r1
        if errs:  # without them the 4 * nv darts named are distinct and all in range
            missing = [x for x in range(n) if owner[x] < 0]
            if missing:
                errs.append(f"darts {missing} missing from every rotation")
            return errs, None

    for x, y in enumerate(edge_pair):
        if not (0 <= y < n):
            errs.append(f"edge involution sends dart {x} out of range")
        elif y == x:
            errs.append(f"edge involution has fixed point at dart {x}")
        elif edge_pair[y] != x:
            errs.append(f"edge involution is not an involution at dart {x}")
        elif inbound[x] == inbound[y]:
            kind = "inbound" if inbound[x] else "outbound"
            errs.append(f"edge {{{x}, {y}}} joins two {kind} darts")

    entry: list[tuple[int, str, str] | None] = [None] * n  # per in-dart
    for v, rot in enumerate(rotations):
        a, b = over_pair[v]
        if a not in rot or b not in rot or a == b:
            errs.append(f"over pair of vertex {v} is not two of its darts")
            continue
        if opposite[a] != b:
            errs.append(f"over pair of vertex {v} is not an opposite pair")
        r0, r1, r2, r3 = rot
        for p, q in ((r0, r2), (r1, r3)):
            if inbound[p] == inbound[q]:
                errs.append(f"pass {(p, q)} at vertex {v} has "
                            f"{inbound[p] + inbound[q]} inbound darts, expected 1")
        if errs:
            continue
        o = a if inbound[a] else b
        after = rot[(rot.index(o) + 1) % 4]
        if inbound[after]:
            entry[o], entry[after] = (v, "O", "+"), (v, "U", "+")
        else:
            entry[o], entry[opposite[after]] = (v, "O", "-"), (v, "U", "-")
    if errs:
        return errs, None

    passes, slots = [], {}
    for start in range(n):
        if entry[start] is None:
            continue
        row = []
        x = start
        while (e := entry[x]) is not None:
            entry[x] = None
            slots[x] = slots[edge_pair[x]] = (len(passes), len(row))
            row.append(e)
            x = edge_pair[opposite[x]]
        passes.append(tuple(row))
    return errs, (tuple(passes), tuple(owner), tuple(sigma), tuple(opposite), slots)


def validate(d: Diagram) -> list[str]:
    """Return a list of invariant violations; empty iff ``d`` is a valid diagram."""
    return list(d.violations)


def require_valid(d: Diagram) -> Diagram:
    if not d.is_valid:
        raise DiagramError("invalid diagram: " + "; ".join(d.violations))
    return d


def stats(d: Diagram) -> DiagramStats:
    passes = d.passes
    return DiagramStats(
        crossings=d.n_vertices,
        components=len(passes) + d.free_loops,
        writhe=sum(1 if sgn == "+" else -1
                   for row in passes for _, role, sgn in row if role == "O"),
    )


def mirror(d: Diagram) -> Diagram:
    """The mirror image, built by :func:`_from_passes`: every pass swaps O
    and U and flips its sign.  Involutive on the diagrams ``_from_passes``
    lays out; for any other valid map, such as one read from JSON, the
    result is isomorphic to the map with each over pair swapped in place."""
    swap = {"O": "U", "U": "O", "+": "-", "-": "+"}
    return _from_passes([[(v, swap[role], swap[sgn]) for v, role, sgn in row]
                         for row in d.passes], d.free_loops)


def disjoint_union(d1: Diagram, d2: Diagram) -> Diagram:
    """Place two diagrams side by side on separate surfaces, built by
    :func:`_from_passes`: ``d2``'s vertices follow ``d1``'s."""
    k = d1.n_vertices
    rows = d1.passes + tuple(tuple((v + k, role, sgn) for v, role, sgn in row)
                             for row in d2.passes)
    return _from_passes(rows, d1.free_loops + d2.free_loops)


def relabel(d: Diagram, vertex_order: list[int]) -> Diagram:
    """``d`` with vertex ``vertex_order[i]`` renamed ``i``, built by
    :func:`_from_passes`.  ``ValueError`` unless ``vertex_order`` is a
    permutation of the vertices."""
    rows = d.passes
    if sorted(vertex_order) != list(range(d.n_vertices)):
        raise ValueError(f"vertex_order is not a permutation of range({d.n_vertices})")
    name = {v: i for i, v in enumerate(vertex_order)}
    return _from_passes([[(name[v], role, sgn) for v, role, sgn in row] for row in rows],
                        d.free_loops)


_IN_SLOT = {("O", "+"): 0, ("O", "-"): 0, ("U", "+"): 1, ("U", "-"): 3}


@lru_cache(maxsize=2**5)
def _layout(nv: int):
    """The dart layout :func:`_from_passes` gives every map on ``nv``
    vertices, shared by all of them: its ``rotations`` and ``over_pair``,
    and the ``vertex_of``, ``sigma`` and ``opposite`` tables :func:`_scan`
    reads from those rotations."""
    darts = range(4 * nv)
    return (tuple((x, x + 1, x + 2, x + 3) for x in darts[::4]),
            tuple((x, x + 2) for x in darts[::4]),
            tuple(x >> 2 for x in darts),
            tuple(x & ~3 | (x + 1) & 3 for x in darts),
            tuple(x ^ 2 for x in darts))


def _from_passes(rows, free_loops: int) -> Diagram:
    """The diagram of per-circuit ``(vertex, role, sign)`` rows that
    :func:`_check_passes` accepts, on the shared :func:`_layout`.  Vertex
    ``v`` owns darts ``4v .. 4v+3`` counterclockwise, with the over-in
    dart at slot 0 and the under-in dart at slot 1 (sign +) or slot 3
    (sign -)."""
    n = 2 * sum(map(len, rows))
    edge = [0] * n
    inbound = [False] * n
    for row in rows:
        v, role, sgn = row[-1]
        src = (4 * v + _IN_SLOT[role, sgn]) ^ 2
        for v, role, sgn in row:
            x = 4 * v + _IN_SLOT[role, sgn]
            edge[src] = x
            edge[x] = src
            inbound[x] = True
            src = x ^ 2
    rotations, over_pair = _layout(n // 4)[:2]
    return Diagram(rotations, tuple(edge), over_pair, tuple(inbound), free_loops)


def _check_passes(rows) -> int:
    """The crossing count of per-circuit ``(vertex, role, sign)`` rows;
    raises :class:`DiagramError` unless no row is empty and vertices
    ``0 .. n-1`` each occur once as O and once as U, with one sign."""
    total = sum(map(len, rows))
    n = total // 2
    over, under = [None] * n, [None] * n  # per vertex, the sign at its O and at its U pass
    for v, role, sgn in chain.from_iterable(rows):
        side = over if role == "O" else under if role == "U" else None
        if side is None or not 0 <= v < n or side[v] is not None or sgn not in ("+", "-"):
            break
        side[v] = sgn
    else:
        # the 2n passes filled the 2n slots once each, so over == under
        # says that each vertex has one sign
        if all(rows) and 2 * n == total and over == under:
            return n
    raise DiagramError(f"invalid signed Gauss code: {rows!r}")


@lru_cache(maxsize=2**17)
def canonical_string(d: Diagram) -> str:
    """Isomorphism-invariant serialization.

    Two valid diagrams are isomorphic as decorated oriented maps iff
    their canonical strings are equal: the string is the least signed
    Gauss string over every component order and every starting pass,
    crossings renumbered by first traversal.  Choices are explored depth
    first, one component at a time, and a branch is dropped as soon as
    its emitted prefix is larger than the same prefix of the best string
    so far.  Every serialization of a diagram has the same length (each
    crossing name occurs twice in all of them), so a larger prefix never
    completes to a smaller string and the pruning never changes the
    result, which ``tests/oracles.naive_canonical_string`` recomputes by
    listing every choice.  Only the over passes of the least sign open a
    first circuit: a serialization's first piece is a role, the name 1
    and a sign, ``"O1+" < "O1-" < "U1+" < "U1-"``, and each crossing's
    over pass carries that crossing's sign, so a start at any other pass
    opens with a larger piece.  :func:`_label` serializes ``d``'s
    :attr:`~Diagram.passes`, which raises :class:`DiagramError` on an
    invalid diagram as :func:`require_valid` does.  The cache holds up
    to 2**17 diagrams.
    """
    return _label(d.passes, d.n_vertices, d.free_loops)[0]


def _label(tables, n_vertices: int, free_loops: int):
    """:func:`canonical_string` of the code with per-circuit ``(vertex,
    role, sign)`` rows ``tables`` on vertices ``0 .. n_vertices-1``, and
    the canonical index of each vertex: a map from vertex to its crossing
    name in that string, which is its index in decimal."""
    loops = " / ".join("*" * free_loops)
    if not tables:
        return loops, {}
    labels = list(map(str, range(1, n_vertices + 1)))
    # Every serialization opens with a role, the name 1 and a sign, and
    # "O1+" < "O1-" < "U1+" < "U1-".  A crossing's over pass carries its
    # sign, so the least opening is "O1+" exactly when some crossing is
    # positive: only over passes of the least sign can open the string.
    openers = [[i for i, p in enumerate(row) if p[1] == "O" and p[2] == "+"] for row in tables]
    if not any(openers):
        openers = [[i for i, p in enumerate(row) if p[1] == "O"] for row in tables]
    # A piece is a separator, a role, a name and a sign; it holds one sign,
    # at its end, so no piece is a proper prefix of another, and piece
    # lists compare as the strings they join into.
    pieces: list[str] = []
    best = best_named = None

    def extend(remaining: list[int], names: dict[int, str], tied: bool) -> None:
        # pieces[:depth] serializes the circuits placed so far, whose
        # crossings names holds; tied means it equals best[:depth],
        # otherwise it is smaller or there is no best yet
        nonlocal best, best_named
        depth = len(pieces)
        lead = " / " if depth else ""
        for k, ci in enumerate(remaining):
            rest = remaining[:k] + remaining[k + 1:]
            row = tables[ci]
            size = len(row)
            cycle = row + row
            for start in range(size) if depth else openers[ci]:
                del pieces[depth:]
                named = names.copy()
                same, sep = tied, lead
                for v, role, sgn in cycle[start:start + size]:
                    label = named.get(v)
                    if label is None:
                        label = named[v] = labels[len(named)]
                    piece = f"{sep}{role}{label}{sgn}"
                    sep = " "
                    if same:
                        other = best[len(pieces)]
                        if piece != other:
                            if piece > other:
                                break
                            same = False
                    pieces.append(piece)
                else:
                    before = best
                    if rest:
                        extend(rest, named, same)
                    elif not same:
                        best, best_named = pieces.copy(), named
                    if best is not before:
                        tied = True  # the new best extends this node's prefix

    extend(list(range(len(tables))), {}, False)
    del extend  # the closure refers to itself; free it without the cycle collector
    text = "".join(best)
    return (f"{text} / {loops}" if loops else text), best_named
