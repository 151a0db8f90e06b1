"""State-sum invariants: Kauffman bracket, f-polynomial, quandle colorings.

Smoothing convention (fixed by the codec sign convention): at a vertex
with counterclockwise rotation and over pair {o, o'}, the A-smoothing
joins each over dart to its counterclockwise *predecessor* and the
B-smoothing to its successor.  With this choice the positive kink
"O1+ U1+" has bracket -A^3.

State circles live on the abstract map: they alternate smoothing joins
and edges.  The bracket is one frontier (path-decomposition) state sum,
after Burton's fixed-parameter HOMFLY-PT algorithm and Regina's
treewidth Jones polynomial: vertices are added one at a time, and the
partial circles crossing the frontier are tracked as a pairing of the
open darts, so the cost grows with the frontier width rather than with
2^V.  Adding a vertex walks only the paths through it, and each
pairing's tally of (A-smoothings, closed circles) is one integer whose
digits are wide enough that no count carries, so a smoothing adds a
shifted copy of it.  ``tests/oracles.naive_bracket`` is the 2^V
enumeration it is checked against.

Quandle colorings are counted by backtracking over arc colors with
watch lists: setting an arc revisits only the crossings that name it,
arcs are assigned breadth first so that forced colors follow each
choice, and the connected pieces of the crossing constraints are
counted apart and multiplied.  ``tests/oracles.naive_colorings`` (all
n^arcs assignments) and ``linear_colorings`` (a rank over GF(p) for
Alexander quandles) are the oracles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .diagram import Diagram, require_valid, stats

STATE_SUM_CAP = 20


class StateSumLimitError(RuntimeError):
    """Diagram exceeds the state-sum crossing cap."""


def check_state_sum_cap(d: Diagram) -> None:
    """Raise :class:`StateSumLimitError` when ``d`` has more crossings than
    :data:`STATE_SUM_CAP`: the one refusal of :func:`bracket`, of
    ``search.invariant_table`` and of ``search.classify_corpus``."""
    if d.n_vertices > STATE_SUM_CAP:
        raise StateSumLimitError(
            f"{d.n_vertices} crossings exceeds the state-sum cap {STATE_SUM_CAP}")


# ---------------------------------------------------------------------------
# Laurent polynomials in one variable A, integer coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentPoly:
    """Finitely supported integer coefficient map, exponent -> coefficient."""

    coeffs: tuple[tuple[int, int], ...]  # sorted by exponent, no zeros

    @staticmethod
    def from_dict(c: dict[int, int]) -> "LaurentPoly":
        return LaurentPoly(tuple(sorted((e, v) for e, v in c.items() if v != 0)))

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly(())

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly(((0, 1),))

    @staticmethod
    def monomial(exponent: int, coefficient: int = 1) -> "LaurentPoly":
        if coefficient == 0:
            return LaurentPoly(())
        return LaurentPoly(((exponent, coefficient),))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        c = dict(self.coeffs)
        for e, v in other.coeffs:
            c[e] = c.get(e, 0) + v
        return LaurentPoly.from_dict(c)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -v) for e, v in self.coeffs))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        c: dict[int, int] = {}
        for e1, v1 in self.coeffs:
            for e2, v2 in other.coeffs:
                e = e1 + e2
                c[e] = c.get(e, 0) + v1 * v2
        return LaurentPoly.from_dict(c)

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative powers are not Laurent-closed in general")
        out = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def substitute_inverse(self) -> "LaurentPoly":
        """A |-> A^-1."""
        return LaurentPoly(tuple(sorted((-e, v) for e, v in self.coeffs)))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, v in self.coeffs:
            if e == 0:
                mon = str(abs(v))
            else:
                var = "A" if e == 1 else f"A^{e}"
                mon = var if abs(v) == 1 else f"{abs(v)}*{var}"
            parts.append(("-" if v < 0 else "+", mon))
        head = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        return head + "".join(f" {s} {m}" for s, m in parts[1:])


DELTA = LaurentPoly.from_dict({2: -1, -2: -1})  # -A^2 - A^-2


# ---------------------------------------------------------------------------
# Kauffman bracket and f-polynomial
# ---------------------------------------------------------------------------


def _smoothing_pairs(d: Diagram, v: int, kind: str) -> list[tuple[int, int]]:
    """The two dart joins made by an A- or B-smoothing at vertex v."""
    o1, o2 = d.over_pair[v]
    if kind == "A":
        return [(d.sigma[d.sigma[d.sigma[o1]]], o1), (d.sigma[d.sigma[d.sigma[o2]]], o2)]
    return [(o1, d.sigma[o1]), (o2, d.sigma[o2])]


def _vertex_order(d: Diagram) -> list[int]:
    """Greedy low-cutwidth order: next is the vertex with the most darts
    joined to vertices already placed, ties to the least index."""
    edge, vertex_of = d.edge_pair, d.vertex_of
    links = [0] * d.n_vertices
    left = set(range(d.n_vertices))
    order = []
    while left:
        v = max(left, key=lambda w: (links[w], -w))
        left.discard(v)
        order.append(v)
        for x in d.rotations[v]:
            links[vertex_of[edge[x]]] += 1
    return order


def _delta_power(k: int) -> LaurentPoly:
    """DELTA ** k by the binomial theorem, (-1)^k sum_j C(k, j) A^(2k-4j):
    k+1 terms in one pass, for the many free loops that repeated squaring
    of dense polynomials is slow on."""
    terms = []
    c = -1 if k % 2 else 1  # (-1)^k C(k, j), from j = 0 up
    for j in range(k + 1):
        terms.append((4 * j - 2 * k, c))
        c = c * (k - j) // (j + 1)
    return LaurentPoly(tuple(terms))


def bracket(d: Diagram) -> LaurentPoly:
    """Kauffman bracket, normalized so the unknot gives 1.

    A frontier state sum.  Vertices are added in :func:`_vertex_order`;
    the open frontier darts are those of placed vertices whose edge
    partner is not yet placed.  Each DP state is a pairing of the
    frontier darts (the two ends of one partial state circle), stored as
    a sorted tuple of pairs.  The pairings are arbitrary, not only
    non-crossing, as virtual diagrams need.  Cost is exponential in the
    frontier width, not in the crossing count.

    Adding vertex v splits its darts, once per step, into those whose
    edge reaches the frontier (that frontier dart is removed), self-edges
    at v, and new open darts.  A pairing keeps every pair with neither
    end removed and walks only from the kept ends whose mate was removed
    and from the new open darts, through v's smoothing joins, its
    self-edges and the removed pairs; the darts of v that no walk meets
    lie on circles that close at v.

    Each pairing's tally is one integer with a ``V+1``-bit digit per
    (A-smoothings a, closed circles c), at bit ``(V+1) * (a + (V+1) * c)``.
    A digit counts smoothing states with a A-smoothings among the placed
    vertices, at most C(V, a) < 2^(V+1), so no digit carries into the next
    and a transition is one shift and one add: by ``V+1`` bits for an
    A-smoothing and ``(V+1)^2`` bits per closed circle.  The digits are
    read once at the end, where delta^(c + free loops - 1) is expanded.
    """
    require_valid(d)
    check_state_sum_cap(d)
    n = d.n_vertices
    if n == 0 and d.free_loops == 0:
        return LaurentPoly.one()
    edge, vertex_of = d.edge_pair, d.vertex_of
    digit = n + 1
    loop_shift = digit * (n + 1)
    placed = [False] * n
    # Indexed by dart.  A removed dart is never seen again, so `removed` is
    # never reset; a self-edge's darts are marked removed and mated to each
    # other, so that a walk crosses it as it crosses a removed pair.
    removed = [False] * d.n_darts
    mate = [0] * d.n_darts  # partner of each removed dart in the pairing at hand
    seen = [0] * d.n_darts  # last transition whose walks met the dart
    joins = ([0] * d.n_darts, [0] * d.n_darts)  # A- and B-smoothing partner at v
    stamp = 0
    states: dict[tuple, int] = {(): 1}
    for v in _vertex_order(d):
        placed[v] = True
        rot = d.rotations[v]
        opens = []  # (new open dart, where its walk enters v: itself)
        for x in rot:
            y = edge[x]
            if vertex_of[y] == v:
                removed[x], mate[x] = True, y
            elif placed[vertex_of[y]]:
                removed[y] = True
            else:
                opens.append((x, x))
        for kind, join in zip("AB", joins):
            for a, b in _smoothing_pairs(d, v, kind):
                join[a], join[b] = b, a
        nxt: dict[tuple, int] = {}
        for pairing, tally in states.items():
            kept, starts = [], []  # starts: (kept end, the dart of v its removed mate meets)
            for pair in pairing:
                a, b = pair
                if removed[a]:
                    mate[a] = b
                    if removed[b]:
                        mate[b] = a
                    else:
                        starts.append((b, edge[a]))
                elif removed[b]:
                    mate[b] = a
                    starts.append((a, edge[b]))
                else:
                    kept.append(pair)
            starts += opens
            for join, shift in zip(joins, (digit, 0)):
                stamp += 1
                pairs = kept[:]
                for s, p in starts:
                    if seen[s] == stamp:
                        continue
                    while True:
                        seen[p] = stamp
                        q = join[p]
                        seen[q] = stamp
                        if not removed[edge[q]]:  # q is a new open dart
                            e = q
                            break
                        e = mate[edge[q]]
                        if not removed[e]:
                            break
                        p = edge[e]
                    seen[e] = stamp
                    pairs.append((s, e) if s < e else (e, s))
                closed = 0
                for p in rot:  # a dart no walk met lies on a circle that closes at v
                    if seen[p] != stamp:
                        closed += 1
                        while seen[p] != stamp:
                            seen[p] = stamp
                            q = join[p]
                            seen[q] = stamp
                            p = edge[mate[edge[q]]]
                pairs.sort()
                key = tuple(pairs)
                nxt[key] = nxt.get(key, 0) + (tally << (shift + loop_shift * closed))
        states = nxt
    tally = states[()]
    coeffs: dict[int, int] = {}
    delta_pow: dict[int, LaurentPoly] = {}
    mask = (1 << digit) - 1
    index = 0
    while tally:
        mult = tally & mask
        if mult:
            loops, a_count = divmod(index, n + 1)
            k = loops + d.free_loops - 1
            if k not in delta_pow:
                delta_pow[k] = _delta_power(k)
            for e, c in delta_pow[k].coeffs:
                exp = 2 * a_count - n + e
                coeffs[exp] = coeffs.get(exp, 0) + mult * c
        tally >>= digit
        index += 1
    return LaurentPoly.from_dict(coeffs)


def f_poly(d: Diagram) -> LaurentPoly:
    """Writhe-normalized bracket (-A^3)^(-w) <d>, invariant under all moves:
    the coefficient c at exponent e becomes (-1)^w c at e - 3w."""
    b = bracket(d)
    w = stats(d).writhe
    sign = -1 if w % 2 else 1
    return LaurentPoly(tuple((e - 3 * w, sign * c) for e, c in b.coeffs))


# ---------------------------------------------------------------------------
# Quandles and coloring counts
# ---------------------------------------------------------------------------


# largest quandle order a caller may name or load: a table holds n^2 entries
# and check_quandle costs n^3 steps
MAX_QUANDLE_ORDER = 128


@dataclass(frozen=True)
class Quandle:
    table: tuple[tuple[int, ...], ...]  # table[x][y] = x <| y

    @property
    def size(self) -> int:
        return len(self.table)

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """:func:`check_quandle` of the table, computed once."""
        return tuple(check_quandle(self.table))

    @cached_property
    def inverse(self) -> tuple[tuple[int, ...], ...]:
        """inverse[z][y] = x where x <| y = z, for a table with no violations."""
        n = self.size
        inv = [[0] * n for _ in range(n)]
        for y in range(n):
            for x in range(n):
                inv[self.table[x][y]][y] = x
        return tuple(tuple(row) for row in inv)


def dihedral_quandle(n: int) -> Quandle:
    """x <| y = 2y - x mod n."""
    return Quandle(tuple(tuple((2 * y - x) % n for y in range(n)) for x in range(n)))


def trivial_quandle(n: int) -> Quandle:
    return Quandle(tuple(tuple(x for _ in range(n)) for x in range(n)))


def check_quandle(table) -> list[str]:
    """Violations of the quandle axioms, each with a witness.

    Q1: x <| x = x.  Q2: x |-> x <| y bijective for each y.
    Q3: (x <| y) <| z = (x <| z) <| (y <| z).
    """
    try:
        table = tuple(tuple(row) for row in table)
    except TypeError:
        return [f"malformed table: {table!r}"]
    n = len(table)
    errs = []
    for x, row in enumerate(table):
        if len(row) != n:
            return [f"row {x} has length {len(row)}, expected {n}"]
        for y, v in enumerate(row):
            if not isinstance(v, int) or not (0 <= v < n):
                return [f"entry ({x}, {y}) = {v!r} out of range"]
    for x in range(n):
        if table[x][x] != x:
            errs.append(f"Q1 fails: {x} <| {x} = {table[x][x]}")
    for y in range(n):
        column = {table[x][y] for x in range(n)}
        if len(column) != n:
            errs.append(f"Q2 fails: x |-> x <| {y} is not a bijection")
    for x, y, z in itertools.product(range(n), repeat=3):
        lhs = table[table[x][y]][z]
        rhs = table[table[x][z]][table[y][z]]
        if lhs != rhs:
            errs.append(f"Q3 fails at ({x}, {y}, {z}): {lhs} != {rhs}")
    return errs


def load_quandle(lines) -> Quandle:
    """Read the text format: first line n, then n rows of n integers, with
    n at most ``MAX_QUANDLE_ORDER``."""
    if isinstance(lines, str):
        lines = lines.splitlines()
    rows = [ln.strip() for ln in lines if ln.strip()]
    if not rows:
        raise ValueError("empty quandle text")
    n = int(rows[0])
    if n < 1:
        raise ValueError(f"quandle size {n} is below 1")
    if n > MAX_QUANDLE_ORDER:
        raise ValueError(f"quandle size {n} is above the limit of {MAX_QUANDLE_ORDER}")
    if len(rows) - 1 != n:
        raise ValueError(f"quandle text has {len(rows) - 1} rows, expected {n}")
    q = Quandle(tuple(tuple(int(x) for x in row.split()) for row in rows[1:]))
    if q.violations:
        raise ValueError("not a quandle: " + "; ".join(q.violations[:3]))
    return q


def _arcs(d: Diagram):
    """Arc structure: arc count and crossing constraints.

    Arcs are maximal strand runs between underpasses, numbered along
    :attr:`Diagram.passes`: circuit by circuit, each circuit's arcs in
    order from the one leaving its first underpass, and a circuit with
    no underpass is one arc.  Returns (n_arcs, constraints) with
    constraints (under_in_arc, over_arc, under_out_arc) per vertex; free
    loops add unconstrained arcs.
    """
    reach, over, leave = ([0] * d.n_vertices for _ in range(3))
    n_arcs = 0
    for row in d.passes:
        unders = [i for i, (_, role, _) in enumerate(row) if role == "U"]
        m = len(unders) or 1
        start = unders[0] if unders else 0
        j = m - 1  # the arc reaching the first underpass is the circuit's last
        for v, role, _ in row[start:] + row[:start]:
            if role == "O":
                over[v] = n_arcs + j
            else:
                reach[v] = n_arcs + j
                j = (j + 1) % m
                leave[v] = n_arcs + j
        n_arcs += m
    return n_arcs + d.free_loops, tuple(zip(reach, over, leave))


def quandle_colorings(d: Diagram, q: Quandle) -> int:
    """Number of arc colorings satisfying under_out = under_in <| over
    at every crossing.

    A backtracking search with unit propagation.  Each arc watches the
    constraints that name it, so setting an arc visits only those: a
    constraint with its over arc and one under arc colored forces the
    other under arc (forward by ``q.table``, backward by its inverse), and
    a fully colored one is checked.  The arcs of each connected piece of
    the constraint graph are assigned in breadth-first order from the
    piece's least arc, so each choice is followed by the arcs it forces.
    Pieces are counted alone and their counts multiplied; a free loop or
    an arc in no constraint is a piece of its own and gives ``q.size``.
    The cost that remains is output-sized within one piece: the search
    visits every coloring of a piece with no forced arcs, such as a
    trivial quandle on a chain link, and has no work bound.
    """
    require_valid(d)
    if q.violations:
        raise ValueError("not a quandle: " + "; ".join(q.violations[:3]))
    n_arcs, constraints = _arcs(d)
    table, inv = q.table, q.inverse
    watch: list[list[tuple[int, int, int]]] = [[] for _ in range(n_arcs)]
    for c in constraints:
        for a in set(c):
            watch[a].append(c)

    colors: list[int | None] = [None] * n_arcs

    def propagate(arc: int, val: int) -> list[int] | None:
        """Set arc to val and every arc that forces; returns the arcs set,
        or None with none of them set on a conflict."""
        new: list[int] = []
        queue = [(arc, val)]
        ok = True
        while ok and queue:
            arc, val = queue.pop()
            if colors[arc] is not None:
                ok = colors[arc] == val
                continue
            colors[arc] = val
            new.append(arc)
            for ai, ao, au in watch[arc]:
                ci, co, cu = colors[ai], colors[ao], colors[au]
                if co is None:
                    continue
                if ci is None:
                    if cu is not None:
                        queue.append((ai, inv[cu][co]))
                elif cu is None:
                    queue.append((au, table[ci][co]))
                elif table[ci][co] != cu:
                    ok = False
        if ok:
            return new
        for a in new:
            colors[a] = None
        return None

    def count(order: list[int], pos: int) -> int:
        while pos < len(order) and colors[order[pos]] is not None:
            pos += 1
        if pos == len(order):
            return 1
        total = 0
        for val in range(q.size):
            new = propagate(order[pos], val)
            if new is not None:
                total += count(order, pos + 1)
                for a in new:
                    colors[a] = None
        return total

    seen = [False] * n_arcs
    product = 1
    for root in range(n_arcs):
        if seen[root]:
            continue
        seen[root] = True
        order = [root]
        for arc in order:  # grows while read: breadth-first over constraints
            for c in watch[arc]:
                for a in c:
                    if not seen[a]:
                        seen[a] = True
                        order.append(a)
        product *= count(order, 0)
    return product
