"""State-sum invariants: Kauffman bracket, f-polynomial, quandle colorings.

Smoothing convention (fixed by the codec sign convention): at a vertex
with counterclockwise rotation and over pair {o, o'}, the A-smoothing
joins each over dart to its counterclockwise *predecessor* and the
B-smoothing to its successor.  With this choice the positive kink
"O1+ U1+" has bracket -A^3.

Loops of a smoothing state are counted on the abstract map: the state
pairing composed with the edge involution walks each state circle twice
(once per direction), so the circle count is half the orbit count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .diagram import Diagram, require_valid, stats

DEFAULT_STATE_SUM_CAP = 20


class StateSumLimitError(RuntimeError):
    """Diagram exceeds the configured state-sum crossing cap."""


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


A = LaurentPoly.monomial(1)
A_INV = LaurentPoly.monomial(-1)
DELTA = LaurentPoly.from_dict({2: -1, -2: -1})  # -A^2 - A^-2
MINUS_A_CUBED = LaurentPoly.monomial(3, -1)
MINUS_A_CUBED_INV = LaurentPoly.monomial(-3, -1)


# ---------------------------------------------------------------------------
# Kauffman bracket and f-polynomial
# ---------------------------------------------------------------------------


def _smoothing_pairs(d: Diagram, v: int, kind: str) -> list[tuple[int, int]]:
    """The two dart joins made by an A- or B-smoothing at vertex v."""
    o1, o2 = d.over_pair[v]
    if kind == "A":
        return [(d.sigma[d.sigma[d.sigma[o1]]], o1), (d.sigma[d.sigma[d.sigma[o2]]], o2)]
    return [(o1, d.sigma[o1]), (o2, d.sigma[o2])]


# Crossingless intermediate of the recursive bracket: an unoriented
# partial diagram (rotations, edge involution, over pairs, free loops).
_Partial = tuple


def _partial_of(d: Diagram) -> _Partial:
    return (d.rotations, d.edge_pair, d.over_pair, d.free_loops)


def _partial_smooth(p: _Partial, v: int, kind: str) -> _Partial:
    """Remove vertex v, rejoining its darts by the A/B pairing.

    Orientation is not maintained (B-smoothings break it), which is why
    this works on the reduced tuple rather than on Diagram values.
    """
    rotations, edge, over, loops = p
    sigma = {}
    for rot in rotations:
        for i, x in enumerate(rot):
            sigma[x] = rot[(i + 1) % 4]
    o1, o2 = over[v]
    if kind == "A":
        join = {sigma[sigma[sigma[o1]]]: o1, sigma[sigma[sigma[o2]]]: o2}
    else:
        join = {o1: sigma[o1], o2: sigma[o2]}
    join.update({b: a for a, b in join.items()})
    gone = set(rotations[v])

    def walk(x: int) -> int:
        # follow the strand through the smoothed vertex until it re-emerges
        while x in gone:
            x = edge[join[x]]
        return x

    new_loops = loops
    internal = set()
    for x in gone:
        if x in internal:
            continue
        # a circle wholly inside the smoothed vertex
        y = edge[join[x]]
        circle = {x}
        while y in gone and y not in circle:
            circle.add(y)
            y = edge[join[y]]
        if y in circle:
            internal |= circle
            internal |= {join[z] for z in circle}
            new_loops += 1
    kept = [w for w in range(len(rotations)) if w != v]
    dart_map = {}
    for nw, w in enumerate(kept):
        for i, x in enumerate(rotations[w]):
            dart_map[x] = 4 * nw + i
    n = 4 * len(kept)
    new_edge = [0] * n
    for w in kept:
        for x in rotations[w]:
            new_edge[dart_map[x]] = dart_map[walk(edge[x])]
    new_rot = tuple(tuple(range(4 * w, 4 * w + 4)) for w in range(len(kept)))
    new_over = tuple(tuple(sorted((dart_map[a], dart_map[b]))) for w, (a, b) in enumerate(over) if w != v)
    return (new_rot, tuple(new_edge), new_over, new_loops)


def _partial_canon(p: _Partial) -> tuple:
    """Relabelling-invariant key for memoising the bracket recursion.

    Per connected component, the key is the least signature over all
    rooted deterministic traversals (neighbour order: sigma, then edge);
    components are sorted.  Equal keys mean isomorphic partials.
    """
    rotations, edge, over, loops = p
    if not rotations:
        return ("loops", loops)
    vert: dict[int, int] = {}
    sigma: dict[int, int] = {}
    for v, rot in enumerate(rotations):
        for i, x in enumerate(rot):
            vert[x] = v
            sigma[x] = rot[(i + 1) % 4]
    over_flag = {x: x in over[vert[x]] for x in vert}

    def rooted_sig(start: int) -> tuple:
        new = {start: 0}
        order = [start]
        i = 0
        while i < len(order):
            x = order[i]
            i += 1
            for y in (sigma[x], edge[x]):
                if y not in new:
                    new[y] = len(order)
                    order.append(y)
        return tuple((new[sigma[x]], new[edge[x]], over_flag[x]) for x in order)

    comps = []
    remaining = set(vert)
    while remaining:
        stack = [min(remaining)]
        comp = set()
        while stack:
            x = stack.pop()
            if x not in comp:
                comp.add(x)
                stack.extend((sigma[x], edge[x]))
        comps.append(min(rooted_sig(s) for s in sorted(comp)))
        remaining -= comp
    return (loops, tuple(sorted(comps)))


def _bracket_enumerate(d: Diagram) -> LaurentPoly:
    """Iterative state sum: Gray-code state flips keep the smoothing
    table incremental, and states are tallied by (exponent, loop count)
    so each delta power is expanded only once."""
    v = d.n_vertices
    n = d.n_darts
    pairs = [(_smoothing_pairs(d, w, "A"), _smoothing_pairs(d, w, "B")) for w in range(v)]
    sm = [0] * n
    for w in range(v):
        for a, b in pairs[w][0]:
            sm[a] = b
            sm[b] = a
    edge = d.edge_pair
    tally: dict[tuple[int, int], int] = {}
    state = 0
    for step in range(1 << v):
        if step:
            flip = (step & -step).bit_length() - 1
            state ^= 1 << flip
            for a, b in pairs[flip][1 if (state >> flip) & 1 else 0]:
                sm[a] = b
                sm[b] = a
        seen = bytearray(n)
        orbits = 0
        for start in range(n):
            if not seen[start]:
                orbits += 1
                x = start
                while not seen[x]:
                    seen[x] = 1
                    x = sm[edge[x]]
        loops = orbits // 2 + d.free_loops
        exp = v - 2 * bin(state).count("1")
        key = (exp, loops)
        tally[key] = tally.get(key, 0) + 1
    delta_pow: dict[int, LaurentPoly] = {}
    total = LaurentPoly.zero()
    for (exp, loops), mult in sorted(tally.items()):
        if loops - 1 not in delta_pow:
            delta_pow[loops - 1] = DELTA ** (loops - 1)
        total = total + LaurentPoly.monomial(exp, mult) * delta_pow[loops - 1]
    return total


# crossing counts where the iterative enumeration beats the memoized
# recursion; above it, isomorphic intermediates start repeating
_ENUMERATE_THRESHOLD = 12
_MEMO_THRESHOLD = 8


def _bracket_recursive(p: _Partial, memo: dict) -> LaurentPoly:
    rotations, edge, over, loops = p
    if not rotations:
        return DELTA ** (loops - 1) if loops else LaurentPoly.one()
    key = None
    if len(rotations) >= _MEMO_THRESHOLD:
        key = _partial_canon(p)
        hit = memo.get(key)
        if hit is not None:
            return hit
    va = _bracket_recursive(_partial_smooth(p, 0, "A"), memo)
    vb = _bracket_recursive(_partial_smooth(p, 0, "B"), memo)
    out = A * va + A_INV * vb
    if key is not None:
        memo[key] = out
    return out


def bracket(d: Diagram, max_crossings: int = DEFAULT_STATE_SUM_CAP) -> LaurentPoly:
    """Kauffman bracket, normalized so the unknot gives 1.

    Small diagrams run the incremental state enumeration; larger ones a
    recursive smoothing with memoization on relabelling classes of the
    intermediates.  Both agree with the naive 2^V state enumeration.
    """
    require_valid(d)
    if d.n_vertices > max_crossings:
        raise StateSumLimitError(
            f"{d.n_vertices} crossings exceeds the state-sum cap {max_crossings}")
    if d.n_vertices == 0 and d.free_loops == 0:
        return LaurentPoly.one()
    if d.n_vertices <= _ENUMERATE_THRESHOLD:
        return _bracket_enumerate(d)
    return _bracket_recursive(_partial_of(d), {})


def f_poly(d: Diagram, max_crossings: int = DEFAULT_STATE_SUM_CAP) -> LaurentPoly:
    """Writhe-normalized bracket (-A^3)^(-w) <d>, invariant under all moves."""
    b = bracket(d, max_crossings)
    w = stats(d).writhe
    factor = (MINUS_A_CUBED_INV if w > 0 else MINUS_A_CUBED) ** abs(w)
    return factor * b


# ---------------------------------------------------------------------------
# Quandles and coloring counts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Quandle:
    table: tuple[tuple[int, ...], ...]  # table[x][y] = x <| y

    @property
    def size(self) -> int:
        return len(self.table)

    def op(self, x: int, y: int) -> int:
        return self.table[x][y]


@lru_cache(maxsize=64)
def _inverse_table(table: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    n = len(table)
    inv = [[0] * n for _ in range(n)]
    for y in range(n):
        for x in range(n):
            inv[table[x][y]][y] = x
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
        frozen = tuple(tuple(row) for row in table)
    except TypeError:
        return [f"malformed table: {table!r}"]
    return list(_check_quandle_cached(frozen))


@lru_cache(maxsize=512)
def _check_quandle_cached(table) -> tuple[str, ...]:
    n = len(table)
    errs = []
    for x, row in enumerate(table):
        if len(row) != n:
            return (f"row {x} has length {len(row)}, expected {n}",)
        for y, v in enumerate(row):
            if not isinstance(v, int) or not (0 <= v < n):
                return (f"entry ({x}, {y}) = {v!r} out of range",)
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
    return tuple(errs)


def load_quandle(lines) -> Quandle:
    """Read the text format: first line n, then n rows of n integers."""
    if isinstance(lines, str):
        lines = lines.splitlines()
    rows = [ln.strip() for ln in lines if ln.strip()]
    if not rows:
        raise ValueError("empty quandle text")
    n = int(rows[0])
    table = tuple(tuple(int(x) for x in row.split()) for row in rows[1:n + 1])
    errs = check_quandle(table)
    if errs:
        raise ValueError("not a quandle: " + "; ".join(errs[:3]))
    return Quandle(table)


@lru_cache(maxsize=4096)
def _arcs(d: Diagram):
    """Arc structure: arc count, per-pass arc id, and crossing constraints.

    Arcs are maximal strand runs between underpasses.  Returns
    (n_arcs, constraints) with constraints (under_in_arc, over_arc,
    under_out_arc) per vertex; free loops add unconstrained arcs.
    """
    arc_of_pass: dict[int, int] = {}
    n_arcs = 0
    for circ in d.strand_circuits:
        unders = [i for i, p in enumerate(circ) if not d.is_over(p)]
        if not unders:
            for p in circ:
                arc_of_pass[p] = n_arcs
            n_arcs += 1
            continue
        k = len(circ)
        for j, u in enumerate(unders):
            # the arc leaving underpass u, covering passes up to the next underpass
            end = unders[(j + 1) % len(unders)]
            i = (u + 1) % k
            while i != end:
                arc_of_pass[circ[i]] = n_arcs
                i = (i + 1) % k
            arc_of_pass[("out", circ[u])] = n_arcs
            arc_of_pass[("in", circ[end])] = n_arcs
            n_arcs += 1
    constraints = []
    for v in range(d.n_vertices):
        u_in = d.under_in(v)
        o_in = d.over_in(v)
        constraints.append((arc_of_pass[("in", u_in)], arc_of_pass[o_in], arc_of_pass[("out", u_in)]))
    return n_arcs + d.free_loops, tuple(constraints)


def quandle_colorings(d: Diagram, q: Quandle) -> int:
    """Number of arc colorings satisfying under_out = under_in <| over
    at every crossing.  Free loops contribute a factor of q.size each."""
    require_valid(d)
    errs = check_quandle(q.table)
    if errs:
        raise ValueError("not a quandle: " + "; ".join(errs[:3]))
    n_arcs, constraints = _arcs(d)
    n = q.size
    inv = _inverse_table(q.table)

    colors: list[int | None] = [None] * n_arcs

    def propagate(assignments: list[tuple[int, int]]) -> list[int] | None:
        """Apply forced deductions; returns newly set arcs or None on conflict."""
        new: list[int] = []
        queue = list(assignments)
        while queue:
            arc, val = queue.pop()
            if colors[arc] is not None:
                if colors[arc] != val:
                    for a in new:
                        colors[a] = None
                    return None
                continue
            colors[arc] = val
            new.append(arc)
            for (ai, ao, au) in constraints:
                ci, co, cu = colors[ai], colors[ao], colors[au]
                if ci is not None and co is not None and cu is None:
                    queue.append((au, q.table[ci][co]))
                elif cu is not None and co is not None and ci is None:
                    queue.append((ai, inv[cu][co]))
                elif ci is not None and co is not None and cu is not None:
                    if q.table[ci][co] != cu:
                        for a in new:
                            colors[a] = None
                        return None
        return new

    def count(pos: int) -> int:
        while pos < n_arcs and colors[pos] is not None:
            pos += 1
        if pos == n_arcs:
            return 1
        total = 0
        for val in range(n):
            new = propagate([(pos, val)])
            if new is not None:
                total += count(pos + 1)
                for a in new:
                    colors[a] = None
        return total

    return count(0)
