"""References that share no code with ``vlink``, used to check its answers.

Everything here works on signed Gauss code text directly, so a defect in
the library's parser, diagram construction or invariants cannot cancel
out in a comparison.
"""

from __future__ import annotations

import random


def components(text: str) -> list[list[tuple[str, int, str]]]:
    """Split Gauss text into components of (role, index, sign) tokens;
    a crossing-free loop ``*`` is an empty component."""
    out = []
    for part in text.split("/"):
        toks = part.split()
        if toks == ["*"]:
            out.append([])
        else:
            out.append([(t[0], int(t[1:-1]), t[-1]) for t in toks])
    return out


def fox_colorings(text: str, p: int) -> int:
    """Number of colorings by the dihedral quandle R_p (p prime).

    Arcs run from one undercrossing to the next.  At each crossing the
    outgoing under-arc is 2*over - incoming under-arc, so the colorings
    are the solutions of a linear system over GF(p) and number
    p ** (arcs - rank).
    """
    n_arcs = 0
    over_arc: dict[int, int] = {}
    under_arcs: dict[int, tuple[int, int]] = {}
    for comp in components(text):
        unders = [i for i, (role, _, _) in enumerate(comp) if role == "U"]
        if not unders:
            for _, idx, _ in comp:
                over_arc[idx] = n_arcs
            n_arcs += 1
            continue
        first = n_arcs
        n_arcs += len(unders)
        # position i lies on the arc that left the last undercrossing before i
        arc_at = {}
        k = len(comp)
        for j, u in enumerate(unders):
            i = (u + 1) % k
            while True:
                arc_at[i] = first + j
                if i == unders[(j + 1) % len(unders)]:
                    break
                i = (i + 1) % k
        for j, u in enumerate(unders):
            _, idx, _ = comp[u]
            under_arcs[idx] = (arc_at[u], first + j)
        for i, (role, idx, _) in enumerate(comp):
            if role == "O":
                over_arc[idx] = arc_at[i]
    rows = []
    for idx, (a_in, a_out) in under_arcs.items():
        row = [0] * n_arcs
        row[over_arc[idx]] += 2
        row[a_in] -= 1
        row[a_out] -= 1
        rows.append([x % p for x in row])
    return p ** (n_arcs - _rank_mod_p(rows, n_arcs, p))


def _rank_mod_p(rows: list[list[int]], width: int, p: int) -> int:
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def writhe(text: str) -> int:
    """Sum of crossing signs, read from the over tokens."""
    return sum(1 if s == "+" else -1
               for comp in components(text) for role, _, s in comp if role == "O")


def link_shapes(max_v: int, max_comps: int, max_loops: int) -> list[tuple[int, int, int]]:
    """Every nonempty (crossings, crossing components, ``*`` loops) combination."""
    return [(v, c, loops)
            for v in range(max_v + 1)
            for c in (range(1, min(max_comps, 2 * v) + 1) if v else (0,))
            for loops in range(max_loops + 1)
            if v or loops]


def random_link(rng: random.Random, shape: tuple[int, int, int]) -> str:
    """A signed Gauss code of the given shape: v crossings with random
    signs and token order, cut into c components, plus ``*`` loops."""
    v, c, loops = shape
    toks = []
    for i in range(1, v + 1):
        s = rng.choice("+-")
        toks += [f"O{i}{s}", f"U{i}{s}"]
    rng.shuffle(toks)
    cuts = sorted(rng.sample(range(1, 2 * v), c - 1)) if v else []
    parts = [" ".join(toks[a:b]) for a, b in zip([0] + cuts, cuts + [2 * v])] if v else []
    return " / ".join(parts + ["*"] * loops)


def torus_2(n: int) -> str:
    """The (2, n) torus knot (n odd) as an alternating positive Gauss code."""
    return " ".join(f"{'OU'[k % 2]}{k % n + 1}+" for k in range(2 * n))


def relabel(rng: random.Random, text: str) -> str:
    """The same diagram written differently: crossings renumbered, each
    component started at a random token, components in random order."""
    comps = components(text)
    indices = sorted({idx for comp in comps for _, idx, _ in comp})
    new = dict(zip(indices, rng.sample(range(1, len(indices) + 1), len(indices))))
    parts = []
    for comp in comps:
        if not comp:
            parts.append("*")
            continue
        k = rng.randrange(len(comp))
        comp = comp[k:] + comp[:k]
        parts.append(" ".join(f"{role}{new[idx]}{s}" for role, idx, s in comp))
    rng.shuffle(parts)
    return " / ".join(parts)
