"""Enumerating and applying Reidemeister moves.

Moves are found by pattern (monogon faces, coherent bigon faces,
acyclic triangle faces, and insertion sites) and applied as local
surgeries that always return a valid diagram.
"""

from vlink import (
    SearchBounds,
    UNKNOT,
    apply_move,
    canonical_string,
    enumerate_moves,
    f_poly,
    genus,
    minimize,
    parse_gauss,
    to_diagram,
)
from collections import Counter

kink = to_diagram(parse_gauss("O1+ U1+"))
trefoil = to_diagram(parse_gauss("O1+ U2+ O3+ U1+ O2+ U3+"))

print("== reduction sites ==")
print("kink:", [(s.kind, s.where) for s in enumerate_moves(kink, {"R1-", "R2-"})])
print("trefoil:", enumerate_moves(trefoil, {"R1-", "R2-"}), "(already reduced)")

print("\n== applying R1- to the kink ==")
site = enumerate_moves(kink, {"R1-"})[0]
print("result:", repr(canonical_string(apply_move(kink, site))))

print("\n== what R2+ can do ==")
sites = enumerate_moves(trefoil, {"R2+"})
print("co-facial R2+ sites on the trefoil:", len(sites))
d2 = apply_move(trefoil, sites[0])
print("after one R2+: V =", d2.n_vertices, " genus =", genus(d2).total,
      " f unchanged:", f_poly(d2) == f_poly(trefoil))

stabs = enumerate_moves(trefoil, {"R2+stab"})
d3 = apply_move(trefoil, stabs[0])
print("after one R2+stab: V =", d3.n_vertices, " genus =", genus(d3).total,
      " f unchanged:", f_poly(d3) == f_poly(trefoil))

print("\n== minimal witness ==")
messy = to_diagram(parse_gauss("O1+ U1+ O2- U2- O3+ U3+"))
res = minimize(messy, SearchBounds(max_crossings=4))
print("three stacked kinks ->", repr(canonical_string(res.witness)), " certified:", res.certified)

print("\n== site census on a 2-crossing diagram ==")
vt = to_diagram(parse_gauss("O1+ O2+ U1+ U2+"))
kinds = Counter(s.kind for s in enumerate_moves(vt, {"R1+", "R1-", "R2+", "R2-", "R3", "R2+stab"}))
for kind, n in sorted(kinds.items()):
    print(f"  {kind}: {n}")
