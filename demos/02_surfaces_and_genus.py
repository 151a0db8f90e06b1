"""The supporting surface of a diagram.

Thickening the 4-valent graph along its rotation system and capping the
boundary circles produces the closed oriented surface the projection
lives on.  A diagram is drawable in the plane exactly when the total
genus is zero; the virtual trefoil is the classic example that is not.
"""

from vlink import (
    UNKNOT,
    complexity_measure,
    disjoint_union,
    genus,
    parse_gauss,
    split_components,
    to_diagram,
    trace_faces,
)
from vlink.diagram import canonical_string

trefoil = to_diagram(parse_gauss("O1+ U2+ O3+ U1+ O2+ U3+"))
vtrefoil = to_diagram(parse_gauss("O1+ O2+ U1+ U2+"))

for name, d in [("classical trefoil", trefoil), ("virtual trefoil", vtrefoil),
                ("unknot", UNKNOT)]:
    faces = trace_faces(d)
    g = genus(d)
    print(f"{name}: V={d.n_vertices} F={len(faces)} genus={g.total}")

print("\nface walks of the virtual trefoil:")
for face in trace_faces(vtrefoil):
    print("  ", face)

print("\ncomplexity measure g + n - c:")
for name, d in [("unknot", UNKNOT), ("virtual trefoil", vtrefoil),
                ("trefoil", trefoil)]:
    print(f"  {name}: {complexity_measure(d)}")

print("\ncomponent splitting:")
both = disjoint_union(vtrefoil, trefoil)
print("  union genus per component:", genus(both).per_component)
for part in split_components(both):
    print("  part:", canonical_string(part), "genus", genus(part).total)
