"""The supporting closed oriented surface of a diagram.

Thickening the 4-valent graph along its rotation system gives a ribbon
surface; capping every boundary circle with a disk yields the closed
oriented surface the projection lives on.  Faces are the orbits of the
permutation sigma o alpha on darts (``Diagram.faces``, traced once per
diagram object and kept on it), so every face is a disk and the surface
is the minimal one for the given diagram.  :func:`genus` counts each
graph component's faces in one pass over them and reads its genus from
Euler's relation; each free loop lives on its own sphere (two disk
faces, no darts).
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import UNKNOT, Diagram, DiagramError, _from_passes, require_valid, stats


@dataclass(frozen=True)
class GenusResult:
    per_component: tuple[int, ...]
    total: int


def trace_faces(d: Diagram) -> list[tuple[int, ...]]:
    """Boundary walks of the ribbon neighbourhood, as :attr:`Diagram.faces`
    lists them."""
    require_valid(d)
    return list(d.faces)


def genus(d: Diagram) -> GenusResult:
    """Per-component genus (graph components first, then one 0 per free loop).

    A component of V crossings has E = 2V edges and F faces, so Euler's
    relation V - E + F = 2 - 2g gives g = 1 - (F - V)/2.
    """
    require_valid(d)
    comps = d.graph_components
    comp_of = [0] * d.n_vertices
    for k, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = k
    n_faces = [0] * len(comps)
    vertex_of = d.vertex_of
    for face in d.faces:
        n_faces[comp_of[vertex_of[face[0]]]] += 1
    per = []
    for comp, f in zip(comps, n_faces):
        chi = f - len(comp)
        if chi % 2:
            raise DiagramError(f"odd Euler characteristic {chi} on component {comp}")
        per.append(1 - chi // 2)
    per += [0] * d.free_loops
    return GenusResult(per_component=tuple(per), total=sum(per))


def complexity_measure(d: Diagram) -> int:
    """g + n - c: total genus plus link components minus surface components."""
    g = genus(d).total
    n = stats(d).components
    c = len(d.graph_components) + d.free_loops
    if n < c:
        raise DiagramError(f"{n} link components on {c} surface components")
    return g + n - c


def split_components(d: Diagram) -> list[Diagram]:
    """One diagram per connected graph component plus one unknot per free
    loop; a component keeps its circuits, vertex ``comp[i]`` renamed ``i``."""
    out = []
    for comp in d.graph_components:
        name = {v: i for i, v in enumerate(comp)}
        out.append(_from_passes([[(name[v], role, sgn) for v, role, sgn in row]
                                 for row in d.passes if row[0][0] in name], 0))
    return out + [UNKNOT] * d.free_loops

