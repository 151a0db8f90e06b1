"""The supporting closed oriented surface of a diagram.

Thickening the 4-valent graph along its rotation system gives a ribbon
surface; capping every boundary circle with a disk yields the closed
oriented surface the projection lives on.  Faces are the orbits of the
permutation sigma o alpha on darts, so every face is a disk and the
surface is the minimal one for the given diagram.  Each free loop lives
on its own sphere (two disk faces, no darts).  The faces are traced once
per diagram object and kept on it (``Diagram.faces``), beside its graph
components.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Diagram, DiagramError, relabel, require_valid


@dataclass(frozen=True)
class RibbonSurface:
    faces: tuple[tuple[int, ...], ...]
    component_genus: tuple[int, ...]
    component_vertices: tuple[tuple[int, ...], ...]
    sphere_components: int

    @property
    def total_genus(self) -> int:
        return sum(self.component_genus)


@dataclass(frozen=True)
class GenusResult:
    per_component: tuple[int, ...]
    total: int


def trace_faces(d: Diagram) -> list[tuple[int, ...]]:
    """Boundary walks of the ribbon neighbourhood, as :attr:`Diagram.faces`
    lists them."""
    require_valid(d)
    return list(d.faces)


def build_surface(d: Diagram) -> RibbonSurface:
    require_valid(d)
    faces = d.faces
    comps = d.graph_components
    genus = []
    for comp in comps:
        vset = set(comp)
        v = len(comp)
        e = 2 * v
        f = sum(1 for face in faces if d.vertex_of[face[0]] in vset)
        chi = v - e + f
        if chi % 2:
            raise DiagramError(f"odd Euler characteristic {chi} on component {comp}")
        genus.append((2 - chi) // 2)
    return RibbonSurface(
        faces=faces,
        component_genus=tuple(genus),
        component_vertices=comps,
        sphere_components=d.free_loops,
    )


def genus(d: Diagram) -> GenusResult:
    """Per-component genus (graph components first, then one 0 per free loop)."""
    s = build_surface(d)
    per = s.component_genus + (0,) * s.sphere_components
    return GenusResult(per_component=per, total=sum(per))


def complexity_measure(d: Diagram) -> int:
    """g + n - c: total genus plus link components minus surface components."""
    require_valid(d)
    g = genus(d).total
    n = len(d.passes) + d.free_loops
    c = len(d.graph_components) + d.free_loops
    if n < c:
        raise DiagramError(f"{n} link components on {c} surface components")
    return g + n - c


def split_components(d: Diagram) -> list[Diagram]:
    """One diagram per connected graph component plus one unknot per free loop."""
    require_valid(d)
    out = [relabel(d, list(comp)) for comp in d.graph_components]
    out = [Diagram(p.rotations, p.edge_pair, p.over_pair, p.inbound, 0) for p in out]
    out.extend(Diagram((), (), (), (), free_loops=1) for _ in range(d.free_loops))
    return out


def is_classical(d: Diagram) -> bool:
    """True iff this diagram embeds at genus 0.

    False only says this particular diagram needs genus; the underlying
    virtual link may still be classical via some equivalent diagram.
    """
    return genus(d).total == 0
