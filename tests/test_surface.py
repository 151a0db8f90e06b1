import random

import pytest

from vlink.codec import parse_gauss, to_diagram
from vlink.diagram import UNKNOT, Diagram, DiagramError, canonical_string, disjoint_union, mirror
from vlink.surface import (
    complexity_measure,
    genus,
    split_components,
    trace_faces,
)

from helpers import random_diagram, random_diagrams
from oracles import map_mirror, naive_faces

TREFOIL = to_diagram(parse_gauss("O1+ U2+ O3+ U1+ O2+ U3+"))
VT = to_diagram(parse_gauss("O1+ O2+ U1+ U2+"))


def test_face_counts():
    assert len(trace_faces(TREFOIL)) == 5
    assert len(trace_faces(VT)) == 2
    assert trace_faces(UNKNOT) == []
    assert genus(UNKNOT).per_component == (0,)
    assert UNKNOT.graph_components == ()


def test_each_dart_on_exactly_one_face():
    for d in random_diagrams(3, 40, max_v=6):
        faces = trace_faces(d)
        darts = [x for f in faces for x in f]
        assert sorted(darts) == list(range(d.n_darts))


def test_faces_match_naive_tracer():
    for d in random_diagrams(50, 60, max_v=7):
        assert trace_faces(d) == naive_faces(d)


def test_genus_facts():
    assert genus(TREFOIL).total == 0
    assert genus(VT).total == 1
    assert genus(UNKNOT).total == 0
    du = disjoint_union(VT, TREFOIL)
    assert genus(du).per_component == (1, 0)
    assert genus(du).total == 1


def test_euler_identity_per_component():
    for d in random_diagrams(8, 120, max_v=7):
        faces = naive_faces(d)
        vertex = {x: v for v, rot in enumerate(d.rotations) for x in rot}
        per = genus(d).per_component
        assert per[len(d.graph_components):] == (0,) * d.free_loops
        for comp, g in zip(d.graph_components, per):
            vset = set(comp)
            v = len(comp)
            f = sum(1 for face in faces if vertex[face[0]] in vset)
            assert v - 2 * v + f == 2 - 2 * g
            assert g >= 0


def test_genus_invariant_under_relabeling_and_mirror():
    rng = random.Random(13)
    for _ in range(25):
        d = random_diagram(rng, max_v=5)
        relabeled = to_diagram(parse_gauss(canonical_string(d)))
        assert genus(relabeled).total == genus(d).total
        assert genus(mirror(d)).per_component == genus(d).per_component
        assert genus(map_mirror(d)).per_component == genus(d).per_component


def test_complexity_measure():
    assert complexity_measure(UNKNOT) == 0
    assert complexity_measure(VT) == 1
    assert complexity_measure(TREFOIL) == 0
    # a split classical two-component link sits at measure 0
    assert complexity_measure(disjoint_union(TREFOIL, TREFOIL)) == 0
    split = to_diagram(parse_gauss("O1+ U2+ U1+ O2+ / *"))
    # g + n - c with the free loop on its own sphere
    assert complexity_measure(split) == genus(split).total + 2 - 2


def test_complexity_measure_rejects_fewer_links_than_surfaces():
    class NoCircuits(Diagram):
        passes = ()

    d = NoCircuits(TREFOIL.rotations, TREFOIL.edge_pair, TREFOIL.over_pair, TREFOIL.inbound)
    with pytest.raises(DiagramError, match="0 link components on 1 surface"):
        complexity_measure(d)


def test_genus_rejects_odd_euler_characteristic():
    class LostFace(Diagram):
        faces = tuple(trace_faces(TREFOIL)[:-1])

    d = LostFace(TREFOIL.rotations, TREFOIL.edge_pair, TREFOIL.over_pair, TREFOIL.inbound)
    with pytest.raises(DiagramError, match="odd Euler characteristic 1"):
        genus(d)


def test_split_components():
    assert [canonical_string(x) for x in split_components(TREFOIL)] == [canonical_string(TREFOIL)]
    du = disjoint_union(VT, TREFOIL)
    parts = split_components(du)
    assert [canonical_string(x) for x in parts] == [canonical_string(VT), canonical_string(TREFOIL)]
    from vlink.diagram import Diagram
    three = Diagram((), (), (), (), free_loops=3)
    assert [p.free_loops for p in split_components(three)] == [1, 1, 1]
    assert all(p == UNKNOT for p in split_components(three))


def test_split_inverts_union():
    rng = random.Random(4)
    for _ in range(20):
        d1 = random_diagram(rng, max_v=3, max_comps=1, max_loops=0)
        d2 = random_diagram(rng, max_v=3, max_comps=1, max_loops=0)
        parts = split_components(disjoint_union(d1, d2))
        got = sorted(canonical_string(p) for p in parts)
        want = sorted(canonical_string(p) for p in split_components(d1) + split_components(d2))
        assert got == want
