import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlink.codec import emit_gauss, from_diagram, parse_gauss, to_diagram
from vlink.diagram import (
    EMPTY,
    UNKNOT,
    Diagram,
    DiagramError,
    _check_passes,
    _from_passes,
    _label,
    _layout,
    _scan,
    canonical_string,
    disjoint_union,
    mirror,
    relabel,
    stats,
    validate,
)
from vlink.invariants import dihedral_quandle, quandle_colorings
from vlink.moves import ALL_KINDS, _apply_unchecked, _edit, enumerate_moves
from vlink.search import SearchBounds, orbit
from vlink.surface import genus

from helpers import all_connected_diagrams, random_diagram, random_diagrams
from oracles import (
    _circuits,
    _sigma,
    find_isomorphism,
    map_mirror,
    naive_canonical_string,
    naive_check_passes,
    naive_graph_components,
    naive_serialize_default,
)

TREFOIL = to_diagram(parse_gauss("O1+ U2+ O3+ U1+ O2+ U3+"))
VT = to_diagram(parse_gauss("O1+ O2+ U1+ U2+"))
KINK = to_diagram(parse_gauss("O1+ U1+"))


def test_constructed_diagrams_validate():
    rng = random.Random(5)
    for _ in range(100):
        assert validate(random_diagram(rng, max_v=5)) == []


def test_validate_reports_adjacent_over_pair():
    d = KINK
    broken = Diagram(d.rotations, d.edge_pair, ((0, 1),), d.inbound, d.free_loops)
    errs = validate(broken)
    assert any("over pair of vertex 0" in e for e in errs)


def test_validate_reports_edge_fixed_point():
    d = KINK
    broken = Diagram(d.rotations, (0, 2, 1, 3), d.over_pair, d.inbound, d.free_loops)
    errs = validate(broken)
    assert any("fixed point" in e for e in errs)


def test_validate_reports_orientation_clash():
    d = KINK
    flags = list(d.inbound)
    flags[0] = not flags[0]
    errs = validate(Diagram(d.rotations, d.edge_pair, d.over_pair, tuple(flags), 0))
    assert errs


def test_validate_rotation_partition():
    broken = Diagram(((0, 1, 2, 2),), (3, 2, 1, 0), ((0, 2),), (True, True, False, False), 0)
    assert any("appears in rotations" in e or "missing" in e for e in validate(broken))


def test_stats_examples():
    assert stats(TREFOIL).crossings == 3
    assert stats(TREFOIL).components == 1
    assert stats(TREFOIL).writhe == 3
    assert stats(VT) == type(stats(VT))(crossings=2, components=1, writhe=2)
    s = stats(UNKNOT)
    assert (s.crossings, s.components, s.writhe) == (0, 1, 0)


def test_stats_rejects_invalid():
    broken = Diagram(((0, 1, 2, 3),), (0, 1, 2, 3), ((0, 2),), (True,) * 4, 0)
    with pytest.raises(DiagramError):
        stats(broken)
    # no over pair for vertex 0: mirror and relabel validate before they read one
    broken = Diagram(((0, 1, 2, 3),), (2, 3, 0, 1), (), (True, True, False, False))
    for change in (mirror, lambda d: relabel(d, [0])):
        with pytest.raises(DiagramError):
            change(broken)
    # an order that is not a permutation of the vertices
    for order in ([0, 1], [0, 1, 5], [0, 0, 1], [-1, 0, 1], [5, 0, 1, 2], [0, 1, 2, 3]):
        with pytest.raises(ValueError, match="not a permutation"):
            relabel(TREFOIL, order)


def test_edge_count_is_twice_vertex_count():
    for d in random_diagrams(17, 40, max_v=6):
        edges = {tuple(sorted((x, d.edge_pair[x]))) for x in range(d.n_darts)}
        assert len(edges) == 2 * d.n_vertices


def test_canonical_equal_iff_isomorphic():
    rng = random.Random(23)
    diagrams = [random_diagram(rng, max_v=3, max_comps=2, max_loops=1) for _ in range(24)]
    for d1, d2 in itertools.combinations(diagrams, 2):
        iso = find_isomorphism(d1, d2)
        same = canonical_string(d1) == canonical_string(d2)
        assert same == (iso is not None)


def test_canonical_invariant_under_relabeling():
    # a rotated serialization parses back to a relabeled isomorphic diagram
    vt2 = to_diagram(parse_gauss("O2+ O1+ U2+ U1+"))
    assert canonical_string(vt2) == canonical_string(VT)
    assert canonical_string(VT) != canonical_string(TREFOIL)
    assert stats(vt2) == stats(VT)


def test_canonical_idempotent():
    for d in (TREFOIL, VT, KINK, UNKNOT, EMPTY):
        cs = canonical_string(d)
        again = canonical_string(to_diagram(parse_gauss(cs)))
        assert again == cs


def test_mirror_involution_and_writhe():
    for d in random_diagrams(31, 30, max_v=5):
        m = mirror(d)
        assert validate(m) == []
        assert mirror(m) == d
        assert stats(m).writhe == -stats(d).writhe
        # the mirror made in place on the map: over-in darts off slot 0
        m = map_mirror(d)
        assert validate(m) == []
        assert map_mirror(m) == d
        assert stats(m).writhe == -stats(d).writhe


def test_disjoint_union_identity_and_counts():
    assert disjoint_union(TREFOIL, EMPTY) == TREFOIL
    two = disjoint_union(UNKNOT, UNKNOT)
    assert two.free_loops == 2
    assert stats(two).components == 2
    s = stats(disjoint_union(TREFOIL, VT))
    assert s.crossings == 5 and s.components == 2 and s.writhe == 5


def test_disjoint_union_stats_add():
    rng = random.Random(77)
    for _ in range(20):
        d1, d2 = random_diagram(rng, max_v=4), random_diagram(rng, max_v=4)
        s1, s2, s = stats(d1), stats(d2), stats(disjoint_union(d1, d2))
        assert s.crossings == s1.crossings + s2.crossings
        assert s.components == s1.components + s2.components
        assert s.writhe == s1.writhe + s2.writhe


def _relabelled(d: Diagram, rng: random.Random) -> Diagram:
    order = list(range(d.n_vertices))
    rng.shuffle(order)
    out = relabel(d, order)
    # vertex order[i] is renamed i, and the circuits keep their passes
    assert sorted(map(sorted, out.passes)) == sorted(
        sorted((order.index(v), role, sgn) for v, role, sgn in row) for row in d.passes)
    return out


def _assert_matches_oracle(diagrams) -> int:
    for d in diagrams:
        assert canonical_string(d) == naive_canonical_string(d), naive_canonical_string(d)
        assert emit_gauss(from_diagram(d)) == naive_serialize_default(d), naive_canonical_string(d)
    return len(diagrams)


def test_canonical_matches_oracle_on_corpora():
    rng = random.Random(41)
    corpus = all_connected_diagrams(3) + random_diagrams(43, 400, max_v=6)
    corpus += [_relabelled(d, rng) for d in corpus]
    assert _assert_matches_oracle(corpus) == 2 * (851 + 400)
    # mirror rebuilds the map from the mirrored code: isomorphic to the
    # mirror made in place, and involutive field for field
    for d in corpus:
        assert canonical_string(mirror(d)) == canonical_string(map_mirror(d))
        assert mirror(mirror(d)) == d


def test_canonical_matches_oracle_on_multicomponent_links():
    rng = random.Random(47)
    links = [d for d in random_diagrams(53, 600, max_v=6, max_comps=3, max_loops=2)
             if len(d.passes) >= 2]
    chain = to_diagram(parse_gauss(
        "O1+ U2+ / U1+ O2+ O3- U4- / U3- O4- O5+ U6+ / U5+ O6+ / * / *"))
    links += [chain, disjoint_union(TREFOIL, VT), disjoint_union(VT, disjoint_union(KINK, UNKNOT))]
    links += [_relabelled(d, rng) for d in links]
    assert any(len(d.passes) == 3 and d.free_loops for d in links)
    assert _assert_matches_oracle(links) > 200


def test_canonical_matches_oracle_on_orbit_states():
    """States of capped cap-5 orbits, and the move results they are
    labelled from, as the search produces them."""
    rng = random.Random(59)
    hopf = to_diagram(parse_gauss("O1+ U2+ / U1+ O2+"))
    checked = 0
    for start in (UNKNOT, VT, TREFOIL, hopf):
        res = orbit(start, SearchBounds(5, max_states=30))
        states = [to_diagram(parse_gauss(cs)) for cs in sorted(res.states)]
        results = [_apply_unchecked(d, site) for d in states
                   for site in enumerate_moves(d, ALL_KINDS)[::40]]
        for d in states:
            assert naive_canonical_string(d) in res.states
        checked += _assert_matches_oracle(
            states + [_relabelled(d, rng) for d in states] + results)
    assert checked > 500


@pytest.mark.parametrize("rows", [
    [[(0, "O", "+"), (0, "O", "+")]],                  # vertex 0 twice as O
    [[(0, "O", "+"), (0, "U", "-")]],                  # one sign at O, the other at U
    [[(0, "O", "+"), (0, "U", "+"), (1, "O", "-")]],   # vertex 1 occurs once
    [[(0, "O", "+"), (0, "U", "+"), (2, "O", "-"), (2, "U", "-")]],  # no vertex 1
    [[(0, "O", "+"), (0, "U", "+")], []],              # an empty circuit
    [[(0, "O", "?"), (0, "U", "?")]],                  # not a sign
    [[(0, "X", "+"), (0, "U", "+")]],                  # not a role
    [[(-1, "O", "+"), (-1, "U", "+")]],                # a vertex below 0
])
def test_check_passes_rejects_broken_codes(rows):
    with pytest.raises(DiagramError, match="invalid signed Gauss code"):
        _check_passes(rows)


def test_check_passes_counts_the_crossings_of_every_valid_code():
    for d in [EMPTY, UNKNOT, KINK, VT] + random_diagrams(17, 40, max_v=5, max_loops=2):
        assert _check_passes(d.passes) == d.n_vertices
        assert _from_passes(d.passes, d.free_loops) == d  # to_diagram's layout


def _outcome(check, rows):
    """What ``check`` returns on ``rows``, or the message it raises."""
    try:
        return check(rows)
    except DiagramError as err:
        return str(err)


def _broken(rows, rng: random.Random) -> list:
    """Copies of non-empty valid ``rows``, each with one change: a sign
    flipped, a role swapped, the roles of one crossing swapped (still
    valid), a pass repeated or dropped, a vertex set to -1 or n, an empty
    circuit added, or a pass given role "X" or sign "?"."""
    n = sum(map(len, rows)) // 2
    ci = rng.randrange(len(rows))
    i = rng.randrange(len(rows[ci]))
    v, role, sgn = rows[ci][i]
    other = {"O": "U", "U": "O"}

    def put(*passes):
        return [row if k != ci else row[:i] + list(passes) + row[i + 1:]
                for k, row in enumerate(rows)]

    return [
        put((v, role, {"+": "-", "-": "+"}[sgn])),
        put((v, other[role], sgn)),
        [[(w, other[r] if w == v else r, t) for w, r, t in row] for row in rows],
        put((v, role, sgn), (v, role, sgn)),
        put(),
        put((-1, role, sgn)),
        put((n, role, sgn)),
        rows[:ci] + [[]] + rows[ci:],
        put((v, "X", sgn)),
        put((v, role, "?")),
    ]


def test_check_passes_agrees_with_the_sorting_check():
    rng = random.Random(67)
    tables = [list(map(list, d.passes)) for d in
              [EMPTY, UNKNOT, KINK, VT] + random_diagrams(71, 300, max_v=6, max_comps=3)]
    cases = tables + [bad for rows in tables if rows for bad in _broken(rows, rng)]
    outcomes = [_outcome(_check_passes, rows) for rows in cases]
    assert outcomes == [_outcome(naive_check_passes, rows) for rows in cases]
    assert sum(isinstance(out, int) for out in outcomes) > len(tables)


def test_graph_components_match_union_find():
    corpus = (all_connected_diagrams(3)
              + random_diagrams(53, 600, max_v=6, max_comps=3, max_loops=2))
    for d in corpus:
        assert d.graph_components == naive_graph_components(d)
    assert any(len(d.graph_components) > 1 for d in corpus)


def _numbered_rows(text: str):
    """The rows of a code whose crossing ``k`` is vertex ``k - 1``, in the
    text's circuit order, and its free-loop count."""
    parts = text.split(" / ") if text else []
    rows = [[(int(t[1:-1]) - 1, t[0], t[-1]) for t in part.split()]
            for part in parts if part != "*"]
    return rows, parts.count("*")


def _least_turn(row) -> tuple:
    """The least rotation of a circuit's passes."""
    return min(tuple(row[i:] + row[:i]) for i in range(len(row)))


def _assert_label_matches_oracle(rows, loops) -> None:
    # the string is the oracle's, and vertex v is crossing named[v] of it:
    # the rows renamed by named are the string's circuits, each turned
    expected = naive_canonical_string(_from_passes(rows, loops))
    text, named = _label(rows, _check_passes(rows), loops)
    assert text == expected, (rows, loops)
    renamed = [[(int(named[v]) - 1, role, sgn) for v, role, sgn in row] for row in rows]
    assert sorted(map(_least_turn, renamed)) == sorted(
        map(_least_turn, _numbered_rows(text)[0])), (rows, loops)


@pytest.mark.parametrize("text", [
    # no positive crossing: the least string opens with O1-
    "O1- U1-", "U1- O1-", "O1- U2- O3- U1- O2- U3-", "U2- O1- U1- O2-",
    "O1- U2- / U1- O2-", "U2- O1- / U1- O2- / *",
    # positive crossings only in a later circuit
    "O1- U1- / O2+ U2+", "U1- O2- / O1- U2- O3+ U3+",
    "O1- U1- / O2+ U3+ / U2+ O3+", "O1- U2- / U1- O3+ U4+ / O2- U3+ O4+",
    "U3- O3- / U1+ O2- / O1+ U2-",
    # one circuit with free loops
    "O1+ U2+ O3+ U1+ O2+ U3+ / * / *", "O2- O1+ U2- U1+ / *", "U1+ O1+ / *",
    # a kink of each sign, free loops only, and the empty code
    "O1+ U1+", "U1+ O1+", "O1- U1-", "*", "* / * / *", "",
])
def test_label_matches_oracle_on_chosen_codes(text):
    _assert_label_matches_oracle(*_numbered_rows(text))


def test_label_matches_oracle_on_raw_move_edits():
    # the codes the search labels: each move's rows as _edit leaves them,
    # before any renumbering
    sites = [(d, site) for d in all_connected_diagrams(3)
             for site in enumerate_moves(d, ALL_KINDS)]
    for d, site in sites[::7]:
        _assert_label_matches_oracle(*_edit(d, site))
    assert len(sites[::7]) > 20000


@st.composite
def pass_tables(draw):
    """Valid rows of up to 3 circuits and 6 crossings, vertices renamed
    by a permutation and each circuit rotated, and 0 to 2 free loops."""
    n = draw(st.integers(0, 6))
    signs = draw(st.lists(st.sampled_from("+-"), min_size=n, max_size=n))
    passes = draw(st.permutations([(v, role, signs[v]) for v in range(n) for role in "OU"]))
    cuts = sorted(draw(st.sets(st.integers(1, 2 * n - 1), max_size=2))) if n else []
    rows = [passes[a:b] for a, b in zip([0, *cuts], [*cuts, 2 * n])] if n else []
    name = draw(st.permutations(range(n)))
    turned = []
    for row in rows:
        t = draw(st.integers(0, len(row) - 1))
        turned.append([(name[v], role, sgn) for v, role, sgn in row[t:] + row[:t]])
    return turned, draw(st.integers(0, 2))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(pass_tables())
def test_label_matches_oracle_on_drawn_tables(table):
    _assert_label_matches_oracle(*table)


def _darts_renamed(d: Diagram, rng: random.Random) -> Diagram:
    """``d`` with its darts renamed by a random permutation, so that a
    vertex no longer owns four consecutive darts."""
    n = d.n_darts
    new = list(range(n))
    rng.shuffle(new)
    edge, inbound = [0] * n, [False] * n
    for x in range(n):
        edge[new[x]] = new[d.edge_pair[x]]
        inbound[new[x]] = d.inbound[x]
    return Diagram(tuple(tuple(new[x] for x in rot) for rot in d.rotations), tuple(edge),
                   tuple(tuple(new[x] for x in pair) for pair in d.over_pair),
                   tuple(inbound), d.free_loops)


def test_dart_tables_match_raw_fields():
    rng = random.Random(61)
    corpus = (all_connected_diagrams(3)
              + random_diagrams(43, 900, max_v=4, max_comps=3, max_loops=3)
              + random_diagrams(7, 150, max_v=9, max_comps=3, max_loops=2))
    corpus += [_darts_renamed(d, rng) for d in corpus]
    for d in corpus:
        darts = range(d.n_darts)
        owner = {x: v for v, rot in enumerate(d.rotations) for x in rot}
        sigma = _sigma(d)
        slots = {}
        for ci, circuit in enumerate(_circuits(d)):
            for i, x in enumerate(circuit):
                slots[x] = slots[d.edge_pair[x]] = (ci, i)
        assert d.vertex_of == tuple(owner[x] for x in darts)
        assert d.sigma == tuple(sigma[x] for x in darts)
        assert d.opposite == tuple(sigma[sigma[x]] for x in darts)
        assert d._slots == slots
    assert len(corpus) == 2 * (851 + 900 + 150)


def test_tables_of_an_invalid_diagram_raise():
    # pass (0, 2) has two inbound darts; the rotation partition is sound
    broken = Diagram(((0, 1, 2, 3),), (1, 0, 3, 2), ((0, 2),), (True, False, True, False))
    message = "invalid diagram: " + "; ".join(validate(broken))
    for name in ("passes", "vertex_of", "sigma", "opposite", "_slots", "faces"):
        with pytest.raises(DiagramError) as info:
            getattr(broken, name)
        assert str(info.value) == message, name
    with pytest.raises(DiagramError, match="free loop count is negative"):
        genus(Diagram((), (), (), (), free_loops=-1))


def test_scan_reads_the_shared_layout_as_its_loop_does():
    # a map on _from_passes's layout takes its rotation tables from the
    # shared layout; the same rotations as a list take the per-rotation
    # loop, and both paths give the same violations and tables, also with
    # one entry of another field broken
    rng = random.Random(67)
    corpus = random_diagrams(47, 300, max_v=5, max_comps=3, max_loops=2)
    broken = []
    for d in corpus[::3]:
        if not d.n_vertices:
            continue
        x, v = rng.randrange(d.n_darts), rng.randrange(d.n_vertices)
        edge, inbound, over = list(d.edge_pair), list(d.inbound), list(d.over_pair)
        edge[x] = rng.randrange(-1, d.n_darts + 1)
        inbound[x] = not inbound[x]
        over[v] = (4 * v, 4 * v + 1)
        broken += [dataclasses.replace(d, edge_pair=tuple(edge)),
                   dataclasses.replace(d, inbound=tuple(inbound)),
                   dataclasses.replace(d, over_pair=tuple(over))]
    assert sum(bool(validate(d)) for d in broken) > len(broken) // 2
    for d in corpus + broken:
        assert d.rotations == _layout(d.n_vertices)[0]
        assert _scan(d) == _scan(dataclasses.replace(d, rotations=list(d.rotations)))
    assert all(d.rotations is _layout(d.n_vertices)[0] for d in corpus)


def test_canonical_cache_is_bounded():
    assert canonical_string.cache_info().maxsize == 2**17


@st.composite
def one_entry_changed(draw) -> Diagram:
    """A valid diagram of up to 4 crossings with one entry of one field
    replaced: a dart or two edges' ends, a rotation by a reordering of
    itself, an over pair, an orientation flag or an edge's orientation, or
    the free loop count."""
    d = random_diagram(random.Random(draw(st.integers(0, 2**32))), max_v=4, max_loops=2)
    n = d.n_darts
    field = draw(st.sampled_from(["rotations", "edge_pair", "over_pair", "inbound", "free_loops"]))
    if field == "free_loops" or n == 0:
        return dataclasses.replace(d, free_loops=draw(st.integers(-2, 3)))
    dart = st.integers(-1, n)
    entries = list(getattr(d, field))
    i = draw(st.integers(0, len(entries) - 1))
    if field == "rotations":
        rot = list(entries[i])
        if draw(st.booleans()):
            rot[draw(st.integers(0, 3))] = draw(dart)
        else:
            rot = draw(st.permutations(rot))
        entries[i] = tuple(rot)
    elif field == "edge_pair":
        j = draw(st.integers(0, n - 1))
        ends = (i, entries[i], j, entries[j])
        if draw(st.booleans()) or len(set(ends)) < 4:
            entries[i] = draw(dart)
        else:  # two edges trade ends: still an involution
            for x, y in ((ends[0], ends[2]), (ends[1], ends[3])):
                entries[x], entries[y] = y, x
    elif field == "over_pair":
        entries[i] = draw(st.tuples(dart, dart))
    else:  # one flag, or both ends of an edge: each edge stays in -> out
        for x in {i, d.edge_pair[i]} if draw(st.booleans()) else {i}:
            entries[x] = not entries[x]
    return dataclasses.replace(d, **{field: tuple(entries)})


@st.composite
def diagram_shaped(draw) -> Diagram:
    """Fields of the shapes a diagram has, each length mostly right and
    sometimes one off, filled with small darts; the rotations partition
    the darts, except that one dart may move to another rotation."""
    nv = draw(st.integers(0, 3))
    n = 4 * nv
    dart = st.integers(-1, n)

    def sized(elements, size):
        size = max(size + draw(st.sampled_from([0, 0, 0, -1, 1])), 0)
        return st.lists(elements, min_size=size, max_size=size).map(tuple)

    perm = draw(st.permutations(range(n)))
    rotations = [perm[x:x + 4] for x in range(0, n, 4)]
    if nv >= 2 and draw(st.booleans()):
        rotations[1].append(rotations[0].pop())
    return Diagram(rotations=tuple(map(tuple, rotations)),
                   edge_pair=draw(sized(dart, n)),
                   over_pair=draw(sized(st.tuples(dart, dart), nv)),
                   inbound=draw(sized(st.booleans(), n)),
                   free_loops=draw(st.integers(-1, 2)))


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(one_entry_changed() | diagram_shaped())
def test_serializations_reject_exactly_what_validate_reports(d):
    errs = validate(d)
    if errs:
        for read in (canonical_string, from_diagram, stats, mirror,
                     lambda d: quandle_colorings(d, dihedral_quandle(3))):
            with pytest.raises(DiagramError) as info:
                read(d)
            assert str(info.value) == "invalid diagram: " + "; ".join(errs)
    else:
        # an accepted diagram is isomorphic to the valid one its string builds
        cs = canonical_string(d)
        assert cs == naive_canonical_string(d)
        assert emit_gauss(from_diagram(d)) == naive_serialize_default(d)
        assert find_isomorphism(d, to_diagram(parse_gauss(cs))) is not None


def test_validate_reports_short_rotation():
    # the rotations partition the darts, but one vertex has three of them
    d = Diagram(((0, 1, 2), (3, 4, 5, 6, 7)), (1, 0, 3, 2, 5, 4, 7, 6),
                ((0, 2), (3, 5)), (True, False) * 4, 0)
    assert validate(d) == ["rotation of vertex 0 has 3 darts, expected 4",
                           "rotation of vertex 1 has 5 darts, expected 4"]
