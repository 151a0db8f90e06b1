import dataclasses
import hashlib
import random
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlink.codec import parse_gauss, to_diagram
import vlink.moves
from vlink.diagram import UNKNOT, Diagram, DiagramError, canonical_string, stats, validate
from vlink.moves import (
    ALL_KINDS,
    PLAIN_KINDS,
    MoveError,
    MoveSite,
    _apply_unchecked,
    apply_move,
    enumerate_moves,
)

from helpers import all_connected_diagrams, random_diagram, random_diagrams
from oracles import every_site

TREFOIL = to_diagram(parse_gauss("O1+ U2+ O3+ U1+ O2+ U3+"))
VT = to_diagram(parse_gauss("O1+ O2+ U1+ U2+"))
KINK = to_diagram(parse_gauss("O1+ U1+"))


def test_kink_has_exactly_one_r1_minus():
    sites = enumerate_moves(KINK, {"R1-"})
    assert len(sites) == 1
    out = apply_move(KINK, sites[0])
    assert out == UNKNOT


def test_virtual_trefoil_is_reduced():
    assert enumerate_moves(VT, {"R1-"}) == []
    assert enumerate_moves(VT, {"R2-"}) == []
    assert enumerate_moves(TREFOIL, {"R1-", "R2-"}) == []


def test_empty_diagram_r1_plus_counts_loops():
    # the free loops are interchangeable: loop 0 carries both curls
    for loops in (1, 2, 3):
        d = Diagram((), (), (), (), free_loops=loops)
        sites = enumerate_moves(d, {"R1+"})
        assert [(s.where, s.variant) for s in sites] == [(("loop", 0), "lo"), (("loop", 0), "ro")]


def test_loop_joins_are_listed_with_loop_0():
    # joining any two free loops gives one diagram, so only loops 0 and 1 are joined
    d = Diagram((), (), (), (), free_loops=4)
    joins = [s for s in enumerate_moves(d, {"R2+stab"}) if s.where[0] == "loops"]
    assert {s.where for s in joins} == {("loops", 0, 1)}
    assert len(joins) == 4
    for where in (("loops", 1, 2), ("loops", 0, 2)):
        with pytest.raises(MoveError):
            apply_move(d, MoveSite("R2+stab", where, "a_over"))


def test_listing_does_not_grow_with_free_loops():
    few, many = (dataclasses.replace(KINK, free_loops=k) for k in (2, 1023))
    assert enumerate_moves(many, ALL_KINDS) == enumerate_moves(few, ALL_KINDS)
    src = KINK.inbound.index(False)
    apply_move(many, MoveSite("R2+stab", ("loop", 0, src), "a_over"))
    for site in (MoveSite("R1+", ("loop", 1), "lo"), MoveSite("R2+stab", ("loopself", 1), "over"),
                 MoveSite("R2+stab", ("loop", 1, src), "a_over")):
        with pytest.raises(MoveError):
            apply_move(many, site)


def test_r1_plus_on_loop_gives_positive_kink():
    site = enumerate_moves(UNKNOT, {"R1+"})[0]
    out = apply_move(UNKNOT, site)
    assert canonical_string(out) == "O1+ U1+"


def test_move_changes_vertex_count_correctly():
    deltas = {"R1+": 1, "R1-": -1, "R2+": 2, "R2-": -2, "R3": 0, "R2+stab": 2}
    rng = random.Random(6)
    for _ in range(25):
        d = random_diagram(rng, max_v=4)
        for site in enumerate_moves(d, ALL_KINDS)[:60]:
            out = _apply_unchecked(d, site)
            assert out.n_vertices - d.n_vertices == deltas[site.kind]


def test_validity_preserved_on_random_diagrams():
    rng = random.Random(61)
    for _ in range(30):
        d = random_diagram(rng, max_v=6)
        for site in enumerate_moves(d, ALL_KINDS):
            assert validate(_apply_unchecked(d, site)) == []


def test_component_count_preserved():
    rng = random.Random(62)
    for _ in range(15):
        d = random_diagram(rng, max_v=5)
        n = stats(d).components
        for site in enumerate_moves(d, ALL_KINDS)[:80]:
            assert stats(_apply_unchecked(d, site)).components == n


def test_r1_r2_cancellation():
    rng = random.Random(63)
    for _ in range(12):
        d = random_diagram(rng, max_v=4)
        cs = canonical_string(d)
        for site in enumerate_moves(d, {"R1+"})[:10]:
            d2 = _apply_unchecked(d, site)
            undone = {canonical_string(_apply_unchecked(d2, t))
                      for t in enumerate_moves(d2, {"R1-"})}
            assert cs in undone
        for site in enumerate_moves(d, {"R2+", "R2+stab"})[:20]:
            d2 = _apply_unchecked(d, site)
            undone = {canonical_string(_apply_unchecked(d2, t))
                      for t in enumerate_moves(d2, {"R2-"})}
            assert cs in undone


def test_reductions_are_invertible():
    rng = random.Random(64)
    for _ in range(40):
        d = random_diagram(rng, max_v=5)
        cs = canonical_string(d)
        for site in enumerate_moves(d, {"R1-", "R2-"}):
            d2 = _apply_unchecked(d, site)
            redo = {canonical_string(_apply_unchecked(d2, t))
                    for t in enumerate_moves(d2, {"R1+", "R2+", "R2+stab"})}
            assert cs in redo


def test_r3_double_apply_returns_original():
    rng = random.Random(65)
    found = 0
    for _ in range(150):
        d = random_diagram(rng, max_v=5, max_comps=2)
        cs = canonical_string(d)
        for site in enumerate_moves(d, {"R3"}):
            found += 1
            d2 = _apply_unchecked(d, site)
            assert validate(d2) == []
            assert d2.n_vertices == d.n_vertices
            back = {canonical_string(_apply_unchecked(d2, t))
                    for t in enumerate_moves(d2, {"R3"})}
            assert cs in back
    assert found >= 10


def test_stale_site_rejected():
    site = enumerate_moves(KINK, {"R1-"})[0]
    with pytest.raises(MoveError):
        apply_move(TREFOIL, site)
    with pytest.raises(MoveError):
        apply_move(UNKNOT, MoveSite("R1-", (0,)))


def test_move_site_is_a_slotted_value():
    # every kept path step holds a site, so a site has no instance dict;
    # it still compares, hashes, sorts and copies by value, and one whose
    # place holds a list is refused as a key
    site = MoveSite("R2+", (3, 10), "over")
    assert not hasattr(site, "__dict__")
    assert site == MoveSite("R2+", (3, 10), "over") and hash(site) == hash(MoveSite(
        "R2+", (3, 10), "over"))
    assert site.sort_key() == ("R2+", ("3", "10"), "over")
    assert dataclasses.replace(site, variant="under") == MoveSite("R2+", (3, 10), "under")
    with pytest.raises(dataclasses.FrozenInstanceError):
        site.variant = "under"
    with pytest.raises(TypeError):
        hash(MoveSite("R1-", [0]))


def test_negative_loop_curl_applies():
    site = MoveSite("R1+", ("loop", 0), "ro")
    assert site in enumerate_moves(UNKNOT, {"R1+"})
    assert canonical_string(apply_move(UNKNOT, site)) == "O1- U1-"
    with pytest.raises(MoveError):
        apply_move(UNKNOT, MoveSite("R1+", ("loop", 1), "ro"))
    with pytest.raises(MoveError):
        apply_move(UNKNOT, MoveSite("R1+", ()))


def test_invalid_move_result_raises(monkeypatch):
    site = enumerate_moves(KINK, {"R1-"})[0]
    broken = Diagram(KINK.rotations, KINK.edge_pair, ((0, 1),), KINK.inbound, 0)
    monkeypatch.setattr(vlink.moves, "_apply_unchecked", lambda d, s: broken)
    with pytest.raises(DiagramError, match="produced an invalid diagram"):
        apply_move(KINK, site)


def test_unknown_kind_rejected():
    with pytest.raises(MoveError):
        enumerate_moves(KINK, {"R5"})


def test_move_results_match_golden_digest():
    # pins every move site's result, repeats included, up to isomorphism,
    # by its canonical string:
    # search order follows the sites of each state's representative, not
    # the labels of its results.  The inputs come from to_diagram, so the
    # hashed sites still pin its dart numbering.  The digest was taken
    # from an independent implementation of the moves, by map surgery
    corpus = (all_connected_diagrams(3)[::3]
              + random_diagrams(7, 40, max_v=4, max_comps=3, max_loops=2))
    h = hashlib.sha256()
    n_sites = 0
    for d in corpus:
        for site in every_site(d, ALL_KINDS):
            h.update(repr((site, canonical_string(_apply_unchecked(d, site)))).encode())
            n_sites += 1
    assert (len(corpus), n_sites) == (324, 94048)
    assert h.hexdigest() == "2f10b5560b9237c293dc37ab228abe6a0973294ec3161f5bcbcd0ed197d90765"


def _is_push(d: Diagram, site: MoveSite) -> bool:
    """An R2 push of one side across another: not a fold, not a handle
    interleave and not a free-loop site."""
    if site.kind not in ("R2+", "R2+stab") or not isinstance(site.where[0], int):
        return False
    x, y = site.where
    return x != y and y != d.edge_pair[x]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.integers(0, 2**32), st.booleans(),
       st.lists(st.integers(0, 2**16), min_size=1, max_size=4))
def test_sites_the_search_skips_repeat_earlier_ones(seed, grown, picks):
    # the three facts enumerate_moves relies on to list each distinct move
    # once, checked on every site; an R2 move first adds bigons, and a
    # free loop attached across an edge makes two on one vertex pair
    d = random_diagram(random.Random(seed), max_v=3, max_comps=3, max_loops=3)
    r2 = every_site(d, {"R2+", "R2+stab"})
    if grown and r2:
        d = _apply_unchecked(d, r2[picks[0] % len(r2)])
    sites = every_site(d, ALL_KINDS)
    listed = set(sites)
    pushes = [s for s in sites if _is_push(d, s)]
    # pushing x over y is pushing y under x
    for k in picks if pushes else ():
        site = pushes[k % len(pushes)]
        x, y = site.where
        mirror = MoveSite(site.kind, (y, x), "under" if site.variant == "over" else "over")
        assert mirror in listed
        assert (canonical_string(_apply_unchecked(d, site))
                == canonical_string(_apply_unchecked(d, mirror)))
    # every free-loop index, and every R2- bigon on one vertex pair, gives
    # one Diagram value
    same = defaultdict(list)
    for site in sites:
        if site.kind == "R2-":
            same[frozenset(d.vertex_of[x] for x in site.where)].append(site)
        elif site.where[0] in ("loop", "loopself", "loops"):
            src = site.where[2:] if site.where[0] == "loop" else ()
            same[(site.kind, site.where[0], src, site.variant)].append(site)
    for group in same.values():
        assert len({_apply_unchecked(d, site) for site in group}) == 1


def _less_repeats(d: Diagram, sites: list[MoveSite]) -> list[MoveSite]:
    """``every_site``'s listing less the three repeat rules: the push
    ``(x, y)`` whose ``y`` sorts before its ``x`` (its mirror), free-loop
    sites other than loop 0's and the join of loops 0 and 1, and each R2-
    bigon after the first on its vertex pair."""
    kept, bigons = [], set()
    for site in sites:
        where = site.where
        if site.kind == "R2-":
            pair = frozenset(d.vertex_of[x] for x in where)
            if pair in bigons:
                continue
            bigons.add(pair)
        elif where[0] in ("loop", "loopself", "loops"):
            if where[1] != 0 or (where[0] == "loops" and where[2] != 1):
                continue
        elif _is_push(d, site) and str(where[1]) < str(where[0]):
            continue
        kept.append(site)
    return kept


TWO_BIGONS = "O1+ O2- / O3+ O4- / O5- U2- U5- U3+ U4- O6- U6- U1+"


def test_enumerate_moves_is_every_site_less_repeats():
    corpus = random_diagrams(67, 40, max_v=4, max_comps=3, max_loops=3)
    corpus.append(to_diagram(parse_gauss(TWO_BIGONS)))
    dropped = Counter()
    for d in corpus:
        for kinds in [{kind} for kind in sorted(ALL_KINDS)] + [ALL_KINDS]:
            assert enumerate_moves(d, kinds) == _less_repeats(d, every_site(d, kinds))
        # each site left out gives the state of a listed site sorting before it
        listed = set(enumerate_moves(d, ALL_KINDS))
        earlier = set()
        for site in every_site(d, ALL_KINDS):
            cs = canonical_string(_apply_unchecked(d, site))
            if site in listed:
                earlier.add(cs)
            else:
                assert cs in earlier, (canonical_string(d), site)
                dropped[site.kind if isinstance(site.where[0], int) else "loop"] += 1
    # every rule drops sites here; pinned, so that a rule that stops firing shows
    assert dropped == {"R2+": 2252, "R2+stab": 2308, "loop": 576, "R2-": 2}


def test_r2_minus_lists_the_bigon_whose_site_sorts_first():
    # face order would pick (8, 15): its least dart comes first
    d = to_diagram(parse_gauss(TWO_BIGONS))
    assert every_site(d, {"R2-"}) == [MoveSite("R2-", (11, 12)), MoveSite("R2-", (8, 15))]
    assert enumerate_moves(d, {"R2-"}) == [MoveSite("R2-", (11, 12))]
    with pytest.raises(MoveError):
        apply_move(d, MoveSite("R2-", (8, 15)))


def test_apply_move_accepts_exactly_the_listed_sites():
    # apply_move stops at its own site among its kind's unsorted sites:
    # of every site, repeats included, it applies those enumerate_moves
    # lists, as _apply_unchecked builds them, and refuses the rest
    corpus = (random_diagrams(71, 20, max_v=3, max_comps=3, max_loops=3)
              + all_connected_diagrams(3)[::60] + [to_diagram(parse_gauss(TWO_BIGONS))])
    refused = Counter()
    for d in corpus:
        listed = set(enumerate_moves(d, ALL_KINDS))
        for site in every_site(d, ALL_KINDS):
            if site in listed:
                assert apply_move(d, site) == _apply_unchecked(d, site)
                continue
            with pytest.raises(MoveError):
                apply_move(d, site)
            if site.kind == "R2-":
                refused["second bigon"] += 1
            elif isinstance(site.where[0], int):
                refused["mirrored push"] += 1
            else:
                refused["loop 1"] += 1
        # a site of a diagram with one crossing more is stale here
        for site in (MoveSite("R1-", (d.n_vertices,)), MoveSite("R1+", (d.n_darts,), "lo"),
                     MoveSite("R2+", (d.n_darts, d.n_darts), "over")):
            with pytest.raises(MoveError):
                apply_move(d, site)
    assert set(refused) == {"second bigon", "mirrored push", "loop 1"}
