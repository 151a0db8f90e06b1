import itertools
import random

import pytest

from vlink.codec import parse_gauss, to_diagram
from vlink.diagram import UNKNOT, canonical_string, stats
from vlink.invariants import f_poly, quandle_colorings, dihedral_quandle
import vlink.search
from vlink.moves import MoveSite, apply_move, enumerate_moves, _apply_unchecked, _site_applies
from vlink.search import (
    _GROWTH,
    SearchBounds,
    SearchError,
    _expand,
    _rank,
    _rep,
    _successors,
    classify_corpus,
    equivalent,
    invariant_table,
    minimize,
    orbit,
)
from vlink.surface import genus

from helpers import all_connected_diagrams, random_diagram, random_diagrams
from oracles import naive_minimize, naive_orbit

TREFOIL = to_diagram(parse_gauss("O1+ U2+ O3+ U1+ O2+ U3+"))
VT = to_diagram(parse_gauss("O1+ O2+ U1+ U2+"))
KINK = to_diagram(parse_gauss("O1+ U1+"))
DOUBLED = to_diagram(parse_gauss("O1+ U1+ O2+ U2+"))


def test_bounds_validation():
    with pytest.raises(ValueError):
        orbit(TREFOIL, SearchBounds(max_crossings=2))
    with pytest.raises(ValueError):
        SearchBounds(max_crossings=0).check()


def test_orbit_contains_start():
    res = orbit(VT, SearchBounds(max_crossings=2))
    assert canonical_string(VT) in res.states


def test_orbit_unknot_cap2():
    res = orbit(UNKNOT, SearchBounds(max_crossings=2, max_states=5000))
    assert not res.truncated
    assert canonical_string(KINK) in res.states
    assert canonical_string(to_diagram(parse_gauss("O1- U1-"))) in res.states
    assert canonical_string(DOUBLED) in res.states


def test_orbit_vt_cap2_is_isolated_and_nonclassical():
    res = orbit(VT, SearchBounds(max_crossings=2, max_states=5000))
    assert not res.truncated
    assert res.states == frozenset({canonical_string(VT)})
    for cs in res.states:
        assert genus(to_diagram(parse_gauss(cs))).total > 0


@pytest.fixture(scope="module")
def corpus_v3():
    return all_connected_diagrams(3)


@pytest.mark.parametrize("closed", [True, False])
def test_orbit_and_minimize_match_layered_closure(corpus_v3, closed):
    # closed orbits, each checked once from its first member, then state and
    # depth budgets that cut orbits short
    seen: set[str] = set()
    truncated = 0
    for d in corpus_v3:
        if canonical_string(d) in seen:
            continue
        cap = max(d.n_vertices, 1)
        budgets = [SearchBounds(cap, max_states=None)] if closed else [
            SearchBounds(cap + 1, max_states=10), SearchBounds(cap, max_depth=1, max_states=None)]
        for bounds in budgets:
            res = orbit(d, bounds)
            states, trunc, explored = naive_orbit(d, bounds)
            assert (res.states, res.truncated, res.explored) == (states, trunc, explored)
            m = minimize(d, bounds)
            got = (canonical_string(m.witness), m.total_genus, m.crossings, m.certified, m.explored)
            assert got == naive_minimize(states, trunc)
            truncated += res.truncated
            if closed:
                seen.update(res.states)
    assert truncated == 0 if closed else truncated >= 800


def test_orbit_truncation_flag():
    res = orbit(UNKNOT, SearchBounds(max_crossings=4, max_states=40))
    assert res.truncated
    assert res.explored <= 41


def test_equivalent_relabeling_empty_path():
    vt2 = to_diagram(parse_gauss("O2+ O1+ U2+ U1+"))
    out = equivalent(VT, vt2, SearchBounds(max_crossings=4))
    assert out.verdict == "equivalent"
    assert out.path == ()


def test_equivalent_kink_unknot_path_replays():
    out = equivalent(KINK, UNKNOT, SearchBounds(max_crossings=3, max_states=4000))
    assert out.verdict == "equivalent"
    assert len(out.path) >= 1
    # replay by hand from the canonical representative
    cur = to_diagram(parse_gauss(canonical_string(KINK)))
    for site, expected in out.path:
        assert site in enumerate_moves(cur, {site.kind})
        cur = _apply_unchecked(cur, site)
        assert canonical_string(cur) == expected
    assert canonical_string(cur) == canonical_string(UNKNOT)


def test_equivalent_path_through_negative_loop_curl_replays():
    # the path starts with the negative curl on the free loop, a site
    # enumerate_moves lists only beside R2+stab
    target = to_diagram(parse_gauss("O1+ U1+ O2- U2-"))
    out = equivalent(UNKNOT, target, SearchBounds(4))
    assert out.verdict == "equivalent"
    cur = UNKNOT
    for site, expected in out.path:
        cur = apply_move(to_diagram(parse_gauss(canonical_string(cur))), site)
        assert canonical_string(cur) == expected
    assert canonical_string(cur) == canonical_string(target)


def test_equivalent_symmetric_at_crossing_cap():
    neg = to_diagram(parse_gauss("O1- U1-"))
    for a, b in ((UNKNOT, neg), (neg, UNKNOT)):
        assert equivalent(a, b, SearchBounds(1)).verdict == "equivalent"
    assert orbit(UNKNOT, SearchBounds(1)).states == orbit(neg, SearchBounds(1)).states


@pytest.mark.parametrize("max_states", [5, 20, 50])
def test_equivalent_budget_is_exact(max_states):
    out = equivalent(DOUBLED, UNKNOT, SearchBounds(4, max_states=max_states))
    assert out.explored <= max_states
    assert out.truncated == (out.verdict == "unknown")


def test_unknown_is_untruncated_when_an_orbit_closes(monkeypatch):
    # without invariants to split them, the trefoil's cap-3 orbit closes
    # without reaching the unknot
    monkeypatch.setattr(vlink.search, "invariant_table", lambda *args: ())
    out = equivalent(TREFOIL, UNKNOT, SearchBounds(3))
    assert out.verdict == "unknown"
    assert not out.truncated


def test_loop_curl_check_matches_enumeration():
    checked = 0
    for d in random_diagrams(29, 40, max_v=3, max_loops=2):
        if not d.free_loops:
            continue
        listed = set(enumerate_moves(d, {"R1+", "R2+stab"}))
        for i in range(d.free_loops + 1):
            for variant in ("lo", "lu", "ro", "ru"):
                site = MoveSite("R1+", ("loop", i), variant)
                assert _site_applies(d, site) == (site in listed)
                checked += 1
    assert checked >= 100


def test_expand_lists_loop_curls_without_r2stab():
    # the listing _expand replaced: R2+stab requested one crossing below the
    # cap only for its negative loop curls, everything else filtered out
    checked = 0
    for d in random_diagrams(31, 60, max_v=3, max_loops=2):
        if not d.free_loops:
            continue
        for room in range(4):
            kinds = {kind for kind, growth in _GROWTH.items() if growth <= room}
            if room >= 1:
                kinds.add("R2+stab")
            old = [site for site in enumerate_moves(d, kinds) if _GROWTH[site.kind] <= room]
            assert [site for site, _, _ in _expand(d, d.n_vertices + room)] == old
            checked += room == 1
    assert checked >= 20


def _clear_memos():
    _successors.cache_clear()
    _rank.cache_clear()


def _pairs(cs: str, cap: int) -> list:
    """The (site, canonical result) successors of ``cs``, without the memo."""
    return [(site, cs2) for site, _, cs2 in _expand(_rep(cs), cap)]


def test_results_do_not_depend_on_memo_state():
    def run():
        return (orbit(TREFOIL, SearchBounds(5, max_states=150)),
                orbit(UNKNOT, SearchBounds(3, max_states=None)),
                minimize(DOUBLED, SearchBounds(4, max_states=300)),
                equivalent(DOUBLED, UNKNOT, SearchBounds(4, max_states=300)),
                classify_corpus([UNKNOT, KINK, DOUBLED, VT], SearchBounds(4, max_states=80)))

    _clear_memos()
    cold = run()
    assert run() == cold
    _clear_memos()
    assert run() == cold


def test_orbit_and_minimize_match_oracle_after_other_caps_warm_the_memo(corpus_v3):
    # the oracle expands without the memo; the searches under test read
    # successors that searches at the same and at larger caps stored first
    _clear_memos()
    for d in corpus_v3[::10]:
        cap = max(d.n_vertices, 1)
        orbit(d, SearchBounds(cap, max_states=5))
        orbit(d, SearchBounds(cap + 1, max_states=40))
        minimize(d, SearchBounds(cap + 2, max_states=10))
        bounds = SearchBounds(cap, max_states=None)
        res = orbit(d, bounds)
        states, trunc, explored = naive_orbit(d, bounds)
        assert (res.states, res.truncated, res.explored) == (states, trunc, explored)
        m = minimize(d, bounds)
        got = (canonical_string(m.witness), m.total_genus, m.crossings, m.certified, m.explored)
        assert got == naive_minimize(states, trunc)
    assert _successors.cache_info().hits > 0


def test_successors_are_kept_per_crossing_cap():
    cs = canonical_string(DOUBLED)  # two crossings: one of room at cap 3, two at cap 4
    fresh = {cap: _pairs(cs, cap) for cap in (3, 4)}
    assert set(fresh[3]) < set(fresh[4])
    for caps in ((3, 4), (4, 3)):
        _clear_memos()
        for cap in caps:
            assert list(_successors(cs, cap)) == fresh[cap]
    assert _successors.cache_info().currsize == 2


def test_successors_are_computed_as_far_as_read(monkeypatch):
    cs = canonical_string(DOUBLED)
    fresh = _pairs(cs, 4)
    applied = []
    real = vlink.search._apply_unchecked
    monkeypatch.setattr(vlink.search, "_apply_unchecked",
                        lambda d, site: applied.append(site) or real(d, site))
    _clear_memos()
    listing = _successors(cs, 4)
    first = iter(listing)
    assert [next(first), next(first)] == fresh[:2]
    assert len(applied) == 2
    # a second reader gets the pairs read so far without recomputing them,
    # then reads on; the first resumes where it stopped
    assert next(itertools.islice(listing, 1, None)) == fresh[1]
    assert len(applied) == 2
    assert list(first) == fresh[2:]
    assert list(listing) == fresh
    assert len(applied) == len(fresh)


def test_interrupted_successors_resume_where_they_stopped(monkeypatch):
    cs = canonical_string(DOUBLED)
    fresh = _pairs(cs, 4)
    real = vlink.search._apply_unchecked
    applied = []

    def interrupt_third(d, site):
        applied.append(site)
        if len(applied) == 3:
            raise KeyboardInterrupt
        return real(d, site)

    monkeypatch.setattr(vlink.search, "_apply_unchecked", interrupt_third)
    _clear_memos()
    with pytest.raises(KeyboardInterrupt):
        list(_successors(cs, 4))
    assert list(_successors(cs, 4)) == fresh


def test_memos_are_bounded():
    assert _successors.cache_info().maxsize == 2**12
    assert _rank.cache_info().maxsize == 2**12


def test_unreplayable_path_raises(monkeypatch):
    monkeypatch.setattr(vlink.search, "_replay", lambda *args: False)
    with pytest.raises(SearchError, match="failed to replay"):
        equivalent(KINK, UNKNOT, SearchBounds(max_crossings=3, max_states=4000))


def test_equivalent_distinguishes_trefoil_from_unknot_by_colorings():
    out = equivalent(TREFOIL, UNKNOT, SearchBounds(max_crossings=5, max_states=200))
    assert out.verdict == "distinguished"
    names = {n: (a, b) for n, a, b in out.distinguishers}
    assert names["colorings[R3]"] == ("9", "3")


def test_equivalent_distinguishes_vt_by_f_poly():
    out = equivalent(VT, UNKNOT, SearchBounds(max_crossings=4, max_states=200))
    assert out.verdict == "distinguished"
    assert any(n == "f_poly" for n, _, _ in out.distinguishers)
    out = equivalent(VT, TREFOIL, SearchBounds(max_crossings=5, max_states=200))
    assert out.verdict == "distinguished"
    assert any(n == "f_poly" for n, _, _ in out.distinguishers)


def test_distinguished_values_recompute():
    out = equivalent(TREFOIL, UNKNOT, SearchBounds(max_crossings=5, max_states=200))
    t1 = dict(invariant_table(TREFOIL))
    t2 = dict(invariant_table(UNKNOT))
    for name, v1, v2 in out.distinguishers:
        assert t1[name] == v1
        assert t2[name] == v2


def test_unknown_when_bounds_too_tight():
    # two diagrams of the same knot; a 2-state budget cannot connect them
    out = equivalent(DOUBLED, UNKNOT, SearchBounds(max_crossings=2, max_depth=1, max_states=3))
    assert out.verdict == "unknown"


def test_minimize_kink_certified():
    res = minimize(KINK, SearchBounds(max_crossings=2, max_states=4000))
    assert res.witness == UNKNOT
    assert res.certified
    assert (res.total_genus, res.crossings) == (0, 0)


def test_minimize_vt_keeps_genus_one():
    res = minimize(VT, SearchBounds(max_crossings=4, max_states=2000))
    assert (res.total_genus, res.crossings) == (1, 2)
    assert canonical_string(res.witness) == canonical_string(VT)


def test_minimize_trefoil_upper_bound_under_tight_budget():
    res = minimize(TREFOIL, SearchBounds(max_crossings=5, max_states=120))
    assert canonical_string(res.witness) == canonical_string(TREFOIL)
    assert (res.total_genus, res.crossings) == (0, 3)
    assert not res.certified  # state budget truncated the cap-5 orbit


def test_minimize_monotone():
    rng = random.Random(19)
    for _ in range(8):
        d = random_diagram(rng, max_v=3)
        res = minimize(d, SearchBounds(max_crossings=d.n_vertices + 1, max_states=400))
        assert (res.total_genus, res.crossings) <= (genus(d).total, d.n_vertices)


def test_minimize_same_witness_from_orbit_members():
    bounds = SearchBounds(max_crossings=3, max_states=10000)
    res = orbit(KINK, bounds)
    assert not res.truncated
    witnesses = set()
    for cs in sorted(res.states)[:10]:
        member = to_diagram(parse_gauss(cs))
        witnesses.add(canonical_string(minimize(member, bounds).witness))
    assert len(witnesses) == 1


def test_classify_one_class():
    report = classify_corpus([UNKNOT, KINK, DOUBLED],
                             SearchBounds(max_crossings=3, max_states=4000))
    assert len(report.classes) == 1
    assert report.violations == ()
    assert report.unresolved == ()


def test_classify_reports_a_reachable_member_with_other_invariants(monkeypatch):
    real = invariant_table
    # a wrong table for the kink, which the unknot's orbit reaches
    monkeypatch.setattr(vlink.search, "invariant_table",
                        lambda d, *args: (("fake", "1"),) if d.n_vertices == 1 else real(d, *args))
    report = classify_corpus([UNKNOT, KINK], SearchBounds(max_crossings=3, max_states=4000))
    unknot, kink = canonical_string(UNKNOT), canonical_string(KINK)
    assert len(report.classes) == 2
    assert (f"equivalent diagrams with differing invariants: {unknot} vs {kink}"
            in report.violations)
    assert "violations: none" not in report.to_text()


def test_classify_reuses_successors_of_overlapping_orbits():
    bounds = SearchBounds(max_crossings=3, max_states=200)
    _clear_memos()
    cold = classify_corpus([KINK, DOUBLED], bounds)
    _clear_memos()
    classify_corpus([UNKNOT, VT], bounds)
    hits = _successors.cache_info().hits
    # the unknot's orbit is the kink's
    assert classify_corpus([KINK, DOUBLED], bounds) == cold
    assert _successors.cache_info().hits > hits
    assert _rank.cache_info().hits > 0


def test_classify_merges_when_orbits_meet():
    bounds = SearchBounds(max_crossings=3, max_states=10)
    # the unknot's truncated orbit lacks the doubled kink; the two orbits meet
    assert canonical_string(DOUBLED) not in orbit(UNKNOT, bounds).states
    report = classify_corpus([DOUBLED, UNKNOT], bounds)
    assert report.classes == ((canonical_string(UNKNOT), canonical_string(DOUBLED)),)
    assert report.unresolved == ()
    assert report.witnesses == ((canonical_string(UNKNOT), canonical_string(UNKNOT)),)


def test_classify_reports_one_unresolved_pair_per_class_pair():
    bounds = SearchBounds(max_crossings=3, max_states=1)
    report = classify_corpus([UNKNOT, KINK, DOUBLED], bounds)
    reps = [cls[0] for cls in report.classes]
    assert len(reps) == 3
    assert report.unresolved == tuple(itertools.combinations(reps, 2))


def test_classify_merge_that_fails_to_replay_raises(monkeypatch):
    monkeypatch.setattr(vlink.search, "_replay", lambda *args: False)
    bounds = SearchBounds(max_crossings=3, max_states=10)
    assert len(classify_corpus([UNKNOT, TREFOIL], bounds).classes) == 2
    # a merge by containment, then one by meeting orbits
    for corpus in ([UNKNOT, KINK], [UNKNOT, DOUBLED]):
        with pytest.raises(SearchError, match="failed to replay"):
            classify_corpus(corpus, bounds)


def test_classify_three_classes():
    report = classify_corpus([UNKNOT, TREFOIL, VT],
                             SearchBounds(max_crossings=5, max_states=300))
    assert len(report.classes) == 3
    assert report.violations == ()
    text = report.to_text()
    assert "classes: 3" in text
    assert "violations: none" in text


def test_classify_empty():
    report = classify_corpus([], SearchBounds(max_crossings=2))
    assert report.classes == ()
    assert "diagrams: 0" in report.to_text()
