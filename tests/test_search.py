import hashlib
import itertools
import random
import time
import weakref
from collections import OrderedDict

import pytest

from vlink.codec import MAX_FREE_LOOPS, GaussCodeError, _from_canonical, parse_gauss, to_diagram
from vlink.diagram import UNKNOT, Diagram, DiagramError, canonical_string, relabel, stats
from vlink.invariants import StateSumLimitError, dihedral_quandle
import vlink.search
from vlink.moves import _GROWTH, MoveSite, apply_move, enumerate_moves, _apply_unchecked
from vlink.search import (
    SearchBounds,
    SearchError,
    _listing,
    _minimal_orbit,
    _replay,
    classify_corpus,
    equivalent,
    invariant_table,
    minimize,
    orbit,
)
from vlink.surface import genus

from helpers import all_connected_diagrams, clear_memos, random_diagram, random_diagrams
from oracles import full_listing, naive_minimize, naive_orbit

TREFOIL = to_diagram(parse_gauss("O1+ U2+ O3+ U1+ O2+ U3+"))
VT = to_diagram(parse_gauss("O1+ O2+ U1+ U2+"))
KINK = to_diagram(parse_gauss("O1+ U1+"))
DOUBLED = to_diagram(parse_gauss("O1+ U1+ O2+ U2+"))


def test_bounds_validation(monkeypatch):
    with pytest.raises(ValueError):
        orbit(TREFOIL, SearchBounds(max_crossings=2))
    # classify refuses a corpus above the cap before it labels any member,
    # and an invalid member before the bounds
    labelled = []
    monkeypatch.setattr(vlink.search, "canonical_string",
                        lambda d: labelled.append(d) or canonical_string(d))
    with pytest.raises(ValueError, match="above max_crossings=2"):
        classify_corpus([UNKNOT, TREFOIL], SearchBounds(max_crossings=2))
    assert labelled == []
    broken = Diagram(((0, 1, 2, 3),), (2, 3, 0, 1), (), (True, True, False, False))
    with pytest.raises(DiagramError):
        classify_corpus([TREFOIL, broken], SearchBounds(max_crossings=2))
    with pytest.raises(ValueError):
        SearchBounds(max_crossings=0).check()
    with pytest.raises(ValueError, match="max_depth"):
        SearchBounds(max_crossings=2, max_depth=0).check()
    with pytest.raises(ValueError, match="max_states"):
        SearchBounds(max_crossings=2, max_states=0).check()
    # equivalent has two starts, so one state cannot hold its search;
    # it refuses before the shortcut for equal inputs
    for d in (DOUBLED, UNKNOT):
        with pytest.raises(ValueError, match="at least 2"):
            equivalent(d, UNKNOT, SearchBounds(4, max_states=1))
    out = equivalent(DOUBLED, UNKNOT, SearchBounds(4, max_states=2))
    assert (out.verdict, out.explored, out.truncated) == ("unknown", 2, True)


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
    # the path starts with the negative curl on the free loop
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


def _first_occurrences(pairs) -> list:
    """The (site, state) pairs that give a state no earlier pair gave."""
    seen = set()
    return [(site, cs) for site, cs in pairs if not (cs in seen or seen.add(cs))]


def _read(cs: str, cap: int) -> list:
    """Every (site, canonical result) pair of a fresh listing of ``cs``."""
    return list(_listing(_from_canonical(cs), cs, cap))


def _check_listing(cs, cap, full) -> int:
    """The state's listing holds a subsequence of ``full`` with the same
    first occurrence of every state; returns how many pairs it skipped."""
    got = _read(cs, cap)
    rest = iter(full)
    assert all(pair in rest for pair in got)
    assert _first_occurrences(got) == _first_occurrences(full)
    return len(full) - len(got)


def test_expand_keeps_the_first_site_of_every_state(corpus_v3):
    # the skipped sites repeat earlier states, so searches record the
    # same parents; checked against every site the move set lists
    unknot = orbit(UNKNOT, SearchBounds(4, max_states=None))
    assert not unknot.truncated
    cases = [(cs, 4) for cs in sorted(unknot.states)]
    cases += [(canonical_string(d), d.n_vertices + 1) for d in corpus_v3]
    cases += [(canonical_string(d), d.n_vertices + 2) for d in corpus_v3[::8]]
    cases += [(canonical_string(d), d.n_vertices + room)
              for d in random_diagrams(41, 100, max_v=4, max_comps=3, max_loops=3)
              for room in (1, 2)]
    skipped = 0
    for cs, cap in cases:
        skipped += _check_listing(cs, cap, full_listing(_from_canonical(cs), cap))
    # every repeat enumerate_moves leaves out: pinned, so that a site it
    # starts listing shows here although the results stay the same
    assert skipped == 22906


def _pairs(cs: str, cap: int) -> list:
    """The (site, canonical result) successors of ``cs``, without records
    of up moves."""
    store = vlink.search._undone
    vlink.search._undone = OrderedDict()
    try:
        return _read(cs, cap)
    finally:
        vlink.search._undone = store


def test_results_do_not_depend_on_memo_state():
    def run():
        return (orbit(TREFOIL, SearchBounds(5, max_states=150)),
                orbit(UNKNOT, SearchBounds(3, max_states=None)),
                minimize(DOUBLED, SearchBounds(4, max_states=300)),
                equivalent(DOUBLED, UNKNOT, SearchBounds(4, max_states=300)),
                classify_corpus([UNKNOT, KINK, DOUBLED, VT], SearchBounds(4, max_states=80)))

    clear_memos()
    cold = run()
    assert run() == cold
    clear_memos()
    assert run() == cold


def test_orbit_and_minimize_match_oracle_after_other_caps_warm_the_memo(monkeypatch, corpus_v3):
    # the oracle expands without records; the searches under test read
    # the records of up moves that searches at the same and at larger caps
    # left, and each lists every state of its closed orbit once, unless
    # minimize reads an orbit a search of an earlier diagram kept
    built = _counted(monkeypatch, "_listing")
    clear_memos()
    for d in corpus_v3[::10]:
        cap = max(d.n_vertices, 1)
        orbit(d, SearchBounds(cap, max_states=5))
        orbit(d, SearchBounds(cap + 1, max_states=40))
        minimize(d, SearchBounds(cap + 2, max_states=10))
        bounds = SearchBounds(cap, max_states=None)
        assert vlink.search._undone
        built.clear()
        res = orbit(d, bounds)
        states, trunc, explored = naive_orbit(d, bounds)
        assert (res.states, res.truncated, res.explored) == (states, trunc, explored)
        assert sorted(cs for _, cs, _ in built) == sorted(states)
        kept = (canonical_string(d), cap) in vlink.search._closed
        built.clear()
        m = minimize(d, bounds)
        got = (canonical_string(m.witness), m.total_genus, m.crossings, m.certified, m.explored)
        assert got == naive_minimize(states, trunc)
        assert len(built) == (0 if kept else explored)


def test_successors_are_computed_as_far_as_read(monkeypatch):
    cs = canonical_string(DOUBLED)
    fresh = _pairs(cs, 4)
    applied = _counted(monkeypatch, "_edit")
    clear_memos()
    listing = _listing(_from_canonical(cs), cs, 4)
    assert applied == []
    assert [next(listing), next(listing)] == fresh[:2]
    assert len(applied) == 2
    assert list(listing) == fresh[2:]
    assert len(applied) == len(fresh)


def test_failed_label_raises_to_the_reader(monkeypatch):
    # a label that raises ends the listing at that site, after the pairs
    # read before it; an interruption does the same
    cs = canonical_string(DOUBLED)
    fresh = _pairs(cs, 4)
    real = vlink.search._edit
    for error in (DiagramError("invalid signed Gauss code"), KeyboardInterrupt()):
        applied = []

        def stop_third(d, site):
            applied.append(site)
            if len(applied) == 3:
                raise error
            return real(d, site)

        monkeypatch.setattr(vlink.search, "_edit", stop_third)
        clear_memos()
        read = []
        with pytest.raises(type(error)):
            read.extend(_listing(_from_canonical(cs), cs, 4))
        assert read == fresh[:2] and applied == [site for site, _ in fresh[:3]]


def test_no_listing_outlives_its_reader(monkeypatch):
    # a search drops each state's representative, and the listing read
    # from it, before it lists the next state, and keeps none once it
    # returns: only a returned witness stays alive
    live, peaks = set(), []
    real_rep, real_edit = vlink.search._from_canonical, vlink.search._edit

    def rep(cs):
        d = real_rep(cs)
        live.add(weakref.ref(d, live.discard))
        return d

    monkeypatch.setattr(vlink.search, "_from_canonical", rep)
    monkeypatch.setattr(vlink.search, "_edit",
                        lambda d, site: peaks.append(len(live)) or real_edit(d, site))
    listed = []
    real_listing = vlink.search._listing
    monkeypatch.setattr(vlink.search, "_listing",
                        lambda d, cs, cap: listed.append(cs) or real_listing(d, cs, cap))
    clear_memos()
    res = orbit(TREFOIL, SearchBounds(5, max_states=250))
    assert not res.truncated and not live
    assert orbit(DOUBLED, SearchBounds(4, max_states=300)).truncated and not live
    for bounds in (SearchBounds(3, max_states=None), SearchBounds(4, max_states=300)):
        m = minimize(DOUBLED, bounds)
        assert m.certified == (bounds.max_states is None)
        assert [ref() for ref in live] == [m.witness]
        del m
        assert not live
    clear_memos()
    report = classify_corpus([UNKNOT, KINK, DOUBLED, VT], SearchBounds(3, max_states=200))
    assert len(report.classes) == 2 and not live
    # the doubled kink's search meets the unknot's at the kink, which the
    # walk back lists to reach the unknot
    listed.clear()
    out = equivalent(DOUBLED, UNKNOT, SearchBounds(4, max_states=300))
    assert out.verdict == "equivalent" and not live
    assert listed[-1] == canonical_string(KINK) and out.path[-1][1] == canonical_string(UNKNOT)
    assert peaks and max(peaks) == 1


def test_walk_back_labels_only_as_far_as_the_previous_state(monkeypatch):
    # each state on the backward half gets a fresh listing, read up to and
    # including the first site that gives the previous state: no later
    # site is labelled or read
    reads = []  # per listing: its state, pairs read and labels
    real_listing, real_edit, real_path = (vlink.search._listing, vlink.search._edit,
                                          vlink.search._path)

    def listing(d, cs, cap):
        reads.append([cs, 0, 0])
        for pair in real_listing(d, cs, cap):
            reads[-1][1] += 1
            yield pair

    def edit(d, site):
        reads[-1][2] += 1
        return real_edit(d, site)

    walk_back = []
    monkeypatch.setattr(vlink.search, "_listing", listing)
    monkeypatch.setattr(vlink.search, "_edit", edit)
    monkeypatch.setattr(vlink.search, "_path",
                        lambda *args: walk_back.append(len(reads)) or real_path(*args))
    # three kinks against the unknot: the searches meet two moves from
    # the unknot
    start = to_diagram(parse_gauss("O1+ U1+ O2+ U2+ O3+ U3+"))
    bounds = SearchBounds(4, max_states=3000)
    clear_memos()
    out = equivalent(start, UNKNOT, bounds)
    assert out.verdict == "equivalent" and len(out.path) == 3
    back = reads[walk_back[0]:]
    assert len(back) == 2
    monkeypatch.undo()
    steps = out.path[len(out.path) - len(back):]
    skipped = 0
    for (cs, n_read, labels), (site, prev) in zip(back, steps):
        fresh = _pairs(cs, bounds.max_crossings)
        i = next(i for i, (_, cs3) in enumerate(fresh) if cs3 == prev)
        assert fresh[i][0] == site
        assert n_read == i + 1 and 0 < labels <= i + 1
        skipped += len(fresh) - n_read
    assert skipped > 0


def test_rep_builds_what_the_parser_builds(corpus_v3):
    # codec._from_canonical rebuilds each state's representative: every
    # state of one closed cap-4 orbit, the V<=3 corpus and a seeded random
    # corpus, and texts in other spacing or with zero-led indices
    res = orbit(UNKNOT, SearchBounds(4, max_states=None))
    assert not res.truncated and len(res.states) == 1531
    others = corpus_v3 + random_diagrams(29, 300, max_v=6, max_comps=3, max_loops=2)
    for cs in sorted(res.states | {canonical_string(d) for d in others}) + [
            "O1+  U1+", "O01+ U01+", "O01+ U1+"]:
        assert _from_canonical(cs) == to_diagram(parse_gauss(cs)), cs


@pytest.mark.parametrize("cs", [
    "O1+", "O1+ O1+", "O1+ U1-", "O1+ U1+ U1+", "O1+ U1+ / O1+ U1+", "U1+ O1+ U1+",
    "X1+ U1+", "O1 U1", "Oa+ Ua+", "O\u0661+ U\u0661+", "O1+ U1+ / ", "O1+ * U1+",
    "O0+ U0+",
])
def test_rep_rejects_malformed_states(cs):
    with pytest.raises(GaussCodeError):
        _from_canonical(cs)


def test_memos_are_bounded():
    assert vlink.search._UNDONE_SIZE == 2**16
    assert vlink.search._CLOSED_SIZE == 2**15
    assert vlink.search._MEMO_SIZE == 2**12
    assert vlink.search._REPLAYED_SIZE == 2**14


def test_kept_tables_drop_the_oldest_first(monkeypatch):
    monkeypatch.setattr(vlink.search, "_MEMO_SIZE", 2)
    clear_memos()
    for d in (UNKNOT, KINK, TREFOIL):
        invariant_table(d)
    assert [cs for cs, _ in vlink.search._tables] == [canonical_string(KINK),
                                                        canonical_string(TREFOIL)]


def test_kept_orbits_drop_the_oldest_orbit_first(monkeypatch):
    # every state of a closed orbit names it, and the states of the oldest
    # orbit go together; an orbit larger than the bound is not kept
    bounds = SearchBounds(3, max_states=None)
    starts = (VT, TREFOIL, to_diagram(parse_gauss("O1- O2- U1- U2-")))
    clear_memos()
    sizes = [minimize(d, bounds).explored for d in starts]
    assert sizes == [19, 1, 19] and len(vlink.search._closed) == sum(sizes)
    monkeypatch.setattr(vlink.search, "_CLOSED_SIZE", sizes[1] + sizes[2] + 1)
    clear_memos()
    for d in starts:
        minimize(d, bounds)
    kept = vlink.search._closed
    assert len(kept) == sizes[1] + sizes[2]
    assert (canonical_string(VT), 3) not in kept
    assert {(canonical_string(d), 3) for d in starts[1:]} <= set(kept)
    assert minimize(UNKNOT, bounds).explored > len(kept) + 1
    assert len(kept) == sizes[1] + sizes[2]


def _counted(monkeypatch, name: str) -> list:
    """Calls of ``vlink.search``'s ``name``, recorded from now on."""
    calls, real = [], getattr(vlink.search, name)
    monkeypatch.setattr(vlink.search, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_orbit_labels_each_undone_up_move_once(monkeypatch):
    # the trefoil's closed cap-5 orbit labels 906 results without records;
    # 329 of its R1- and R2- results undo an up move labelled earlier, and
    # are read from its record
    labels = _counted(monkeypatch, "_label")
    clear_memos()
    res = orbit(TREFOIL, SearchBounds(5, max_states=250))
    assert (len(res.states), res.truncated) == (216, False)
    assert len(labels) == 577


def test_only_ranking_searches_compute_genus(monkeypatch):
    # orbit and equivalent read no rank; minimize ranks each state it
    # reaches once, from the representative it lists the state from
    calls = _counted(monkeypatch, "genus")
    clear_memos()
    orbit(TREFOIL, SearchBounds(5, max_states=250))
    equivalent(DOUBLED, UNKNOT, SearchBounds(4, max_states=300))
    assert calls == []
    m = minimize(DOUBLED, SearchBounds(4, max_states=300))
    assert not m.certified and len(calls) == m.explored
    # each search parses the states it lists, whatever orbit listed before
    parses = _counted(monkeypatch, "_from_canonical")
    calls.clear()
    m = minimize(TREFOIL, SearchBounds(5, max_states=250))
    assert m.certified and len(calls) == len(parses) - 1 == 216


def test_records_are_bounded_and_change_no_orbit(monkeypatch):
    # a 64-entry store drops its oldest records as the cap-4 unknot orbit
    # adds more: the orbit is the same, and more results are labelled
    sizes = []
    real = vlink.search._label
    monkeypatch.setattr(vlink.search, "_label",
                        lambda *args: sizes.append(len(vlink.search._undone)) or real(*args))
    clear_memos()
    full = orbit(UNKNOT, SearchBounds(4, max_states=None))
    labelled = len(sizes)
    monkeypatch.setattr(vlink.search, "_UNDONE_SIZE", 64)
    clear_memos()
    sizes.clear()
    small = orbit(UNKNOT, SearchBounds(4, max_states=None))
    assert small == full and len(small.states) == 1531
    assert max(sizes) == 64 and len(vlink.search._undone) <= 64
    assert len(sizes) > labelled


def test_records_change_no_listing(monkeypatch, corpus_v3):
    # listings read with a store that listing every state filled equal the
    # listings built with no records, whose first occurrences are the
    # oracle's: the closed cap-4 orbits of the unknot and of every tenth
    # V<=3 diagram, and seeded random states one and two crossings up
    cases = set()
    for d in [UNKNOT, *corpus_v3[::10]]:
        res = orbit(d, SearchBounds(4, max_states=None))
        assert not res.truncated
        cases |= {(cs, 4) for cs in res.states}
    cases |= {(canonical_string(d), d.n_vertices + room)
              for d in random_diagrams(43, 150, max_v=4, max_comps=3, max_loops=2)
              for room in (1, 2)}
    cases = sorted(cases)
    store = OrderedDict()
    monkeypatch.setattr(vlink.search, "_undone", store)
    for case in cases:
        _read(*case)
    edits = _counted(monkeypatch, "_edit")
    read = 0
    for case in cases:
        cold = _pairs(*case)
        labelled = len(edits)
        assert _read(*case) == cold, case
        read += len(cold) - (len(edits) - labelled)
        cs, cap = case
        assert _first_occurrences(cold) == _first_occurrences(
            full_listing(_from_canonical(cs), cap))
    # results read from records rather than labelled, pinned
    assert read == 19176


def test_down_moves_that_empty_a_circuit_read_their_record():
    # undoing a free-loop curl, the join of two free loops or a free loop
    # folded through a handle empties a circuit back into a free loop
    start = canonical_string(Diagram((), (), (), (), free_loops=2))
    for where in (("loop", 0), ("loops", 0, 1), ("loopself", 0)):
        clear_memos()
        up = [(site, cs) for site, cs in _read(start, 2) if site.where == where]
        assert up
        for cs in sorted({cs for _, cs in up}):
            store = vlink.search._undone
            records = [key for key, back in store.items() if key[0] == cs and back == start]
            assert records
            pairs = _read(cs, 2)
            assert pairs == _pairs(cs, 2)
            assert not any(key in store for key in records)
            assert start in [cs2 for site, cs2 in pairs if site.kind in ("R1-", "R2-")]


def test_unreplayable_path_raises(monkeypatch):
    monkeypatch.setattr(vlink.search, "_replay", lambda *args: False)
    with pytest.raises(SearchError, match="failed to replay"):
        equivalent(KINK, UNKNOT, SearchBounds(max_crossings=3, max_states=4000))


def test_replay_rejects_steps_apply_move_rejects(monkeypatch):
    # each step goes through apply_move: a step it rejects fails the
    # replay, without raising, where the step it repeats replays
    start = canonical_string(TREFOIL)
    rep = _from_canonical(start)
    push = next(s for s in enumerate_moves(rep, {"R2+"}) if len(set(s.where)) == 2)
    x, y = push.where
    mirror = MoveSite("R2+", (y, x), "under" if push.variant == "over" else "over")
    after = canonical_string(_apply_unchecked(rep, push))
    assert canonical_string(_apply_unchecked(rep, mirror)) == after
    assert _replay(start, [(push, after)], after)
    assert not _replay(start, [(mirror, after)], after)

    kink, unknot = canonical_string(KINK), canonical_string(UNKNOT)
    assert _replay(kink, [(MoveSite("R1-", (0,)), unknot)], unknot)
    stale = MoveSite("R1-", (1,))  # the kink has one crossing
    assert not _replay(kink, [(stale, unknot)], unknot)
    # a step that applies but reaches another state than it names
    assert not _replay(kink, [(MoveSite("R1-", (0,)), kink)], kink)

    loops = canonical_string(Diagram((), (), (), (), free_loops=2))
    curl = MoveSite("R1+", ("loop", 0), "lo")
    after = canonical_string(apply_move(_from_canonical(loops), curl))
    assert _replay(loops, [(curl, after)], after)
    assert not _replay(loops, [(MoveSite("R1+", ("loop", 1), "lo"), after)], after)

    # a malformed site fails without raising, and is not recorded: one
    # that cannot be a key, one of an unknown kind and one whose place has
    # the wrong length
    recorded = list(vlink.search._replayed.items())
    for site in (MoveSite("R1-", [0]), MoveSite("R9", (0,)), MoveSite("R1-", (0, 0))):
        assert not _replay(kink, [(site, unknot)], unknot)
    assert list(vlink.search._replayed.items()) == recorded

    # so does a result apply_move finds invalid; a recorded step is not
    # applied again, so the step is replayed cold
    broken = Diagram(KINK.rotations, KINK.edge_pair, ((0, 1),), KINK.inbound, 0)
    monkeypatch.setattr(vlink.moves, "_apply_unchecked", lambda d, s: broken)
    clear_memos()
    assert not _replay(kink, [(MoveSite("R1-", (0,)), unknot)], unknot)


def _walk(d: Diagram, kinds) -> tuple[str, list]:
    """A path from ``d``'s state: per kind, the first listed site that
    reaches a state the path has not visited, applied by apply_move."""
    cs = start = canonical_string(d)
    path, seen = [], {cs}
    for kind in kinds:
        rep = _from_canonical(cs)
        site, cs = next((site, cs2) for site in enumerate_moves(rep, {kind})
                        for cs2 in [canonical_string(apply_move(rep, site))] if cs2 not in seen)
        seen.add(cs)
        path.append((site, cs))
    return start, path


def test_a_replayed_path_is_not_applied_again(monkeypatch):
    start, path = _walk(TREFOIL, ("R2+", "R1+", "R2-"))
    end = path[-1][1]
    clear_memos()
    applied = _counted(monkeypatch, "apply_move")
    assert _replay(start, path, end) and len(applied) == 3
    applied.clear()
    assert _replay(start, path, end) and applied == []
    # a path that leaves off its last step ends elsewhere
    assert not _replay(start, path[:-1], end) and applied == []


def test_mutated_paths_fail_while_the_steps_are_recorded():
    # a step naming another state (the middle one, or the last one and
    # the end with it), one step dropped and two steps swapped: each is
    # refused cold, records no step it refused, and is refused again once
    # the genuine path has been replayed and recorded
    start, path = _walk(TREFOIL, ("R2+", "R1+", "R2-"))
    end = path[-1][1]
    mutants = (
        ([path[0], (path[1][0], path[0][1]), path[2]], end),
        ([path[0], path[1], (path[2][0], path[0][1])], path[0][1]),
        ([path[0], path[2]], end),
        ([path[0], path[2], path[1]], end),
    )
    states = [start] + [cs for _, cs in path]
    genuine = {((states[i], site), cs) for i, (site, cs) in enumerate(path)}
    clear_memos()
    for _ in range(2):
        assert not any(_replay(start, mutant, mutant_end) for mutant, mutant_end in mutants)
        assert set(vlink.search._replayed.items()) <= genuine
    assert _replay(start, path, end)
    assert set(vlink.search._replayed.items()) == genuine
    assert not any(_replay(start, mutant, mutant_end) for mutant, mutant_end in mutants)
    assert _replay(start, path, end)


def test_replayed_steps_drop_the_oldest_first(monkeypatch):
    start, path = _walk(TREFOIL, ("R2+", "R1+", "R2-"))
    monkeypatch.setattr(vlink.search, "_REPLAYED_SIZE", 2)
    clear_memos()
    assert _replay(start, path, path[-1][1])
    states = [start] + [cs for _, cs in path]
    assert list(vlink.search._replayed.items()) == [
        ((states[i], site), cs) for i, (site, cs) in enumerate(path)][1:]


def test_broken_edit_raises_before_it_is_labelled(monkeypatch):
    # every edited code is checked: here crossing 0 occurs twice as O
    def broken(d, site):
        rows, free_loops = real(d, site)
        return [[(v, "O", sgn) for v, _, sgn in row] for row in rows], free_loops

    real = vlink.search._edit
    monkeypatch.setattr(vlink.search, "_edit", broken)
    clear_memos()
    try:
        with pytest.raises(DiagramError, match="invalid signed Gauss code"):
            orbit(KINK, SearchBounds(max_crossings=3, max_states=100))
    finally:
        clear_memos()


def test_backward_step_without_inverse_raises(monkeypatch):
    # a move set without curls on diagrams that have crossings: the
    # backward search reaches KINK from DOUBLED by R1-, and no move of
    # KINK's listing leads back
    real = vlink.search.enumerate_moves
    monkeypatch.setattr(vlink.search, "enumerate_moves", lambda rep, kinds: [
        site for site in real(rep, kinds) if site.kind != "R1+" or not rep.n_vertices])
    clear_memos()
    try:
        with pytest.raises(SearchError, match="no inverse"):
            equivalent(UNKNOT, DOUBLED, SearchBounds(max_crossings=3, max_states=4000))
    finally:
        clear_memos()


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
    # the report order: components, one row per quandle in the caller's
    # order, then f_poly
    assert tuple(t1) == ("components", "colorings[R3]", "colorings[R5]", "f_poly")
    r3, r5 = dihedral_quandle(3), dihedral_quandle(5)
    names = tuple(name for name, _ in invariant_table(TREFOIL, (("R5", r5), ("R3", r3))))
    assert names == ("components", "colorings[R5]", "colorings[R3]", "f_poly")


def test_invariant_table_refuses_before_any_row(monkeypatch):
    # the state-sum cap is checked once, before any row is computed; an
    # invalid map is refused first, whatever its size
    def fail(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(vlink.search, "quandle_colorings", fail)
    monkeypatch.setattr(vlink.search, "f_poly", fail)
    torus = to_diagram(parse_gauss(" ".join(f"{'OU'[k % 2]}{k % 21 + 1}+" for k in range(42))))
    with pytest.raises(StateSumLimitError, match="^21 crossings exceeds the state-sum cap 20$"):
        invariant_table(torus)
    broken = Diagram(torus.rotations, torus.edge_pair, (), torus.inbound)
    with pytest.raises(DiagramError):
        invariant_table(broken)


def test_classify_refuses_above_the_state_sum_cap_before_labelling(monkeypatch):
    # the cap is checked with the bounds, before any member is labelled;
    # of several members above it, the first in corpus order is named
    def torus(n):
        return to_diagram(parse_gauss(" ".join(f"{'OU'[k % 2]}{k % n + 1}+"
                                               for k in range(2 * n))))

    labelled = _counted(monkeypatch, "canonical_string")
    with pytest.raises(StateSumLimitError, match="^21 crossings exceeds the state-sum cap 20$"):
        classify_corpus([UNKNOT, torus(21)], SearchBounds(21, max_states=10))
    assert labelled == []
    with pytest.raises(StateSumLimitError, match="^23 crossings exceeds"):
        classify_corpus([UNKNOT, torus(23), torus(21)], SearchBounds(23, max_states=10))
    assert labelled == []


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


def test_minimize_many_free_loops_is_fast():
    # a state's listing grows linearly with its free loops
    d = Diagram((), (), (), (), free_loops=MAX_FREE_LOOPS)
    clear_memos()
    start = time.perf_counter()
    res = minimize(d, SearchBounds(max_crossings=2, max_states=None))
    assert time.perf_counter() - start < 2
    assert res.certified and res.explored == 19 and res.witness == d


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


def test_classify_reuses_successors_of_overlapping_orbits(monkeypatch):
    # the unknot's closed orbit is the kink's: a later classify takes it
    # from the kept orbits, so it builds no listing and labels nothing,
    # and it reports what a cold classify reports
    bounds = SearchBounds(max_crossings=3, max_states=200)
    clear_memos()
    cold = classify_corpus([KINK, DOUBLED], bounds)
    clear_memos()
    classify_corpus([UNKNOT, VT], bounds)
    built, labels = _counted(monkeypatch, "_listing"), _counted(monkeypatch, "_label")
    assert classify_corpus([KINK, DOUBLED], bounds) == cold
    assert built == [] and labels == []


def _minimized(d: Diagram, bounds: SearchBounds) -> tuple:
    m = minimize(d, bounds)
    return canonical_string(m.witness), m.total_genus, m.crossings, m.certified, m.explored


def test_kept_orbits_change_no_minimize(monkeypatch, corpus_v3):
    # each member searched cold, with no orbit kept, against each member
    # in turn with the orbits earlier members closed
    bounds = SearchBounds(4)
    clear_memos()
    with monkeypatch.context() as m:
        m.setattr(vlink.search, "_CLOSED_SIZE", 0)
        cold = [_minimized(d, bounds) for d in corpus_v3]
    assert not vlink.search._closed
    runs = []
    real = vlink.search._Search.run
    monkeypatch.setattr(vlink.search._Search, "run", lambda self: runs.append(self) or real(self))
    assert [_minimized(d, bounds) for d in corpus_v3] == cold
    # one search per closed orbit: the pinned V<=3 report's 275 classes
    assert len(runs) == 275


def test_each_state_is_parsed_once(monkeypatch):
    # a state's listing reads its rank and its successors from one parse;
    # minimize's one further parse rebuilds the witness.  classify's
    # replays parse each step's state once: the doubled kink's path
    # repeats the unknot-to-kink step the kink's path verified
    calls = []
    real = vlink.search._from_canonical
    monkeypatch.setattr(vlink.search, "_from_canonical", lambda cs: calls.append(cs) or real(cs))
    clear_memos()
    m = minimize(DOUBLED, SearchBounds(4, max_states=300))
    assert len(calls) == m.explored + 1 == 301
    calls.clear()
    clear_memos()
    classify_corpus([UNKNOT, KINK, DOUBLED], SearchBounds(3, max_states=200))
    assert len(calls) == 119


def test_each_state_is_listed_once_when_the_memo_evicts(monkeypatch):
    # a search reads each state's rank from the representative it lists
    # the state from, so it lists and parses each explored state once,
    # and minimize parses once more the witness; classify lists and parses
    # its three closed orbits' states once each, and parses each step it
    # replays once
    built = _counted(monkeypatch, "_listing")
    parses = _counted(monkeypatch, "_from_canonical")
    clear_memos()
    m = minimize(UNKNOT, SearchBounds(4, max_states=None))
    assert m.certified and len(built) == m.explored == 1531 and len(parses) == 1532
    assert len({cs for _, cs, _ in built}) == len(built)
    clear_memos()
    built.clear()
    parses.clear()
    search, _ = _minimal_orbit(DOUBLED, SearchBounds(4, max_states=300))
    assert search.budget.truncated and len(parses) == len(search.parents) == 300
    assert len(built) == len({cs for _, cs, _ in built}) == 300 - len(search.frontier)
    clear_memos()
    built.clear()
    parses.clear()
    classify_corpus([UNKNOT, KINK, DOUBLED], SearchBounds(4, max_states=1000))
    assert len(parses) == 1002 and len(built) == len({cs for _, cs, _ in built})


def test_ranking_an_unlisted_state_builds_no_listing(monkeypatch):
    # a truncated search ranks the states it reached but never listed from
    # their representatives: it builds listings only of the states it read
    built = _counted(monkeypatch, "_listing")
    clear_memos()
    search, rank = _minimal_orbit(UNKNOT, SearchBounds(4, max_states=50))
    assert search.frontier
    assert len(built) == len(search.parents) - len(search.frontier)
    assert not {cs for _, cs, _ in built} & set(search.frontier)
    best, g, v, _, _ = naive_minimize(search.parents, True)
    assert rank == (g, v, best)


def test_classify_merges_when_orbits_meet():
    bounds = SearchBounds(max_crossings=3, max_states=10)
    # the unknot's truncated orbit lacks the doubled kink; the two orbits meet
    assert canonical_string(DOUBLED) not in orbit(UNKNOT, bounds).states
    report = classify_corpus([DOUBLED, UNKNOT], bounds)
    assert report.classes == ((canonical_string(UNKNOT), canonical_string(DOUBLED)),)
    assert report.unresolved == ()
    assert report.witnesses == ((canonical_string(UNKNOT), canonical_string(UNKNOT)),)


def test_classify_joins_through_the_paths_of_a_merged_class():
    # among the three diagrams with f_poly 1, the second's orbit meets the
    # first's and the two classes merge; the third's orbit meets only states
    # the absorbed class brought, so it joins through that class's paths
    corpus = [to_diagram(parse_gauss(text)) for text in (
        "O1+ U2- U3- O2- O3- U1+", "O1+ U1+ U2- U3- O2- O3-", "O1+ O2+ U3+ O3+ U1+ U2+",
        "O1+ U1+ O2+ U3+ O3+ U2+", "O1+ O2+ U2+ O3+ U3+ U1+", "O1+ O2+ O3- U2+ U3- U1+")]
    report = classify_corpus(corpus, SearchBounds(4, max_states=30))
    assert len(report.classes) == 3
    assert report.unresolved == ()
    assert report.to_text().endswith("unresolved: none\nviolations: none")


def test_classify_report_of_the_v3_corpus_at_cap_4(corpus_v3):
    # the whole report, pinned: classes, witnesses, invariants, unresolved
    # pairs and violations; computed cold and then again with every orbit
    # and table kept
    clear_memos()
    report = classify_corpus(corpus_v3, SearchBounds(4, max_states=60000))
    assert (len(report.classes), len(report.unresolved), report.explored) == (275, 684, 21853)
    assert report.violations == ()
    assert hashlib.sha256(report.to_text().encode()).hexdigest() == (
        "4608a0f88cf8e62a16f6226a9d9a541af6c4f27e16abb7f6a735b0ecaf2c0f77")
    assert classify_corpus(corpus_v3, SearchBounds(4, max_states=60000)) == report


def test_kept_tables_change_no_table(corpus_v3):
    # cold, each table computed on an empty memo; warm, read for a
    # relabelled copy of each diagram
    clear_memos()
    cold = [invariant_table(d) for d in corpus_v3]
    assert len(vlink.search._tables) == len(corpus_v3)
    warm = [invariant_table(relabel(d, list(range(d.n_vertices))[::-1])) for d in corpus_v3]
    assert warm == cold and len(vlink.search._tables) == len(corpus_v3)


def test_a_kept_orbit_is_read_only_by_searches_it_answers():
    # a search whose budget could stop it before the orbit closes searches
    # as it would with nothing kept, and truncates; a budget that admits
    # the whole orbit reads it
    full = SearchBounds(3, max_states=None)
    clear_memos()
    n = minimize(KINK, full).explored
    for bounds in (SearchBounds(3, max_states=n - 1), SearchBounds(3, max_depth=1, max_states=None)):
        assert (canonical_string(DOUBLED), 3) in vlink.search._closed
        warm = _minimized(DOUBLED, bounds)
        clear_memos()
        assert _minimized(DOUBLED, bounds) == warm and not warm[3]
        minimize(KINK, full)
    search, rank = _minimal_orbit(DOUBLED, SearchBounds(3, max_states=n))
    assert search.parents[canonical_string(DOUBLED)] is not None  # read, from the kink's search
    assert (len(search.parents), search.frontier) == (n, [])
    assert rank == _minimal_orbit(KINK, full)[1]
    # the memo keeps and hands out copies: a caller that edits its
    # parents, as classify_corpus edits a class's paths, changes no entry
    clear_memos()
    _minimal_orbit(KINK, full)[0].parents.clear()
    _minimal_orbit(DOUBLED, full)[0].parents.clear()
    assert len(_minimal_orbit(DOUBLED, full)[0].parents) == n


def test_classify_reports_one_unresolved_pair_per_class_pair():
    bounds = SearchBounds(max_crossings=3, max_states=1)
    report = classify_corpus([UNKNOT, KINK, DOUBLED], bounds)
    reps = [cls[0] for cls in report.classes]
    assert len(reps) == 3
    assert report.unresolved == tuple(itertools.combinations(reps, 2))
    lines = report.to_text().splitlines()
    assert lines[lines.index("unresolved:"):] == [
        "unresolved:", "  * ~? O1+ U1+", "  * ~? O1+ U1+ O2+ U2+",
        "  O1+ U1+ ~? O1+ U1+ O2+ U2+", "violations: none"]


def test_classify_merge_that_fails_to_replay_raises(monkeypatch):
    monkeypatch.setattr(vlink.search, "_replay", lambda *args: False)
    bounds = SearchBounds(max_crossings=3, max_states=10)
    assert len(classify_corpus([UNKNOT, TREFOIL], bounds).classes) == 2
    # a merge by containment, then one by meeting orbits
    for corpus in ([UNKNOT, KINK], [UNKNOT, DOUBLED]):
        with pytest.raises(SearchError, match="failed to replay"):
            classify_corpus(corpus, bounds)


def test_classify_replays_a_kept_orbit_from_its_start(monkeypatch):
    # the doubled kink's class takes the orbit the kink's search kept:
    # its paths lead back to the kink, so the path from the kink to the
    # doubled kink is replayed first, and a failed replay raises
    bounds = SearchBounds(max_crossings=3, max_states=200)
    clear_memos()
    assert minimize(KINK, bounds).certified
    report = classify_corpus([DOUBLED], bounds)
    assert report.witnesses == ((canonical_string(DOUBLED), canonical_string(UNKNOT)),)
    monkeypatch.setattr(vlink.search, "_replay", lambda *args: False)
    with pytest.raises(SearchError, match="failed to replay"):
        classify_corpus([DOUBLED], bounds)


def _scrambled(rng: random.Random, d: Diagram, cap: int) -> Diagram:
    """``d`` after 3 random moves, each applied by apply_move and each
    result within ``cap`` crossings."""
    for _ in range(3):
        kinds = sorted(k for k, growth in _GROWTH.items() if d.n_vertices + growth <= cap)
        sites = []
        while not sites:
            sites = enumerate_moves(d, {rng.choice(kinds)})
        d = apply_move(d, rng.choice(sites))
    return d


def test_recorded_steps_change_no_classify_report(monkeypatch):
    # seeded clusters of a base of at most 2 crossings, two scrambled
    # copies of it and a random decoy, at cap 3: each classified with
    # every memo cleared first, and then in turn with the memos kept
    rng = random.Random(3601)
    corpora = []
    for _ in range(24):
        base = random_diagram(rng, max_v=2, max_comps=2, max_loops=1)
        copies = [_scrambled(rng, base, 3) for _ in range(2)]
        corpora.append([base, *copies, random_diagram(rng, max_v=2, max_comps=2, max_loops=1)])
    bounds = SearchBounds(3, max_states=500)
    applied = _counted(monkeypatch, "apply_move")
    cold = []
    for corpus in corpora:
        clear_memos()
        cold.append(classify_corpus(corpus, bounds))
    n_cold = len(applied)
    clear_memos()
    applied.clear()
    assert [classify_corpus(corpus, bounds) for corpus in corpora] == cold
    assert 0 < len(applied) < n_cold
    for corpus, report in zip(corpora, cold):
        base, *copies, _ = (canonical_string(d) for d in corpus)
        assert any({base, *copies} <= set(cls) for cls in report.classes)


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
