"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Everything is exact
integer/string arithmetic; there are no tolerances anywhere.
"""

import hashlib
import random
import time

import pytest

from vlink.codec import emit_gauss, from_diagram, parse_gauss, to_diagram
from vlink.diagram import UNKNOT, canonical_string, relabel, stats, validate
from vlink.invariants import LaurentPoly, bracket
from vlink.moves import ALL_KINDS, PLAIN_KINDS, _apply_unchecked, enumerate_moves
from vlink.search import (
    SearchBounds, equivalent, invariant_rows, invariant_table, minimize, orbit,
)
from vlink.surface import genus

from helpers import all_connected_diagrams, random_diagram
from oracles import every_site, naive_bracket, naive_faces

TREFOIL = to_diagram(parse_gauss("O1+ U2+ O3+ U1+ O2+ U3+"))
VT = to_diagram(parse_gauss("O1+ O2+ U1+ U2+"))

# crossing-count mix for the random corpus: heavy at small sizes, with a
# tail out to the stated V=8 cap so every size is exercised; calibrated
# so the full per-site invariance sweep stays inside the runtime budget
SIZE_MIX = {0: 60, 1: 350, 2: 355, 3: 170, 4: 40, 5: 15, 6: 6, 7: 2, 8: 2}


def _diagram_with_v(rng, v):
    if v == 0:
        return UNKNOT
    while True:
        d = random_diagram(rng, max_v=v, max_comps=3, max_loops=1)
        if d.n_vertices == v:
            return d


@pytest.fixture(scope="session")
def random_corpus():
    rng = random.Random(20240551)
    corpus = []
    for v, count in SIZE_MIX.items():
        corpus.extend(_diagram_with_v(rng, v) for _ in range(count))
    return corpus


@pytest.fixture(scope="session")
def exhaustive_corpus():
    return all_connected_diagrams(3)


CAP4 = SearchBounds(max_crossings=4, max_states=60000)


@pytest.fixture(scope="session")
def cap4_orbits(exhaustive_corpus):
    """The cap-4 orbits of the exhaustive corpus, each searched once, from
    its first member in corpus order."""
    seen: set[str] = set()
    orbits = []
    for d in exhaustive_corpus:
        if canonical_string(d) not in seen:
            res = orbit(d, CAP4)
            seen.update(res.states)
            orbits.append(res)
    return orbits


@pytest.mark.slow
def test_criterion_1_move_invariance(random_corpus):
    """Every row of ``invariant_rows`` unchanged by every move site, repeats
    included; bracket changes by exactly -A^(+-3) under R1."""
    t0 = time.time()
    minus_a3 = {1: LaurentPoly.monomial(3, -1), -1: LaurentPoly.monomial(-3, -1)}
    rows = invariant_rows()
    n_sites = 0
    for k, d in enumerate(random_corpus):
        values = [value(d) for _, value in rows]
        b0 = bracket(d)
        w0 = stats(d).writhe
        # the genus-changing stabilizations are swept too, on the sizes
        # where their quadratic site count stays cheap
        kinds = ALL_KINDS if k % 9 == 0 and d.n_vertices <= 3 else PLAIN_KINDS
        for site in every_site(d, kinds):
            d2 = _apply_unchecked(d, site)
            n_sites += 1
            for (name, value), v0 in zip(rows, values):
                assert value(d2) == v0, (name, canonical_string(d), site)
            if site.kind in ("R1+", "R1-"):
                dw = stats(d2).writhe - w0
                assert abs(dw) == 1
                assert bracket(d2) == minus_a3[dw] * b0, (canonical_string(d), site)
    assert len(random_corpus) >= 1000
    print(f"\ncriterion 1: PASS - {len(random_corpus)} diagrams, {n_sites} move sites, "
          f"{', '.join(name for name, _ in rows)} unchanged, R1 factor exact "
          f"({time.time()-t0:.0f}s)")


def test_criterion_2_euler_identity(random_corpus):
    """V - E + F = 2 - 2g per surface component, exactly."""
    checked = 0
    for d in random_corpus:
        faces = naive_faces(d)
        vertex = {x: v for v, rot in enumerate(d.rotations) for x in rot}
        per = genus(d).per_component
        assert per[len(d.graph_components):] == (0,) * d.free_loops
        for comp, g in zip(d.graph_components, per):
            vset = set(comp)
            v = len(comp)
            e = 2 * v
            f = sum(1 for face in faces if vertex[face[0]] in vset)
            assert v - e + f == 2 - 2 * g
            checked += 1
    print(f"\ncriterion 2: PASS - Euler identity exact on {checked} surface components")


def test_criterion_3_genus_facts():
    assert genus(TREFOIL).total == 0
    assert genus(VT).total == 1
    print("\ncriterion 3: PASS - trefoil genus 0, virtual trefoil genus 1")


def _check_orbit_consistency(states, bounds, minimize_budget):
    """(a) identical invariants across the orbit; (b) identical minimize
    witness from every member (all members when the orbit is small,
    else a deterministic sample)."""
    ordered = sorted(states)
    table0 = invariant_table(to_diagram(parse_gauss(ordered[0])))
    for cs in ordered[1:]:
        assert invariant_table(to_diagram(parse_gauss(cs))) == table0, \
            f"invariant mismatch inside an orbit at {cs!r}"
    if len(ordered) <= minimize_budget:
        members = ordered
    else:
        stride = len(ordered) // minimize_budget
        members = ordered[::stride][:minimize_budget]
    witnesses = set()
    for cs in members:
        res = minimize(to_diagram(parse_gauss(cs)), bounds)
        assert res.certified
        witnesses.add(canonical_string(res.witness))
    assert len(witnesses) == 1, f"minimize witness differs across orbit: {witnesses}"
    return len(members)


@pytest.mark.slow
def test_criterion_4_unique_representative_consistency(cap4_orbits):
    """Unique-representative consistency: within every fully closed orbit,
    all members share invariants and the same minimal witness.

    Part 1 covers the whole exhaustive connected V<=3 corpus at crossing
    cap 4, where every orbit closes.  Part 2 runs the stated cap of 5 on
    representative seeds (the cap-5 classes run to tens of thousands of
    states, so witness re-derivation there is sampled)."""
    t0 = time.time()
    n_orbits, n_closed, n_members_checked = len(cap4_orbits), 0, 0
    largest = 0
    for res in cap4_orbits:
        if res.truncated:
            continue
        n_closed += 1
        largest = max(largest, res.explored)
        n_members_checked += _check_orbit_consistency(
            res.states, CAP4, minimize_budget=6 if res.explored <= 120 else 3)
    assert n_closed == n_orbits, "every cap-4 orbit of the corpus should close"
    assert n_closed >= 100 and largest >= 1000
    n_states = len(frozenset().union(*(res.states for res in cap4_orbits)))
    part1 = time.time() - t0

    t0 = time.time()
    bounds5 = SearchBounds(max_crossings=5, max_states=60000)
    part2_members = 0
    # each closed cap-5 orbit: its size and the SHA-256 of its sorted states
    pinned = [
        (UNKNOT, 26217, "ae765d2056df6c337c0ff22e5c6b323449f4d0b96ac50621ce2fff2025a04a41"),
        (VT, 7403, "05b0cae10b6cf1e24c279dfbcced22689b769cae07641ab10bedb19743b3dc31"),
        (TREFOIL, 216, "ace7c161833f0c7662b430fd00a8d4631517614509def94618be4d1763e01c42"),
    ]
    for seed, size, digest in pinned:
        res = orbit(seed, bounds5)
        assert not res.truncated, "cap-5 seed orbit failed to close"
        assert len(res.states) == size
        assert hashlib.sha256("\n".join(sorted(res.states)).encode()).hexdigest() == digest
        part2_members += _check_orbit_consistency(
            res.states, bounds5, minimize_budget=4 if res.explored <= 2000 else 2)
    print(f"\ncriterion 4: PASS - cap-4: {n_closed} closed orbits over "
          f"{n_states} states (largest {largest}), witnesses re-derived from "
          f"{n_members_checked} members ({part1:.0f}s); cap-5 seeds closed and "
          f"consistent, {part2_members} witnesses re-derived ({time.time()-t0:.0f}s)")


def test_criterion_5_classicality_separation():
    out = equivalent(TREFOIL, UNKNOT, SearchBounds(max_crossings=5, max_states=200))
    assert out.verdict == "distinguished"
    assert ("colorings[R3]", "9", "3") in out.distinguishers

    out = equivalent(VT, UNKNOT, SearchBounds(max_crossings=4, max_states=200))
    assert out.verdict == "distinguished"
    assert any(name == "f_poly" for name, _, _ in out.distinguishers)

    out = equivalent(VT, TREFOIL, SearchBounds(max_crossings=5, max_states=200))
    assert out.verdict == "distinguished"
    assert any(name == "f_poly" for name, _, _ in out.distinguishers)
    print("\ncriterion 5: PASS - trefoil/unknot split by colorings 9 vs 3; "
          "virtual trefoil split from both by f_poly")


def test_criterion_6_oracle_equivalence(random_corpus, exhaustive_corpus):
    """Production bracket == naive 2^V enumerator and production face
    tracer == naive permutation-orbit tracer, on every corpus diagram."""
    from vlink.surface import trace_faces

    t0 = time.time()
    rng = random.Random(66)
    n_bracket = n_faces = n_relabel = 0
    for i, d in enumerate(random_corpus + exhaustive_corpus):
        if d.n_vertices <= 10:
            expected = naive_bracket(d)
            assert bracket(d) == expected, canonical_string(d)
            n_bracket += 1
            if d.n_vertices and i % 9 == 0:
                # a shuffled vertex numbering changes the greedy frontier order
                order = list(range(d.n_vertices))
                rng.shuffle(order)
                assert bracket(relabel(d, order)) == expected, canonical_string(d)
                n_relabel += 1
        assert trace_faces(d) == naive_faces(d), canonical_string(d)
        n_faces += 1
    print(f"\ncriterion 6: PASS - bracket vs naive enumerator on {n_bracket} diagrams "
          f"(shuffled relabels cross-checked on {n_relabel}), faces vs naive tracer on "
          f"{n_faces} ({time.time()-t0:.0f}s)")


def test_criterion_7_round_trips():
    from helpers import random_code_text

    t0 = time.time()
    rng = random.Random(777)
    n_codes = 0
    while n_codes < 10000:
        text = random_code_text(rng, max_v=6, max_comps=3, max_loops=2)
        if not text:
            continue
        n_codes += 1
        code = parse_gauss(text)
        assert parse_gauss(emit_gauss(code)) == code
        d = to_diagram(code)
        assert canonical_string(to_diagram(from_diagram(d))) == canonical_string(d)

    n_cancelled = 0
    inverse_of = {"R1+": {"R1-"}, "R2+": {"R2-"}, "R2+stab": {"R2-"}}
    while n_cancelled < 1000:
        d = random_diagram(rng, max_v=5)
        cs = canonical_string(d)
        sites = [s for s in enumerate_moves(d, {"R1+", "R2+", "R2+stab"})]
        if not sites:
            continue
        for site in rng.sample(sites, min(4, len(sites))):
            d2 = _apply_unchecked(d, site)
            assert validate(d2) == []
            undone = {canonical_string(_apply_unchecked(d2, t))
                      for t in enumerate_moves(d2, inverse_of[site.kind])}
            assert cs in undone, (cs, site)
            n_cancelled += 1
    print(f"\ncriterion 7: PASS - {n_codes} code round trips, "
          f"{n_cancelled} move/inverse cancellations ({time.time()-t0:.0f}s)")
