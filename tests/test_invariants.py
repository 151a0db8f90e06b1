import random

import pytest

from vlink.codec import parse_gauss, to_diagram
from vlink.diagram import EMPTY, UNKNOT, disjoint_union, mirror, relabel, stats
from vlink.invariants import (
    DELTA,
    LaurentPoly,
    Quandle,
    StateSumLimitError,
    _delta_power,
    bracket,
    check_quandle,
    dihedral_quandle,
    f_poly,
    load_quandle,
    quandle_colorings,
    trivial_quandle,
)
from vlink.moves import ALL_KINDS, _apply_unchecked, enumerate_moves
from vlink.search import invariant_rows

from helpers import all_connected_diagrams, random_diagram, random_diagrams
from oracles import linear_colorings, map_mirror, naive_bracket, naive_colorings

TREFOIL = to_diagram(parse_gauss("O1+ U2+ O3+ U1+ O2+ U3+"))
VT = to_diagram(parse_gauss("O1+ O2+ U1+ U2+"))
KINK_POS = to_diagram(parse_gauss("O1+ U1+"))
KINK_NEG = to_diagram(parse_gauss("O1- U1-"))
KNOT_13 = to_diagram(parse_gauss(
    "U2- O13+ U4+ U13+ O2- U7- O3+ U5- U3+ U1+ O11+ U9+ O12- "
    "U10+ O10+ O9+ U6- O5- O7- O4+ O6- U12- U8+ U11+ O1+ O8+"))
KNOT_10A = to_diagram(parse_gauss(
    "U6- U3- O2+ O3- O10+ U1- O8- U2+ O1- O6- U9- U4- U5- O4- U10+ O5- O7+ U8- O9- U7+"))
KNOT_10B = to_diagram(parse_gauss(
    "O6- O10- U3- O8- O4+ U1- U5+ O5+ U4+ O2+ U6- O1- U10- O3- U2+ U7- O7- U8- O9- U9-"))
# the first 14-crossing bracket knot of perfbench/invariants_pool.json, whose
# brackets come from the 2^V oracle
KNOT_14 = to_diagram(parse_gauss(
    "O4+ O1+ O13- U7- O2- U6+ O10+ U5- O6+ U4+ U2- U8+ U12+ O7- O11- U10+ U3+ U1+ "
    "U11- U9+ O14- O3+ O8+ O9+ U13- O5- U14- O12+"))
KNOT_14_BRACKET = LaurentPoly((
    (-14, 1), (-12, 1), (-10, -1), (-8, -7), (-6, -27), (-4, -34), (-2, 5), (0, 58),
    (2, 59), (4, 8), (6, -28), (8, -23), (10, -7), (12, -3), (14, -1)))
R3Q = dihedral_quandle(3)
R5Q = dihedral_quandle(5)


def alexander_quandle(p: int, t: int) -> Quandle:
    """x <| y = t*x + (1-t)*y mod p."""
    return Quandle(tuple(tuple((t * x + (1 - t) * y) % p for y in range(p))
                         for x in range(p)))


# not involutory, so it tells the backward deduction from a forward one
A52 = alexander_quandle(5, 2)
LINEAR = ((3, -1), (5, -1), (5, 2))


def torus_2(n: int):
    """The (2, n) torus knot, n odd, as an alternating positive diagram."""
    return to_diagram(parse_gauss(
        " ".join(f"{'OU'[k % 2]}{k % n + 1}+" for k in range(2 * n))))


def random_knots(seed: int, count: int, lo: int, hi: int):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        v = rng.randint(lo, hi)
        d = random_diagram(rng, max_v=v, max_comps=1, max_loops=0)
        if d.n_vertices == v:
            out.append(d)
    return out


# -- Laurent polynomials ----------------------------------------------------


def test_poly_ring_basics():
    a = LaurentPoly.monomial(1)
    one = LaurentPoly.one()
    assert a * a.substitute_inverse() == one
    assert (a + (-a)).is_zero()
    assert (a + one) * (a - one) == a * a - one
    assert DELTA ** 0 == one


def test_poly_text_format():
    p = LaurentPoly.from_dict({-5: -1, -1: 2, 3: -1})
    assert str(p) == "-A^-5 + 2*A^-1 - A^3"
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly.one()) == "1"
    assert str(LaurentPoly.monomial(1)) == "A"
    assert str(LaurentPoly.monomial(-1, -3)) == "-3*A^-1"


# -- bracket and f ----------------------------------------------------------


def test_bracket_unknot_and_kinks():
    assert bracket(UNKNOT) == LaurentPoly.one()
    assert bracket(EMPTY) == LaurentPoly.one()
    assert bracket(KINK_POS) == LaurentPoly.monomial(3, -1)
    assert bracket(KINK_NEG) == LaurentPoly.monomial(-3, -1)


def test_bracket_matches_naive_enumerator():
    for d in random_diagrams(21, 50, max_v=6):
        assert bracket(d) == naive_bracket(d)
    for d in (TREFOIL, VT, KINK_POS, KINK_NEG):
        assert bracket(d) == naive_bracket(d)
    # above the size where the bracket once switched engines; shuffled
    # vertex numberings change the greedy frontier order
    expected = naive_bracket(KNOT_13)
    assert bracket(KNOT_13) == expected
    rng = random.Random(13)
    for _ in range(4):
        order = list(range(KNOT_13.n_vertices))
        rng.shuffle(order)
        assert bracket(relabel(KNOT_13, order)) == expected


def test_bracket_of_a_pinned_14_crossing_knot():
    assert bracket(KNOT_14) == KNOT_14_BRACKET
    rng = random.Random(14)
    for _ in range(4):
        order = list(range(KNOT_14.n_vertices))
        rng.shuffle(order)
        assert bracket(relabel(KNOT_14, order)) == KNOT_14_BRACKET


def test_bracket_packing_holds_the_widest_digit():
    # 20 kinks, at the state-sum cap: the digit of 10 A-smoothings (and 30
    # closed circles) counts C(20, 10) = 184,756 states, which needs 18 bits
    kinks = to_diagram(parse_gauss(" / ".join(f"O{i}+ U{i}+" for i in range(1, 21))))
    assert kinks.n_vertices == 20
    assert bracket(kinks) == DELTA ** 19 * LaurentPoly.monomial(3, -1) ** 20


def test_delta_power_expands_by_binomials():
    for k in range(61):
        assert _delta_power(k) == DELTA ** k, k


def test_bracket_of_many_free_loops():
    # delta is -2 at A = 1
    loops = to_diagram(parse_gauss(" / ".join(["*"] * 1024)))
    b = bracket(loops)
    assert len(b.coeffs) == 1024 and b.coeffs[-1] == (2046, -1)
    assert sum(c for _, c in b.coeffs) == (-2) ** 1023
    assert f_poly(loops) == b


def test_bracket_mirror_substitution():
    for d in random_diagrams(22, 25, max_v=4):
        # one side through the independent enumerator; map_mirror keeps
        # the rotations, so its over-in darts are off slot 0
        for m in (mirror(d), map_mirror(d)):
            assert naive_bracket(m) == bracket(d).substitute_inverse()
            assert bracket(m) == bracket(d).substitute_inverse()


def test_bracket_disjoint_union_rule():
    rng = random.Random(14)
    for _ in range(12):
        d1 = random_diagram(rng, max_v=3)
        d2 = random_diagram(rng, max_v=3)
        assert bracket(disjoint_union(d1, d2)) == DELTA * bracket(d1) * bracket(d2)
        assert naive_bracket(disjoint_union(d1, d2)) == DELTA * bracket(d1) * bracket(d2)
    # 20 crossings, at the state-sum cap
    union = disjoint_union(KNOT_10A, KNOT_10B)
    assert union.n_vertices == 20
    assert bracket(union) == DELTA * naive_bracket(KNOT_10A) * naive_bracket(KNOT_10B)


def test_bracket_cap():
    # T(2,21): one crossing above the cap, refused by the bracket and by f
    torus = to_diagram(parse_gauss(" ".join(f"{'OU'[k % 2]}{k % 21 + 1}+" for k in range(42))))
    for engine in (bracket, f_poly):
        with pytest.raises(StateSumLimitError, match="^21 crossings exceeds the state-sum cap 20$"):
            engine(torus)


def test_f_poly_facts():
    one = LaurentPoly.one()
    assert f_poly(UNKNOT) == one
    assert f_poly(KINK_POS) == one
    assert f_poly(KINK_NEG) == one
    assert f_poly(TREFOIL) != one
    assert f_poly(TREFOIL) == LaurentPoly.from_dict({-16: -1, -12: 1, -4: 1})
    assert f_poly(VT) == LaurentPoly.from_dict({-10: -1, -6: 1, -4: 1})
    # odd, negative writhe: the sign flips and the shift is upward
    assert stats(mirror(TREFOIL)).writhe == -3
    assert f_poly(mirror(TREFOIL)) == LaurentPoly.from_dict({4: 1, 12: 1, 16: -1})


def test_f_poly_distinguishes_vt_from_all_small_classical():
    # every classical (genus-0) diagram with at most 2 crossings
    from vlink.surface import genus
    from helpers import all_connected_diagrams
    vt_f = f_poly(VT)
    seen_classical = 0
    for d in all_connected_diagrams(2):
        if genus(d).total == 0:
            seen_classical += 1
            assert f_poly(d) != vt_f
    assert seen_classical >= 3


# -- quandles ---------------------------------------------------------------


def test_quandle_axiom_checks():
    assert check_quandle(R3Q.table) == []
    assert check_quandle(trivial_quandle(4).table) == []
    bad = ((1, 0), (0, 1))  # 0 <| 0 = 1 breaks idempotence
    assert any(e.startswith("Q1") for e in check_quandle(bad))
    not_bijective = ((0, 0), (0, 1))
    assert any(e.startswith("Q2") for e in check_quandle(not_bijective))


def test_quandle_load_format():
    text = "3\n0 2 1\n2 1 0\n1 0 2\n"
    q = load_quandle(text)
    assert q == R3Q
    with pytest.raises(ValueError):
        load_quandle("2\n1 1\n0 0\n")
    for text in ("", "\n \n", "3\n0 2 1\n", "-1", "1\n0\n0 0"):
        with pytest.raises(ValueError):
            load_quandle(text)


def test_coloring_counts():
    assert quandle_colorings(TREFOIL, R3Q) == 9
    assert quandle_colorings(UNKNOT, R3Q) == 3
    assert quandle_colorings(VT, R3Q) == 3
    assert quandle_colorings(TREFOIL, R5Q) == 5
    n = 4
    q = trivial_quandle(n)
    assert quandle_colorings(TREFOIL, q) == n ** stats(TREFOIL).components
    assert quandle_colorings(disjoint_union(TREFOIL, VT), q) == n ** 2


def test_colorings_match_naive_scan():
    assert check_quandle(A52.table) == []
    assert A52.inverse != A52.table
    for d in random_diagrams(33, 30, max_v=4):
        assert quandle_colorings(d, R3Q) == naive_colorings(d, R3Q)
        assert quandle_colorings(d, A52) == naive_colorings(d, A52)
    for d in random_diagrams(34, 30, max_v=3, max_comps=3, max_loops=2):
        assert quandle_colorings(d, A52) == naive_colorings(d, A52)


def test_colorings_match_linear_oracle():
    assert alexander_quandle(3, -1) == R3Q and alexander_quandle(5, -1) == R5Q
    corpus = (all_connected_diagrams(3)
              + random_diagrams(36, 200, max_v=7, max_comps=3, max_loops=2)
              + random_knots(37, 12, 10, 16))
    for p, t in LINEAR:
        q = alexander_quandle(p, t)
        for d in corpus:
            assert quandle_colorings(d, q) == linear_colorings(d, p, t), (p, t, d)


def test_coloring_closed_forms():
    # each count below took seconds to hours for an index-order search
    # that rescanned every constraint and enumerated pieces jointly
    for n in range(13, 22, 2):
        d = torus_2(n)
        assert quandle_colorings(d, R3Q) == (9 if n % 3 == 0 else 3), n
        assert quandle_colorings(d, R5Q) == (25 if n % 5 == 0 else 5), n
    for k in (10, 40):
        d = to_diagram(parse_gauss(" / ".join(
            [f"O{i}+ U{i}+" for i in range(1, k + 1)] + ["*"] * k)))
        for q in (R3Q, R5Q, A52):
            assert quandle_colorings(d, q) == q.size ** (2 * k)


def test_colorings_at_least_n():
    for d in random_diagrams(35, 20, max_v=5):
        assert quandle_colorings(d, R3Q) >= 3
        assert quandle_colorings(d, R5Q) >= 5


def test_colorings_rejects_bad_quandle():
    with pytest.raises(ValueError):
        quandle_colorings(TREFOIL, Quandle(((1, 0), (0, 1))))


# -- move invariance spot checks (the full sweep is in acceptance) ----------


def test_move_invariance_spot():
    rng = random.Random(44)
    rows = invariant_rows()
    for _ in range(6):
        d = random_diagram(rng, max_v=4)
        values = [value(d) for _, value in rows]
        for site in enumerate_moves(d, ALL_KINDS)[:40]:
            d2 = _apply_unchecked(d, site)
            for (name, value), v0 in zip(rows, values):
                assert value(d2) == v0, (name, site)


def test_bracket_r1_factor():
    rng = random.Random(45)
    minus_a3 = LaurentPoly.monomial(3, -1)
    minus_a3_inv = LaurentPoly.monomial(-3, -1)
    for _ in range(8):
        d = random_diagram(rng, max_v=4)
        b0, w0 = bracket(d), stats(d).writhe
        for site in enumerate_moves(d, {"R1+"})[:12]:
            d2 = _apply_unchecked(d, site)
            dw = stats(d2).writhe - w0
            assert abs(dw) == 1
            factor = minus_a3 if dw == 1 else minus_a3_inv
            assert bracket(d2) == factor * b0
