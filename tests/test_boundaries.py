"""Property tests on the input boundaries: arbitrary text and JSON fail
only with the library's typed errors.

Runs are derandomized, so every run tries the same examples, and each
example has a deadline, so an input that makes a parser hang fails.
"""

import contextlib
import io
import json
import time
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlink.cli import main
from vlink.codec import (
    MAX_FREE_LOOPS,
    GaussCodeError,
    _from_canonical,
    diagram_from_json,
    dumps,
    emit_gauss,
    loads,
    parse_gauss,
    to_diagram,
)
from vlink.diagram import DiagramError
from vlink.invariants import MAX_QUANDLE_ORDER, check_quandle, dihedral_quandle, load_quandle

BOUNDARY = settings(derandomize=True, database=None, deadline=timedelta(seconds=2),
                    max_examples=300)


def biased_text(alphabet):
    """Text whose pieces are mostly items of ``alphabet`` or numbers,
    and sometimes any character."""
    piece = st.sampled_from(alphabet) | st.integers(0, 30).map(str) | st.characters()
    return st.lists(piece, max_size=24).map("".join)


# whitespace that str.isspace() knows beyond the space, and tokens with no
# space between them
SPACES_AND_ADJACENT_TOKENS = [*"\t\n\x1c\u00a0\u2028", "O1+U1+"]


@BOUNDARY
@given(biased_text([*"OU+-/* ²١", *SPACES_AND_ADJACENT_TOKENS]))
def test_parse_gauss_raises_only_gauss_code_errors(text):
    # any run of whitespace reads as one space
    spaced = " ".join(text.split())
    try:
        code = parse_gauss(text)
    except GaussCodeError:
        with pytest.raises(GaussCodeError):
            parse_gauss(spaced)
        return
    assert parse_gauss(spaced) == code
    # an accepted code round-trips and builds a valid diagram
    assert parse_gauss(emit_gauss(code)) == code
    to_diagram(code)


@BOUNDARY
@given(st.integers(MAX_FREE_LOOPS - 4, MAX_FREE_LOOPS + 6),
       st.sampled_from(["", "O1+ U1+", "O1+ U2- / U1+ O2-"]))
def test_parse_gauss_bounds_the_free_loops(loops, code):
    text = " / ".join([code] * bool(code) + ["*"] * loops)
    try:
        parsed = parse_gauss(text)
    except GaussCodeError:
        assert loops > MAX_FREE_LOOPS
        return
    assert parsed.free_loops == loops <= MAX_FREE_LOOPS


@st.composite
def code_text(draw) -> str:
    """Signed Gauss text with one space between tokens and " / " between
    components: up to four crossings, named by small and sometimes
    zero-led indices, each written once as O and once as U with one sign,
    shuffled into up to three components, plus up to two "*" components;
    in one text of four, one token is replaced by an arbitrary one."""
    names = draw(st.lists(st.sampled_from(["1", "2", "3", "4", "10", "0", "01"]), max_size=4,
                          unique=True))
    toks = [role + name + sign for name in names
            for sign in draw(st.sampled_from("+-")) for role in "OU"]
    toks = draw(st.permutations(toks))
    cuts = sorted(draw(st.sets(st.integers(1, len(toks) - 1), max_size=2))) if toks else []
    parts = [" ".join(toks[i:j]) for i, j in zip([0, *cuts], [*cuts, len(toks)]) if i < j]
    parts += ["*"] * draw(st.integers(0, 2))
    if parts and draw(st.integers(0, 3)) == 0:
        token = st.tuples(st.sampled_from("OU"), st.sampled_from(["1", "2", "0"]),
                          st.sampled_from("+-")).map("".join)
        i = draw(st.integers(0, len(parts) - 1))
        words = parts[i].split(" ")
        words[draw(st.integers(0, len(words) - 1))] = draw(token)
        parts[i] = " ".join(words)
    return " / ".join(parts)


@BOUNDARY
@given(code_text() | biased_text([*"OU+-/* 0²١", *SPACES_AND_ADJACENT_TOKENS]))
def test_from_canonical_builds_what_the_parser_builds(text):
    try:
        d = _from_canonical(text)
    except GaussCodeError:
        pass
    else:
        assert d == to_diagram(parse_gauss(text))
    try:
        code = parse_gauss(text)
    except GaussCodeError:
        return
    # the normalized text of every accepted code is read
    assert _from_canonical(emit_gauss(code)) == to_diagram(code)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=5), inner,
                                                                  max_size=5),
    max_leaves=20)
DART = st.integers(-2, 13) | JSON
PASSES = st.fixed_dictionaries({"over_in": DART, "over_out": DART,
                                "under_in": DART, "under_out": DART})
DIAGRAM_SHAPED = st.fixed_dictionaries({
    "darts": st.sampled_from([0, 4, 8, 12]) | JSON,
    "vertex_rotations": st.lists(st.lists(DART, min_size=3, max_size=5), max_size=3) | JSON,
    "edge_involution": st.lists(DART, max_size=13) | JSON,
    "over_under": st.lists(PASSES | JSON, max_size=3) | JSON,
    "free_loops": st.integers(-2, 3) | JSON,
})


@BOUNDARY
@given(JSON | DIAGRAM_SHAPED)
def test_diagram_from_json_raises_only_typed_errors(obj):
    try:
        diagram_from_json(obj)
    except (GaussCodeError, DiagramError):
        pass


@BOUNDARY
@given(biased_text('[]{}":,. 0123456789-eE') | (JSON | DIAGRAM_SHAPED).map(json.dumps)
       | st.builds(to_diagram, st.sampled_from(["", "*", "O1+ U1+", "O1+ U2- / U1+ O2-"]).map(
           parse_gauss)).map(dumps))
def test_loads_raises_only_gauss_code_errors_and_diagram_errors(text):
    try:
        d = loads(text)
    except (GaussCodeError, DiagramError):
        return
    assert loads(dumps(d)) == d


def test_loads_rejects_deep_nesting_with_a_gauss_code_error():
    for text in ("[" * 100000, '{"darts": ' + "[" * 100000 + "]" * 100000 + "}"):
        with pytest.raises(GaussCodeError):
            loads(text)


@BOUNDARY
@given(biased_text(" \n-") | st.lists(st.lists(st.integers(-1, 3), max_size=4)).map(
    lambda rows: f"{len(rows)}\n" + "\n".join(" ".join(map(str, r)) for r in rows)))
def test_load_quandle_raises_only_value_errors(text):
    try:
        q = load_quandle(text)
    except ValueError:
        return
    assert check_quandle(q.table) == []


def quandle_text(declared: int, order: int) -> str:
    """A quandle file declaring ``declared`` elements, followed by the table
    of the dihedral quandle of ``order`` elements (none for 0)."""
    table = dihedral_quandle(order).table if order else ()
    return f"{declared}\n" + "\n".join(" ".join(map(str, row)) for row in table)


BOUND = MAX_QUANDLE_ORDER


@BOUNDARY
@given(st.sampled_from([BOUND - 1, BOUND, BOUND + 1, BOUND + 2, 100000]),
       st.sampled_from([0, 1, BOUND - 1, BOUND, BOUND + 1]))
def test_load_quandle_bounds_the_order(declared, order):
    try:
        q = load_quandle(quandle_text(declared, order))
    except ValueError:
        assert declared != order or declared > BOUND
        return
    assert q.size == declared == order <= BOUND


def test_cli_exits_3_fast_on_hostile_inputs(tmp_path):
    # unbounded, these take minutes or ask for a table of 10^10 entries
    loops = tmp_path / "loops.gauss"
    loops.write_text(" / ".join(["*"] * 4096))
    kink = tmp_path / "kink.gauss"
    kink.write_text("O1+ U1+")
    big = tmp_path / "big.quandle"
    big.write_text(quandle_text(100000, 3))
    for argv in (["equiv", str(loops), str(kink)],
                 ["equiv", str(kink), str(kink), "--quandles", "R100000"],
                 ["equiv", str(kink), str(kink), "--quandles", str(big)]):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert time.perf_counter() - start < 2, argv
        assert (code, out.getvalue()) == (3, ""), argv
        assert len(err.getvalue().splitlines()) == 1, argv
