"""Property tests on the input boundaries: arbitrary text and JSON fail
only with the library's typed errors.

Runs are derandomized, so every run tries the same examples, and each
example has a deadline, so an input that makes a parser hang fails.
"""

from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from vlink.codec import GaussCodeError, diagram_from_json, emit_gauss, parse_gauss, to_diagram
from vlink.diagram import DiagramError
from vlink.invariants import check_quandle, load_quandle

BOUNDARY = settings(derandomize=True, database=None, deadline=timedelta(seconds=2),
                    max_examples=300)


def biased_text(alphabet: str):
    """Text whose pieces are mostly characters of ``alphabet`` or numbers,
    and sometimes any character."""
    piece = st.sampled_from(alphabet) | st.integers(0, 30).map(str) | st.characters()
    return st.lists(piece, max_size=24).map("".join)


@BOUNDARY
@given(biased_text("OU+-/* ²١"))
def test_parse_gauss_raises_only_gauss_code_errors(text):
    try:
        code = parse_gauss(text)
    except GaussCodeError:
        return
    # an accepted code round-trips and builds a valid diagram
    assert parse_gauss(emit_gauss(code)) == code
    to_diagram(code)


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
@given(biased_text(" \n-") | st.lists(st.lists(st.integers(-1, 3), max_size=4)).map(
    lambda rows: f"{len(rows)}\n" + "\n".join(" ".join(map(str, r)) for r in rows)))
def test_load_quandle_raises_only_value_errors(text):
    try:
        q = load_quandle(text)
    except ValueError:
        return
    assert check_quandle(q.table) == []
