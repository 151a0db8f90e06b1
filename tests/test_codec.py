import random

import pytest

from vlink.codec import (
    MAX_FREE_LOOPS,
    GaussCodeError,
    SignedGaussCode,
    Token,
    _from_canonical,
    diagram_from_json,
    diagram_to_json,
    dumps,
    emit_gauss,
    from_diagram,
    loads,
    parse_gauss,
    to_diagram,
)
from vlink.diagram import (
    EMPTY,
    UNKNOT,
    Diagram,
    DiagramError,
    canonical_string,
    disjoint_union,
    mirror,
    relabel,
    validate,
)

from helpers import random_code_text

TREFOIL = "O1+ U2+ O3+ U1+ O2+ U3+"
VIRTUAL_TREFOIL = "O1+ O2+ U1+ U2+"


def test_parse_trefoil():
    code = parse_gauss(TREFOIL)
    assert len(code.components) == 1
    assert len(code.components[0]) == 6
    assert {t.index for t in code.components[0]} == {1, 2, 3}
    assert all(t.sign == 1 for t in code.components[0])
    assert code.free_loops == 0


def test_parse_virtual_trefoil():
    code = parse_gauss(VIRTUAL_TREFOIL)
    assert len(code.components) == 1
    assert {t.index for t in code.components[0]} == {1, 2}


def test_parse_free_loop_component():
    code = parse_gauss("O1+ U1+ / *")
    assert len(code.components) == 1
    assert code.free_loops == 1


def test_parse_whitespace_insensitive():
    assert parse_gauss(" O1+   U1+ ") == parse_gauss("O1+ U1+")
    assert parse_gauss("O1+U1+") == parse_gauss("O1+ U1+")


def test_parse_preserves_noncontiguous_indices():
    code = parse_gauss("O5+ U9- O9- U5+")
    assert {t.index for t in code.components[0]} == {5, 9}


@pytest.mark.parametrize("bad", [
    "O1+",                # index appears once
    "O1+ U1+ O1+ U1+",    # four times
    "O1+ O1+",            # same role twice
    "O1+ U1-",            # sign mismatch
    "O1+ U1",             # missing sign
    "O+ U+",              # missing index
    "X1+ Y1+",            # bad role letter
    "O1+ U1+ /",          # trailing empty component
    "O1+ * U1+",          # star inside a component
    "O0+ U0+",            # nonpositive index
    "O²+ U²+",            # a Unicode digit that is not ASCII
    "O١+ U١+",            # Arabic-Indic one, which int() would read
])
def test_parse_rejects(bad):
    with pytest.raises(GaussCodeError):
        parse_gauss(bad)


def test_parse_error_position():
    err = None
    try:
        parse_gauss("O1+ ?")
    except GaussCodeError as e:
        err = e
    assert err is not None and err.position == 4
    for text in ("O1+ U²+", "O1+ U" + "1" * 5000 + "+"):
        with pytest.raises(GaussCodeError) as info:
            parse_gauss(text)
        assert info.value.position == 5


@pytest.mark.parametrize("text, position", [
    ("O1+ U+", 5),              # a role with no index: just after the role
    ("O1+ U", 5),
    ("O1+ U1", 6),              # a missing sign: just after the digits
    ("O12 U12+", 3),
    ("O1+ U0+", 5),             # a zero index: its first digit
    ("O1+ * U1+", 4),           # "*" inside a component: the "*"
    ("* O1+ U1+", 2),           # ... or the token after it
    ("* / * *", 6),
    ("/ O1+ U1+", 0),           # an empty component: the "/" that ends it
    ("O1+ U1+ / / *", 10),
    ("O1+ U1+ /", 9),           # a trailing component: the end of the text
    ("O1+ U1+ / ", 10),
    ("O2+ U2+ O1+", 8),         # a crossing seen once: its occurrence
    ("O1+U1+ O2-", 7),
    ("O1+ O2- U1+ O2-", 4),     # seen twice with one role: its first occurrence
    ("O1+ O2- U1+ U2+", 4),     # mixed signs: its first occurrence
    ("O1+ U1+ O1+", 0),         # seen three times: its first occurrence
])
def test_parse_error_positions(text, position):
    with pytest.raises(GaussCodeError) as info:
        parse_gauss(text)
    assert type(info.value) is GaussCodeError and info.value.position == position


def test_from_canonical_reads_more_free_loops_than_parse_gauss():
    text = " / ".join(["O1+ U1+"] + ["*"] * (MAX_FREE_LOOPS + 6))
    with pytest.raises(GaussCodeError) as info:
        parse_gauss(text)
    # at the "/" after the first "*" past the limit
    assert info.value.position == text.index("/", len("O1+ U1+") + 4 * MAX_FREE_LOOPS + 3) == 4108
    d = _from_canonical(text)
    assert d.free_loops == 1030 and d.n_vertices == 1


def test_emit_normalizes_and_round_trips():
    code = parse_gauss("  O1+    O2+ U1+   U2+  ")
    assert emit_gauss(code) == "O1+ O2+ U1+ U2+"
    assert parse_gauss(emit_gauss(code)) == code


def test_emit_free_loops_and_empty():
    two = SignedGaussCode(components=(), free_loops=2)
    assert emit_gauss(two) == "* / *"
    assert parse_gauss("* / *") == two
    assert emit_gauss(SignedGaussCode(components=())) == ""
    assert parse_gauss("") == SignedGaussCode(components=())


def test_to_diagram_kink():
    d = to_diagram(parse_gauss("O1+ U1+"))
    assert d.n_vertices == 1
    assert d.n_darts == 4
    assert validate(d) == []


def test_to_diagram_virtual_trefoil_counts():
    d = to_diagram(parse_gauss(VIRTUAL_TREFOIL))
    assert d.n_vertices == 2
    # 4-valent: E = 2V, edges are involution orbits
    assert len({tuple(sorted((x, d.edge_pair[x]))) for x in range(d.n_darts)}) == 4


def test_from_diagram_round_trip_normalized():
    for text in (TREFOIL, VIRTUAL_TREFOIL, "O1+ U1+", "O1- U1-", "O1+ / U1+"):
        d = to_diagram(parse_gauss(text))
        code = from_diagram(d)
        assert canonical_string(to_diagram(code)) == canonical_string(d)
        # from_diagram output is already normalized: emitting and reparsing fixes it
        assert from_diagram(to_diagram(code)) == code


def test_round_trip_random_codes():
    rng = random.Random(42)
    for _ in range(300):
        text = random_code_text(rng, max_v=6)
        code = parse_gauss(text)
        assert parse_gauss(emit_gauss(code)) == code
        if text:
            d = to_diagram(code)
            assert validate(d) == []
            assert canonical_string(to_diagram(from_diagram(d))) == canonical_string(d)


def test_single_token_deletion_rejected():
    rng = random.Random(3)
    for _ in range(40):
        text = random_code_text(rng, max_v=4, max_loops=0)
        if not text:
            continue
        code = parse_gauss(text)
        toks = emit_gauss(code).split(" ")
        for i in range(len(toks)):
            if toks[i] in ("/", "*"):
                continue
            mutated = " ".join(toks[:i] + toks[i + 1:])
            with pytest.raises(GaussCodeError):
                parse_gauss(mutated)


def test_json_round_trip_exact_fields():
    d = to_diagram(parse_gauss(VIRTUAL_TREFOIL))
    obj = diagram_to_json(d)
    assert set(obj) == {"darts", "edge_involution", "vertex_rotations", "over_under", "free_loops"}
    assert obj["darts"] == 8
    assert len(obj["vertex_rotations"]) == 2
    assert all(len(r) == 4 for r in obj["vertex_rotations"])
    assert diagram_from_json(obj) == d
    assert loads(dumps(d)) == d


def test_json_round_trip_random():
    rng = random.Random(9)
    for _ in range(50):
        text = random_code_text(rng, max_v=5)
        if not text:
            continue
        d = to_diagram(parse_gauss(text))
        assert diagram_from_json(diagram_to_json(d)) == d


def test_json_rejects_malformed():
    d = to_diagram(parse_gauss("O1+ U1+"))
    obj = diagram_to_json(d)
    obj["vertex_rotations"] = [[0, 1, 2]]
    with pytest.raises(GaussCodeError):
        diagram_from_json(obj)
    for text in ('{"darts":0,"vertex_rotations":[],"edge_involution":[],"over_under":5,"free_loops":0}',
                 '{"darts":1e400,"vertex_rotations":[],"edge_involution":[],"over_under":[],"free_loops":0}'):
        with pytest.raises(GaussCodeError):
            loads(text)


@pytest.mark.parametrize("loops", ["1e12", "1000000000000", '"7"', "true", "1.0", "1025"])
def test_json_free_loops_are_bounded_integers(loops):
    text = ('{"darts":0,"vertex_rotations":[],"edge_involution":[],"over_under":[],'
            f'"free_loops":{loops}}}')
    with pytest.raises(GaussCodeError):
        loads(text)
    assert loads(text.replace(f":{loops}}}", f":{MAX_FREE_LOOPS}}}")).free_loops == 1024


def test_json_fields_are_integers():
    obj = diagram_to_json(to_diagram(parse_gauss("O1+ U1+")))
    with_true = [True if x == 1 else x for x in obj["edge_involution"]]
    for key, bad in (("darts", 4.0), ("darts", "4"), ("edge_involution", with_true)):
        with pytest.raises(GaussCodeError, match="JSON integer"):
            diagram_from_json({**obj, key: bad})
    under = obj["over_under"][0]
    missing = {k: v for k, v in under.items() if k != "under_out"}
    for entry, message in (({**under, "over_in": float(under["over_in"])}, "JSON integer"),
                           ({**under, "under_out": "junk"}, "JSON integer"),
                           (missing, "under_out"),
                           ({**under, "over_in": 4}, "names a dart out of range"),
                           ({**under, "under_out": under["under_in"]}, "not the dart opposite")):
        with pytest.raises(GaussCodeError, match=message):
            diagram_from_json({**obj, "over_under": [entry]})
    # each entry describes its own vertex: swapping the under darts of two
    # entries keeps every in dart and over pair, but ties them to the wrong vertex
    obj = diagram_to_json(to_diagram(parse_gauss(VIRTUAL_TREFOIL)))
    a, b = obj["over_under"]
    swapped = [{**a, "under_in": b["under_in"], "under_out": b["under_out"]},
               {**b, "under_in": a["under_in"], "under_out": a["under_out"]}]
    with pytest.raises(GaussCodeError, match="not a dart of vertex 0"):
        diagram_from_json({**obj, "over_under": swapped})


def test_json_writer_rejects_invalid_diagrams():
    # a rotation of three darts: the writer reads the map only once it is valid
    d = Diagram(((0, 1, 2), (3, 4, 5, 6, 7)), (1, 0, 3, 2, 5, 4, 7, 6),
                ((0, 2), (3, 5)), (True, False) * 4, 0)
    for write in (diagram_to_json, dumps):
        with pytest.raises(DiagramError, match="rotation of vertex 0 has 3 darts"):
            write(d)


def test_json_accepts_arbitrary_dart_labels():
    # same kink with darts renamed by x -> (x + 2) % 4; rotations need not
    # start at the vertex's least dart and labels need not be 4v..4v+3
    d = to_diagram(parse_gauss("O1+ U1+"))
    perm = [2, 3, 0, 1]
    obj = diagram_to_json(d)
    obj = {
        "darts": 4,
        "edge_involution": [0] * 4,
        "vertex_rotations": [[perm[x] for x in d.rotations[0]]],
        "over_under": [{k: perm[v] for k, v in obj["over_under"][0].items()}],
        "free_loops": 0,
    }
    for x in range(4):
        obj["edge_involution"][perm[x]] = perm[d.edge_pair[x]]
    relabeled = diagram_from_json(obj)
    assert validate(relabeled) == []
    assert canonical_string(relabeled) == canonical_string(d)
    assert diagram_from_json(diagram_to_json(relabeled)) == relabeled
    # edits of its code come back in to_diagram's layout
    for change in (mirror, lambda x: relabel(x, [0]), lambda x: disjoint_union(x, x)):
        assert change(relabeled) == change(d)


def test_empty_and_unknot_diagrams():
    assert to_diagram(parse_gauss("")) == EMPTY
    assert to_diagram(parse_gauss("*")) == UNKNOT
