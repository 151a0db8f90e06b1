"""Checks on the benchmark's own code; none of them time anything.

    PYTHONPATH=src:tests:perfbench python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import reference
import run
import workloads
from oracles import naive_colorings
from tracing import Tracer, rebind
from vlink import canonical_string, dihedral_quandle, parse_gauss, to_diagram

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_declared_workloads_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("seed", range(40))
def test_fox_count_matches_exhaustive_oracle(seed):
    rng = random.Random(seed)
    text = reference.random_link(rng, rng.choice(reference.link_shapes(4, 3, 1)))
    d = to_diagram(parse_gauss(text))
    for p in (3, 5):
        assert reference.fox_colorings(text, p) == naive_colorings(d, dihedral_quandle(p))


def test_relabel_keeps_the_diagram():
    rng = random.Random(7)
    for text in ("O1+ U2+ / U1+ O2+", "O1+ U2+ O3+ U1+ O2+ U3+ / *", "*"):
        again = reference.relabel(rng, text)
        assert canonical_string(to_diagram(parse_gauss(again))) == \
            canonical_string(to_diagram(parse_gauss(text)))


def test_tail_has_ten_samples_beyond():
    xs = list(range(40))
    assert run.tail(xs) == (29, 75.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.span("inner", lambda: sum(range(20000)))
    outer = tracer.span("outer", lambda: [inner() for _ in range(3)])
    outer()
    ids = tracer.ids
    outer_i = list(tracer.layer).index(ids["outer"])
    child = sum(tracer.end[i] - tracer.start[i]
                for i, lid in enumerate(tracer.layer) if lid == ids["inner"])
    total = tracer.end[outer_i] - tracer.start[outer_i]
    summary = tracer.summary()
    assert summary["inner.calls"] == 3 and summary["outer.calls"] == 1
    assert summary["outer.self_s"] == pytest.approx((total - child) / 1e9)


def test_rebind_reaches_every_importing_module():
    import vlink
    import vlink.diagram
    import vlink.search

    original = vlink.diagram.canonical_string
    stand_in = lambda d: original(d)  # noqa: E731
    rebind({original: stand_in})
    try:
        assert vlink.search.canonical_string is stand_in
        assert vlink.canonical_string is stand_in
    finally:
        rebind({stand_in: original})
    assert vlink.search.canonical_string is original


def test_classify_copies_are_equivalent_by_construction():
    ops = workloads.Classify().inputs(3)[:9]
    assert len({op.expect["base"].count("/") for op in ops}) > 1
    for op in ops:
        base, *copies, _ = op.args
        assert all(c.is_valid and c.n_vertices <= workloads.Classify.CAP for c in copies)


def test_rounds_draw_their_own_inputs_from_the_seed():
    classify = workloads.Classify()
    first = [op.expect for op in classify.inputs(5, 0)]
    assert [op.expect for op in classify.inputs(5, 0)] == first
    assert [op.expect for op in classify.inputs(5, 1)] != first
    assert run.n_rounds("classify", 40) == run.n_rounds("classify", 40) >= run.MIN_ROUNDS
