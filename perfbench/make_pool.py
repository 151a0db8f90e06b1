"""Regenerate ``invariants_pool.json``: the knots the ``invariants``
workload samples from, with reference values pinned beside them.

Run from the repository root::

    PYTHONPATH=src:tests python3 perfbench/make_pool.py

Pool rule, fixed before any draw was timed: POOL_SEED feeds one
generator; for each crossing count in CLASSES it draws CLASSES[n] random
one-component knots in order, and every draw is kept.  Brackets come from
``tests/oracles.naive_bracket`` (full 2^V state enumeration) for the
classes the workload evaluates brackets on and for the (2, n) torus
knots.  Coloring counts come from the GF(p) linear-algebra count in
``reference.fox_colorings``; exhaustive ``naive_colorings`` is out of
reach at 10+ arcs with R5, so this script first checks the two agree on
small diagrams.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from oracles import naive_bracket, naive_colorings
from vlink import dihedral_quandle, parse_gauss, to_diagram

import reference

POOL_SEED = 0
CLASSES = {10: 16, 11: 8, 12: 8, 13: 8, 14: 8, 15: 8, 16: 8}
BRACKET_CLASSES = (10, 11, 12, 13, 14)
TORUS = (13, 15, 17)
OUT = Path(__file__).with_name("invariants_pool.json")


def _check_fox_against_oracle() -> None:
    rng = random.Random(1)
    shapes = reference.link_shapes(max_v=5, max_comps=3, max_loops=1)
    for _ in range(200):
        text = reference.random_link(rng, rng.choice(shapes))
        d = to_diagram(parse_gauss(text))
        for p in (3, 5):
            if reference.fox_colorings(text, p) != naive_colorings(d, dihedral_quandle(p)):
                sys.exit(f"fox_colorings disagrees with naive_colorings on {text!r}, p={p}")


def _entry(text: str, with_bracket: bool) -> dict:
    entry = {"gauss": text,
             "r3": reference.fox_colorings(text, 3),
             "r5": reference.fox_colorings(text, 5)}
    if with_bracket:
        entry["bracket"] = list(naive_bracket(to_diagram(parse_gauss(text))).coeffs)
    return entry


def main() -> None:
    _check_fox_against_oracle()
    rng = random.Random(POOL_SEED)
    pool = {"knots": {}, "torus": []}
    for n, count in CLASSES.items():
        texts = [reference.random_link(rng, (n, 1, 0)) for _ in range(count)]
        pool["knots"][str(n)] = [_entry(t, n in BRACKET_CLASSES) for t in texts]
        print(f"class {n}: {count} knots", flush=True)
    for n in TORUS:
        pool["torus"].append(_entry(reference.torus_2(n), True))
        print(f"torus T(2,{n})", flush=True)
    OUT.write_text(json.dumps(pool, indent=1) + "\n")


if __name__ == "__main__":
    main()
