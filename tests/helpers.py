"""Shared corpus generators for the test suite (seeded, deterministic),
the reset of the library's memos, and the comparison with golden output
files."""

from __future__ import annotations

import difflib
import functools
import itertools
import random
from pathlib import Path

import pytest

import vlink.search
from vlink.codec import parse_gauss, to_diagram
from vlink.diagram import Diagram, canonical_string


def random_code_text(rng: random.Random, max_v: int = 6, max_comps: int = 3,
                     max_loops: int = 1) -> str:
    """A uniformly scrambled valid signed Gauss code (may be disconnected)."""
    v = rng.randint(0, max_v)
    toks = []
    for i in range(1, v + 1):
        s = rng.choice("+-")
        toks += [f"O{i}{s}", f"U{i}{s}"]
    rng.shuffle(toks)
    ncomp = 1 if v == 0 else rng.randint(1, min(max_comps, 2 * v))
    cuts = sorted(rng.sample(range(1, 2 * v), ncomp - 1)) if v else []
    comps, prev = [], 0
    for c in cuts + [2 * v]:
        if c > prev:
            comps.append(" ".join(toks[prev:c]))
        prev = c
    loops = rng.randint(0, max_loops)
    parts = [p for p in comps if p] + ["*"] * loops
    return " / ".join(parts)


def random_diagram(rng: random.Random, max_v: int = 6, max_comps: int = 3,
                   max_loops: int = 1) -> Diagram:
    while True:
        text = random_code_text(rng, max_v, max_comps, max_loops)
        if text:
            return to_diagram(parse_gauss(text))


def random_diagrams(seed: int, count: int, **kw) -> list[Diagram]:
    rng = random.Random(seed)
    return [random_diagram(rng, **kw) for _ in range(count)]


def all_connected_diagrams(max_v: int) -> list[Diagram]:
    """Every connected diagram with at most max_v crossings, up to
    isomorphism, plus the crossing-free unknot, sorted by canonical string.

    Each caller gets a list of its own; the diagrams are built once per
    session (see ``_connected_diagrams``).
    """
    return list(_connected_diagrams(max_v))


@functools.lru_cache(maxsize=4)
def _connected_diagrams(max_v: int) -> tuple[Diagram, ...]:
    """Generated by brute force over token arrangements in first-traversal
    index order, then deduplicated by canonical string."""
    out: dict[str, Diagram] = {}
    unknot = Diagram((), (), (), (), free_loops=1)
    out[canonical_string(unknot)] = unknot
    for v in range(1, max_v + 1):
        roles = [f"O{i}" for i in range(1, v + 1)] + [f"U{i}" for i in range(1, v + 1)]
        for perm in itertools.permutations(roles):
            # canonical strings start "O1" with indices in first-traversal
            # order, so generating only such arrangements loses nothing
            if perm[0] != "O1":
                continue
            seen: list[str] = []
            for t in perm:
                if t[1:] not in seen:
                    seen.append(t[1:])
            if seen != [str(i) for i in range(1, v + 1)]:
                continue
            for signs in itertools.product("+-", repeat=v):
                toks = [t + signs[int(t[1:]) - 1] for t in perm]
                for cut_mask in range(1 << (2 * v - 1)):
                    cuts = [i + 1 for i in range(2 * v - 1) if (cut_mask >> i) & 1]
                    parts, prev = [], 0
                    for c in cuts + [2 * v]:
                        parts.append(" ".join(toks[prev:c]))
                        prev = c
                    try:
                        d = to_diagram(parse_gauss(" / ".join(parts)))
                    except ValueError:
                        continue
                    if len(d.graph_components) != 1:
                        continue
                    out.setdefault(canonical_string(d), d)
    return tuple(out[k] for k in sorted(out))


def clear_memos() -> None:
    """Empty every per-process memo of the library, so that the next
    search starts cold."""
    vlink.search._reset_memos()


GOLDEN = Path(__file__).resolve().parent / "golden"


def assert_matches_golden(text: str, name: str) -> None:
    """``text`` equals the file ``tests/golden/<name>``; a mismatch fails
    with a unified diff from the file to ``text``."""
    expected = (GOLDEN / name).read_text()
    if text != expected:
        diff = difflib.unified_diff(expected.splitlines(keepends=True),
                                    text.splitlines(keepends=True),
                                    f"tests/golden/{name}", "output")
        pytest.fail("output differs from the golden file:\n" + "".join(diff), pytrace=False)
