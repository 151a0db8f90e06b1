"""The three workloads: seeded inputs, the timed operation, and the checks.

Each workload builds a fixed list of operations per round from
``--seed`` and the round's index alone, so every round of a run has
inputs of its own and the same seed always gives the same rounds.
``run`` is the only part that is timed.  ``check`` compares an answer
with a reference that does not go through the code path being measured:
counts pinned at the commit that introduced the benchmark, oracle values
from ``tests/oracles.py`` pinned in ``invariants_pool.json``, and the
GF(p) coloring count and Gauss-text readers of ``reference.py``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import vlink
from vlink import SearchBounds, apply_move, canonical_string, enumerate_moves, parse_gauss, to_diagram

import reference

POOL = Path(__file__).with_name("invariants_pool.json")


@dataclass
class Op:
    label: str
    args: tuple
    expect: dict


def _diagram(text: str):
    return to_diagram(parse_gauss(text))


def _rng(seed: int, round_: int) -> random.Random:
    return random.Random(f"{seed}.{round_}")


def _kinds_within(v: int, cap: int) -> list[str]:
    """Move kinds whose results stay within ``cap`` crossings."""
    kinds = ["R1-", "R2-", "R3"]
    if v + 1 <= cap:
        kinds.append("R1+")
    if v + 2 <= cap:
        kinds += ["R2+", "R2+stab"]
    return kinds


def scramble(rng: random.Random, d, steps: int, cap: int):
    """``steps`` random public moves, each result within ``cap`` crossings.

    Sites are listed per kind, which is how ``apply_move`` re-checks
    them; the loop curl that ``enumerate_moves`` offers only beside
    R2+stab is therefore never drawn.
    """
    kinds = _kinds_within(d.n_vertices, cap)
    for _ in range(steps):
        while True:
            sites = enumerate_moves(d, {rng.choice(kinds)})
            if sites:
                break
        d = apply_move(d, rng.choice(sites))
        kinds = _kinds_within(d.n_vertices, cap)
    return d


def _well_formed_state(text: str, cap: int, n_components: int) -> bool:
    comps = reference.components(text)
    seen: dict[int, set] = {}
    for comp in comps:
        for role, idx, _ in comp:
            seen.setdefault(idx, set()).add(role)
    return (len(comps) == n_components and len(seen) <= cap
            and all(roles == {"O", "U"} for roles in seen.values())
            and 2 * len(seen) == sum(len(c) for c in comps))


class Orbit:
    """One ``orbit()`` per operation on four fixed links at crossing cap 5.

    Nearly all time is search-kernel expansion: canonical labeling,
    validation and re-parsing of every state; invariants do no work.  The
    Hopf link is the only input with two components, the only place the
    factorial component-permutation cost of canonical labeling shows.
    State budgets keep a round near 10 s and are the same on every
    commit: the trefoil's whole orbit (216 states) fits in its budget, so
    one operation per round closes; the other three stop at 100 states,
    since their first states, with few crossings and hundreds of move
    sites each, already cost seconds.  The seed and the round's index only
    rename crossings, rotate and reorder components and order the
    operations, so every round does the same search.
    """

    CAP = 5
    # name: (Gauss code, max_states)
    LINKS = {
        "UNKNOT": ("*", 100),
        "VT": ("O1+ O2+ U1+ U2+", 100),
        "TREFOIL": ("O1+ U2+ O3+ U1+ O2+ U3+", 250),
        "HOPF": ("O1+ U2+ / U1+ O2+", 100),
    }
    # (states, truncated) within those budgets, pinned when the benchmark was added
    EXPECTED = {"UNKNOT": (100, True), "VT": (100, True),
                "TREFOIL": (216, False), "HOPF": (100, True)}

    def inputs(self, seed: int, round_: int = 0) -> list[Op]:
        rng = _rng(seed, round_)
        ops = []
        for name, (text, max_states) in self.LINKS.items():
            shown = reference.relabel(rng, text)
            bounds = SearchBounds(self.CAP, max_states=max_states)
            ops.append(Op(f"orbit {name}", (_diagram(shown), bounds),
                          {"name": name, "components": len(reference.components(text))}))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        return vlink.orbit(*op.args)

    def check(self, op: Op, result) -> list[str]:
        problems = []
        states, truncated = self.EXPECTED[op.expect["name"]]
        if (len(result.states), result.truncated) != (states, truncated):
            problems.append(f"{len(result.states)} states, truncated={result.truncated}; "
                            f"expected {states}, truncated={truncated}")
        if canonical_string(op.args[0]) not in result.states:
            problems.append("orbit lacks its own start")
        bad = [s for s in result.states
               if not _well_formed_state(s, self.CAP, op.expect["components"])]
        if bad:
            problems.append(f"{len(bad)} states are not {op.expect['components']}-component "
                            f"codes within {self.CAP} crossings, e.g. {bad[0]!r}")
        return problems

    def decided(self, op: Op, result) -> bool:
        return not result.truncated


class Classify:
    """One ``classify_corpus`` per operation on a seeded cluster: a random
    base of at most 2 crossings, two copies scrambled by 3 public moves
    (equivalent by construction) and a random decoy, at crossing cap 3.

    This drives the search layer through bidirectional meets in
    ``equivalent``, early exits on differing invariants, one ``minimize``
    per class, and reuse of the canonical-labeling cache across queries
    and across the clusters of a round.  At the commit that added the
    benchmark some operations raise on a path that fails to replay; they
    count as failed and the round goes on.  Cap 3 rather than 4: at cap 4
    an operation took 0.5 s at the median and up to 4 s, too few per
    round for steady quantiles; at cap 3 it takes under 0.3 s.  A round
    has 63 clusters, seven of each base shape, and each round of a run
    draws new ones, so a run's medians rest on several hundred clusters.
    """

    CAP = 3
    MAX_STATES = 500
    CLUSTERS = 63
    COPIES = 2
    STEPS = 3
    # (crossings, crossing components, free loops) of bases and decoys; the
    # clusters cycle through every shape so that each seed runs the same mix
    SHAPES = reference.link_shapes(max_v=2, max_comps=2, max_loops=1)

    def inputs(self, seed: int, round_: int = 0) -> list[Op]:
        rng = _rng(seed, round_)
        ops = []
        n = len(self.SHAPES)
        for k in range(self.CLUSTERS):
            base_text = reference.random_link(rng, self.SHAPES[k % n])
            base = _diagram(base_text)
            copies = [scramble(rng, base, self.STEPS, self.CAP) for _ in range(self.COPIES)]
            decoy_text = reference.random_link(rng, self.SHAPES[(k // n + k) % n])
            ops.append(Op(f"classify #{k}", (base, *copies, _diagram(decoy_text)),
                          {"base": base_text, "decoy": decoy_text}))
        return ops

    def run(self, op: Op):
        return vlink.classify_corpus(op.args, SearchBounds(self.CAP, max_states=self.MAX_STATES))

    def check(self, op: Op, report) -> list[str]:
        problems = [f"violation: {v}" for v in report.violations]
        base, *copies, decoy = op.args
        class_of = {cs: i for i, cls in enumerate(report.classes) for cs in cls}
        unresolved = {frozenset((class_of[a], class_of[b])) for a, b in report.unresolved}
        home = class_of[canonical_string(base)]
        for copy in copies:
            there = class_of[canonical_string(copy)]
            if there != home and frozenset((home, there)) not in unresolved:
                problems.append("a scrambled copy was split from its base")
        if (class_of[canonical_string(decoy)] == home
                and oracle_invariants(op.expect["base"]) != oracle_invariants(op.expect["decoy"])):
            problems.append("an oracle-distinct decoy was merged with the base")
        return problems

    def decided(self, op: Op, report) -> bool:
        return not report.unresolved


def oracle_invariants(text: str) -> tuple:
    """Components, f-polynomial from the naive 2^V bracket, R3 and R5 colorings."""
    from oracles import naive_bracket

    w = reference.writhe(text)
    bracket = naive_bracket(_diagram(text))
    f_poly = tuple((e - 3 * w, c * (-1) ** w) for e, c in bracket.coeffs)
    return (len(reference.components(text)), f_poly,
            reference.fox_colorings(text, 3), reference.fox_colorings(text, 5))


def replay_problems(calls) -> list[str]:
    """Replay every path ``equivalent`` returned, with the public
    ``apply_move`` on each state's representative and ``canonical_string``."""
    problems = []
    for d1, d2, outcome in calls:
        if outcome.verdict != "equivalent":
            continue
        cs = canonical_string(d1)
        for site, expected in outcome.path:
            try:
                after = apply_move(_diagram(cs), site)
            except ValueError as e:
                problems.append(f"path step {site} does not apply: {e}")
                break
            if canonical_string(after) != expected:
                problems.append(f"path step {site} reaches another state")
                break
            cs = expected
        else:
            if cs != canonical_string(d2):
                problems.append("path ends away from its target")
    return problems


class Invariants:
    """One state-sum evaluation per operation on one-component knots.

    ``bracket`` on pool knots of 10 to 14 crossings, straddling the
    12-crossing switch between the enumeration and recursion engines, and
    on the torus knots T(2,13), T(2,15), T(2,17), where the memoized
    recursion wins; R3 colorings on 6 knots of 13 to 16 crossings; R5
    colorings on 6 knots of 10 crossings, a size class chosen before the
    pool was drawn so its heavy tail (most under 0.1 s, about 1% near
    1 s) stays within a run.  Search, moves and canonical labeling do no
    work.  The seed and the round's index pick the knots from
    ``invariants_pool.json`` and order the operations.

    The counts keep each reported quantile inside a block of operations
    of one kind: the median among the eight 12-crossing brackets, the
    eleventh slowest among the nineteen 13-, 14-crossing and torus ones.
    Colorings costs spread over the range of the small brackets, so a
    quantile that fell between blocks would jump from seed to seed.  For
    the same reason the brackets of 12 to 14 crossings, which hold most of
    the time, use every pool knot of their size; the seed and round vary
    the rest.
    """

    BRACKET = {10: 3, 11: 3, 12: 8, 13: 8, 14: 8}
    R3 = {13: 2, 14: 1, 15: 1, 16: 2}
    R5 = {10: 6}

    def inputs(self, seed: int, round_: int = 0) -> list[Op]:
        pool = json.loads(POOL.read_text())
        rng = _rng(seed, round_)
        ops = []
        for n, k in self.BRACKET.items():
            for e in rng.sample(pool["knots"][str(n)], k):
                ops.append(self._op(f"bracket n={n}", "bracket", e))
        for e in pool["torus"]:
            ops.append(self._op(f"bracket torus n={len(e['gauss'].split()) // 2}", "bracket", e))
        for key, counts in (("r3", self.R3), ("r5", self.R5)):
            for n, k in counts.items():
                for e in rng.sample(pool["knots"][str(n)], k):
                    ops.append(self._op(f"colorings {key.upper()} n={n}", key, e))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _op(label: str, what: str, entry: dict) -> Op:
        expected = ([tuple(t) for t in entry["bracket"]] if what == "bracket" else entry[what])
        return Op(label, (what, _diagram(entry["gauss"])), {"value": expected})

    QUANDLES = {"r3": vlink.dihedral_quandle(3), "r5": vlink.dihedral_quandle(5)}

    def run(self, op: Op):
        what, d = op.args
        if what == "bracket":
            return vlink.bracket(d)
        return vlink.quandle_colorings(d, self.QUANDLES[what])

    def check(self, op: Op, result) -> list[str]:
        got = list(result.coeffs) if op.args[0] == "bracket" else result
        if got != op.expect["value"]:
            return [f"got {got}, expected {op.expect['value']}"]
        return []

    def decided(self, op: Op, result) -> bool:
        return True


WORKLOADS = {"orbit": Orbit(), "classify": Classify(), "invariants": Invariants()}
