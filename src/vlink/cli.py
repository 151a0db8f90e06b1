"""vlink command line: genus, equiv, minimize, classify.

Exit codes for equiv: 0 equivalent, 1 distinguished, 2 unknown.  Every
command exits 3, with a one-line message, on input it cannot read: bad
arguments or unreadable files; equiv and classify, which compute
invariants, also on a diagram above the state-sum cap.  A
search command exits 4, with a one-line message and no verdict, when a
path its search found fails to replay (``SearchError``, a fault in the
program, not in the input).
"""

from __future__ import annotations

import argparse
import sys
from itertools import zip_longest
from pathlib import Path

from .codec import parse_gauss, to_diagram
from .diagram import Diagram, canonical_string
from .invariants import (
    MAX_QUANDLE_ORDER,
    Quandle,
    StateSumLimitError,
    dihedral_quandle,
    load_quandle,
)
from .search import (
    DEFAULT_QUANDLES,
    SearchBounds,
    SearchError,
    classify_corpus,
    equivalent,
    minimize,
)
from .surface import genus


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 with one line, not argparse's 2 ("unknown")."""

    def error(self, message):
        self.exit(3, f"{self.prog}: {message}\n")


def _read_diagram(path: str) -> Diagram:
    return to_diagram(parse_gauss(Path(path).read_text()))


def _read_corpus(path: str) -> list[Diagram]:
    """One diagram per line; a line that does not read names its number,
    counted as an editor counts it (``splitlines`` also breaks at form
    feeds and other separators)."""
    out = []
    for number, line in enumerate(Path(path).read_text().split("\n"), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            try:
                out.append(to_diagram(parse_gauss(line)))
            except ValueError as e:
                raise ValueError(f"line {number}: {e}") from e
    return out


def _parse_quandles(arg: str) -> tuple[tuple[str, Quandle], ...]:
    """Comma list of named dihedral quandles (R3, R5, ...) or table files.

    A name is ``R`` and ASCII digits, of order at most ``MAX_QUANDLE_ORDER``;
    any other entry is a file path."""
    if not arg:
        return DEFAULT_QUANDLES
    out = []
    for name in arg.split(","):
        name = name.strip()
        if not name:
            raise ValueError(f"quandle list {arg!r} has an empty entry")
        size = name[1:]
        if name[:1] == "R" and size.isascii() and size.isdigit():
            order = int(size)
            if not 1 <= order <= MAX_QUANDLE_ORDER:
                raise ValueError(f"quandle {name} has an order outside 1..{MAX_QUANDLE_ORDER}")
            out.append((name, dihedral_quandle(order)))
        else:
            out.append((name, load_quandle(Path(name).read_text())))
    return tuple(out)


def _bounds(args, *diagrams: Diagram) -> SearchBounds:
    max_crossings = args.max_crossings
    if max_crossings is None:
        max_crossings = max([d.n_vertices for d in diagrams], default=0) + 2
    return SearchBounds(max_crossings=max_crossings,
                        max_depth=args.max_depth,
                        max_states=args.max_states)


def _add_search_args(sub) -> None:
    sub.add_argument("--max-crossings", type=int, default=None,
                     help="crossing cap during search (default: input size + 2)")
    sub.add_argument("--max-depth", type=int, default=None,
                     help="move count cap (default: unbounded)")
    sub.add_argument("--max-states", type=int, default=SearchBounds.max_states,
                     help=f"visited state cap (default: {SearchBounds.max_states})")
    sub.add_argument("--quandles", default="",
                     help="comma list of quandles for invariant checks, e.g. R3,R5")


def cmd_genus(args) -> int:
    d = _read_diagram(args.diagram)
    res = genus(d)
    # free loops follow the graph components, each a sphere with V = 0
    for k, (g, comp) in enumerate(
            zip_longest(res.per_component, d.graph_components, fillvalue=()), start=1):
        # Euler: V - E + F = 2 - 2g with E = 2V
        print(f"component {k}: genus {g}, faces {2 - 2 * g + len(comp)}")
    print(f"total genus {res.total}")
    return 0


def cmd_equiv(args) -> int:
    d1, d2 = _read_diagram(args.a), _read_diagram(args.b)
    outcome = equivalent(d1, d2, _bounds(args, d1, d2), _parse_quandles(args.quandles))
    print(f"verdict: {outcome.verdict}")
    if outcome.verdict == "equivalent":
        print(f"path-length: {len(outcome.path)}")
        for site, _ in outcome.path:
            print(f"move: {site.kind} where={site.where} variant={site.variant}")
    elif outcome.verdict == "distinguished":
        for name, v1, v2 in outcome.distinguishers:
            print(f"invariant: {name}")
            print(f"value[a]: {v1}")
            print(f"value[b]: {v2}")
    print(f"explored: {outcome.explored}")
    return {"equivalent": 0, "distinguished": 1, "unknown": 2}[outcome.verdict]


def cmd_minimize(args) -> int:
    d = _read_diagram(args.diagram)
    res = minimize(d, _bounds(args, d))
    print(f"witness: {canonical_string(res.witness) or '(empty)'}")
    print(f"genus: {res.total_genus}")
    print(f"crossings: {res.crossings}")
    print(f"status: {'certified' if res.certified else 'upper-bound'}")
    print(f"explored: {res.explored}")
    return 0


def cmd_classify(args) -> int:
    corpus = _read_corpus(args.corpus)
    report = classify_corpus(corpus, _bounds(args, *corpus), _parse_quandles(args.quandles))
    print(report.to_text())
    return 0


def main(argv=None) -> int:
    parser = _Parser(
        prog="vlink", description="virtual link diagrams: genus, equivalence, invariants")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("genus", help="surface genus per component")
    p.add_argument("diagram", help="file containing a signed Gauss code")
    p.set_defaults(fn=cmd_genus)

    p = subs.add_parser("equiv", help="bounded equivalence check")
    p.add_argument("a")
    p.add_argument("b")
    _add_search_args(p)
    p.set_defaults(fn=cmd_equiv)

    p = subs.add_parser("minimize", help="minimal (genus, crossings) witness in the bounded orbit")
    p.add_argument("diagram")
    _add_search_args(p)
    p.set_defaults(fn=cmd_minimize)

    p = subs.add_parser("classify", help="partition a corpus file (one Gauss code per line)")
    p.add_argument("corpus")
    _add_search_args(p)
    p.set_defaults(fn=cmd_classify)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    # GaussCodeError and DiagramError are ValueErrors
    except (ValueError, OSError, StateSumLimitError) as e:
        print(f"vlink {args.command}: {e}", file=sys.stderr)
        return 3
    except SearchError as e:
        print(f"vlink {args.command}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
