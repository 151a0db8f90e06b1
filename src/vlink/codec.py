"""Signed Gauss code text format and the lossless JSON map format.

Grammar::

    link      = component ("/" component)*
    component = "*" | token+
    token     = ("O" | "U") digit+ ("+" | "-")

Whitespace separates tokens and is otherwise ignored; "*" denotes one
crossing-free loop component.  A valid code uses every crossing index
exactly twice, once as O and once as U, with the same sign both times.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .diagram import Diagram, _from_passes, require_valid


# free loops a text code or JSON diagram may carry: JSON gives the count as
# one number, and each "*" of a text costs the bracket one power of delta
MAX_FREE_LOOPS = 1024


class GaussCodeError(ValueError):
    """Malformed or invalid Gauss code text.  ``position`` indexes the offending character."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Token:
    role: str   # "O" | "U"
    index: int  # positive crossing index
    sign: int   # +1 | -1


@dataclass(frozen=True)
class SignedGaussCode:
    components: tuple[tuple[Token, ...], ...]
    free_loops: int = 0


def _validate_code(components, free_loops, pos_of=None) -> None:
    if free_loops < 0:
        raise GaussCodeError("negative free loop count")
    occurrences: dict[int, list[Token]] = {}
    for comp in components:
        if not comp:
            raise GaussCodeError("empty component")
        for tok in comp:
            occurrences.setdefault(tok.index, []).append(tok)
    for idx, toks in sorted(occurrences.items()):
        where = None if pos_of is None else pos_of.get(idx)
        if len(toks) != 2:
            raise GaussCodeError(f"crossing {idx} appears {len(toks)} times, expected 2", where)
        roles = {t.role for t in toks}
        if roles != {"O", "U"}:
            raise GaussCodeError(f"crossing {idx} does not appear once over and once under", where)
        if toks[0].sign != toks[1].sign:
            raise GaussCodeError(f"crossing {idx} appears with both signs", where)


def parse_gauss(text: str) -> SignedGaussCode:
    """Parse Gauss code text; raises :class:`GaussCodeError` with a position
    on bad input, including more than ``MAX_FREE_LOOPS`` "*" components."""
    if text.strip() == "":
        return SignedGaussCode(components=())
    components: list[tuple[Token, ...]] = []
    free_loops = 0
    pos_of: dict[int, int] = {}
    i, n = 0, len(text)
    current: list[Token] = []
    starred = False

    def end_component(at: int) -> None:
        nonlocal current, free_loops, starred
        if starred:
            if current:
                raise GaussCodeError("'*' must be a component on its own", at)
            free_loops += 1
            if free_loops > MAX_FREE_LOOPS:
                raise GaussCodeError(f"more than {MAX_FREE_LOOPS} free loops", at)
        elif current:
            components.append(tuple(current))
        else:
            raise GaussCodeError("empty component", at)
        current = []
        starred = False

    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == "/":
            end_component(i)
            i += 1
        elif ch == "*":
            if starred or current:
                raise GaussCodeError("'*' must be a component on its own", i)
            starred = True
            i += 1
        elif ch in "OU":
            start = i
            i += 1
            j = i
            while j < n and text[j] in "0123456789":
                j += 1
            if j == i:
                raise GaussCodeError("expected crossing index after role", i)
            try:
                index = int(text[i:j])
            except ValueError:  # more digits than int() converts
                raise GaussCodeError("crossing index is too long", i) from None
            if index <= 0:
                raise GaussCodeError("crossing index must be positive", i)
            if j >= n or text[j] not in "+-":
                raise GaussCodeError("expected sign after crossing index", j)
            if starred:
                raise GaussCodeError("'*' must be a component on its own", start)
            current.append(Token(ch, index, 1 if text[j] == "+" else -1))
            pos_of.setdefault(index, start)
            i = j + 1
        else:
            raise GaussCodeError(f"unexpected character {ch!r}", i)
    end_component(n)

    _validate_code(components, free_loops, pos_of)
    return SignedGaussCode(tuple(components), free_loops)


def emit_gauss(code: SignedGaussCode) -> str:
    """Normalized text for ``code``: single spaces, components in given order,
    one ``*`` component per free loop.  ``parse_gauss(emit_gauss(c)) == c``."""
    parts = [" ".join(f"{t.role}{t.index}{'+' if t.sign > 0 else '-'}" for t in comp)
             for comp in code.components]
    parts.extend("*" * code.free_loops)
    return " / ".join(parts)


def to_diagram(code: SignedGaussCode) -> Diagram:
    """Build the decorated map determined by the code and the sign convention.

    Crossing indices become vertices in order of first appearance; vertex v
    owns darts 4v..4v+3 with counterclockwise rotation (4v, 4v+1, 4v+2, 4v+3),
    over-in at slot 0, and under-in at slot 1 (sign +) or slot 3 (sign -).
    """
    _validate_code(code.components, code.free_loops)
    vertex: dict[int, int] = {}
    rows = [[(vertex.setdefault(t.index, len(vertex)), t.role, "+" if t.sign > 0 else "-")
             for t in comp] for comp in code.components]
    return require_valid(_from_passes(rows, code.free_loops))


_OTHER_ROLE = {"O": "U", "U": "O"}


def _from_canonical(cs: str) -> Diagram:
    """``to_diagram(parse_gauss(cs))`` for text in the form
    :func:`emit_gauss` and ``canonical_string`` write, read straight from
    its tokens: components joined by ``" / "``, tokens by one space,
    crossing indices in ASCII digits without a leading zero.  Any other
    text, and any crossing that does not occur once as O and once as U
    with one sign, raises :class:`GaussCodeError`."""
    vertex: dict[str, int] = {}  # crossing index text -> vertex
    partner: list[str | None] = []  # per vertex, the token still to come
    rows, loops = [], 0
    for part in cs.split(" / ") if cs else ():
        if part == "*":
            loops += 1
            continue
        passes = []
        for tok in part.split(" "):
            index = tok[1:-1]
            v = vertex.get(index)
            if v is None:
                role, sign = tok[:1], tok[-1:]
                if (role not in _OTHER_ROLE or sign not in ("+", "-") or not index.isdigit()
                        or not index.isascii() or index[0] == "0"):
                    raise GaussCodeError(f"malformed token {tok!r} in {cs!r}")
                v = vertex[index] = len(partner)
                partner.append(_OTHER_ROLE[role] + tok[1:])
            elif partner[v] == tok:
                partner[v] = None
            else:
                raise GaussCodeError(f"crossing {index} of {cs!r} does not occur "
                                     "once as O and once as U with one sign")
            passes.append((v, tok[0], tok[-1]))
        rows.append(passes)
    for tok in partner:
        if tok is not None:
            raise GaussCodeError(f"crossing {tok[1:-1]} of {cs!r} occurs once")
    return require_valid(_from_passes(rows, loops))


def from_diagram(d: Diagram) -> SignedGaussCode:
    """The code of :attr:`Diagram.passes`: one component per strand
    circuit, ordered by least in-dart and started there, crossings
    renumbered 1..n by first traversal; raises
    :class:`~vlink.diagram.DiagramError` on an invalid diagram."""
    label: dict[int, int] = {}
    components = tuple(
        tuple(Token(role, label.setdefault(v, len(label) + 1), 1 if sgn == "+" else -1)
              for v, role, sgn in row)
        for row in d.passes)
    return SignedGaussCode(components, d.free_loops)


def diagram_to_json(d: Diagram) -> dict:
    """Lossless JSON-ready mapping with the fixed field names; raises on an invalid diagram."""
    require_valid(d)
    over_under = []
    for v in range(d.n_vertices):
        o_in = d.over_in(v)
        u_in = d.under_in(v)
        over_under.append({
            "over_in": o_in,
            "over_out": d.opposite[o_in],
            "under_in": u_in,
            "under_out": d.opposite[u_in],
        })
    return {
        "darts": d.n_darts,
        "edge_involution": list(d.edge_pair),
        "vertex_rotations": [list(rot) for rot in d.rotations],
        "over_under": over_under,
        "free_loops": d.free_loops,
    }


def _json_int(value) -> int:
    """``value`` if it is a JSON integer (``true`` and ``1.0`` are not)."""
    if type(value) is not int:
        raise GaussCodeError(f"expected a JSON integer, got {type(value).__name__}")
    return value


def diagram_from_json(obj: dict) -> Diagram:
    """Inverse of :func:`diagram_to_json`; validates the reconstructed map.
    Every field holds JSON integers, ``free_loops`` is at most
    ``MAX_FREE_LOOPS``, entry ``v`` of ``over_under`` names darts of
    ``vertex_rotations[v]``, and each ``under_out`` is the dart opposite
    its ``under_in``."""
    try:
        n = _json_int(obj["darts"])
        rotations = tuple(tuple(_json_int(x) for x in rot) for rot in obj["vertex_rotations"])
        edge = tuple(_json_int(x) for x in obj["edge_involution"])
        over_under = obj["over_under"]
        free_loops = _json_int(obj["free_loops"])
    except (KeyError, TypeError) as exc:
        raise GaussCodeError(f"malformed diagram JSON: {exc}") from None
    if free_loops > MAX_FREE_LOOPS:
        raise GaussCodeError(
            f"{free_loops} free loops, above the limit of {MAX_FREE_LOOPS}")
    if not isinstance(over_under, list):
        raise GaussCodeError("over_under must be a list")
    if any(len(rot) != 4 for rot in rotations):
        raise GaussCodeError("vertex_rotations entries must have length 4")
    if n != 4 * len(rotations):
        raise GaussCodeError("dart count does not match vertex count")
    inbound = [False] * n
    over, under = [], []
    for entry in over_under:
        try:
            o_in, u_in = _json_int(entry["over_in"]), _json_int(entry["under_in"])
            o_out, u_out = _json_int(entry["over_out"]), _json_int(entry["under_out"])
        except (KeyError, TypeError) as exc:
            raise GaussCodeError(f"malformed over_under entry: {exc}") from None
        if not (0 <= o_in < n and 0 <= u_in < n):
            raise GaussCodeError("over_under names a dart out of range")
        inbound[o_in] = True
        inbound[u_in] = True
        over.append(tuple(sorted((o_in, o_out))))
        under.append((u_in, u_out))
    d = require_valid(Diagram(rotations, edge, tuple(over), tuple(inbound), free_loops))
    for v, (u_in, u_out) in enumerate(under):
        if u_in not in rotations[v]:
            raise GaussCodeError(f"under_in {u_in} of entry {v} is not a dart of vertex {v}")
        if d.opposite[u_in] != u_out:
            raise GaussCodeError(f"under_out {u_out} is not the dart opposite under_in {u_in}")
    return d


def dumps(d: Diagram) -> str:
    return json.dumps(diagram_to_json(d), sort_keys=True)


def loads(text: str) -> Diagram:
    """Inverse of :func:`dumps`; raises :class:`GaussCodeError` on text that
    is not JSON, nested too deeply to read, or not a diagram."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise GaussCodeError(f"malformed diagram JSON: {exc}") from None
    return diagram_from_json(obj)
