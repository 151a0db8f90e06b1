"""Signed Gauss code text format and the lossless JSON map format.

Grammar::

    link      = component ("/" component)*
    component = "*" | token+
    token     = ("O" | "U") digit+ ("+" | "-")

Digits are ASCII.  Whitespace separates tokens and is otherwise ignored;
"*" denotes one crossing-free loop component.  A valid code uses every
crossing index exactly twice, once as O and once as U, with the same
sign both times.

One reader, :func:`_read`, takes the text apart with one pattern and
checks the code in the same pass; :func:`parse_gauss` and the search's
:func:`_from_canonical` both read through it.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass

from .diagram import Diagram, _check_passes, _from_passes, require_valid


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


# one piece of signed Gauss text per match: a crossing token, whose index
# or sign may be missing; a "*" or "/"; or any other character but
# whitespace, which separates pieces and is otherwise skipped
_PIECE = re.compile(r"([OU])([0-9]*)([+-]?)|(\S)")
_END = ("", "", "", "/")  # the piece that closes the last component
_OTHER_ROLE = {"O": "U", "U": "O"}


def _fault(message: str, text: str, k: int, group: int) -> GaussCodeError:
    """The error at ``group`` of piece ``k`` of ``text``, or at its end
    when ``k`` is past the last piece."""
    m = next(itertools.islice(_PIECE.finditer(text), k, None), None)
    return GaussCodeError(message, len(text) if m is None else m.start(group))


def _misused(text: str, pieces, index: int) -> GaussCodeError:
    """The error at the first token of crossing ``index``, which ``text``
    does not use once as O and once as U with one sign."""
    name = str(index)
    uses = [(k, role) for k, (role, digits, _, _) in enumerate(pieces)
            if role and digits.lstrip("0") == name]
    why = (f"appears {len(uses)} times, expected 2" if len(uses) != 2 else
           "does not appear once over and once under" if uses[0][1] == uses[1][1] else
           "appears with both signs")
    return _fault(f"crossing {index} {why}", text, uses[0][0], 1)


def _read(text: str):
    """``(rows, free_loops, index_of)`` of signed Gauss text: per component
    the ``(vertex, role, sign)`` rows, vertices numbered by first
    appearance, the count of "*" components, and the crossing index of
    each vertex.  One pass over the pieces checks each crossing against
    the token still expected for it and raises :class:`GaussCodeError`
    at the first fault: an unexpected character at itself, a bad index at
    its first digit, a missing sign just after the digits, and a crossing
    that does not occur once as O and once as U with one sign at its
    first occurrence."""
    pieces = _PIECE.findall(text)
    if not pieces:
        return [], 0, []
    pieces.append(_END)
    rows, row, loops, star = [], [], 0, False
    vertex: dict[int, int] = {}  # crossing index -> vertex, in vertex order
    expect: list = []  # per vertex, the (vertex, role, sign) still to come
    for k, (role, digits, sign, mark) in enumerate(pieces):
        if role:
            try:
                index = int(digits)
            except ValueError:
                raise _fault("crossing index is too long" if digits else
                             "expected crossing index after role", text, k, 2) from None
            if index <= 0:
                raise _fault("crossing index must be positive", text, k, 2)
            if not sign:
                raise _fault("expected sign after crossing index", text, k, 3)
            if star:
                raise _fault("'*' must be a component on its own", text, k, 1)
            v = vertex.get(index)
            if v is None:
                v = vertex[index] = len(expect)
                expect.append((v, _OTHER_ROLE[role], sign))
            elif expect[v] == (v, role, sign):
                expect[v] = None
            else:
                raise _misused(text, pieces, index)
            row.append((v, role, sign))
        elif mark == "/":
            if star:
                loops += 1
                star = False
            elif row:
                rows.append(row)
                row = []
            else:
                raise _fault("empty component", text, k, 4)
        elif mark == "*":
            if star or row:
                raise _fault("'*' must be a component on its own", text, k, 4)
            star = True
        else:
            raise _fault(f"unexpected character {mark!r}", text, k, 4)
    for index, still in zip(vertex, expect):
        if still is not None:
            raise _misused(text, pieces, index)
    return rows, loops, list(vertex)


def parse_gauss(text: str) -> SignedGaussCode:
    """Parse Gauss code text; raises :class:`GaussCodeError` with a position
    on bad input, including more than ``MAX_FREE_LOOPS`` "*" components."""
    rows, loops, index_of = _read(text)
    if loops > MAX_FREE_LOOPS:
        # at the "/" or text end that closes the first "*" past the limit
        end = text.find("/", [i for i, ch in enumerate(text) if ch == "*"][MAX_FREE_LOOPS])
        raise GaussCodeError(f"more than {MAX_FREE_LOOPS} free loops",
                             len(text) if end < 0 else end)
    return SignedGaussCode(tuple(tuple(Token(role, index_of[v], 1 if sgn == "+" else -1)
                                       for v, role, sgn in row) for row in rows), loops)


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
    Raises :class:`~vlink.diagram.DiagramError` unless every component has
    a token and every crossing occurs once as O and once as U with one sign.
    """
    vertex: dict[int, int] = {}
    rows = [[(vertex.setdefault(t.index, len(vertex)), t.role, "+" if t.sign > 0 else "-")
             for t in comp] for comp in code.components]
    _check_passes(rows)
    return require_valid(_from_passes(rows, code.free_loops))


def _from_canonical(cs: str) -> Diagram:
    """``to_diagram(parse_gauss(cs))`` without the free-loop limit, which
    R1- and R2- can leave search states a few loops above, and without
    building :class:`Token` values."""
    rows, loops, _ = _read(cs)
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
