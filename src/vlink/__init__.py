"""Virtual links as decorated 4-valent maps: codecs, moves, surfaces,
invariants, and bounded equivalence search."""

from .codec import (
    GaussCodeError,
    SignedGaussCode,
    Token,
    diagram_from_json,
    diagram_to_json,
    emit_gauss,
    from_diagram,
    parse_gauss,
    to_diagram,
)
from .diagram import (
    EMPTY,
    UNKNOT,
    Diagram,
    DiagramError,
    DiagramStats,
    canonical_string,
    disjoint_union,
    mirror,
    stats,
    validate,
)
from .invariants import (
    LaurentPoly,
    Quandle,
    StateSumLimitError,
    bracket,
    check_quandle,
    dihedral_quandle,
    f_poly,
    load_quandle,
    quandle_colorings,
    trivial_quandle,
)
from .moves import MoveError, MoveSite, apply_move, enumerate_moves
from .search import (
    MinimizeResult,
    OrbitResult,
    SearchBounds,
    SearchError,
    SearchOutcome,
    classify_corpus,
    equivalent,
    minimize,
    orbit,
)
from .surface import (
    GenusResult,
    complexity_measure,
    genus,
    split_components,
    trace_faces,
)

__all__ = [
    "Diagram", "DiagramError", "DiagramStats", "EMPTY", "UNKNOT",
    "GaussCodeError", "SignedGaussCode", "Token",
    "parse_gauss", "emit_gauss", "to_diagram", "from_diagram",
    "diagram_to_json", "diagram_from_json",
    "validate", "stats", "canonical_string", "mirror", "disjoint_union",
    "GenusResult", "trace_faces",
    "genus", "complexity_measure", "split_components",
    "LaurentPoly", "Quandle", "StateSumLimitError",
    "bracket", "f_poly", "quandle_colorings", "check_quandle",
    "dihedral_quandle", "trivial_quandle", "load_quandle",
    "MoveSite", "MoveError", "enumerate_moves", "apply_move",
    "SearchBounds", "SearchError", "SearchOutcome", "OrbitResult", "MinimizeResult",
    "orbit", "equivalent", "minimize", "classify_corpus",
]

__version__ = "0.1.0"
