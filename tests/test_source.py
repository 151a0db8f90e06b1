"""Checks on the library source itself."""

import ast
import collections
import importlib
import subprocess
import sys
from pathlib import Path

import vlink

SRC = Path(vlink.__file__).parent


def test_no_bare_assert_in_src():
    # python -O strips assert statements, so correctness checks in the
    # library must raise explicitly
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert list(SRC.glob("*.py"))
    assert found == []


def _is_lru_cache(node) -> bool:
    """``node`` names ``functools.lru_cache``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "lru_cache" and getattr(node.value, "id", None) == "functools"
    return isinstance(node, ast.Name) and node.id == "lru_cache"


def test_every_cache_has_a_size_bound():
    # an unbounded cache grows for the life of the process, so each
    # lru_cache names a positive integer maxsize and functools.cache is unused
    found, checked = [], 0
    for path in sorted(SRC.glob("*.py")):
        module = "vlink" if path.stem == "__init__" else f"vlink.{path.stem}"
        namespace = vars(importlib.import_module(module))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if (isinstance(node, ast.Attribute) and node.attr == "cache"
                    and getattr(node.value, "id", None) == "functools") or (
                    isinstance(node, ast.ImportFrom) and node.module == "functools"
                    and any(alias.name == "cache" for alias in node.names)):
                found.append(f"{where}: functools.cache")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{where}: lru_cache without arguments"
                          for dec in node.decorator_list if _is_lru_cache(dec)]
            if isinstance(node, ast.Call) and _is_lru_cache(node.func):
                size = next((k.value for k in node.keywords if k.arg == "maxsize"),
                            node.args[0] if node.args else None)
                value = None if size is None else eval(
                    compile(ast.Expression(size), str(path), "eval"), namespace)
                if type(value) is not int or value <= 0:
                    found.append(f"{where}: lru_cache maxsize {value!r}")
                checked += 1
    assert checked and found == []


def test_one_reset_empties_every_memo():
    # tests reset the library's memos through helpers.clear_memos; a memo
    # it misses would carry state from one test into the next.  Every
    # lru_cache in a vlink module and every container search.py binds at
    # module level must be empty after it
    import vlink.search
    from vlink.codec import parse_gauss, to_diagram
    from vlink.diagram import UNKNOT
    from vlink.search import SearchBounds, classify_corpus

    from helpers import clear_memos

    classify_corpus([UNKNOT, to_diagram(parse_gauss("O1+ U1+"))], SearchBounds(2))
    assert vlink.search._replayed  # the kink joins the unknot's class by a replayed path
    clear_memos()
    caches = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("vlink" if path.stem == "__init__" else f"vlink.{path.stem}")
        caches.update({id(value): value for value in vars(module).values()
                       if hasattr(value, "cache_info")})
    assert {c.__wrapped__.__name__ for c in caches.values()} >= {"canonical_string", "_layout"}
    assert [c.__wrapped__.__name__ for c in caches.values() if c.cache_info().currsize] == []
    memos = _search_memos()
    assert {"_undone", "_closed", "_tables", "_replayed"} <= set(memos)
    assert [name for name, memo in memos.items() if memo] == []


def _search_memos() -> dict:
    """The containers and caches search.py binds at module level, by name."""
    tree = ast.parse((SRC / "search.py").read_text(), filename="search.py")
    bound = {target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
             for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
             if isinstance(target, ast.Name)}
    search = importlib.import_module("vlink.search")
    return {name: getattr(search, name) for name in bound
            if isinstance(getattr(search, name), (dict, list, set, collections.deque))
            or hasattr(getattr(search, name), "cache_info")}


def test_search_keeps_no_listing_memo():
    # a listing has one reader, the search that lists its state, so
    # search.py memoizes no function and keeps only the up-move records,
    # the closed orbits, the replayed steps and the invariant tables
    tree = ast.parse((SRC / "search.py").read_text(), filename="search.py")
    found = [f"search.py:{node.lineno}" for node in ast.walk(tree) if _is_lru_cache(node) or (
        getattr(node, "id", getattr(node, "attr", None)) in ("cache", "cached_property"))]
    assert found == []
    assert sorted(_search_memos()) == ["_closed", "_replayed", "_tables", "_undone"]


def test_every_export_is_defined_once():
    # an entry a deletion leaves behind in vlink.__all__ breaks
    # ``from vlink import *``; a repeated entry hides such a leftover
    assert [name for name in vlink.__all__ if not hasattr(vlink, name)] == []
    assert sorted(set(vlink.__all__)) == sorted(vlink.__all__)


def _diagram_calls(tree):
    """The calls of ``Diagram`` under ``tree``."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call) and "Diagram" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_moves_and_search_build_diagrams_only_from_gauss_codes():
    # move results, search states, mirrors, unions, relabellings and split
    # components come from diagram._from_passes (through
    # moves._apply_unchecked and codec._from_canonical or directly), never
    # from fields assembled by hand: diagram.py calls Diagram only there
    # and in its EMPTY and UNKNOT constants
    found = [f"{name}:{node.lineno}" for name in ("moves.py", "search.py", "surface.py")
             for node in _diagram_calls(ast.parse((SRC / name).read_text(), filename=name))]
    assert found == []
    tree = ast.parse((SRC / "diagram.py").read_text(), filename="diagram.py")
    # top-level statements that call Diagram, by name or assigned name
    builders = [getattr(node, "name", None) or ast.unparse(node).split(" = ")[0]
                for node in tree.body if _diagram_calls(node)]
    assert builders == ["EMPTY", "UNKNOT", "_from_passes"]


def test_dart_tables_come_from_the_one_scan():
    # vertex_of, sigma, opposite and _slots read diagram._scan's tables and
    # build none themselves; genus counts faces without a surface record
    tree = ast.parse((SRC / "diagram.py").read_text(), filename="diagram.py")
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "Diagram")
    methods = {node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)}
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = [name for name in ("vertex_of", "sigma", "opposite", "_slots")
             if any(isinstance(node, loops) for node in ast.walk(methods[name]))]
    assert found == []
    surface = importlib.import_module("vlink.surface")
    assert not hasattr(surface, "build_surface") and not hasattr(surface, "RibbonSurface")


def test_each_layer_reads_what_a_lower_layer_owns():
    # moves reads Diagram.faces, not vlink.surface; search replays each
    # step through moves.apply_move, not the unchecked builder
    tree = ast.parse((SRC / "moves.py").read_text(), filename="moves.py")
    imported = [name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for name in (node.module, *(alias.name for alias in node.names))]
    assert "diagram" in imported and "surface" not in imported
    assert "_apply_unchecked" not in (SRC / "search.py").read_text()


def test_code_check_and_labeller_each_loop_once():
    # _check_passes reads each pass once, with no sort; _label's piece
    # loop lives in its one nested function, so no copy of it can serve
    # one-circuit codes apart
    tree = ast.parse((SRC / "diagram.py").read_text(), filename="diagram.py")
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    called = {getattr(node.func, "id", None) for node in ast.walk(funcs["_check_passes"])
              if isinstance(node, ast.Call)}
    assert called and not called & {"sorted", "zip"}
    nested = [node for node in ast.walk(funcs["_label"])
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert len(nested) == 2  # _label and its one nested function


def test_listing_labels_in_one_loop():
    # a search listing labels each site where its one reader reaches it:
    # one generator, with no pairs kept for a second reader to resume
    # past, so no islice and no handler in _listing
    tree = ast.parse((SRC / "search.py").read_text(), filename="search.py")
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "_listing" in defined and not defined & {"_Listing", "_expand", "_successors"}
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name))}
    names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
    assert "islice" not in names
    listing = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_listing")
    assert not any(isinstance(node, ast.Try) for node in ast.walk(listing))


def test_replay_reads_no_search_memo():
    # a replayed step reaches its state only through apply_move and
    # canonical_string, or through the record of a step _replay itself
    # applied: no listing, up-move record, kept orbit or table, and no
    # edit or label of the search's own
    tree = ast.parse((SRC / "search.py").read_text(), filename="search.py")
    replay = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_replay")
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(replay) if isinstance(node, (ast.Attribute, ast.Name))}
    assert {"apply_move", "canonical_string", "_replayed"} <= names
    assert names & {"_listing", "_undone", "_closed", "_tables", "_label", "_edit"} == set()


def test_listings_are_built_only_where_they_are_read():
    # in search.py a listing is built only where a search lists a state
    # and where equivalent walks back a path; a state that is only ranked
    # gets no listing
    tree = ast.parse((SRC / "search.py").read_text(), filename="search.py")
    callers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "_listing":
                callers.append(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    assert sorted(callers) == ["_Search.layer", "equivalent"]


def test_invariants_are_listed_once():
    # outside invariants.py, f_poly and quandle_colorings are used only in
    # the body of search.invariant_rows, so the invariant list lives in one
    # place; an import binds a name without using it
    found, n_rows = [], 0
    for path in sorted(SRC.glob("*.py")):
        if path.name == "invariants.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        rows = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "invariant_rows" and path.name == "search.py"]
        n_rows += len(rows)
        allowed = {id(node) for row in rows for node in ast.walk(row)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if getattr(node, "id", getattr(node, "attr", None)) in (
                      "f_poly", "quandle_colorings") and id(node) not in allowed]
    assert n_rows == 1 and found == []


def test_benchmark_tracer_installs():
    # the benchmark's tracer rebinds library names such as
    # canonical_string.cache_info, surface.trace_faces and
    # moves._apply_unchecked; a change that drops one fails here
    code = ('import sys; sys.path[:0] = ["src", "tests", "perfbench"]; '
            'from tracing import Tracer; Tracer().install()')
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-B", "-c", code], cwd=root,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
