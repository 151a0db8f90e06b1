"""Spans around the entry points of each ``vlink`` layer, recorded from
outside the library.

Every module of the package imports its collaborators by name
(``from .diagram import canonical_string``), so a wrapper only takes
effect once it replaces the original in every module that holds it;
:meth:`Tracer.install` does that by identity.  Spans live in four flat
arrays while the workload runs and are written out afterwards.  Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

# crossing count up to which vlink.bracket takes its enumeration engine
BRACKET_SWITCH = 12
SITE_NAMES = {"R1+": "R1p", "R1-": "R1m", "R2+": "R2p", "R2-": "R2m",
              "R3": "R3", "R2+stab": "R2stab"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.sites: Counter = Counter()
        self.search = Counter()
        self.canonical_cache = self.cache_at_start = None

    def layer_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def span(self, name: str, fn, layer_of=None, on_result=None):
        """``fn`` wrapped to record one span per call, under ``name`` or
        under the name ``layer_of(args)`` picks per call; ``on_result``
        sees each result."""
        fixed = self.layer_id(name) if layer_of is None else None
        layer, parent, start, end, stack = self.layer, self.parent, self.start, self.end, self.stack

        def traced(*args, **kwargs):
            i = len(layer)
            layer.append(self.layer_id(layer_of(args)) if fixed is None else fixed)
            parent.append(stack[-1] if stack else -1)
            start.append(perf_counter_ns())
            end.append(0)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind each layer entry point in every vlink module holding it."""
        import vlink.codec as codec
        import vlink.diagram as diagram
        import vlink.invariants as invariants
        import vlink.moves as moves
        import vlink.search as search
        import vlink.surface as surface

        def count_sites(sites):
            for s in sites:
                self.sites[s.kind] += 1

        def count_search(res, truncated=None):
            self.search["states"] += res.explored
            self.search["truncated"] += res.truncated if truncated is None else truncated

        for size in ("small", "large"):
            self.layer_id(f"invariants.bracket.{size}")

        def bracket_layer(args):
            small = args[0].n_vertices <= BRACKET_SWITCH
            return "invariants.bracket.small" if small else "invariants.bracket.large"

        wrappers = {
            diagram.canonical_string: self.span("diagram.canonical_string", diagram.canonical_string),
            diagram.require_valid: self.span("diagram.require_valid", diagram.require_valid),
            codec.parse_gauss: self.span("codec.parse_gauss", codec.parse_gauss),
            codec.to_diagram: self.span("codec.to_diagram", codec.to_diagram),
            moves.enumerate_moves: self.span("moves.enumerate_moves", moves.enumerate_moves,
                                             on_result=count_sites),
            moves._apply_unchecked: self.span("moves.apply", moves._apply_unchecked),
            surface.trace_faces: self.span("surface.trace_faces", surface.trace_faces),
            surface.genus: self.span("surface.genus", surface.genus),
            invariants.bracket: self.span("invariants.bracket", invariants.bracket,
                                          layer_of=bracket_layer),
            invariants.quandle_colorings: self.span("invariants.quandle_colorings",
                                                    invariants.quandle_colorings),
            search.orbit: self.span("search.orbit", search.orbit, on_result=count_search),
            search.equivalent: self.span("search.equivalent", search.equivalent,
                                         on_result=count_search),
            search.minimize: self.span("search.minimize", search.minimize,
                                       on_result=lambda r: count_search(r, not r.certified)),
            search.invariant_table: self.span("search.invariant_table", search.invariant_table),
        }
        self.canonical_cache = diagram.canonical_string
        self.cache_at_start = diagram.canonical_string.cache_info()
        rebind(wrappers)

    def summary(self) -> dict:
        """Per-layer call counts and self seconds, from the recorded spans."""
        n = len(self.layer)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        calls = Counter()
        self_ns = Counter()
        for i, lid in enumerate(self.layer):
            calls[lid] += 1
            self_ns[lid] += own[i]
        out = {}
        for lid, name in enumerate(self.names):
            out[name + ".calls"] = calls[lid]
            out[name + ".self_s"] = self_ns[lid] / 1e9
        if self.cache_at_start is not None:
            cache = self.canonical_cache.cache_info()
            out["diagram.canonical_string.hits"] = cache.hits - self.cache_at_start.hits
            out["diagram.canonical_string.cache_entries"] = cache.currsize
        for kind, short in SITE_NAMES.items():
            out["moves.sites." + short] = self.sites[kind]
        out["traced_s"] = sum(d for d, p in zip(dur, self.parent) if p < 0) / 1e9
        out["search.states"] = self.search["states"]
        out["search.truncated"] = self.search["truncated"]
        return out

    def write(self, path: Path) -> None:
        """Spans as raw native arrays (layer i32, parent i32, start i64,
        end i64, each of length count) plus a JSON header naming layers."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as f:
            for arr in (self.layer, self.parent, self.start, self.end):
                arr.tofile(f)
        header = {"count": len(self.layer), "layers": self.names,
                  "arrays": ["layer:i32", "parent:i32", "start_ns:i64", "end_ns:i64"],
                  "byteorder": sys.byteorder}
        path.with_suffix(".json").write_text(json.dumps(header) + "\n")


def rebind(replacements: dict) -> None:
    """Replace every module attribute of the vlink package that *is* one
    of the keys by the matching value."""
    by_id = {id(orig): new for orig, new in replacements.items()}
    for name, module in list(sys.modules.items()):
        if name != "vlink" and not name.startswith("vlink."):
            continue
        for attr, value in list(vars(module).items()):
            new = by_id.get(id(value))
            if new is not None:
                setattr(module, attr, new)
