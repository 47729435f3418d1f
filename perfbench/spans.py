"""Spans around the public functions of each ``alttree`` layer.

Tracing is installed from the benchmark's side only: every target function
is replaced by a wrapper in each module namespace that holds a reference to
it (``from .core import section_word`` gives ``points`` and ``diagram``
their own references).  Each call records one span -- name, start, end and
parent -- into flat arrays kept in memory; self time is a span's duration
minus the durations of its direct children, which cover disjoint parts of
it because spans nest on one thread.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from array import array

import numpy as np

# (module, function) pairs traced in every traced pass.
TARGETS = (
    ("alttree.core", "reduce_word"),
    ("alttree.core", "section_word"),
    ("alttree.core", "is_identity"),
    ("alttree.points", "act"),
    ("alttree.points", "gray_segment"),
    ("alttree.pieces", "piece_code"),
    ("alttree.pieces", "schreier_ball"),
    ("alttree.pieces", "find_n0"),
    ("alttree.diagram", "image_of_cylinder"),
    ("alttree.diagram", "encode"),
    ("alttree.diagram", "decode"),
    ("alttree.diagram", "is_identity_on_vertex"),
    ("alttree.diagram", "roundtrip_audit"),
    ("alttree.corpus", "sample_points"),
)

SPANS = tuple(range(3, 14))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack: list[int] = []
        # piece_code extras, one entry per piece_code span, in call order
        self.code_span = array("H")
        self.code_misses = 0
        self.code_memo_calls = 0
        self.ball_vertices = 0
        self.roundtrip_paths = 0
        self.installed: list[tuple] = []

    def _wrap(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        name_of, start, end, parent, stack = self.name_of, self.start, self.end, self.parent, self.stack

        def wrapper(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooked(self, name: str, fn):
        """Wrap ``fn`` and record the counts its layer metric needs."""
        inner = self._wrap(name, fn)
        if name == "pieces.piece_code":
            def piece_code(q, lo, hi, memo=None):
                self.code_span.append(hi - lo + 1)
                if memo is None:
                    return inner(q, lo, hi)
                before = len(memo)
                out = inner(q, lo, hi, memo)
                self.code_memo_calls += 1
                self.code_misses += len(memo) != before
                return out
            return piece_code
        if name == "pieces.schreier_ball":
            def schreier_ball(p, radius):
                out = inner(p, radius)
                self.ball_vertices += len(out)
                return out
            return schreier_ball
        if name == "diagram.roundtrip_audit":
            def roundtrip_audit(*args, **kwargs):
                out = inner(*args, **kwargs)
                self.roundtrip_paths += out["checked"]
                return out
            return roundtrip_audit
        return inner

    def install(self, extra_modules=()) -> None:
        """Replace every reference to a target in the ``alttree`` modules
        and in ``extra_modules`` by its wrapper."""
        targets = [(getattr(importlib.import_module(modname), attr), modname, attr) for modname, attr in TARGETS]
        namespaces = [m for n, m in sys.modules.items() if n.startswith("alttree")]
        namespaces += list(extra_modules)
        for orig, modname, attr in targets:
            wrapped = self._hooked(f"{modname.split('.')[1]}.{attr}", orig)
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self.installed.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in self.installed:
            setattr(mod, key, orig)
        self.installed.clear()

    # -- results -----------------------------------------------------------

    def arrays(self):
        return tuple(np.asarray(a) for a in (self.name_of, self.start, self.end, self.parent))

    def save(self, path) -> None:
        names, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_of=names, start=start, end=end, parent=parent)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of this pass; layers the pass never entered read 0."""
        import alttree.core as core
        import alttree.diagram as diagram

        names, start, end, parent = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child

        def by(name):
            nid = self.name_ids.get(name)
            return np.zeros(len(dur), bool) if nid is None else names == nid

        out: dict[str, float] = {}
        for modname, attr in TARGETS:
            name = f"{modname.split('.')[1]}.{attr}"
            mask = by(name)
            out[f"{name}.calls"] = int(mask.sum())
            out[f"{name}.self_s"] = float(self_t[mask].sum())
        code_dur = dur[by("pieces.piece_code")]
        spans = np.asarray(self.code_span)
        for s in SPANS:
            sel = code_dur[spans == s]
            out[f"pieces.piece_code.p50_ms.span{s}"] = float(statistics.median(sel) * 1e3) if len(sel) else 0.0
        out["pieces.piece_code.miss_ratio"] = (
            self.code_misses / self.code_memo_calls if self.code_memo_calls else 0.0
        )
        out["pieces.schreier_ball.vertices"] = self.ball_vertices
        out["diagram.roundtrip_audit.paths"] = self.roundtrip_paths
        out["core.identity_cache.entries"] = len(core._IDENTITY_CACHE)
        out["diagram.iov_cache.entries"] = len(diagram._IOV_CACHE)
        out["trace.spans"] = len(dur)
        return out
