"""In-memory span tracing of gixsat's public functions, installed from outside.

Every wrapped call records one span: name, start, end, parent span, instance
id, and one flag bit (the call returned None; for a generator step, the step
yielded an item). A generator function is traced one ``next()`` at a time, so
the time its consumer spends between items is not charged to it. Wrappers go
into the defining module and into every gixsat module that holds the same
function object; methods are wrapped on their class. ``uninstall`` puts the
originals back. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute) of every traced function; "Class.method" for methods
TARGETS = (
    ("formula", "assign"),
    ("formula", "link"),
    ("formula", "evaluate"),
    ("formula", "Formula.copy"),
    ("formula", "Trail.copy"),
    ("simplify", "simplify_to_fixpoint"),
    ("analysis", "measure"),
    ("dpll", "solve_g2"),
    ("dpll", "solve_g3"),
    ("dpll", "solve_g4"),
    ("dpll", "solve_auto"),
    ("mitm", "choose_cover"),
    ("mitm", "enumerate_cover_side"),
    ("mitm", "solve_mitm"),
    ("textio", "parse"),
    ("generator", "generate"),
)
GENERATORS = {("mitm", "enumerate_cover_side")}
NAMES = tuple(f"{mod}.{attr}" for mod, attr in TARGETS)

_RAISED = object()


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.flag = array("b")
        self.start = array("d")
        self.end = array("d")
        self.instance_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.instance.append(self.instance_id)
        self.flag.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int, flag: bool) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        self.flag[idx] = flag

    def _wrap(self, fn, name_id: int):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = _RAISED
            idx = open_(name_id)
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                close(idx, out is None)

        return traced

    def _wrap_generator(self, fn, name_id: int):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                item = _RAISED
                idx = open_(name_id)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close(idx, item is not _RAISED)
                yield item

        return traced

    def install(self, package: str = "gixsat") -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for name_id, (mod, attr) in enumerate(TARGETS):
            owner = by_name[mod]
            wrap = self._wrap_generator if (mod, attr) in GENERATORS else self._wrap
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, wrap(orig, name_id))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            traced = wrap(orig, name_id)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, traced)
                        self._undo.append((m, key, orig))

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    def arrays(self) -> dict:
        """Spans as numpy arrays, with each span's self time.

        Spans nest (one thread, plain calls), so the children of a span never
        overlap and the time they cover is the sum of their durations.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "name": name,
            "parent": parent,
            "instance": np.frombuffer(self.instance, dtype=np.int32),
            "flag": np.frombuffer(self.flag, dtype=np.int8).astype(bool),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path: str) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.array(NAMES), **{k: a[k] for k in
                            ("name", "parent", "instance", "flag", "start", "end")})
