"""Span tracing of murel's public functions, installed from outside murel.

`Tracer.install` wraps every public function of the traced modules (the
names in each module's `__all__` that the module defines) and the
constructors of the public classes that validate their fields
(`__post_init__`).  A function is replaced in every murel module that binds
it, so a call through `from .linalg import herm_eig` in another module is
traced as well.  Private helpers are not wrapped: their time counts as self
time of the public function that calls them.

A span is recorded only while an operation is open (`begin_op`), so warm-up
and correctness checks leave no spans.  Spans stay in memory as
[name, start_ns, end_ns, parent index, operation id, input key] and are
written out once, by `write`.

For model construction and `evolve`, the span keeps its arguments until the
operation ends; `end_op` then replaces them by a digest of their contents.
The digest is taken outside every span, so it adds to no layer's time.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
import types

import numpy as np

LAYERS = ("cli", "scenario", "model", "linalg", "metrics", "relations", "reporting", "search")
# Spans whose inputs are digested, for the repeat ratios.
KEYED = frozenset({"model.build_sigma_phi", "model.build_shift_model", "model.IndirectModel", "model.evolve"})


def _digest(obj, h) -> None:
    """Feed a content description of obj (arrays, murel containers, closures) to h."""
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.shape}{obj.dtype.str}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(b"(")
        for item in obj:
            _digest(item, h)
        h.update(b")")
    elif isinstance(obj, dict):
        h.update(b"{")
        for k in sorted(obj):
            h.update(repr(k).encode())
            _digest(obj[k], h)
        h.update(b"}")
    elif isinstance(obj, types.FunctionType):
        h.update(f"f{obj.__module__}.{obj.__qualname__}".encode())
        _digest(obj.__defaults__ or (), h)
        _digest([c.cell_contents for c in obj.__closure__ or ()], h)
    elif hasattr(obj, "__dataclass_fields__"):
        h.update(type(obj).__qualname__.encode())
        _digest({f: getattr(obj, f) for f in obj.__dataclass_fields__}, h)
    else:
        h.update(f"{type(obj).__qualname__}:{obj!r}".encode())


def input_key(args: tuple, kwargs: dict) -> str:
    h = hashlib.blake2b(digest_size=12)
    _digest((list(args), kwargs), h)
    return h.hexdigest()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._op_first_span = 0

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._op_first_span = len(self.spans)

    def end_op(self) -> None:
        self._op = None
        for rec in self.spans[self._op_first_span:]:
            if rec[5] is not None:
                rec[5] = input_key(*rec[5])

    def _wrap(self, name: str, fn, method: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        keyed = name in KEYED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            key = ((args[1:] if method else args), kwargs) if keyed else None
            rec = [name, 0, 0, stack[-1] if stack else -1, self._op, key]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the public API of the already imported murel modules."""
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"murel.{layer}"]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and "__post_init__" in vars(obj):
                    obj.__init__ = self._wrap(f"{layer}.{attr}", obj.__init__, method=True)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "murel" or mod_name.startswith("murel."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(mod, attr, wrapped[obj])

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("name,start_ns,end_ns,parent,op,key\n")
            for name, start, end, parent, op, key in self.spans:
                f.write(f"{name},{start},{end},{parent},{op},{key or ''}\n")
