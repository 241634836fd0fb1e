"""In-memory spans around calls into psdperm's public functions.

The program carries no instrumentation of its own.  `Tracer.active`
swaps each function named in `LAYER_FUNCTIONS` for a timing wrapper in
every loaded ``psdperm`` module that refers to it, so calls made by the
package itself (``bound_permanent`` calling ``solve``, the CLI calling
``parse_instance``) are caught too, and restores the originals on exit.

A span is a dict with ``name``, ``start``, ``end``, ``parent`` (index of
the enclosing span, or None), ``request`` (the request id, or a phase
name such as ``"setup"``), ``failed`` and, for some functions, a count
of the work done (``bytes``, ``iterations``, ``subsets``, ``samples``).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter

#: Public functions whose calls are timed, as ``module.function``.
LAYER_FUNCTIONS = (
    "instances.gen_instance",
    "instances.write_instance",
    "instances.parse_instance",
    "gram.validate_hermitian_psd",
    "gram.gram_factor",
    "bound.bound_permanent",
    "bound.solve",
    "exact.permanent_ryser",
    "montecarlo.estimate_permanent",
)


def _count_work(name, args, result) -> dict:
    """Work done by one call, read from its arguments or result."""
    if name == "instances.parse_instance":
        return {"bytes": os.path.getsize(args[0])}
    if name == "bound.solve":
        return {"iterations": int(result.iterations), "converged": bool(result.converged)}
    if name == "exact.permanent_ryser":
        return {"subsets": 2 ** int(result.n) - 1}
    if name == "montecarlo.estimate_permanent":
        return {"samples": int(result.samples)}
    return {}


def _psdperm_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "psdperm" or key.startswith("psdperm."))]


class Tracer:
    """Collects spans while `active`; `spans` holds them in call order."""

    def __init__(self):
        importlib.import_module("psdperm.cli")  # load every module that holds references
        self.spans: list = []
        self.missing: list = []
        self._stack: list = []
        self._request = None
        self._wrappers = {}
        for name in LAYER_FUNCTIONS:
            module = importlib.import_module("psdperm." + name.split(".")[0])
            original = getattr(module, name.split(".")[1], None)
            if original is None:
                self.missing.append(name)
            else:
                self._wrappers[name] = (original, self._wrap(name, original))

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "start": 0.0, "end": 0.0,
                    "parent": self._stack[-1] if self._stack else None,
                    "request": self._request, "failed": False}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["failed"] = True
                raise
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            span.update(_count_work(name, args, result))
            return result

        return wrapper

    @contextmanager
    def active(self, request):
        """Trace calls made inside the block under the id `request`."""
        patched = []
        for original, wrapper in self._wrappers.values():
            for module in _psdperm_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        self._request = request
        try:
            yield self
        finally:
            self._request = None
            for module, attr, original in patched:
                setattr(module, attr, original)

    def extend(self, spans) -> None:
        """Append spans recorded by another process, keeping their tree."""
        offset = len(self.spans)
        for span in spans:
            span = dict(span)
            if span["parent"] is not None:
                span["parent"] += offset
            self.spans.append(span)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
