"""Outside-in span tracer for the vfvacuum layers.

``Tracer.install`` wraps every public module-level callable other than a
class that each of the eight vfvacuum modules defines (a ``functools``
wrapper such as ``lru_cache`` counts by the function it wraps), plus
``argparse.ArgumentParser.parse_args`` and ``scipy.integrate.quad``, and
rebinds each wrapper at every place the original is bound: a module that did
``from .constants import load_constants`` holds its own reference, which
patching ``constants`` alone would miss. Each call records a span (name,
start, end, parent span, op id) in memory; ``summarize`` derives self times
and call counts from them.
"""

from __future__ import annotations

import argparse
import builtins
import functools
import importlib
import inspect
import io
import os
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("checks", "cli", "constants", "dirac", "oscillator", "permittivity", "report", "vfmodel")
# The function whose distinct inputs per op are counted, for its useful-call ratio.
KEYED = "dirac.decay_rate"
PINNED_CONSTANTS_FILE = "si_constants.txt"


def traceable(module, attr: str, obj) -> bool:
    """Whether ``module.attr`` is a public callable, not a class, defined in
    ``module``. Decorated functions are judged by the function they wrap."""
    if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
        return False
    return getattr(inspect.unwrap(obj), "__module__", None) == module.__name__


def _input_key(args: tuple, kwargs: dict):
    try:
        return hash((args, tuple(sorted(kwargs.items()))))
    except TypeError:
        return repr((args, kwargs))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.op = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.inputs: set[tuple[int, object]] = set()  # (op, input) pairs of KEYED
        self.file_reads = 0  # opens of the pinned constants file
        self.op_id = 0
        self._stack: list[int] = []
        self._originals: dict[int, object] = {}  # id(original) -> original
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        ops, parents, names, starts, ends, stack = (
            self.op, self.parent, self.name, self.start, self.end, self._stack)
        inputs = self.inputs if qualname == KEYED else None
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            ops.append(tracer.op_id)
            parents.append(stack[-1] if stack else -1)
            names.append(nid)
            if inputs is not None:
                inputs.add((tracer.op_id, _input_key(args, kwargs)))
            stack.append(index)
            ends.append(0.0)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        self._originals[id(fn)] = fn
        self._wrappers[id(fn)] = traced
        return traced

    def _counting_open(self, original):
        tracer = self

        @functools.wraps(original)
        def counted(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and os.fspath(file).endswith(PINNED_CONSTANTS_FILE):
                tracer.file_reads += 1
            return original(file, *args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, required=()) -> None:
        """Wrap the layers' functions and patch every binding site. Refuses,
        before patching anything, when a function named in ``required``
        (as ``layer.name``) is not there to wrap."""
        for layer in LAYERS:
            module = importlib.import_module(f"vfvacuum.{layer}")
            for attr, obj in list(vars(module).items()):
                if traceable(module, attr, obj):
                    self._wrap(f"{layer}.{attr}", obj)
        missing = sorted(set(required) - set(self.names))
        if missing:
            raise RuntimeError(f"tracer found nothing to wrap for {missing}")
        self._patch(argparse.ArgumentParser, "parse_args",
                    self._wrap("argparse.parse_args", argparse.ArgumentParser.parse_args))
        try:
            import scipy.integrate
        except ImportError:
            pass
        else:
            self._patch(scipy.integrate, "quad", self._wrap("scipy.quad", scipy.integrate.quad))
        counted_open = self._counting_open(io.open)
        self._patch(io, "open", counted_open)
        self._patch(builtins, "open", counted_open)
        for module in self._vfvacuum_modules():
            for attr, obj in list(vars(module).items()):
                if id(obj) in self._originals and self._originals[id(obj)] is obj:
                    self._patch(module, attr, self._wrappers[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @staticmethod
    def _vfvacuum_modules():
        return [module for name, module in list(sys.modules.items())
                if module is not None and (name == "vfvacuum" or name.startswith("vfvacuum."))]

    def unpatched(self) -> list[str]:
        """Module-level names in vfvacuum.* still bound to an original that
        has a wrapper; empty after a complete install."""
        found = []
        for module in self._vfvacuum_modules():
            for attr, obj in vars(module).items():
                if id(obj) in self._originals and self._originals[id(obj)] is obj:
                    found.append(f"{module.__name__}.{attr}")
        return found

    def write(self, path: Path) -> None:
        """All spans as tab-separated lines: index, op, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\top\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                handle.write(f"{i}\t{self.op[i]}\t{self.parent[i]}\t{self.names[self.name[i]]}"
                             f"\t{self.start[i]!r}\t{self.end[i]!r}\n")

    # ------------------------------------------------------------ analysis

    def summarize(self, ops: int, trials_by_op: dict[int, int]) -> dict[str, float]:
        """Per-op self times (ms) by layer, calls and inclusive times (ms) by
        function, from the recorded spans of ``ops`` ops."""
        count = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(count)]
        children = [0.0] * count
        for i in range(count):
            parent = self.parent[i]
            if parent >= 0:
                children[parent] += duration[i]
        self_by_layer: dict[str, float] = {}
        calls: dict[str, int] = {}
        inclusive: dict[str, float] = {}
        dirac_self_trial_ops = 0.0
        for i in range(count):
            qualname = self.names[self.name[i]]
            layer = qualname.split(".", 1)[0]
            own = duration[i] - children[i]
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own
            calls[qualname] = calls.get(qualname, 0) + 1
            inclusive[qualname] = inclusive.get(qualname, 0.0) + duration[i]
            if layer == "dirac" and trials_by_op.get(self.op[i], 0):
                dirac_self_trial_ops += own
        trials = sum(trials_by_op.values())
        return {
            "self_ms": {layer: 1e3 * t / ops for layer, t in self_by_layer.items()},
            "calls": {name: n / ops for name, n in calls.items()},
            "inclusive_ms": {name: 1e3 * t / ops for name, t in inclusive.items()},
            "distinct_inputs": len(self.inputs) / ops,
            "file_reads": self.file_reads / ops,
            "dirac_us_per_trial": 1e6 * dirac_self_trial_ops / trials if trials else 0.0,
        }
