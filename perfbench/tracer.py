"""Outside-in per-layer trace of the thermalcomm modules.

Every public function of each layer module, and every public method of the
classes those modules define, is replaced by a timing wrapper.  A function
is rebound under every name a caller looks it up by: the defining module's
global (calls inside the module), each ``from .x import f`` copy in another
module, and the class attribute for methods.  Nothing in the program itself
changes; ``Tracer.installed`` restores every binding on exit.

A layer's self time is its total time minus the time of the wrapped calls
it made.  Work counters read the arguments of the call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

PACKAGE = "thermalcomm"
LAYERS = ("channel", "constellations", "chi2", "fock", "rates", "polar",
          "cli")


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0  # the counter named in COUNTERS, if the layer has one


# "<module>.<function>" -> (counter name, how one call adds to it, combine)
COUNTERS = {
    "fock.displaced_thermal": ("dim_max", lambda a: a["dim"], max),
    "rates.ensemble_average_state":
        ("points", lambda a: len(a["e"].probs), int.__add__),
    # pairs i <= j of the m x m kernel double sum, computed from m
    "constellations.classical_chi2_kernel":
        ("terms", lambda a: a["c"].m * (a["c"].m + 1) // 2, int.__add__),
    "polar.genie_error_counts":
        ("decisions", lambda a: int(a["llr"].size), int.__add__),
    "polar.sc_decode_batch":
        ("frames", lambda a: int(len(a["llr"])), int.__add__),
    "polar.InducedChannel.level_llrs":
        ("llrs", lambda a: int(len(a["yq"])), int.__add__),
    "polar.estimate_level_mi":
        ("samples", lambda a: int(a["samples"]), int.__add__),
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                _, read, combine = counter
                stat.work = combine(stat.work, read(bound.arguments))
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - children[0]
                if stack:
                    stack[-1][0] += dt

        return traced

    def _targets(self):
        """Yield (layer name, owner, attribute, function) for every public
        function and public method defined in the layer modules."""
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(
                        obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{layer}.{attr}", module, attr, obj
                elif inspect.isclass(obj):
                    for mattr, meth in vars(obj).items():
                        if not mattr.startswith("_") and inspect.isfunction(meth):
                            yield f"{layer}.{attr}.{mattr}", obj, mattr, meth

    @contextlib.contextmanager
    def installed(self):
        """Bind the wrappers for the duration of the block."""
        wrapped = {}  # id(original) -> wrapper
        patches = []  # (owner, attribute, original)
        for name, owner, attr, fn in self._targets():
            wrapped[id(fn)] = self._wrap(name, fn)
            if inspect.isclass(owner):
                patches.append((owner, attr, fn))
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    patches.append((module, attr, obj))
        try:
            for owner, attr, fn in patches:
                setattr(owner, attr, wrapped[id(fn)])
            yield self
        finally:
            for owner, attr, fn in patches:
                setattr(owner, attr, fn)

    def require(self, name: str) -> Stat:
        """The layer's statistics; an unknown name means the wrap missed it."""
        if name not in self.stats:
            raise LookupError(f"traced layer {name!r} does not exist; the "
                              "program's public API no longer matches the "
                              "benchmark")
        return self.stats[name]
