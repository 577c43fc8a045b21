"""Layer spans recorded from outside the program.

`Tracer.install` wraps every public function defined in the seven
glocal modules and rebinds each name that refers to one of them in
every loaded glocal module, so calls made through a name another module
imported (``glocal.cli.parse_gml``, ``glocal.solver.factored_trace``)
are timed too.  `Tracer.remove` puts the original objects back.

Spans are aggregated as they close: per span name the busy time `s`,
the self time `self_s` (busy time minus the time covered by child
spans) and the call count.  Keeping every span would hold ~10^5 records
for the small-shape workloads, whose objective helpers are called that
often.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

MODULES = ("cli", "data", "clustering", "correlation", "solver", "model", "metrics")


def _glocal_modules():
    return [module for name, module in sorted(sys.modules.items())
            if name == "glocal" or name.startswith("glocal.")]


@dataclass
class SpanStats:
    s: float = 0.0
    self_s: float = 0.0
    calls: int = 0


class Tracer:
    """Times calls into glocal's public functions while installed.

    Args:
        hooks: optional map from a span name such as "solver.fit" to a
            callable ``hook(bound_arguments, result)``, run after each
            call of that function returns and outside its span.
        labels: optional map from a span name to a callable
            ``label(bound_arguments) -> str`` that renames the span per
            call (the CLI entry point is named by its subcommand).
    """

    def __init__(self, hooks=None, labels=None):
        self.stats = {}
        self.hooks = dict(hooks or {})
        self.labels = dict(labels or {})
        self._open = []  # child time accumulated by each open span
        self._patches = []  # (module, attribute, original object)

    def stat(self, name):
        return self.stats.get(name, SpanStats())

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        hook = self.hooks.get(name)
        label = self.labels.get(name)
        stats = self.stats
        open_spans = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if hook is not None or label is not None:
                bound = signature.bind(*args, **kwargs).arguments
            span = name if label is None else label(bound)
            open_spans.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                st = stats.get(span)
                if st is None:
                    st = stats[span] = SpanStats()
                st.s += dt
                st.self_s += dt - child
                st.calls += 1
            if hook is not None:
                hook(bound, result)
            return result

        return wrapper

    def install(self):
        """Wrap the public functions and rebind every name that refers to one."""
        names = {}
        for short in MODULES:
            module = importlib.import_module(f"glocal.{short}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    names[obj] = f"{short}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        for module in _glocal_modules():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patches.append((module, attr, obj))

    def remove(self):
        """Restore every rebound name.

        Returns True when every rebound name holds its original object
        again and no glocal module still refers to a wrapper.
        """
        installed = [getattr(m, a) for m, a, _ in self._patches]
        wrappers = {id(w) for w in installed}  # `installed` keeps the ids live
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        restored = all(getattr(m, a) is o for m, a, o in self._patches)
        self._patches = []
        for module in _glocal_modules():
            if any(id(obj) in wrappers for obj in vars(module).values()):
                restored = False
        return restored
