"""Span tracing of the program's layers, recorded from outside the program.

Every public function of a layer module is wrapped, and the wrapper is bound
under every name that held the original in any effsynth module: the modules
import each other's functions by name (`from .lp import solve_ratio_lfp`), so
patching only the defining module would miss those calls.  Spans stay in
memory; the wrappers are removed when the `installed()` block ends.
"""

import contextlib
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "parsers", "model", "graph", "lp", "chain", "synthesis",
          "sim")


class Span:
    __slots__ = ("name", "start", "end", "parent", "error", "meta")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.error = None
        self.meta = None

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


def _sim_steps(args, kwargs):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[-1]
    return cfg.steps * cfg.rollouts


# Extra facts recorded on some spans: name -> (when, probe).  "call" probes
# see (args, kwargs), "return" probes see the result.
PROBES = {
    "lp.solve_lp": ("call", lambda args, kwargs: args[0].a_eq.shape),
    "model.build_product": ("return", lambda pm: (
        pm.n_states, sum(len(acts) for acts in pm.available))),
    "sim.simulate": ("call", _sim_steps),
    "sim.acceptance_visits": ("call", _sim_steps),
}


class Tracer:
    """Records one span per call of a wrapped function: name, start, end and
    the index of the enclosing span."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self._stack = []
        self._clock = clock

    def wrap(self, name, fn):
        when, probe = PROBES.get(name, (None, None))

        def traced(*args, **kwargs):
            span = Span(name, self._clock(),
                        self._stack[-1] if self._stack else None)
            if when == "call":
                span.meta = probe(args, kwargs)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span.error = type(e).__name__
                raise
            finally:
                self._stack.pop()
                span.end = self._clock()
            if when == "return":
                span.meta = probe(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    @contextlib.contextmanager
    def installed(self, layers=LAYERS, package="effsynth"):
        """Wrap the public functions of `package.<layer>` for each layer."""
        wrappers = {}  # id of original -> wrapper; the originals stay alive
        for layer in layers:
            mod = importlib.import_module(f"{package}.{layer}")
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(fn)] = self.wrap(f"{layer}.{name}", fn)
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    setattr(mod, attr, wrappers[id(val)])
                    patched.append((mod, attr, val))
        try:
            yield self
        finally:
            for mod, attr, val in patched:
                setattr(mod, attr, val)


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    Calls run on one thread, so children are disjoint and nested inside
    their parent; the children's sum is the part of the parent they cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def span_cost(calls=20000, repeats=5):
    """Seconds one wrapper adds to a call, timed on a no-op function: the
    median over `repeats` of the traced minus the untraced loop time."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)

    def loop(fn):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - start

    diffs = [loop(traced) - loop(noop) for _ in range(repeats)]
    return max(0.0, sorted(diffs)[repeats // 2]) / calls
