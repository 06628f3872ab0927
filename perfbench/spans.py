"""In-memory span tracer that wraps vallab's public entry points from outside.

Installing the tracer replaces, for the duration of a traced pass,

* every public method (plus the arithmetic operators) of every class
  defined in a vallab module, on the class itself, and
* every public vallab function at every module binding and in every
  module-level dict that holds it (``constructions`` does
  ``from .tower import val``; ``BUILDERS`` and ``SUITES`` hold builders),

with a wrapper that records spans: name, start, end, parent span and
operation id, in flat ``array`` columns that are only read after the
pass.  A span is recorded where a call crosses from one module (layer)
into another, and at every entry point the metric map names (``x**p``,
``val``, ``contains``, ...).  A call from a module into one of its own
small helpers is not a layer boundary: it runs unrecorded and its time
stays in the caller's self time.  That keeps the span count in the low
millions for the heaviest pass.  Calls made while no operation is open
are passed through, so the benchmark's own checking code never shows up
in the trace.
"""

import json
import sys
import time
import types
from array import array

PACKAGE = "vallab"

# operators count as public methods; comparisons, hashing and printing do not
OPERATORS = frozenset((
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__pow__", "__neg__", "__eq__"))


class Tracer:
    def __init__(self, always):
        """`always(span_name)` is true for an entry point that gets its own
        span even when called from inside its own module."""
        self._always = always
        self.names = []
        self._name_ids = {}
        self._module_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")     # time covered by direct child spans
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self._stack = []
        self._mods = []
        self._patches = []
        # counters taken where the work happens
        self.pow_p_calls = 0
        self.pow_p_repeats = 0
        self._powered = set()
        self.mul_calls = 0
        self.mul_out_terms = 0
        self.errors = []            # (span name, exception), first span seen
        self._seen_exc = set()

    # -- span recording -------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _append(self, nid, parent):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(parent)
        self.op.append(self.current_op)
        self.start.append(0.0)
        self.end.append(0.0)
        self.child.append(0.0)
        return idx

    def open(self, name, op_id):
        """Open the root span of one operation; returns its index."""
        self.current_op = op_id
        self._powered = set()
        idx = self._append(self._name_id(name), -1)
        self._stack.append(idx)
        self._mods.append(-1)
        self.start[idx] = time.perf_counter()
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._mods.pop()
        self.current_op = -1

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        mid = self._module_ids.setdefault(name.split(".")[0],
                                          len(self._module_ids))
        always = self._always(name)
        starts, ends, child = self.start, self.end, self.child
        stack, mods = self._stack, self._mods
        clock = time.perf_counter
        tracer = self
        before = self._pow_hook if name == "tower.TElem.__pow__" else None
        after = self._mul_hook if name == "tower.TElem.__mul__" else None

        def traced(*args, **kwargs):
            if tracer.current_op < 0 or (not always and mods[-1] == mid):
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            parent = stack[-1]
            idx = tracer._append(nid, parent)
            stack.append(idx)
            mods.append(mid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if id(exc) not in tracer._seen_exc:
                    tracer._seen_exc.add(id(exc))
                    tracer.errors.append((name, exc))
                raise
            finally:
                t1 = clock()
                stack.pop()
                mods.pop()
                starts[idx] = t0
                ends[idx] = t1
                child[parent] += t1 - t0
            if after is not None:
                after(out)
            return out

        traced.__wrapped__ = fn
        for attr in ("__name__", "__qualname__", "__doc__"):
            setattr(traced, attr, getattr(fn, attr, name))
        return traced

    def _pow_hook(self, args):
        x, n = args[0], args[1]
        tower = getattr(x, "tower", None)
        if tower is None or n != tower.p:
            return
        self.pow_p_calls += 1
        key = (tuple(g.name for g in tower.gens),
               sys.modules[PACKAGE + ".tower"].to_text(x))
        if key in self._powered:
            self.pow_p_repeats += 1
        else:
            self._powered.add(key)

    def _mul_hook(self, out):
        self.mul_calls += 1
        self.mul_out_terms += len(out.coords)

    # -- installing and removing the wrappers ----------------------------------

    def install(self):
        """Wrap every public entry point of the loaded package modules."""
        modules = [m for n, m in sorted(sys.modules.items()) if m is not None
                   and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrapped = {}

        def wrapper_for(fn):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = (fn, self._wrap(fn, _span_name(fn)))
            return wrapped[id(fn)][1]

        for mod in modules:
            for cls in list(vars(mod).values()):
                if not isinstance(cls, type) or cls.__module__ != mod.__name__:
                    continue
                for attr, fn in list(vars(cls).items()):
                    if isinstance(fn, types.FunctionType) and (
                            not attr.startswith("_") or attr in OPERATORS):
                        self._patch(setattr, cls, attr, fn, wrapper_for(fn))
        for mod in modules:
            for binding, value in list(vars(mod).items()):
                if _is_public_function(value):
                    self._patch(setattr, mod, binding, value,
                                wrapper_for(value))
                elif isinstance(value, dict) and not binding.startswith("__"):
                    for key, v in list(value.items()):
                        if _is_public_function(v):
                            self._patch(dict.__setitem__, value, key, v,
                                        wrapper_for(v))

    def _patch(self, setter, owner, attr, original, replacement):
        setter(owner, attr, replacement)
        self._patches.append((setter, owner, attr, original))

    def uninstall(self):
        for setter, owner, attr, original in reversed(self._patches):
            setter(owner, attr, original)
        self._patches.clear()

    # -- reading the spans -----------------------------------------------------

    def __len__(self):
        return len(self.name)

    def duration(self, i):
        return self.end[i] - self.start[i]

    def self_time(self, i):
        """Duration minus the part of it that direct child spans cover."""
        return self.end[i] - self.start[i] - self.child[i]

    def write(self, stem):
        """Write the spans: names to STEM.json, raw columns to STEM.bin.

        The .bin file holds the columns name (int32), start, end (float64),
        parent, op (int32) one after another, each `count` entries long.
        """
        with open(stem + ".json", "w") as fh:
            json.dump({"names": self.names, "count": len(self.name),
                       "columns": [["name", "i"], ["start", "d"],
                                   ["end", "d"], ["parent", "i"],
                                   ["op", "i"]]}, fh)
        with open(stem + ".bin", "wb") as fh:
            for col in (self.name, self.start, self.end, self.parent,
                        self.op):
                col.tofile(fh)


def _is_public_function(value):
    if not isinstance(value, types.FunctionType):
        return False
    module = value.__module__ or ""
    return ((module == PACKAGE or module.startswith(PACKAGE + "."))
            and not value.__name__.startswith("_"))


def _span_name(fn):
    mod = fn.__module__
    if mod.startswith(PACKAGE + "."):
        mod = mod[len(PACKAGE) + 1:]
    return "%s.%s" % (mod, fn.__qualname__)
