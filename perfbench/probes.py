"""Spans for the traced run and Python call counts for the counted run.

Both instrument the program from outside: the traced run replaces a
public function or method with a wrapper that records a span around
each call, and restores the original afterwards; the counted run
installs a ``sys.setprofile`` hook that tallies Python function calls
by the ``repro.<module>`` they belong to. Neither changes program code.
"""

import collections
import json
import sys
import time

#: repro sub-modules of the RTOS model reported as their own layer
RTOS_SERVICES = ("dispatch", "taskmgr", "eventmgr", "timemgr", "sched", "mc")


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, item]``: ``parent`` is the
    index of the enclosing span (``None`` at top level) and ``item`` the
    work item the benchmark was running. Calls too frequent to keep one
    span each (trace-sink records, DSP stage functions) are *folded*:
    one ``[calls, seconds]`` total per ``(name, parent, item)``.
    """

    def __init__(self):
        self.spans = []
        self.folds = {}
        self.counters = collections.Counter()
        self.captured = []
        self.item = None
        self._stack = []
        self._undo = []

    # -- recording -----------------------------------------------------

    def spanned(self, name, fn, before=None, after=None):
        """``fn`` wrapped to record a span per call.

        ``before(args)`` runs first and its value goes to
        ``after(args, value)``, which runs once the call returned.
        """
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            record = [name, time.perf_counter(), None,
                      stack[-1] if stack else None, self.item]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, token)
            return result

        return wrapper

    def folded(self, name, fn):
        """``fn`` wrapped to add each call to a folded total."""
        folds, stack = self.folds, self._stack

        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                key = (name, stack[-1] if stack else None, self.item)
                total = folds.get(key)
                if total is None:
                    total = folds[key] = [0, 0.0]
                total[0] += 1
                total[1] += time.perf_counter() - started

        return wrapper

    def replace(self, owner, attr, new):
        """Set ``owner.attr = new`` until :meth:`restore`."""
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch(self, owner, attr, name, **hooks):
        """Record a span around every call of ``owner.attr``."""
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self.replace(owner, attr, self.spanned(name, original, **hooks))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------

    def summary(self):
        """``name -> {"calls", "total_s", "self_s"}``.

        Self time is a span's duration minus the time its direct child
        spans and folded calls cover.
        """
        children = collections.defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        for (_, parent, _), (_, seconds) in self.folds.items():
            if parent is not None:
                children[parent] += seconds
        table = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - children[index]
        for (name, _, _), (calls, seconds) in self.folds.items():
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += calls
            row["total_s"] += seconds
            row["self_s"] += seconds
        return table


def write_trace(path, header, tracers):
    """Write the spans of every traced pass as JSON lines."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        out.write(json.dumps({"header": header}) + "\n")
        for number, tracer in enumerate(tracers):
            origin = tracer.spans[0][1] if tracer.spans else 0.0
            for name, start, end, parent, item in tracer.spans:
                out.write(json.dumps({
                    "pass": number, "name": name, "item": item,
                    "parent": parent, "start": start - origin,
                    "end": end - origin,
                }) + "\n")
            for (name, parent, item), (calls, seconds) in tracer.folds.items():
                out.write(json.dumps({
                    "pass": number, "fold": name, "item": item,
                    "parent": parent, "calls": calls, "seconds": seconds,
                }) + "\n")
            out.write(json.dumps({"pass": number,
                                  "summary": tracer.summary()}) + "\n")


def layer_of(module):
    """Layer name of a ``repro.*`` module, or ``None`` outside repro."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    if parts[1] == "rtos" and len(parts) > 2 and parts[2] in RTOS_SERVICES:
        return f"rtos.{parts[2]}"
    return parts[1]


def count_calls(fn):
    """Run ``fn()`` and return Python calls per layer.

    Counts the profiler's ``call`` events, which include every resume
    of a generator. Keys are :func:`layer_of` names; ``rtos`` totals its
    services too.
    """
    by_code = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            by_code[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    modules = {module.__file__: name
               for name, module in list(sys.modules.items())
               if name.startswith("repro") and getattr(module, "__file__", None)}
    counts = collections.Counter()
    for code, calls in by_code.items():
        layer = layer_of(modules.get(code.co_filename, ""))
        if layer is None:
            continue
        counts[layer] += calls
        if layer.startswith("rtos."):
            counts["rtos"] += calls
    return counts
