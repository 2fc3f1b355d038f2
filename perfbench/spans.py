"""In-memory span recorder for the traced benchmark run.

The recorder wraps library functions from outside the library: every
module attribute that refers to a wrapped function is replaced, so a call
made through ``qutritxxz.sweeps.negativity`` is recorded just like one made
through ``qutritxxz.entanglement.negativity``.  Each span keeps its name,
start, end, parent span and the module of the calling frame.  Spans stay in
memory until the benchmark writes them out at the end of a run.
"""

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index into the span list, -1 for a root span
    caller: str      # module name of the frame that made the call
    error: bool = False


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its children (overlapping children are counted once, and a
    child is clipped to its parent's interval)."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        intervals = sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                           for c in children[i])
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


@dataclass
class Aggregate:
    """Per-name totals over one list of spans."""

    calls: Counter
    self_s: Counter
    incl_s: Counter
    by_parent: Counter     # (name, parent name) -> calls
    ok_by_parent: Counter  # same, counting only calls that returned normally
    by_caller: Counter     # (name, caller module) -> calls
    total_self_s: float

    @classmethod
    def of(cls, spans):
        calls, self_s, incl_s = Counter(), Counter(), Counter()
        by_parent, ok_by_parent, by_caller = Counter(), Counter(), Counter()
        selfs = self_times(spans)
        for s, st in zip(spans, selfs):
            parent = spans[s.parent].name if s.parent >= 0 else ""
            calls[s.name] += 1
            self_s[s.name] += st
            incl_s[s.name] += s.end - s.start
            by_parent[s.name, parent] += 1
            if not s.error:
                ok_by_parent[s.name, parent] += 1
            by_caller[s.name, s.caller] += 1
        return cls(calls, self_s, incl_s, by_parent, ok_by_parent, by_caller,
                   float(sum(selfs)))


class Recorder:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1,
                        sys._getframe(1).f_globals.get("__name__", ""))
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()

        return wrapper

    def install(self, targets, namespaces):
        """Wrap each function in ``targets`` (span name -> function) wherever
        one of ``namespaces`` (modules) holds a reference to it."""
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets.items()}
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def uninstall(self):
        while self._patches:
            ns, attr, value = self._patches.pop()
            setattr(ns, attr, value)

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def write_spans(spans, path):
    """One JSON array per line: name, start, end, parent, caller, error."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.caller, s.error]) + "\n")
