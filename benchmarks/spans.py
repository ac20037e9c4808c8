"""Outside-in spans around cransim's layers.

The tracer never edits the package: it replaces a function on the module
(or class) attribute through which the package calls it, records one span
per call, and restores the original on ``uninstall``.  A span's self time
is its duration minus the time covered by its child spans.  Per-call hooks
can count work from a call's return value; their own cost is charged to no
span.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent_index, self_ns]
        self.counts = defaultdict(int)
        self.missing = []        # "module.attr" targets that could not be wrapped
        self._stack = []         # [span_index, child_ns]
        self._patches = []

    def wrap(self, owner, attr, name, hook=None):
        """Route calls of ``owner.attr`` through a span named ``name``.

        ``hook(tracer, result)`` runs after the call, outside every span's
        time.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                parent = stack[-1] if stack else None
                spans[index] = [name, start, end,
                                parent[0] if parent else -1,
                                end - start - frame[1]]
            if hook is not None:
                hook(self, result)
            if parent is not None:
                parent[1] += time.perf_counter_ns() - start
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def by_name(self):
        """``{name: (durations_ns, self_ns)}`` over the recorded spans."""
        out = defaultdict(lambda: ([], []))
        for name, start, end, _parent, self_ns in self.spans:
            durations, selfs = out[name]
            durations.append(end - start)
            selfs.append(self_ns)
        return out
