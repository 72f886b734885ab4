"""Spans and counters recorded from outside the paraloq package.

Nothing under ``src/`` knows about tracing. Wrappers are installed on the
module and class attributes through which callers look the wrapped names
up (``acquisition`` binds ``acquire_byte`` and friends with ``from ...
import``, so those wrappers go on ``paraloq.acquisition``), and every
original is put back when the ``patched`` block exits.

Two instruments, used in separate passes so one does not distort the other:

* ``Tracer`` records one span per call (name, parent, start, end) into a
  flat in-memory array; ``fold`` turns them into per-name count, total and
  self time, where self time is a span minus the time its children cover.
  A wrapper costs about a microsecond, part inside the span it records and
  part outside it, in its parent's interval. ``calibrate`` measures both
  parts on a no-op and ``fold`` takes them out, so that a parent with many
  small children (the filter loop calls three functions 32 times per
  channel and tick) does not get their bookkeeping as self time.
* ``Counter`` only counts calls and raised exceptions. It wraps the port
  primitives, which fire 76 times per tick, in a pass of their own.
"""

from __future__ import annotations

import builtins
import time
from array import array
from contextlib import contextmanager
from statistics import median

_MISSING = object()


@contextmanager
def patched(replacements):
    """Set ``owner.attr = value`` for each triple; restore every one on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


class Tracer:
    """Span recorder. Spans are kept in memory until ``fold`` consumes them."""

    def __init__(self):
        self.names: list = []
        # four int64 per span: name id, parent offset (-1 at the root), start ns, end ns
        self._buf = array("q")
        self._stack = [-1]
        self.bias_ns = (0.0, 0.0)  # per span: (inside its interval, outside it)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        nid = self._name_id(name)
        buf = self._buf
        extend = buf.extend
        stack = self._stack
        push, pop = stack.append, stack.pop
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            i = len(buf)
            extend((nid, stack[-1], 0, 0))
            push(i)
            buf[i + 2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                buf[i + 3] = clock()
                pop()

        return span

    def calibrate(self, calls: int = 20000, repeats: int = 7) -> None:
        """Measure ``bias_ns``, the wrapper's cost per span, on a no-op function."""

        def nop(a, b):
            return None

        span = self.wrap("tracer.calibration", nop)
        clock = time.perf_counter_ns
        inside, outside = [], []
        for _ in range(repeats):
            self.fold()
            t0 = clock()
            for _ in range(calls):
                nop(1, 2)
            t1 = clock()
            for _ in range(calls):
                span(1, 2)
            t2 = clock()
            recorded = self.fold()["tracer.calibration"][1]
            bare = t1 - t0
            inside.append((recorded - bare) / calls)
            outside.append((t2 - t1 - recorded) / calls)
        self.bias_ns = (median(inside), median(outside))

    def fold(self) -> dict:
        """{name: (calls, total_ns, self_ns)} over the spans so far, with the
        wrapper's cost taken out; clears the spans."""
        buf = self._buf
        inside, outside = self.bias_ns
        k = len(self.names)
        calls, total, covered = [0] * k, [0] * k, [0] * k
        for nid, parent, start, end in zip(buf[0::4], buf[1::4], buf[2::4], buf[3::4]):
            d = end - start
            calls[nid] += 1
            total[nid] += d - inside
            if parent >= 0:
                covered[buf[parent]] += d + outside
        del buf[:]
        return {
            name: (calls[i], total[i], total[i] - covered[i])
            for i, name in enumerate(self.names)
            if calls[i]
        }


class Counter:
    """Call and exception counts per name; ``counts[name + '.raised']`` too."""

    def __init__(self):
        self.counts: dict = {}

    def wrap(self, name: str, fn):
        counts = self.counts
        raised = name + ".raised"
        counts.setdefault(name, 0)
        counts.setdefault(raised, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                counts[raised] += 1
                raise

        return counted

    def counting_open(self):
        """An ``open`` whose files count their ``flush`` calls under 'flush'."""
        counts = self.counts
        counts.setdefault("flush", 0)

        def opener(*args, **kwargs):
            return _FlushCountingFile(builtins.open(*args, **kwargs), counts)

        return opener


class _FlushCountingFile:
    def __init__(self, fh, counts):
        self._fh = fh
        self._counts = counts

    def flush(self):
        self._counts["flush"] += 1
        self._fh.flush()

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
