"""In-memory span recorder and the rebinding that lets it time gwmixer.

A name imported with ``from .graphs import symmetrize`` is a separate
binding in every importing module, so wrapping one function means
replacing every binding of that function object in every loaded gwmixer
module (and on its class, for a method). ``Rebinder`` does that and puts
the originals back. Spans stay in memory until the run ends.
"""

import sys
import time
from functools import wraps

PACKAGE = "gwmixer"


class Span:
    """One timed call: name, start, end, the index of the enclosing span
    (-1 for none) and the operation it belongs to (0 for set-up)."""

    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, end, parent, op):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.op]


class SpanRecorder:
    """Collects nested spans from one thread, in start order."""

    def __init__(self):
        self.spans = []
        self.sizes = {}  # span name -> summed size of its results
        self.op = 0
        self._open = []

    def begin(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), None, parent, self.op))
        self._open.append(idx)
        return idx

    def end(self, idx):
        if not self._open or self._open[-1] != idx:
            raise RuntimeError(f"span {idx} closed out of order")
        self._open.pop()
        self.spans[idx].end = time.perf_counter()

    def traced(self, name, fn, size=None):
        """fn wrapped so that every call records a span; size(result), when
        given, is added to self.sizes[name]."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if size is not None:
                self.sizes[name] = self.sizes.get(name, 0) + size(out)
            return out

        return wrapper


def self_times(spans):
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children count once)."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        reach = s.start
        for c in sorted(kids, key=lambda c: c.start):
            lo = max(c.start, reach)
            hi = min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


class Rebinder:
    """Replaces every binding of a function in the gwmixer modules,
    remembering each so that restore() puts the original back."""

    def __init__(self):
        self._saved = []  # (namespace owner, name, original)

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def replace(self, module_name, attr, make):
        """Replace `attr` of module `module_name` ("Class.method" for a
        method) by make(original), everywhere it is bound. Returns the
        number of bindings replaced."""
        owner = sys.modules[f"{PACKAGE}.{module_name}"]
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return 1
        original = getattr(owner, attr)
        replacement = make(original)
        count = 0
        for mod in self._modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, name, original))
                    setattr(mod, name, replacement)
                    count += 1
        return count

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
