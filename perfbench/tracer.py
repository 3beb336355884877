"""Span tracing and Python-call counting around splitio's public functions.

Everything here works from outside the package: the traced run replaces
each public function or method with a timing wrapper for the duration of a
``with Tracer(...).installed():`` block and puts every original back on
exit. A module-level function is replaced under every name it is bound to
in any loaded ``splitio`` module, because several modules import functions
by name (``simloop`` binds ``esp_encrypt``, ``esp_decrypt``, ``port_new``
and ``inline_attach`` at import), and patching only the defining module
would miss those calls.

Spans are kept in memory as parallel arrays (name, report, parent, start,
end) and written out once the run ends. A span's self time is its duration
minus the part of it that its child spans cover.

The call count is a separate, untimed pass: a ``sys.setprofile`` hook
attributes every call, Python or builtin, to a splitio module.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

LAYERS = ("mem", "ring", "pools", "ipsec", "devsim", "simloop", "bench")


class Spans:
    """In-memory span store. Index i describes one call: name id, report
    id, parent span index (-1 for a root), start and end in ns."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.report = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.report_id = -1

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.report.append(self.report_id)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def root(self, name: str, report_id: int) -> Iterator[int]:
        """One report's root span; every span opened inside carries its id."""
        self.report_id = report_id
        idx = self.open(self.name_id(name))
        try:
            yield idx
        finally:
            self.close(idx)
            self.report_id = -1

    def duration(self, idx: int) -> int:
        return self.end[idx] - self.start[idx]

    def dump(self, path: Path) -> None:
        """Header line of JSON, then the five arrays in header order."""
        fields = ("name", "report", "parent", "start", "end")
        header = {"count": len(self), "names": self.names, "fields": fields,
                  "typecodes": [getattr(self, f).typecode for f in fields]}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in fields:
                getattr(self, f).tofile(fh)

    @staticmethod
    def load(path: Path) -> "Spans":
        spans = Spans()
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            for name in header["names"]:
                spans.name_id(name)
            for f, code in zip(header["fields"], header["typecodes"]):
                arr = array(code)
                arr.fromfile(fh, header["count"])
                setattr(spans, f, arr)
        return spans


def self_times(spans: Spans) -> list[int]:
    """Per span: duration minus the union of its children's intervals.

    Children are visited in start order (a child is opened after its
    parent and after its earlier siblings), so tracking the furthest end
    covered so far per parent merges overlapping children exactly.
    """
    start, end, parent = spans.start, spans.end, spans.parent
    covered = [0] * len(start)
    reach: dict[int, int] = {}
    for i in range(len(start)):
        p = parent[i]
        if p < 0:
            continue
        s, e = start[i], end[i]
        lo = max(s, reach.get(p, s))
        if e > lo:
            covered[p] += e - lo
            reach[p] = e
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


# ---------------------------------------------------------------------------
# Patching.


class Patcher:
    """Replaces attributes and remembers the exact objects it displaced."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, new: object) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


def bindings(fn: Callable) -> list[object]:
    """Every loaded splitio module whose namespace binds this function."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if (name == "splitio" or name.startswith("splitio.")) and mod is not None
        and any(v is fn for v in vars(mod).values())
    ]


AfterHook = Callable[[tuple, dict, object], None]


class Tracer:
    """Times calls into the targets while installed.

    ``functions`` are (module, name, label) for module-level functions;
    ``methods`` are (class, name, label) for methods, properties and
    static methods. ``after`` maps a label to a hook that sees the call's
    positional arguments, keyword arguments and result; that is how the
    benchmark collects the ports, NICs and crypto workers a report builds.
    """

    def __init__(
        self,
        functions: list[tuple[object, str, str]],
        methods: list[tuple[type, str, str]],
        after: dict[str, AfterHook],
    ):
        self.functions = functions
        self.methods = methods
        self.after = after
        self.spans = Spans()

    def _wrap(self, fn: Callable, label: str) -> Callable:
        spans = self.spans
        nid = spans.name_id(label)
        hook = self.after.get(label)
        name, report, parent, start, end, stack = (
            spans.name, spans.report, spans.parent, spans.start, spans.end, spans.stack)
        clock = time.perf_counter_ns

        # Spans.open/close inlined: this runs on every call into the package
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            report.append(spans.report_id)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", label)
        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        patcher = Patcher()
        try:
            for module, attr, label in self.functions:
                orig = vars(module)[attr]
                wrapped = self._wrap(orig, label)
                for owner in bindings(orig):
                    for key, value in list(vars(owner).items()):
                        if value is orig:
                            patcher.replace(owner, key, wrapped)
            for cls, attr, label in self.methods:
                orig = vars(cls)[attr]
                if isinstance(orig, property):
                    new: object = property(
                        self._wrap(orig.fget, label + ".get") if orig.fget else None,
                        self._wrap(orig.fset, label + ".set") if orig.fset else None,
                    )
                elif isinstance(orig, staticmethod):
                    new = staticmethod(self._wrap(orig.__func__, label))
                else:
                    new = self._wrap(orig, label)
                patcher.replace(cls, attr, new)
            yield self
        finally:
            patcher.restore()


# ---------------------------------------------------------------------------
# Deterministic Python-call counting.


def count_calls(run: Callable[[], object]) -> Counter:
    """Calls made during run(), keyed by module, for splitio modules only. A Python function call counts toward the module whose
    code it enters, a builtin call toward the module that calls it; this is
    the total cProfile reports. Generator resumptions count as calls."""
    counts: Counter = Counter()

    def hook(frame, event, arg):
        if event == "call" or event == "c_call":
            module = frame.f_globals.get("__name__", "")
            if module == "splitio" or module.startswith("splitio."):
                counts[module] += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts
