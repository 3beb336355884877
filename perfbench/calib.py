"""Host-speed calibration for the end-to-end timings.

On a shared host the CPU's speed drifts by a quarter or more over tens of
seconds, in process CPU time as much as in wall time, so two runs of
identical code disagree by more than any useful regression bound. The
benchmark therefore times a fixed reference routine between reports and
scales every report's time by how fast the host ran that routine nearby:

    calibrated = measured * REF_S / (mean of the reference times around it)

The reference imitates what a report does in plain Python: it maps and
touches a fresh 8 MiB buffer page by page (a report builds multi-MiB
arenas), then runs a frozen-dataclass handle with bounds-checked sub-ranges
over it through checking read and write accessors, with struct packing and
a heap. With both parts its speed tracks the model's between the host's
fast and slow phases; the interpreter part alone over-corrects in fast
phases. It uses no splitio code, so a change to the package cannot move
it. REF_S is the reference routine's typical time on the 2-CPU x86-64
development host, so calibrated times read as host time on that machine.
"""

from __future__ import annotations

import gc
import heapq
import mmap
import struct
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

REF_S = 0.014
REF_EVERY_S = 0.1  # report time between two reference timings
_REF_BYTES = 8 << 20
_REF_ROUNDS = 1200
_PAGE = 4096

T = TypeVar("T")


@dataclass(frozen=True)
class _Handle:
    region: int
    offset: int
    length: int

    def sub(self, start: int, length: int) -> "_Handle":
        if start < 0 or length < 0 or start + length > self.length:
            raise IndexError("sub-range outside handle")
        return _Handle(self.region, self.offset + start, length)


class _Arena:
    def __init__(self, data: mmap.mmap):
        self.regions = {1: data}

    def read(self, h: _Handle) -> bytes:
        data = self.regions.get(h.region)
        if data is None or h.offset < 0 or h.offset + h.length > len(data):
            raise IndexError("read outside arena")
        return bytes(data[h.offset : h.offset + h.length])

    def write(self, h: _Handle, payload: bytes) -> None:
        data = self.regions.get(h.region)
        if data is None or len(payload) > h.length or h.offset + len(payload) > len(data):
            raise IndexError("write outside arena")
        data[h.offset : h.offset + len(payload)] = payload


def reference() -> int:
    """Fixed work; returns a checksum so nothing is optimised away.

    The buffer is a fresh anonymous mapping, so every page faults in on its
    first touch whatever state the allocator is in."""
    fresh = mmap.mmap(-1, _REF_BYTES)
    try:
        for off in range(0, _REF_BYTES, _PAGE):
            fresh[off] = 1
        arena = _Arena(fresh)
        base = _Handle(1, 0, _REF_BYTES)
        payload = bytes(range(128))
        heap: list = []
        acc = 0
        for i in range(_REF_ROUNDS):
            h = base.sub((i * 2176 * 7) % (_REF_BYTES - 256), 128)
            arena.write(h, payload)
            arena.write(h.sub(4, 4), struct.pack("<I", i))
            acc += struct.unpack("<I", arena.read(h.sub(4, 4)))[0]
            heapq.heappush(heap, (i * 7919 % 1000, i))
            if len(heap) > 64:
                heapq.heappop(heap)
            acc += len(arena.read(h))
    finally:
        fresh.close()
    return acc


class CalibratedTimer:
    """Times calls and interleaves reference timings between them.

    A reference runs before the first call and again whenever every_s of
    call time has passed since the last one (0: after every call); each
    call is scaled by the mean of the reference timings just before and
    just after its block.
    """

    def __init__(self, every_s: float = REF_EVERY_S) -> None:
        self.every_s = every_s
        self.refs: list[float] = []
        self._raw: list[tuple[float, int]] = []
        self._since = 0.0
        self._ref()

    def _ref(self) -> None:
        # collector off: its passes would traverse whatever splitio objects
        # are alive, and the reference must not depend on them; the
        # reference builds no cycles, so reference counting frees it all
        gc.disable()
        t0 = time.perf_counter()
        reference()
        self.refs.append(time.perf_counter() - t0)
        gc.enable()
        self._since = 0.0

    def time(self, fn: Callable[[], T]) -> tuple[T, float]:
        """Run fn; return its result and its raw host seconds. The raw time
        is also kept for calibration, including when fn raises."""
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            raw = time.perf_counter() - t0
            self._raw.append((raw, len(self.refs) - 1))
            self._since += raw
            if self._since >= self.every_s:
                self._ref()
        return result, raw

    def calibrated(self) -> list[float]:
        """Calibrated seconds of every timed call, in call order."""
        if self._since > 0.0:
            self._ref()
        refs = self.refs
        return [raw * REF_S * 2 / (refs[k] + refs[k + 1]) for raw, k in self._raw]

    def host_speed(self) -> float:
        """REF_S over the median reference time: above 1 the host ran
        faster than the development host's typical speed."""
        ordered = sorted(self.refs)
        return REF_S / ordered[len(ordered) // 2]
