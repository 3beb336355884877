"""Arenas, handles, and the shared-region registry.

Memory is modeled as flat arenas of two kinds. PRIVATE arenas belong to the
guest alone; the device side can never read or write them. SHARED arenas are
visible to the device, but only while they are registered with the
SharedRegionManager. Every byte access goes through MemorySystem (read/write
for Handles, read_at/write_at/unpack_at/pack_at for absolute offsets) and
names which side is acting, so the device/VM trust boundary is enforced
in exactly one place and can be audited from the access log.

Instrumentation (per-byte read tallies plus an access log) is optional: tests
turn it on, the benchmark fast path leaves it off.
"""

from __future__ import annotations

import enum
import mmap
import struct
from array import array
from typing import Iterator, NamedTuple, Optional

from .errors import (
    AlreadyTornDown,
    DeviceAccessDenied,
    NotShared,
    OutOfBounds,
    ZeroSize,
)

_INCREMENT = (1).__add__


class RegionKind(enum.Enum):
    PRIVATE = "private"
    SHARED = "shared"


class Side(enum.Enum):
    VM = "vm"
    DEVICE = "device"


# Enum members the per-access code compares against, read once: on Python
# 3.10/3.11 a member lookup such as Side.DEVICE goes through
# EnumType.__getattr__ (timeit, Python 3.11.7 on a 2-CPU x86-64 host: 182
# ns, against 38 ns for a plain class attribute), and a round trip used to
# make about 150 of them. The other packet-path modules keep module-level
# aliases for the same reason.
_DEVICE = Side.DEVICE
_SHARED = RegionKind.SHARED


class Handle(NamedTuple):
    """A (region, offset, length) view into one arena. Plain data, no methods
    touch memory; resolution happens in MemorySystem."""

    region: int
    offset: int
    length: int

    def sub(self, start: int, length: int) -> "Handle":
        """Sub-range relative to this handle. Bounds checked here because a
        mis-built sub-handle should fail where it is made, not where used."""
        if start < 0 or length < 0 or start + length > self.length:
            raise OutOfBounds(
                f"sub({start}, {length}) outside handle of length {self.length}"
            )
        return Handle(self.region, self.offset + start, length)


class AccessRecord(NamedTuple):
    """One logged byte access. ok=False records a denied attempt; denied
    attempts never touch memory."""

    side: Side
    op: str  # "read" or "write"
    region: int
    offset: int
    length: int
    ok: bool


class Arena:
    __slots__ = ("id", "kind", "size", "data", "read_counters")

    def __init__(self, arena_id: int, kind: RegionKind, size: int, instrument: bool):
        self.id = arena_id
        self.kind = kind
        self.size = size
        # anonymous maps: zero until a page is first touched and unmapped when
        # the arena is dropped, so a rig costs only the pages its run touches
        self.data = mmap.mmap(-1, size)
        # per-byte read tally, allocated only under instrumentation
        self.read_counters = memoryview(mmap.mmap(-1, 4 * size)).cast("I") if instrument else None

    def is_zero(self) -> bool:
        return self.data[:] == bytes(self.size)


class SharedRegionManager:
    """Tracks which shared arenas the device is allowed to touch.

    Lifecycle is one-way: zero_and_release tears the manager down, and a
    torn-down manager refuses registration and a second teardown. Teardown
    zeroes every registered arena before unregistering it, so no guest data
    survives in device-visible memory.
    """

    def __init__(self, arenas: dict[int, Arena], quarantined: set[int]):
        # the owning system's arena table and quarantine set, not the system
        # itself, so the two do not hold each other in a reference cycle
        self._arenas = arenas
        self._quarantined = quarantined
        self.registered: set[int] = set()
        self.torn_down = False

    def register(self, arena: Arena) -> None:
        if self.torn_down:
            raise AlreadyTornDown("manager already torn down")
        if arena.kind is not RegionKind.SHARED:
            raise NotShared(f"arena {arena.id} is {arena.kind.value}")
        if self._arenas.get(arena.id) is not arena:
            raise NotShared(f"arena {arena.id} belongs to another memory system")
        self.registered.add(arena.id)

    def is_registered(self, region: int) -> bool:
        return region in self.registered

    def zero_and_release(self) -> None:
        """Zero every registered arena, unregister all, and tear down."""
        if self.torn_down:
            raise AlreadyTornDown("manager already torn down")
        for region in sorted(self.registered):
            arena = self._arenas[region]
            arena.data[:] = bytes(arena.size)
            self._quarantined.discard(region)
        self.registered.clear()
        self.torn_down = True


class MemorySystem:
    """All arenas of one simulated machine plus its shared-region manager."""

    def __init__(self, instrument: bool = False):
        self.instrument = instrument
        self.arenas: dict[int, Arena] = {}
        self.access_log: list[AccessRecord] = []
        # shared arenas abandoned by a non-graceful port teardown; not
        # reusable for new rings/pools until zero_and_release scrubs them
        self.quarantined: set[int] = set()
        self.shared = SharedRegionManager(self.arenas, self.quarantined)
        self._next_id = 1

    # -- arena lifecycle ---------------------------------------------------

    def create_arena(self, kind: RegionKind, size: int) -> Arena:
        if size <= 0:
            raise ZeroSize(f"arena size must be positive, got {size}")
        arena = Arena(self._next_id, kind, size, self.instrument)
        self.arenas[arena.id] = arena
        self._next_id += 1
        return arena

    def arena(self, region: int) -> Arena:
        try:
            return self.arenas[region]
        except KeyError:
            raise OutOfBounds(f"no arena with id {region}") from None

    def is_reusable(self, arena: Arena) -> bool:
        return arena.id not in self.quarantined

    # -- containment -------------------------------------------------------

    def contains(self, arena: Arena, h: Handle) -> bool:
        """Total check: does h lie fully inside this arena? Never raises;
        malformed handles simply return False."""
        if h.region != arena.id:
            return False
        return 0 <= h.offset and 0 <= h.length and h.offset + h.length <= arena.size

    def is_device_accessible(self, region: int) -> bool:
        arena = self.arenas.get(region)
        return (
            arena is not None
            and arena.kind is _SHARED
            and region in self.shared.registered
        )

    # -- byte access (the single trust-boundary choke point) ---------------
    #
    # Every accessor below runs the same two checks, once per call: the
    # range must lie inside an existing arena, and a device-side access must
    # target a registered shared arena. Each decides the all-clear case
    # inline, instrumentation off included, so it costs one Python frame;
    # anything else goes to _access, the only code that raises or logs.
    # The offset forms let fixed-layout callers (rings, buffer metadata)
    # name a field by absolute offset and decode it straight from the arena
    # with a precompiled struct, instead of building a Handle per field.

    def _access(self, region: int, offset: int, length: int, side: Side, op: str) -> Arena:
        arena = self.arenas.get(region)
        if arena is None:
            raise OutOfBounds(f"no arena with id {region}")
        if offset < 0 or length < 0 or offset + length > arena.size:
            raise OutOfBounds(
                f"[{offset}, {offset + length}) outside arena {arena.id} of size {arena.size}"
            )
        # membership alone is is_device_accessible here: register admits only
        # this system's SHARED arenas, arenas are never removed, and
        # zero_and_release empties the set in place
        if side is _DEVICE and region not in self.shared.registered:
            if self.instrument:
                self.access_log.append(AccessRecord(_DEVICE, op, region, offset, length, False))
            raise DeviceAccessDenied(
                f"device {op} of {length} B at region {region}+{offset} denied"
            )
        if self.instrument:
            self.access_log.append(AccessRecord(side, op, region, offset, length, True))
            counters = arena.read_counters
            if op == "read" and counters is not None:
                end = offset + length
                counters[offset:end] = array("I", map(_INCREMENT, counters[offset:end]))
        return arena

    def read_at(self, region: int, offset: int, length: int, side: Side) -> bytes:
        arena, end = self.arenas.get(region), offset + length
        if arena is None or self.instrument or not 0 <= offset <= end <= arena.size or (
            side is _DEVICE and region not in self.shared.registered
        ):
            arena = self._access(region, offset, length, side, "read")
        return bytes(arena.data[offset:end])

    def write_at(self, region: int, offset: int, data: bytes, side: Side) -> None:
        arena, end = self.arenas.get(region), offset + len(data)
        if arena is None or self.instrument or not 0 <= offset <= end <= arena.size or (
            side is _DEVICE and region not in self.shared.registered
        ):
            arena = self._access(region, offset, end - offset, side, "write")
        arena.data[offset:end] = data

    def unpack_at(self, region: int, offset: int, fmt: struct.Struct, side: Side) -> tuple:
        arena = self.arenas.get(region)
        if arena is None or self.instrument or not 0 <= offset <= arena.size - fmt.size or (
            side is _DEVICE and region not in self.shared.registered
        ):
            arena = self._access(region, offset, fmt.size, side, "read")
        return fmt.unpack_from(arena.data, offset)

    def pack_at(self, region: int, offset: int, fmt: struct.Struct, side: Side, *values) -> None:
        arena = self.arenas.get(region)
        if arena is None or self.instrument or not 0 <= offset <= arena.size - fmt.size or (
            side is _DEVICE and region not in self.shared.registered
        ):
            arena = self._access(region, offset, fmt.size, side, "write")
        fmt.pack_into(arena.data, offset, *values)

    def read(self, h: Handle, side: Side) -> bytes:
        return self.read_at(h.region, h.offset, h.length, side)

    def write(self, h: Handle, side: Side, data: bytes) -> None:
        if len(data) > h.length:
            raise OutOfBounds(f"write of {len(data)} B into handle of length {h.length}")
        self.write_at(h.region, h.offset, data, side)

    # -- audit helpers -----------------------------------------------------

    def device_touched_regions(self) -> set[int]:
        """Regions the device actually read or wrote (denied attempts excluded)."""
        return {
            rec.region
            for rec in self.access_log
            if rec.side is _DEVICE and rec.ok
        }

    def find_pattern(self, pattern: bytes, kind: Optional[RegionKind] = None) -> Iterator[tuple[int, int]]:
        """Yield (region, index) for every occurrence of pattern in arenas of
        the given kind (all arenas when kind is None)."""
        for arena in self.arenas.values():
            if kind is not None and arena.kind is not kind:
                continue
            start = 0
            while True:
                idx = arena.data.find(pattern, start)
                if idx < 0:
                    break
                yield (arena.id, idx)
                start = idx + 1

    def pattern_in_shared(self, pattern: bytes) -> bool:
        return next(self.find_pattern(pattern, RegionKind.SHARED), None) is not None
