"""Arenas, handles, and the one owner of shared memory.

Memory is modeled as flat arenas of two kinds. PRIVATE arenas belong to the
guest alone; the device side can never read or write them. SHARED arenas are
visible to the device, but only while they are registered with their
MemorySystem, which also decides, in check_backing alone, whether a region
may back a ring. Every byte access goes through MemorySystem (read/write for
Handles, read_at/write_at/unpack_at/pack_at for absolute offsets) and names
which side is acting, so the device/VM trust boundary is enforced in exactly
one place. The accessors keep no record of what they allowed: a refused
device access raises before it touches a byte, and the tests audit the
accessors from outside by wrapping them.
"""

from __future__ import annotations

import enum
import mmap
import struct
from typing import Iterator, NamedTuple, NoReturn, Optional

from .errors import (
    AlreadyTornDown,
    ConfigInvalid,
    DeviceAccessDenied,
    NotShared,
    OutOfBounds,
    QuarantinedArena,
    ZeroSize,
)


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


# Arenas up to this size are heap bytearrays, which reuse what a dropped rig
# freed and so take no page fault; larger ones are anonymous maps, which cost
# only the pages a run touches (glibc's M_MMAP_THRESHOLD rule).
_HEAP_MAX = 128 * 1024

# candidates find_pattern checks in one arena before its full-pattern find
_ANCHOR_BUDGET = 64


class Arena:
    __slots__ = ("id", "kind", "size", "data")

    def __init__(self, arena_id: int, kind: RegionKind, size: int):
        self.id = arena_id
        self.kind = kind
        self.size = size
        # zero-filled either way; no accessor changes its length
        self.data = bytearray(size) if size <= _HEAP_MAX else mmap.mmap(-1, size)


class MemorySystem:
    """All arenas of one simulated machine and the lifecycle of its shared
    regions.

    The device may touch a SHARED arena only while it is registered. A
    non-graceful port teardown quarantines the port's shared arena: nothing
    new may be built on it until zero_and_release, which zeroes and
    unregisters every registered arena and tears the system down for good,
    so no guest data survives in device-visible memory.
    """

    def __init__(self):
        self.arenas: dict[int, Arena] = {}
        self.registered: set[int] = set()
        self.quarantined: set[int] = set()
        self.torn_down = False
        self._next_id = 1

    # -- arena lifecycle ---------------------------------------------------

    def create_arena(self, kind: RegionKind, size: int) -> Arena:
        if size <= 0:
            raise ZeroSize(f"arena size must be positive, got {size}")
        arena = Arena(self._next_id, kind, size)
        self.arenas[arena.id] = arena
        self._next_id += 1
        return arena

    def arena(self, region: int) -> Arena:
        try:
            return self.arenas[region]
        except KeyError:
            raise OutOfBounds(f"no arena with id {region}") from None

    # -- shared-region lifecycle -------------------------------------------

    def register(self, arena: Arena) -> None:
        if self.torn_down:
            raise AlreadyTornDown("shared regions already torn down")
        if self.arenas.get(arena.id) is not arena:
            raise NotShared(f"arena {arena.id} belongs to another memory system")
        if arena.kind is not _SHARED:
            raise NotShared(f"arena {arena.id} is {arena.kind.value}")
        self.registered.add(arena.id)

    def check_backing(self, region: int) -> None:
        """Refuse a region that may not back a ring: it must be registered,
        which only this system's SHARED arenas can be, and not quarantined."""
        if region not in self.registered:
            raise NotShared(f"arena {region} is not a registered shared arena")
        if region in self.quarantined:
            raise QuarantinedArena(f"arena {region} awaits zero_and_release")

    def zero_and_release(self) -> None:
        """Zero every registered arena, unregister all, and tear down."""
        if self.torn_down:
            raise AlreadyTornDown("shared regions already torn down")
        for region in self.registered:
            arena = self.arenas[region]
            arena.data[:] = bytes(arena.size)
        self.registered.clear()
        self.quarantined.clear()
        self.torn_down = True

    # -- containment -------------------------------------------------------

    def contains(self, arena: Arena, h: Handle) -> bool:
        """Total check: does h lie fully inside this arena? Never raises;
        malformed handles simply return False."""
        if h.region != arena.id:
            return False
        return 0 <= h.offset and 0 <= h.length and h.offset + h.length <= arena.size

    def is_device_accessible(self, region: int) -> bool:
        # register admits only this system's SHARED arenas
        return region in self.registered

    # -- byte access (the single trust-boundary choke point) ---------------
    #
    # Every accessor below runs the same two checks, once per call: the
    # range must lie inside an existing arena, and a device-side access must
    # target a registered shared arena. Each decides them inline, so an
    # access costs one Python frame; a refused access goes to _refuse, the
    # only code that raises. The offset forms let fixed-layout callers (rings,
    # buffer metadata) name a field by absolute offset and decode it
    # straight from the arena with a precompiled struct, instead of building
    # a Handle per field.

    def _refuse(self, region: int, offset: int, length: int, op: str) -> NoReturn:
        """Raise for an access an accessor refused, naming the first check it
        failed."""
        arena = self.arenas.get(region)
        if arena is None:
            raise OutOfBounds(f"no arena with id {region}")
        if offset < 0 or length < 0 or offset + length > arena.size:
            raise OutOfBounds(
                f"[{offset}, {offset + length}) outside arena {arena.id} of size {arena.size}"
            )
        # what is left is a device access to an unregistered arena
        raise DeviceAccessDenied(f"device {op} of {length} B at region {region}+{offset} denied")

    def read_at(self, region: int, offset: int, length: int, side: Side) -> bytes:
        arena, end = self.arenas.get(region), offset + length
        if arena is None or not 0 <= offset <= end <= arena.size or (
            side is _DEVICE and region not in self.registered
        ):
            self._refuse(region, offset, length, "read")
        return bytes(arena.data[offset:end])

    def write_at(self, region: int, offset: int, data: bytes, side: Side) -> None:
        arena, end = self.arenas.get(region), offset + len(data)
        if arena is None or not 0 <= offset <= end <= arena.size or (
            side is _DEVICE and region not in self.registered
        ):
            self._refuse(region, offset, end - offset, "write")
        arena.data[offset:end] = data

    def unpack_at(self, region: int, offset: int, fmt: struct.Struct, side: Side) -> tuple:
        arena, size = self.arenas.get(region), fmt.size
        if arena is None or not 0 <= offset <= arena.size - size or (
            side is _DEVICE and region not in self.registered
        ):
            self._refuse(region, offset, size, "read")
        return fmt.unpack_from(arena.data, offset)

    def pack_at(self, region: int, offset: int, fmt: struct.Struct, side: Side, *values) -> None:
        arena, size = self.arenas.get(region), fmt.size
        if arena is None or not 0 <= offset <= arena.size - size or (
            side is _DEVICE and region not in self.registered
        ):
            self._refuse(region, offset, size, "write")
        fmt.pack_into(arena.data, offset, *values)

    def read(self, h: Handle, side: Side) -> bytes:
        return self.read_at(h.region, h.offset, h.length, side)

    def write(self, h: Handle, side: Side, data: bytes) -> None:
        if len(data) > h.length:
            raise OutOfBounds(f"write of {len(data)} B into handle of length {h.length}")
        self.write_at(h.region, h.offset, data, side)

    # -- audit helpers -----------------------------------------------------

    def find_pattern(self, pattern: bytes, kind: Optional[RegionKind] = None) -> Iterator[tuple[int, int]]:
        """Yield (region, index) for every occurrence of pattern, overlapping
        ones included, in arenas of the given kind (all when kind is None),
        in arena order and ascending index. An empty pattern occurs
        everywhere, so it is refused: ConfigInvalid on the first step.
        Candidates are the hits of a one-byte find (a memchr) of the first
        nonzero byte, each confirmed by a slice compare; past _ANCHOR_BUDGET
        of them, or with no such byte, the full-pattern find takes over."""
        if not pattern:
            raise ConfigInvalid("an empty pattern matches every offset")
        width, lead = len(pattern), len(pattern) - len(pattern.lstrip(b"\0"))
        anchor = pattern[lead:lead + 1]
        for arena in self.arenas.values():
            if kind is not None and arena.kind is not kind:
                continue
            data, start = arena.data, 0
            if anchor:
                budget, at = _ANCHOR_BUDGET, data.find(anchor, lead)
                while at >= 0 and budget:
                    if data[at - lead:at - lead + width] == pattern:
                        yield (arena.id, at - lead)
                    budget, at = budget - 1, data.find(anchor, at + 1)
                if at < 0:
                    continue
                start = at - lead
            while True:
                idx = data.find(pattern, start)
                if idx < 0:
                    break
                yield (arena.id, idx)
                start = idx + 1

    def pattern_in_shared(self, pattern: bytes) -> bool:
        return next(self.find_pattern(pattern, RegionKind.SHARED), None) is not None
