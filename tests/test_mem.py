import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitio.errors import (
    AlreadyTornDown,
    DeviceAccessDenied,
    NotShared,
    OutOfBounds,
    ZeroSize,
)
from splitio.mem import AccessRecord, Handle, MemorySystem, RegionKind, Side


def make_mem(instrument: bool = True) -> MemorySystem:
    return MemorySystem(instrument=instrument)


class TestArenaLifecycle:
    def test_create_assigns_distinct_ids(self):
        mem = make_mem()
        a = mem.create_arena(RegionKind.PRIVATE, 64)
        b = mem.create_arena(RegionKind.SHARED, 64)
        assert a.id != b.id
        assert mem.arena(a.id) is a

    def test_zero_size_rejected(self):
        mem = make_mem()
        with pytest.raises(ZeroSize):
            mem.create_arena(RegionKind.PRIVATE, 0)
        with pytest.raises(ZeroSize):
            mem.create_arena(RegionKind.SHARED, -4)

    def test_unknown_region_lookup(self):
        mem = make_mem()
        with pytest.raises(OutOfBounds):
            mem.arena(999)


class TestDeviceConfinement:
    def test_private_arena_denied_to_device(self):
        mem = make_mem()
        arena = mem.create_arena(RegionKind.PRIVATE, 32)
        h = Handle(arena.id, 0, 8)
        mem.write(h, Side.VM, b"secret!!")
        with pytest.raises(DeviceAccessDenied):
            mem.read(h, Side.DEVICE)
        with pytest.raises(DeviceAccessDenied):
            mem.write(h, Side.DEVICE, b"x")
        # the denied attempts are on the record and touched nothing
        denied = [r for r in mem.access_log if not r.ok]
        assert len(denied) == 2
        assert all(r.side is Side.DEVICE for r in denied)
        assert mem.read(h, Side.VM) == b"secret!!"

    def test_shared_requires_registration(self):
        mem = make_mem()
        arena = mem.create_arena(RegionKind.SHARED, 32)
        h = Handle(arena.id, 0, 4)
        with pytest.raises(DeviceAccessDenied):
            mem.read(h, Side.DEVICE)
        mem.shared.register(arena)
        mem.write(h, Side.DEVICE, b"abcd")
        assert mem.read(h, Side.DEVICE) == b"abcd"
        assert mem.is_device_accessible(arena.id)

    def test_register_private_arena_rejected(self):
        mem = make_mem()
        arena = mem.create_arena(RegionKind.PRIVATE, 16)
        with pytest.raises(NotShared):
            mem.shared.register(arena)

    def test_register_foreign_arena_rejected(self):
        # region ids are per system: the foreign arena's id names one of ours
        mem, other = make_mem(), make_mem()
        own = mem.create_arena(RegionKind.SHARED, 16)
        foreign = other.create_arena(RegionKind.SHARED, 16)
        assert foreign.id == own.id
        with pytest.raises(NotShared):
            mem.shared.register(foreign)
        assert not mem.is_device_accessible(own.id)

    def test_device_touched_regions_excludes_denied(self):
        mem = make_mem()
        private = mem.create_arena(RegionKind.PRIVATE, 16)
        shared = mem.create_arena(RegionKind.SHARED, 16)
        mem.shared.register(shared)
        mem.write(Handle(shared.id, 0, 4), Side.DEVICE, b"dddd")
        with pytest.raises(DeviceAccessDenied):
            mem.read(Handle(private.id, 0, 4), Side.DEVICE)
        assert mem.device_touched_regions() == {shared.id}


class TestTeardown:
    def test_zero_and_release_scrubs_everything(self):
        mem = make_mem()
        a = mem.create_arena(RegionKind.SHARED, 64)
        b = mem.create_arena(RegionKind.SHARED, 64)
        mem.shared.register(a)
        mem.shared.register(b)
        mem.write(Handle(a.id, 0, 5), Side.VM, b"hello")
        mem.write(Handle(b.id, 10, 5), Side.DEVICE, b"world")
        mem.shared.zero_and_release()
        assert a.is_zero() and b.is_zero()
        assert not mem.shared.registered
        with pytest.raises(DeviceAccessDenied):
            mem.read(Handle(a.id, 0, 1), Side.DEVICE)

    def test_teardown_is_one_way(self):
        mem = make_mem()
        arena = mem.create_arena(RegionKind.SHARED, 16)
        mem.shared.register(arena)
        mem.shared.zero_and_release()
        with pytest.raises(AlreadyTornDown):
            mem.shared.register(arena)
        with pytest.raises(AlreadyTornDown):
            mem.shared.zero_and_release()

    def test_teardown_clears_quarantine(self):
        mem = make_mem()
        arena = mem.create_arena(RegionKind.SHARED, 16)
        mem.shared.register(arena)
        mem.quarantined.add(arena.id)
        assert not mem.is_reusable(arena)
        mem.shared.zero_and_release()
        assert mem.is_reusable(arena)


class TestHandles:
    def test_sub_handle_bounds(self):
        h = Handle(1, 100, 50)
        sub = h.sub(10, 20)
        assert (sub.region, sub.offset, sub.length) == (1, 110, 20)
        for bad in [(-1, 5), (0, 51), (40, 11), (0, -1)]:
            with pytest.raises(OutOfBounds):
                h.sub(*bad)

    def test_read_beyond_arena(self):
        mem = make_mem()
        arena = mem.create_arena(RegionKind.PRIVATE, 32)
        with pytest.raises(OutOfBounds):
            mem.read(Handle(arena.id, 24, 16), Side.VM)

    def test_write_longer_than_handle(self):
        mem = make_mem()
        arena = mem.create_arena(RegionKind.PRIVATE, 32)
        with pytest.raises(OutOfBounds):
            mem.write(Handle(arena.id, 0, 4), Side.VM, b"too long")

    def test_short_write_allowed(self):
        mem = make_mem()
        arena = mem.create_arena(RegionKind.PRIVATE, 32)
        mem.write(Handle(arena.id, 0, 16), Side.VM, b"ok")
        assert mem.read(Handle(arena.id, 0, 2), Side.VM) == b"ok"

    def test_contains_is_total(self):
        mem = make_mem()
        arena = mem.create_arena(RegionKind.SHARED, 32)
        assert mem.contains(arena, Handle(arena.id, 0, 32))
        assert not mem.contains(arena, Handle(arena.id, 16, 17))
        assert not mem.contains(arena, Handle(arena.id + 1, 0, 1))
        assert not mem.contains(arena, Handle(arena.id, -1, 4))

    @given(
        offset=st.integers(min_value=0, max_value=64),
        length=st.integers(min_value=0, max_value=64),
        payload=st.binary(min_size=0, max_size=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_or_bounds_error(self, offset, length, payload):
        mem = MemorySystem()
        arena = mem.create_arena(RegionKind.PRIVATE, 64)
        h = Handle(arena.id, offset, length)
        data = payload[:length]
        if offset + length <= 64:
            mem.write(h, Side.VM, data)
            assert mem.read(h, Side.VM)[: len(data)] == data
        else:
            with pytest.raises(OutOfBounds):
                mem.read(h, Side.VM)


class TestInstrumentation:
    def test_per_byte_read_counters(self):
        mem = make_mem()
        arena = mem.create_arena(RegionKind.PRIVATE, 8)
        mem.read(Handle(arena.id, 0, 4), Side.VM)
        mem.read(Handle(arena.id, 2, 4), Side.VM)
        assert list(arena.read_counters) == [1, 1, 2, 2, 1, 1, 0, 0]

    def test_uninstrumented_has_no_counters_or_log(self):
        mem = make_mem(instrument=False)
        arena = mem.create_arena(RegionKind.PRIVATE, 8)
        mem.read(Handle(arena.id, 0, 4), Side.VM)
        assert arena.read_counters is None
        assert mem.access_log == []


_Q = struct.Struct("<Q")

# accessor -> (its operation, a call of it for an 8-byte access)
_ACCESSORS = {
    "read_at": ("read", lambda mem, region, off, side: mem.read_at(region, off, 8, side)),
    "write_at": ("write", lambda mem, region, off, side: mem.write_at(region, off, b"\xee" * 8, side)),
    "unpack_at": ("read", lambda mem, region, off, side: mem.unpack_at(region, off, _Q, side)),
    "pack_at": ("write", lambda mem, region, off, side: mem.pack_at(region, off, _Q, side, 7)),
}

_DENIED = "device {op} of 8 B at region {id}+{off} denied"
# case -> (arena, offset, side, exception, message); the arena is one that
# _denial_rig builds, or None for an id no arena has
_DENIALS = {
    "unknown_region": (None, 0, Side.VM, OutOfBounds, "no arena with id 999"),
    "negative_offset": ("shared", -1, Side.VM, OutOfBounds, "[-1, 7) outside arena {id} of size 64"),
    "past_the_end": ("shared", 60, Side.VM, OutOfBounds, "[60, 68) outside arena {id} of size 64"),
    "device_on_private": ("private", 0, Side.DEVICE, DeviceAccessDenied, _DENIED),
    "device_on_unregistered": ("unregistered", 8, Side.DEVICE, DeviceAccessDenied, _DENIED),
    "device_after_release": ("released", 8, Side.DEVICE, DeviceAccessDenied, _DENIED),
}


def _denial_rig(instrument):
    """One arena of each kind the cases aim at, each filled with a pattern
    so a stray write would show."""
    mem = make_mem(instrument)
    arenas = {
        "shared": mem.create_arena(RegionKind.SHARED, 64),
        "private": mem.create_arena(RegionKind.PRIVATE, 64),
        "unregistered": mem.create_arena(RegionKind.SHARED, 64),
    }
    mem.shared.register(arenas["shared"])
    for arena in arenas.values():
        mem.write_at(arena.id, 0, bytes(range(1, 65)), Side.VM)
    return mem, arenas


class TestDeniedAccess:
    """Every accessor refuses the same way with instrumentation off or on:
    the same exception and message, no byte touched, and instrumented, a
    device denial logged once as a denied record. Out-of-bounds attempts
    are refused before anything is logged."""

    @pytest.mark.parametrize("instrument", [False, True], ids=["plain", "instrumented"])
    @pytest.mark.parametrize("accessor", list(_ACCESSORS))
    @pytest.mark.parametrize("case", list(_DENIALS))
    def test_denied_access_touches_nothing(self, case, accessor, instrument):
        mem, arenas = _denial_rig(instrument)
        target, offset, side, exc, message = _DENIALS[case]
        if target == "released":
            arenas["released"] = arenas["shared"]
            mem.shared.zero_and_release()
        region = arenas[target].id if target is not None else 999
        op, call = _ACCESSORS[accessor]
        before = {a.id: bytes(a.data) for a in arenas.values()}
        counts = {a.id: bytes(a.read_counters) for a in arenas.values() if instrument}
        mark = len(mem.access_log)
        with pytest.raises(exc) as info:
            call(mem, region, offset, side)
        assert str(info.value) == message.format(id=region, op=op, off=offset)
        assert {a.id: bytes(a.data) for a in arenas.values()} == before
        assert {a.id: bytes(a.read_counters) for a in arenas.values() if instrument} == counts
        logged = mem.access_log[mark:]
        if instrument and exc is DeviceAccessDenied:
            assert logged == [AccessRecord(Side.DEVICE, op, region, offset, 8, False)]
        else:
            assert logged == []


class TestPatternSearch:
    def test_find_pattern_by_kind(self):
        mem = make_mem()
        private = mem.create_arena(RegionKind.PRIVATE, 64)
        shared = mem.create_arena(RegionKind.SHARED, 64)
        mem.write(Handle(private.id, 3, 6), Side.VM, b"CANARY")
        assert not mem.pattern_in_shared(b"CANARY")
        mem.write(Handle(shared.id, 40, 6), Side.VM, b"CANARY")
        assert mem.pattern_in_shared(b"CANARY")
        hits = list(mem.find_pattern(b"CANARY"))
        assert (private.id, 3) in hits and (shared.id, 40) in hits

    def test_overlapping_occurrences_found(self):
        mem = make_mem()
        arena = mem.create_arena(RegionKind.SHARED, 16)
        mem.write(Handle(arena.id, 0, 5), Side.VM, b"aaaaa")
        hits = [idx for _, idx in mem.find_pattern(b"aaa", RegionKind.SHARED)]
        assert hits == [0, 1, 2]
