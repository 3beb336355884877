import mmap
import struct
import weakref
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from access_oracle import (
    AccessRecord,
    UnregisteredDeviceAccess,
    access_log,
    device_touched_regions,
    is_zero,
    read_counts,
    recording,
)
from splitio.devsim import AdversaryPlan, run_adversary
from splitio.errors import (
    AlreadyTornDown,
    ConfigInvalid,
    DeviceAccessDenied,
    NotShared,
    OutOfBounds,
    SplitioError,
    ZeroSize,
)
from splitio.mem import _ANCHOR_BUDGET, _HEAP_MAX, Handle, MemorySystem, RegionKind, Side
from test_security import CANARY, PRIVATE_REGION

# one arena size on each side of the line between heap and mapped arenas:
# the checks below run on both backings
_SIZES = {"heap": 64, "mapped": _HEAP_MAX + 64}
_BOTH_BACKINGS = pytest.mark.parametrize("size", list(_SIZES.values()), ids=list(_SIZES))
# pattern-search contents and patterns: one to six bytes of an alphabet with
# zero, so hits, overlaps and leading zeros are common
_CHUNK = st.lists(st.sampled_from(b"\0\1ab"), min_size=1, max_size=6).map(bytes)


class TestArenaLifecycle:
    def test_create_assigns_distinct_ids(self):
        mem = MemorySystem()
        a = mem.create_arena(RegionKind.PRIVATE, 64)
        b = mem.create_arena(RegionKind.SHARED, 64)
        assert a.id != b.id
        assert mem.arena(a.id) is a

    def test_zero_size_rejected(self):
        mem = MemorySystem()
        with pytest.raises(ZeroSize):
            mem.create_arena(RegionKind.PRIVATE, 0)
        with pytest.raises(ZeroSize):
            mem.create_arena(RegionKind.SHARED, -4)

    def test_unknown_region_lookup(self):
        mem = MemorySystem()
        with pytest.raises(OutOfBounds):
            mem.arena(999)

    @pytest.mark.parametrize(
        "size, backing",
        [(1, bytearray), (_HEAP_MAX, bytearray), (_HEAP_MAX + 1, mmap.mmap)],
    )
    def test_backing_follows_size(self, size, backing):
        arena = MemorySystem().create_arena(RegionKind.SHARED, size)
        assert type(arena.data) is backing
        assert len(arena.data) == size and is_zero(arena)

    @_BOTH_BACKINGS
    def test_fresh_arena_shows_no_dropped_bytes(self, size):
        """The heap may serve a new arena from memory a dropped one freed:
        none of the dropped arena's bytes show in it."""
        mem = MemorySystem()
        arena = mem.create_arena(RegionKind.SHARED, size)
        canaries = CANARY * (size // len(CANARY))
        mem.write_at(arena.id, 0, canaries, Side.VM)
        assert mem.pattern_in_shared(CANARY)
        dropped = weakref.ref(mem)
        del mem, arena
        assert dropped() is None
        mem = MemorySystem()
        fresh = mem.create_arena(RegionKind.SHARED, size)
        assert not mem.pattern_in_shared(CANARY)
        assert is_zero(fresh)


class TestDeviceConfinement:
    def test_private_arena_denied_to_device(self, recorded):
        mem = MemorySystem()
        arena = mem.create_arena(RegionKind.PRIVATE, 32)
        h = Handle(arena.id, 0, 8)
        mem.write(h, Side.VM, b"secret!!")
        with pytest.raises(DeviceAccessDenied):
            mem.read(h, Side.DEVICE)
        with pytest.raises(DeviceAccessDenied):
            mem.write(h, Side.DEVICE, b"x")
        # the denied attempts are on the record and touched nothing
        denied = [r for r in access_log(mem) if not r.ok]
        assert len(denied) == 2
        assert all(r.side is Side.DEVICE for r in denied)
        assert mem.read(h, Side.VM) == b"secret!!"

    def test_shared_requires_registration(self):
        mem = MemorySystem()
        arena = mem.create_arena(RegionKind.SHARED, 32)
        h = Handle(arena.id, 0, 4)
        with pytest.raises(DeviceAccessDenied):
            mem.read(h, Side.DEVICE)
        mem.register(arena)
        mem.write(h, Side.DEVICE, b"abcd")
        assert mem.read(h, Side.DEVICE) == b"abcd"
        assert mem.is_device_accessible(arena.id)

    def test_register_private_arena_rejected(self):
        mem = MemorySystem()
        arena = mem.create_arena(RegionKind.PRIVATE, 16)
        with pytest.raises(NotShared):
            mem.register(arena)

    def test_register_foreign_arena_rejected(self):
        # region ids are per system: the foreign arena's id names one of ours
        mem, other = MemorySystem(), MemorySystem()
        own = mem.create_arena(RegionKind.SHARED, 16)
        foreign = other.create_arena(RegionKind.SHARED, 16)
        assert foreign.id == own.id
        with pytest.raises(NotShared):
            mem.register(foreign)
        assert not mem.is_device_accessible(own.id)

    def test_device_touched_regions_excludes_denied(self, recorded):
        mem = MemorySystem()
        private = mem.create_arena(RegionKind.PRIVATE, 16)
        shared = mem.create_arena(RegionKind.SHARED, 16)
        mem.register(shared)
        mem.write(Handle(shared.id, 0, 4), Side.DEVICE, b"dddd")
        with pytest.raises(DeviceAccessDenied):
            mem.read(Handle(private.id, 0, 4), Side.DEVICE)
        assert device_touched_regions(mem) == {shared.id}


class TestTeardown:
    def test_zero_and_release_scrubs_everything(self):
        for size in _SIZES.values():
            mem = MemorySystem()
            a = mem.create_arena(RegionKind.SHARED, size)
            b = mem.create_arena(RegionKind.SHARED, size)
            mem.register(a)
            mem.register(b)
            mem.write(Handle(a.id, 0, 5), Side.VM, b"hello")
            mem.write(Handle(b.id, size - 5, 5), Side.DEVICE, b"world")
            mem.zero_and_release()
            assert is_zero(a) and is_zero(b)
            assert len(a.data) == len(b.data) == size
            assert not mem.registered
            with pytest.raises(DeviceAccessDenied):
                mem.read(Handle(a.id, 0, 1), Side.DEVICE)

    def test_teardown_is_one_way(self):
        mem = MemorySystem()
        arena = mem.create_arena(RegionKind.SHARED, 16)
        mem.register(arena)
        mem.zero_and_release()
        with pytest.raises(AlreadyTornDown):
            mem.register(arena)
        with pytest.raises(AlreadyTornDown):
            mem.zero_and_release()

    def test_teardown_clears_quarantine(self):
        mem = MemorySystem()
        arena = mem.create_arena(RegionKind.SHARED, 16)
        mem.register(arena)
        mem.quarantined.add(arena.id)
        assert arena.id in mem.quarantined
        mem.zero_and_release()
        assert arena.id not in mem.quarantined


class TestHandles:
    def test_sub_handle_bounds(self):
        h = Handle(1, 100, 50)
        sub = h.sub(10, 20)
        assert (sub.region, sub.offset, sub.length) == (1, 110, 20)
        for bad in [(-1, 5), (0, 51), (40, 11), (0, -1)]:
            with pytest.raises(OutOfBounds):
                h.sub(*bad)

    def test_read_beyond_arena(self):
        mem = MemorySystem()
        arena = mem.create_arena(RegionKind.PRIVATE, 32)
        with pytest.raises(OutOfBounds):
            mem.read(Handle(arena.id, 24, 16), Side.VM)

    def test_write_longer_than_handle(self):
        mem = MemorySystem()
        arena = mem.create_arena(RegionKind.PRIVATE, 32)
        with pytest.raises(OutOfBounds):
            mem.write(Handle(arena.id, 0, 4), Side.VM, b"too long")

    def test_short_write_allowed(self):
        mem = MemorySystem()
        arena = mem.create_arena(RegionKind.PRIVATE, 32)
        mem.write(Handle(arena.id, 0, 16), Side.VM, b"ok")
        assert mem.read(Handle(arena.id, 0, 2), Side.VM) == b"ok"

    def test_contains_is_total(self):
        mem = MemorySystem()
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


def _unchecked_write_at(mem, region, offset, data, side):
    """write_at without its registration check for device writes: the
    mutant the recorder must catch."""
    arena, end = mem.arenas.get(region), offset + len(data)
    if arena is None or not 0 <= offset <= end <= arena.size:
        mem._refuse(region, offset, end - offset, "write")
    arena.data[offset:end] = data


def _write_unregistered():
    """A device write to a shared arena never registered: denied."""
    mem = MemorySystem()
    arena = mem.create_arena(RegionKind.SHARED, 16)
    with pytest.raises(DeviceAccessDenied):
        mem.write_at(arena.id, 0, b"dddd", Side.DEVICE)


def _tamper_private_memory():
    """An attacked rig whose device writes into private memory: rejected."""
    plan = AdversaryPlan.parse(
        f"tamper_shared target=a when=0 region={PRIVATE_REGION} offset=0 data=64646464"
    )
    assert [outcome for _, outcome in run_adversary(plan).outcomes] == ["rejected"]


_SCENARIOS = pytest.mark.parametrize(
    "scenario", [_write_unregistered, _tamper_private_memory], ids=["bare", "attacked_rig"]
)


class TestInstrumentation:
    def test_per_byte_read_counts(self, recorded):
        mem = MemorySystem()
        arena = mem.create_arena(RegionKind.PRIVATE, 8)
        mem.read(Handle(arena.id, 0, 4), Side.VM)
        mem.read(Handle(arena.id, 2, 4), Side.VM)
        assert read_counts(mem, arena.id) == [1, 1, 2, 2, 1, 1, 0, 0]

    @_SCENARIOS
    def test_untouched_accessors_pass_the_check(self, scenario):
        with recording():
            scenario()

    @_SCENARIOS
    def test_write_skipping_registration_fails_the_check(self, monkeypatch, scenario):
        """The recorder checks containment apart from the accessors: a
        write_at that lets the device write unregistered memory fails it."""
        monkeypatch.setattr(MemorySystem, "write_at", _unchecked_write_at)
        with recording(), pytest.raises(UnregisteredDeviceAccess):
            scenario()


_Q = struct.Struct("<Q")

# accessor -> (its operation, a call of it for an 8-byte access)
_ACCESSORS = {
    "read_at": ("read", lambda mem, region, off, side: mem.read_at(region, off, 8, side)),
    "write_at": ("write", lambda mem, region, off, side: mem.write_at(region, off, b"\xee" * 8, side)),
    "unpack_at": ("read", lambda mem, region, off, side: mem.unpack_at(region, off, _Q, side)),
    "pack_at": ("write", lambda mem, region, off, side: mem.pack_at(region, off, _Q, side, 7)),
}

_DENIED = "device {op} of 8 B at region {id}+{off} denied"


def _denials(size):
    """case -> (arena, offset, side, exception, message) for arenas of size
    B; the arena is one that _denial_rig builds, or None for an id no arena
    has."""
    return {
        "unknown_region": (None, 0, Side.VM, OutOfBounds, "no arena with id 999"),
        "negative_offset": ("shared", -1, Side.VM, OutOfBounds, f"[-1, 7) outside arena {{id}} of size {size}"),
        "past_the_end": (
            "shared", size - 4, Side.VM, OutOfBounds,
            f"[{size - 4}, {size + 4}) outside arena {{id}} of size {size}",
        ),
        "device_on_private": ("private", 0, Side.DEVICE, DeviceAccessDenied, _DENIED),
        "device_on_unregistered": ("unregistered", 8, Side.DEVICE, DeviceAccessDenied, _DENIED),
        "device_after_release": ("released", 8, Side.DEVICE, DeviceAccessDenied, _DENIED),
    }


def _denial_rig(size):
    """One arena of each kind the cases aim at, each filled with a pattern
    so a stray write would show."""
    mem = MemorySystem()
    arenas = {
        "shared": mem.create_arena(RegionKind.SHARED, size),
        "private": mem.create_arena(RegionKind.PRIVATE, size),
        "unregistered": mem.create_arena(RegionKind.SHARED, size),
    }
    mem.register(arenas["shared"])
    pattern = bytes(range(1, 65)) * (size // 64)
    for arena in arenas.values():
        mem.write_at(arena.id, 0, pattern, Side.VM)
    return mem, arenas


class TestDeniedAccess:
    """Every accessor refuses the same way with the access recorder off or
    on, and on heap and mapped arenas alike: the same exception and
    message, no byte touched, and recorded, a device denial logged once as a
    denied record. Out-of-bounds attempts are refused before anything is
    logged."""

    @pytest.mark.parametrize("record", [False, True], ids=["plain", "instrumented"])
    @pytest.mark.parametrize("accessor", list(_ACCESSORS))
    @pytest.mark.parametrize("case", list(_denials(_SIZES["heap"])))
    def test_denied_access_touches_nothing(self, case, accessor, record):
        for size in _SIZES.values():
            with recording() if record else nullcontext():
                mem, arenas = _denial_rig(size)
                target, offset, side, exc, message = _denials(size)[case]
                if target == "released":
                    arenas["released"] = arenas["shared"]
                    mem.zero_and_release()
                region = arenas[target].id if target is not None else 999
                op, call = _ACCESSORS[accessor]
                before = {a.id: bytes(a.data) for a in arenas.values()}
                counts = {a.id: read_counts(mem, a.id) for a in arenas.values() if record}
                mark = len(access_log(mem)) if record else 0
                with pytest.raises(exc) as info:
                    call(mem, region, offset, side)
            assert str(info.value) == message.format(id=region, op=op, off=offset)
            assert {a.id: bytes(a.data) for a in arenas.values()} == before
            assert {a.id: read_counts(mem, a.id) for a in arenas.values() if record} == counts
            logged = access_log(mem)[mark:] if record else []
            if record and exc is DeviceAccessDenied:
                assert logged == [AccessRecord(Side.DEVICE, op, region, offset, 8, False)]
            else:
                assert logged == []


class TestPatternSearch:
    def test_find_pattern_by_kind(self):
        for size in _SIZES.values():
            mem = MemorySystem()
            private = mem.create_arena(RegionKind.PRIVATE, size)
            shared = mem.create_arena(RegionKind.SHARED, size)
            mem.write(Handle(private.id, 3, 6), Side.VM, b"CANARY")
            assert not mem.pattern_in_shared(b"CANARY")
            mem.write(Handle(shared.id, size - 24, 6), Side.VM, b"CANARY")
            assert mem.pattern_in_shared(b"CANARY")
            hits = list(mem.find_pattern(b"CANARY"))
            assert (private.id, 3) in hits and (shared.id, size - 24) in hits

    def test_overlapping_occurrences_found(self):
        for size in _SIZES.values():
            mem = MemorySystem()
            arena = mem.create_arena(RegionKind.SHARED, size)
            mem.write(Handle(arena.id, size - 5, 5), Side.VM, b"aaaaa")
            hits = [idx for _, idx in mem.find_pattern(b"aaa", RegionKind.SHARED)]
            assert hits == [size - 5, size - 4, size - 3]
            # the last hit ends at the arena's last byte
            hits = [idx for _, idx in mem.find_pattern(b"aa", RegionKind.SHARED)]
            assert hits == [size - 5, size - 4, size - 3, size - 2]

    @staticmethod
    def _find_all(mem, pattern, kind=None):
        """The plain scan: a full-pattern find from one byte past each hit."""
        hits = []
        for arena in mem.arenas.values():
            if kind is not None and arena.kind is not kind:
                continue
            at = arena.data.find(pattern)
            while at >= 0:
                hits.append((arena.id, at))
                at = arena.data.find(pattern, at + 1)
        return hits

    @_BOTH_BACKINGS
    @given(
        writes=st.lists(st.tuples(st.integers(min_value=0), _CHUNK), max_size=12),
        run=st.tuples(st.integers(min_value=0), st.integers(min_value=0, max_value=200)),
        pattern=_CHUNK.filter(any),
        kind=st.sampled_from([None, *RegionKind]),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_the_plain_scan(self, size, writes, run, pattern, kind):
        """Sparse contents from a four-byte alphabet, a run of one byte that
        can outlast the candidate budget, and a random pattern with an
        anchor (all-zero ones take the plain scan, and are checked below):
        the anchored scan yields exactly the plain scan's list."""
        mem = MemorySystem()
        for region_kind in (RegionKind.SHARED, RegionKind.PRIVATE, RegionKind.SHARED):
            arena = mem.create_arena(region_kind, size)
            for at, chunk in writes + [(run[0], b"a" * run[1])]:
                at %= size
                mem.write_at(arena.id, at, chunk[: size - at], Side.VM)
        assert list(mem.find_pattern(pattern, kind)) == self._find_all(mem, pattern, kind)

    @pytest.mark.parametrize("size", [4 * _ANCHOR_BUDGET, _HEAP_MAX + 64], ids=list(_SIZES))
    def test_arena_full_of_the_anchor(self, size):
        """Every offset is a candidate, so the scan outlasts its budget and
        the full-pattern find takes over at the first unchecked candidate:
        no hit is lost or repeated at the handover."""
        mem = MemorySystem()
        arena = mem.create_arena(RegionKind.SHARED, size)
        mem.write_at(arena.id, 0, b"a" * size, Side.VM)
        assert [i for _, i in mem.find_pattern(b"aa")] == list(range(size - 1))
        mem.write_at(arena.id, size - 1, b"b", Side.VM)
        assert list(mem.find_pattern(b"ab")) == [(arena.id, size - 2)]

    @_BOTH_BACKINGS
    def test_leading_zeros_and_all_zero_patterns(self, size):
        mem = MemorySystem()
        arena = mem.create_arena(RegionKind.SHARED, size)
        mem.write_at(arena.id, 1, b"a", Side.VM)  # too near the start for two zeros
        mem.write_at(arena.id, 20, b"a", Side.VM)
        mem.write_at(arena.id, size - 1, b"a", Side.VM)
        assert [i for _, i in mem.find_pattern(b"\0\0a")] == [18, size - 3]
        zeros = list(mem.find_pattern(b"\0\0\0"))
        assert zeros == self._find_all(mem, b"\0\0\0") and zeros[0] == (arena.id, 2)
        assert [i for _, i in mem.find_pattern(b"\0")] == [
            i for i in range(size) if i not in (1, 20, size - 1)
        ]

    @_BOTH_BACKINGS
    def test_pattern_longer_than_the_arena(self, size):
        """Found nowhere, not even where the arena holds its prefix up to
        the last byte."""
        mem = MemorySystem()
        arena = mem.create_arena(RegionKind.SHARED, size)
        mem.write_at(arena.id, 0, b"x" * size, Side.VM)
        assert list(mem.find_pattern(b"x" * (size + 1))) == []
        assert list(mem.find_pattern(b"x" * size)) == [(arena.id, 0)]

    @_BOTH_BACKINGS
    def test_kind_filter_keeps_arena_order(self, size):
        mem = MemorySystem()
        arenas = [mem.create_arena(kind, size) for kind in (*RegionKind, *RegionKind)]
        for arena in arenas:
            mem.write_at(arena.id, size - 9, b"CANARY", Side.VM)
        for kind in (None, *RegionKind):
            ids = [a.id for a in arenas if kind is None or a.kind is kind]
            assert list(mem.find_pattern(b"CANARY", kind)) == [(i, size - 9) for i in ids]

    def test_empty_pattern_refused(self):
        """An empty pattern occurs at every offset, so a search for it would
        find a "secret" in any memory."""
        mem = MemorySystem()
        mem.create_arena(RegionKind.SHARED, 64)
        with pytest.raises(ConfigInvalid):
            list(mem.find_pattern(b""))
        with pytest.raises(ConfigInvalid):
            mem.pattern_in_shared(b"")


# one accessor call: (accessor, arena kind, whether the offset counts from
# the arena's end, the offset, bytes to write or count to read, side)
_CALLS = st.tuples(
    st.sampled_from(["read_at", "write_at", "unpack_at", "pack_at", "write", "zero_and_release"]),
    st.sampled_from(list(RegionKind)),
    st.booleans(),
    st.integers(min_value=-16, max_value=16),
    st.binary(max_size=24),
    st.sampled_from(list(Side)),
)


class TestArenaLength:
    @_BOTH_BACKINGS
    @given(calls=st.lists(_CALLS, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_no_accessor_changes_an_arena_length(self, size, calls):
        """A heap arena would grow under a slice assignment of the wrong
        length where a map refuses it: no accessor call, allowed or refused,
        changes either's length."""
        mem = MemorySystem()
        arenas = {kind: mem.create_arena(kind, size) for kind in RegionKind}
        mem.register(arenas[RegionKind.SHARED])
        for name, kind, from_end, delta, data, side in calls:
            arena = arenas[kind]
            offset = (size if from_end else 0) + delta
            try:
                if name == "read_at":
                    mem.read_at(arena.id, offset, len(data), side)
                elif name == "write_at":
                    mem.write_at(arena.id, offset, data, side)
                elif name == "unpack_at":
                    mem.unpack_at(arena.id, offset, _Q, side)
                elif name == "pack_at":
                    mem.pack_at(arena.id, offset, _Q, side, len(data))
                elif name == "write":
                    mem.write(Handle(arena.id, offset, len(data) // 2 + 4), side, data)
                else:
                    mem.zero_and_release()
            except SplitioError:
                pass
            assert [len(a.data) for a in arenas.values()] == [size, size]
