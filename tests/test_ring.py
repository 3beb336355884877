import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitio.errors import (
    AddressNotShared,
    BadCapacity,
    NotShared,
    OutOfBounds,
    QuarantinedArena,
    RingFull,
)
from splitio.mem import Handle, MemorySystem, RegionKind, Side
from splitio.ring import (
    MASK32,
    RX_STATUS_ERROR,
    RX_STATUS_READY,
    SLOT_SIZE,
    TX_STATUS_FREE,
    DescriptorRing,
    Direction,
    TxDescriptor,
    decode_handle,
    encode_handle,
)


def make_ring(direction=Direction.TX, capacity=8, instrument=True):
    mem = MemorySystem(instrument=instrument)
    arena = mem.create_arena(RegionKind.SHARED, capacity * SLOT_SIZE + 4096)
    mem.shared.register(arena)
    backing = Handle(arena.id, 0, capacity * SLOT_SIZE)
    ring = DescriptorRing(mem, backing, capacity, direction)
    # buffer space behind the slots, usable as shared packet buffers
    buf_base = capacity * SLOT_SIZE
    bufs = [Handle(arena.id, buf_base + i * 256, 256) for i in range(16)]
    return mem, ring, bufs


def tx_desc(buf: Handle, length: int = 64) -> TxDescriptor:
    return TxDescriptor(address=buf.sub(0, length), cmd_type_len=length, olinfo_status=0)


class TestHandleEncoding:
    def test_roundtrip(self):
        h = Handle(7, 123456, 2048)
        assert decode_handle(encode_handle(h)) == h
        assert len(encode_handle(h)) == 8

    def test_field_width_limits(self):
        for h in [
            Handle(0x10000, 0, 1),
            Handle(1, 0x1_0000_0000, 1),
            Handle(1, 0, 0x10000),
            Handle(-1, 0, 1),
        ]:
            with pytest.raises(OutOfBounds):
                encode_handle(h)

    def test_extremes_fit(self):
        h = Handle(0xFFFF, 0xFFFFFFFF, 0xFFFF)
        assert decode_handle(encode_handle(h)) == h


class TestConstruction:
    def test_capacity_must_be_power_of_two(self):
        mem = MemorySystem()
        arena = mem.create_arena(RegionKind.SHARED, 4096)
        mem.shared.register(arena)
        for cap in (0, 1, 3, 6, 100):
            with pytest.raises(BadCapacity):
                DescriptorRing(mem, Handle(arena.id, 0, 4096), cap, Direction.TX)

    def test_backing_must_be_registered_shared(self):
        mem = MemorySystem()
        private = mem.create_arena(RegionKind.PRIVATE, 4096)
        with pytest.raises(NotShared):
            DescriptorRing(mem, Handle(private.id, 0, 1024), 8, Direction.TX)
        unregistered = mem.create_arena(RegionKind.SHARED, 4096)
        with pytest.raises(NotShared):
            DescriptorRing(mem, Handle(unregistered.id, 0, 1024), 8, Direction.TX)

    def test_quarantined_backing_rejected(self):
        mem = MemorySystem()
        arena = mem.create_arena(RegionKind.SHARED, 4096)
        mem.shared.register(arena)
        mem.quarantined.add(arena.id)
        with pytest.raises(QuarantinedArena):
            DescriptorRing(mem, Handle(arena.id, 0, 1024), 8, Direction.TX)

    def test_backing_too_small(self):
        mem = MemorySystem()
        arena = mem.create_arena(RegionKind.SHARED, 4096)
        mem.shared.register(arena)
        with pytest.raises(BadCapacity):
            DescriptorRing(mem, Handle(arena.id, 0, 8 * SLOT_SIZE - 1), 8, Direction.TX)

    @pytest.mark.parametrize("direction", [Direction.TX, Direction.RX])
    def test_fresh_slots(self, direction):
        capacity = 8
        mem = MemorySystem()
        arena = mem.create_arena(RegionKind.SHARED, 4096)
        mem.shared.register(arena)
        mem.write_at(arena.id, 0, b"\xff" * 4096, Side.VM)  # stale bytes everywhere
        backing = Handle(arena.id, 64, capacity * SLOT_SIZE + 32)
        DescriptorRing(mem, backing, capacity, direction)
        slots = mem.read_at(arena.id, 64, capacity * SLOT_SIZE, Side.VM)
        if direction is Direction.TX:
            assert slots[16::SLOT_SIZE] == bytes([TX_STATUS_FREE]) * capacity
            slots = bytearray(slots)
            slots[16::SLOT_SIZE] = bytes(capacity)
        assert slots == bytes(capacity * SLOT_SIZE)
        # only the slots are written: the bytes around them keep their value
        assert mem.read_at(arena.id, 0, 64, Side.VM) == b"\xff" * 64
        rest = 64 + capacity * SLOT_SIZE
        assert mem.read_at(arena.id, rest, 4096 - rest, Side.VM) == b"\xff" * (4096 - rest)


class TestTxPath:
    def test_post_fetch_roundtrip(self):
        mem, ring, bufs = make_ring()
        slot = ring.vm_post_tx(tx_desc(bufs[0], 100))
        views = ring.device_fetch()
        assert [v.slot for v in views] == [slot]
        assert views[0].address == bufs[0].sub(0, 100)
        assert views[0].cmd_type_len & 0xFFFF == 100

    def test_fetch_consumes(self):
        mem, ring, bufs = make_ring()
        ring.vm_post_tx(tx_desc(bufs[0]))
        assert len(ring.device_fetch()) == 1
        assert ring.device_fetch() == []

    @pytest.mark.parametrize(
        "bad",
        ["past_arena_end", "negative_offset", "negative_length", "private_arena", "unregistered_arena"],
    )
    def test_invalid_post_writes_nothing(self, bad):
        mem, ring, bufs = make_ring()
        ring.vm_post_tx(tx_desc(bufs[0]))
        arena = mem.arena(ring.backing.region)
        if bad == "past_arena_end":
            address = Handle(arena.id, arena.size - 63, 64)
        elif bad == "negative_offset":
            address = Handle(arena.id, -64, 64)
        elif bad == "negative_length":
            address = Handle(arena.id, bufs[1].offset, -1)
        elif bad == "private_arena":
            address = Handle(mem.create_arena(RegionKind.PRIVATE, 4096).id, 0, 64)
        else:
            address = Handle(mem.create_arena(RegionKind.SHARED, 4096).id, 0, 64)
        before = mem.read_at(arena.id, 0, 8 * SLOT_SIZE, Side.VM)
        head, mark = ring.head, len(mem.access_log)
        with pytest.raises(AddressNotShared):
            ring.vm_post_tx(TxDescriptor(address, 64, 0))
        assert vm_writes(mem, mark) == []
        assert ring.head == head
        assert mem.read_at(arena.id, 0, 8 * SLOT_SIZE, Side.VM) == before

    def test_ring_full(self):
        mem, ring, bufs = make_ring(capacity=4)
        for i in range(4):
            ring.vm_post_tx(tx_desc(bufs[i]))
        with pytest.raises(RingFull):
            ring.vm_post_tx(tx_desc(bufs[4]))

    def test_poll_returns_completion_order(self):
        mem, ring, bufs = make_ring()
        slots = [ring.vm_post_tx(tx_desc(bufs[i])) for i in range(3)]
        ring.device_fetch()
        for s in (slots[2], slots[0], slots[1]):
            assert ring.device_writeback_tx(s)
        assert ring.vm_poll_tx() == [slots[2], slots[0], slots[1]]

    def test_tail_reclaims_contiguous_prefix_only(self):
        mem, ring, bufs = make_ring()
        slots = [ring.vm_post_tx(tx_desc(bufs[i])) for i in range(3)]
        ring.device_fetch()
        ring.device_writeback_tx(slots[1])
        ring.device_writeback_tx(slots[2])
        assert ring.vm_poll_tx() == [slots[1], slots[2]]
        assert ring.occupancy() == 3  # oldest still in flight, nothing reclaimed
        ring.device_writeback_tx(slots[0])
        assert ring.vm_poll_tx() == [slots[0]]
        assert ring.occupancy() == 0

    def test_replayed_completion_flagged(self):
        mem, ring, bufs = make_ring()
        slot = ring.vm_post_tx(tx_desc(bufs[0]))
        ring.device_fetch()
        assert ring.device_writeback_tx(slot)
        ring.vm_poll_tx()
        assert not ring.device_writeback_tx(slot)
        assert ("replayed_tx_completion", slot) in ring.violations

    def test_unfetched_completion_flagged(self):
        mem, ring, bufs = make_ring()
        slot = ring.vm_post_tx(tx_desc(bufs[0]))
        # no device_fetch: the writeback window has not opened
        assert not ring.device_writeback_tx(slot)
        assert ring.violations == [("replayed_tx_completion", slot)]

    def test_write_once_per_post(self):
        mem, ring, bufs = make_ring()
        mark = len(mem.access_log)  # skip construction-time slot zeroing
        slot = ring.vm_post_tx(tx_desc(bufs[0]))
        base = slot * SLOT_SIZE
        writes = [
            r
            for r in mem.access_log[mark:]
            if r.side is Side.VM and r.op == "write" and r.offset < ring.backing.length
        ]
        written = sorted(
            b for r in writes for b in range(r.offset - base, r.offset - base + r.length)
        )
        # address, cmd, olinfo, status: each of the 17 descriptor bytes written once
        assert written == list(range(17))

    def test_handle_beyond_encoding_writes_nothing(self):
        mem = MemorySystem(instrument=True)
        ring_bytes = 8 * SLOT_SIZE
        arena = mem.create_arena(RegionKind.SHARED, ring_bytes + 0x20000)
        mem.shared.register(arena)
        ring = DescriptorRing(mem, Handle(arena.id, 0, ring_bytes), 8, Direction.TX)
        image, mark = bytes(arena.data), len(mem.access_log)
        # inside the registered arena, but 65,536 B do not fit the u16 length
        big = Handle(arena.id, ring_bytes, 0x10000)
        with pytest.raises(OutOfBounds, match="does not fit the 8-byte ring encoding"):
            ring.vm_post_tx(TxDescriptor(big, 0, 0))
        assert mem.access_log[mark:] == []
        assert bytes(arena.data) == image
        assert (ring.head, ring.occupancy()) == (0, 0)


class TestRxPath:
    def test_post_fetch_writeback_harvest(self):
        mem, ring, bufs = make_ring(Direction.RX)
        slot = ring.vm_post_rx_buffer(bufs[0])
        views = ring.device_fetch()
        assert views[0].packet_address == bufs[0]
        assert views[0].header_address == bufs[0]  # no header split
        assert ring.device_writeback_rx(slot, length=100, packet_info=7, rss=42, vlan_tag=3)
        (h,) = ring.vm_harvest_rx(4)
        assert (h.slot, h.length, h.packet_info, h.rss, h.vlan_tag) == (slot, 100, 7, 42, 3)
        assert not h.suspect
        assert h.status_error & RX_STATUS_READY

    def test_not_ready_not_harvested(self):
        mem, ring, bufs = make_ring(Direction.RX)
        ring.vm_post_rx_buffer(bufs[0])
        ring.device_fetch()
        assert ring.vm_harvest_rx(4) == []

    def test_write_once_per_post(self):
        mem, ring, bufs = make_ring(Direction.RX)
        base = 0  # slot 0, the first post
        mem.write_at(ring.backing.region, base + 16, b"\xff" * 16, Side.VM)  # stale writeback
        mark = len(mem.access_log)
        slot = ring.vm_post_rx_buffer(bufs[0])
        assert slot * SLOT_SIZE == base
        writes = [
            r
            for r in mem.access_log[mark:]
            if r.side is Side.VM and r.op == "write" and r.offset < base + SLOT_SIZE
        ]
        written = sorted(
            b for r in writes for b in range(r.offset - base, r.offset - base + r.length)
        )
        # both handles and the 16 writeback bytes: each of the 32 written once
        assert written == list(range(SLOT_SIZE))
        assert mem.read_at(ring.backing.region, base, 16, Side.VM) == encode_handle(bufs[0]) * 2
        assert mem.read_at(ring.backing.region, base + 16, 16, Side.VM) == bytes(16)

    def test_oversized_length_clamped_and_suspect(self):
        mem, ring, bufs = make_ring(Direction.RX)
        slot = ring.vm_post_rx_buffer(bufs[0])  # 256 B buffer
        ring.device_fetch()
        ring.device_writeback_rx(slot, length=1000)
        (h,) = ring.vm_harvest_rx(4)
        assert h.length == 256
        assert h.suspect

    def test_error_bit_marks_suspect(self):
        mem, ring, bufs = make_ring(Direction.RX)
        slot = ring.vm_post_rx_buffer(bufs[0])
        ring.device_fetch()
        ring.device_writeback_rx(slot, length=64, status_error=RX_STATUS_READY | RX_STATUS_ERROR)
        (h,) = ring.vm_harvest_rx(4)
        assert h.suspect

    def test_harvest_in_ring_order_stops_at_gap(self):
        mem, ring, bufs = make_ring(Direction.RX)
        slots = [ring.vm_post_rx_buffer(bufs[i]) for i in range(3)]
        ring.device_fetch()
        ring.device_writeback_rx(slots[0], length=10)
        ring.device_writeback_rx(slots[2], length=30)
        got = ring.vm_harvest_rx(8)
        assert [h.slot for h in got] == [slots[0]]  # slot 1 not ready blocks 2
        ring.device_writeback_rx(slots[1], length=20)
        got = ring.vm_harvest_rx(8)
        assert [h.slot for h in got] == [slots[1], slots[2]]

    def test_writeback_fields_read_exactly_once(self):
        mem, ring, bufs = make_ring(Direction.RX)
        slot = ring.vm_post_rx_buffer(bufs[0])
        ring.device_fetch()
        ring.device_writeback_rx(slot, length=64, packet_info=1, rss=2, vlan_tag=3)
        ring.vm_harvest_rx(4)
        ring.vm_harvest_rx(4)  # released slot must not be re-read
        arena = mem.arena(ring.backing.region)
        window = slice(slot * SLOT_SIZE + 16, slot * SLOT_SIZE + 28)
        assert list(arena.read_counters[window]) == [1] * 12

    def test_replayed_rx_writeback_flagged(self):
        mem, ring, bufs = make_ring(Direction.RX)
        slot = ring.vm_post_rx_buffer(bufs[0])
        ring.device_fetch()
        assert ring.device_writeback_rx(slot, length=64)
        ring.vm_harvest_rx(4)
        assert not ring.device_writeback_rx(slot, length=64)
        assert ("replayed_rx_writeback", slot) in ring.violations

    def test_forged_writeback_outside_window_never_harvested(self):
        mem, ring, bufs = make_ring(Direction.RX)
        assert not ring.device_writeback_rx(5, length=64)
        assert ring.vm_harvest_rx(8) == []
        assert ring.violations == [("replayed_rx_writeback", 5)]


ROOM = 64


def make_rx_ring(capacity, arena_size=None):
    """An instrumented RX ring at the start of a registered shared arena, with
    one ROOM-byte room per slot behind it."""
    mem = MemorySystem(instrument=True)
    arena = mem.create_arena(RegionKind.SHARED, arena_size or capacity * (SLOT_SIZE + ROOM))
    mem.shared.register(arena)
    ring = DescriptorRing(mem, Handle(arena.id, 0, capacity * SLOT_SIZE), capacity, Direction.RX)
    rooms = [capacity * SLOT_SIZE + i * ROOM for i in range(capacity)]
    return mem, ring, arena, rooms


def advance(ring, count):
    """Post (the first room, each time), complete and harvest count buffers,
    so head and tail move on."""
    for _ in range(count):
        ring.vm_post_rx_buffer(Handle(ring.backing.region, ring.backing.length, ROOM))
    for view in ring.device_fetch():
        ring.device_writeback_rx(view.slot, length=1)
    assert len(ring.vm_harvest_rx(count)) == count


def vm_writes(mem, mark):
    log = mem.access_log[mark:]
    return [(r.offset, r.length) for r in log if r.side is Side.VM and r.op == "write"]


class TestBulkRxPost:
    def test_full_arm_is_one_write(self):
        mem, ring, arena, rooms = make_rx_ring(256)
        mark = len(mem.access_log)
        assert ring.vm_post_rx_rooms(arena.id, ROOM, rooms) == 0
        assert vm_writes(mem, mark) == [(0, 256 * SLOT_SIZE)]
        assert ring.occupancy() == 256

    def test_wrapping_post_is_two_writes(self):
        mem, ring, arena, rooms = make_rx_ring(8)
        advance(ring, 5)
        mark = len(mem.access_log)
        assert ring.vm_post_rx_rooms(arena.id, ROOM, rooms[:6]) == 5
        assert vm_writes(mem, mark) == [(5 * SLOT_SIZE, 3 * SLOT_SIZE), (0, 3 * SLOT_SIZE)]
        assert [v.slot for v in ring.device_fetch()] == [5, 6, 7, 0, 1, 2]

    def test_slots_equal_single_posts(self):
        bulk_mem, bulk, arena, rooms = make_rx_ring(8)
        one_mem, one, _, _ = make_rx_ring(8)
        for ring in (bulk, one):
            advance(ring, 3)  # so the post wraps
        rooms = rooms[::-1]  # pool order is not address order
        bulk.vm_post_rx_rooms(arena.id, ROOM, rooms)
        for offset in rooms:
            one.vm_post_rx_buffer(Handle(arena.id, offset, ROOM))
        slots = bulk_mem.read_at(arena.id, 0, 8 * SLOT_SIZE, Side.VM)
        assert slots == one_mem.read_at(arena.id, 0, 8 * SLOT_SIZE, Side.VM)
        for k, offset in enumerate(rooms):
            slot = (3 + k) % 8
            raw = encode_handle(Handle(arena.id, offset, ROOM))
            assert slots[slot * SLOT_SIZE : (slot + 1) * SLOT_SIZE] == raw + raw + bytes(16)
        assert bulk._posted_rx == one._posted_rx
        assert bulk.device_fetch() == one.device_fetch()

    @pytest.mark.parametrize(
        "bad, error",
        [
            ("past_arena_end", AddressNotShared),
            ("negative_offset", AddressNotShared),
            ("negative_length", AddressNotShared),
            ("private_arena", AddressNotShared),
            ("unregistered_arena", AddressNotShared),
            ("unencodable_length", OutOfBounds),
            ("more_than_free_slots", RingFull),
        ],
    )
    def test_invalid_post_writes_nothing(self, bad, error):
        mem, ring, arena, rooms = make_rx_ring(8, arena_size=0x30000)
        advance(ring, 2)
        ring.vm_post_rx_buffer(Handle(arena.id, rooms[0], ROOM))
        region, length, offsets = arena.id, ROOM, rooms[1:4]
        if bad == "past_arena_end":
            offsets = offsets + [arena.size - ROOM + 1]
        elif bad == "negative_offset":
            offsets = [-ROOM] + offsets
        elif bad == "negative_length":
            length = -1
        elif bad == "private_arena":
            region = mem.create_arena(RegionKind.PRIVATE, 0x30000).id
        elif bad == "unregistered_arena":
            region = mem.create_arena(RegionKind.SHARED, 0x30000).id
        elif bad == "unencodable_length":
            length = 0x10000
        else:
            offsets = rooms[1:] + rooms[:1]  # 8 buffers, 7 free slots
        before = mem.read_at(arena.id, 0, 8 * SLOT_SIZE, Side.VM)
        head, posted = ring.head, list(ring._posted_rx)
        mark = len(mem.access_log)
        with pytest.raises(error):
            ring.vm_post_rx_rooms(region, length, offsets)
        assert vm_writes(mem, mark) == []
        assert (ring.head, ring._posted_rx) == (head, posted)
        assert mem.read_at(arena.id, 0, 8 * SLOT_SIZE, Side.VM) == before

    def test_single_post_keeps_its_checks(self):
        mem, ring, arena, rooms = make_rx_ring(8, arena_size=0x30000)
        private = mem.create_arena(RegionKind.PRIVATE, 256)
        with pytest.raises(AddressNotShared):
            ring.vm_post_rx_buffer(Handle(private.id, 0, 256))
        with pytest.raises(AddressNotShared):
            ring.vm_post_rx_buffer(Handle(arena.id, arena.size - 8, 16))
        with pytest.raises(OutOfBounds):
            ring.vm_post_rx_buffer(Handle(arena.id, 0, 0x10000))
        assert ring.head == 0 and ring.occupancy() == 0


class TestInterleavings:
    def test_all_seventy_post_complete_interleavings(self):
        """Every way to interleave 4 posts and 4 completions on a capacity-8
        ring ends identically: all slots freed, no violations, completion
        order preserved."""
        count = 0
        for positions in itertools.combinations(range(8), 4):
            ops = ["C"] * 8
            for p in positions:
                ops[p] = "P"
            mem, ring, bufs = make_ring(capacity=8, instrument=False)
            fetched: list = []
            completed: list[int] = []
            polled: list[int] = []
            posted = 0
            for op in ops:
                if op == "P":
                    ring.vm_post_tx(tx_desc(bufs[posted]))
                    posted += 1
                else:
                    fetched.extend(ring.device_fetch())
                    if fetched:
                        view = fetched.pop(0)
                        assert ring.device_writeback_tx(view.slot)
                        completed.append(view.slot)
                polled.extend(ring.vm_poll_tx())
            # completions that had no descriptor pending simply did not happen
            fetched.extend(ring.device_fetch())
            for view in fetched:
                ring.device_writeback_tx(view.slot)
                completed.append(view.slot)
            polled.extend(ring.vm_poll_tx())
            assert polled == completed
            assert len(completed) == 4
            assert ring.occupancy() == 0
            assert ring.violations == []
            count += 1
        assert count == 70

    def test_free_running_indices_survive_32bit_wrap(self):
        mem, ring, bufs = make_ring(capacity=4, instrument=False)
        start = MASK32 - 5  # not slot-aligned on purpose
        ring.head = ring.tail = ring.device_next = start
        for i in range(16):
            slot = ring.vm_post_tx(tx_desc(bufs[i % 16]))
            (view,) = ring.device_fetch()
            assert view.slot == slot
            ring.device_writeback_tx(slot)
            assert ring.vm_poll_tx() == [slot]
        assert ring.head < start  # wrapped through zero
        assert ring.occupancy() == 0
        assert ring.violations == []


class _RingModel:
    """Reference model: slots stay occupied until the contiguous prefix of
    freed slots reaches them, matching hardware tail-pointer reclaim."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.inflight: list[int] = []  # ring order, includes freed-but-stuck
        self.freed: set[int] = set()
        self.completed_unseen: list[int] = []  # completion order
        self.posts = 0

    @property
    def occupancy(self) -> int:
        return len(self.inflight)

    def reclaim(self):
        while self.inflight and self.inflight[0] in self.freed:
            self.freed.discard(self.inflight.pop(0))


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["post", "fetch_complete", "poll"]), st.integers(0, 7)),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=150, deadline=None)
def test_tx_ring_against_model(ops):
    mem, ring, bufs = make_ring(capacity=4, instrument=False)
    model = _RingModel(4)
    pending_views: list = []
    for op, pick in ops:
        if op == "post":
            if model.occupancy == 4:
                with pytest.raises(RingFull):
                    ring.vm_post_tx(tx_desc(bufs[0]))
            else:
                slot = ring.vm_post_tx(tx_desc(bufs[model.posts % 16]))
                assert slot == model.posts % 4
                model.inflight.append(slot)
                model.posts += 1
        elif op == "fetch_complete":
            pending_views.extend(ring.device_fetch())
            if pending_views:
                view = pending_views.pop(pick % len(pending_views))
                assert ring.device_writeback_tx(view.slot)
                model.completed_unseen.append(view.slot)
        else:
            assert ring.vm_poll_tx() == model.completed_unseen
            model.freed.update(model.completed_unseen)
            model.completed_unseen = []
            model.reclaim()
        assert ring.occupancy() == model.occupancy
    assert ring.violations == []


def _scan_window_ok(ring: DescriptorRing, slot: int) -> bool:
    """The writeback-window check as a walk from tail to device_next, the
    way it was first written. It is the oracle for the constant-time check.
    With tail past device_next the walk only ends by finding the slot, so
    callers ask it about in-range slots in that state."""
    idx = ring.tail
    while idx != ring.device_next:
        if idx & (ring.capacity - 1) == slot:
            return not ring._device_done[slot]
        idx = (idx + 1) & MASK32
    return False


def _forge_ready(mem: MemorySystem, ring: DescriptorRing, slot: int) -> None:
    """Device-side tamper of a slot's status: TX free, or RX ready."""
    at = ring.backing.offset + slot * SLOT_SIZE
    if ring.direction is Direction.TX:
        mem.write(Handle(ring.backing.region, at + 16, 1), Side.DEVICE, b"\x01")
    else:
        mem.write(Handle(ring.backing.region, at + 22, 2), Side.DEVICE, b"\x01\x00")


def _post(ring: DescriptorRing, buf: Handle) -> None:
    if ring.direction is Direction.TX:
        ring.vm_post_tx(tx_desc(buf))
    else:
        ring.vm_post_rx_buffer(buf)


def _assert_window_matches_scan(ring: DescriptorRing) -> None:
    cap = ring.capacity
    for slot in range(cap):
        assert ring._writeback_window_ok(slot) == _scan_window_ok(ring, slot), slot
    if (ring.device_next - ring.tail) & MASK32 <= cap:
        for slot in (-1, cap, cap + 3):
            assert ring._writeback_window_ok(slot) is _scan_window_ok(ring, slot) is False


_WINDOW_OPS = st.lists(
    st.tuples(
        st.sampled_from(["post", "fetch", "writeback", "reap", "forge", "replay"]),
        st.integers(0, 7),
    ),
    min_size=1,
    max_size=80,
)


@pytest.mark.parametrize("direction", [Direction.TX, Direction.RX])
@given(ops=_WINDOW_OPS)
@settings(max_examples=150, deadline=None)
def test_writeback_window_matches_ring_scan(direction, ops):
    """The constant-time window check gives the walk's answer after every
    post, fetch, writeback, poll or harvest, forged status and replayed
    completion, including once a forged status has let tail pass
    device_next."""
    mem, ring, bufs = make_ring(direction, capacity=4, instrument=False)
    completed: list[int] = []
    for op, pick in ops:
        slot = pick % 4
        if op == "post":
            if ring.occupancy() < ring.capacity:
                _post(ring, bufs[pick])
        elif op == "fetch":
            ring.device_fetch()
        elif op in ("writeback", "replay"):
            if op == "replay" and completed:
                slot = completed[pick % len(completed)]
            if direction is Direction.TX:
                ok = ring.device_writeback_tx(slot)
            else:
                ok = ring.device_writeback_rx(slot, length=32)
            if ok:
                completed.append(slot)
        elif op == "reap":
            if direction is Direction.TX:
                ring.vm_poll_tx()
            else:
                ring.vm_harvest_rx(pick)
        else:
            # aim at the slots in flight, counted from tail
            _forge_ready(mem, ring, (ring.tail + pick) % 4)
        _assert_window_matches_scan(ring)


@pytest.mark.parametrize("direction", [Direction.TX, Direction.RX])
def test_writeback_window_after_tail_passes_device_next(direction):
    mem, ring, bufs = make_ring(direction, capacity=4, instrument=False)
    for i in range(3):
        _post(ring, bufs[i])
    ring.device_fetch()  # device_next = 3
    _post(ring, bufs[3])
    for slot in range(4):
        _forge_ready(mem, ring, slot)
    if direction is Direction.TX:
        ring.vm_poll_tx()
    else:
        ring.vm_harvest_rx(4)
    assert ring.tail == 4 and ring.device_next == 3  # tail overtook the device
    assert (ring.device_next - ring.tail) & MASK32 > ring.capacity
    _assert_window_matches_scan(ring)
    assert all(ring._writeback_window_ok(slot) for slot in range(4))
