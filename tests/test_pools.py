import gc
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from access_oracle import is_zero
from splitio import simloop
from splitio.bench import BenchConfig
from splitio.errors import ConfigInvalid, OutOfBounds, PoolExhausted, SplitioError
from splitio.ipsec import OffloadMode
from splitio.mem import Handle, MemorySystem, RegionKind, Side
from splitio.pools import (
    APP_PRIVATE_SIZE,
    META_NEXT_NONE,
    META_OFF_APP,
    META_OFF_NEXT,
    METADATA_OVERHEAD,
    PacketBuffer,
    PoolConfig,
    PoolKind,
    pool_memory_footprint,
    port_new,
)
from splitio.ring import RX_OFF_INFO, RX_STATUS_ERROR, RX_STATUS_READY, SLOT_SIZE

CANARY = b"\xc3\x96\xc3\x96"


def small_port(mbuf_count=64, ring_capacity=16, **kw):
    mem = MemorySystem()
    cfg = PoolConfig(mbuf_count=mbuf_count, mbuf_size=2176)
    port = port_new(mem, cfg, ring_capacity=ring_capacity, **kw)
    return mem, port


def device_loopback(port):
    """Act as the device: complete posted TX frames and deliver each one into
    the port's own RX ring."""
    rx_views = port.rx_ring.device_fetch()
    delivered = 0
    for view in port.tx_ring.device_fetch():
        payload = port.mem.read(view.address, Side.DEVICE)
        rx = rx_views.pop(0)
        room = rx.packet_address
        port.mem.write(Handle(room.region, room.offset, len(payload)), Side.DEVICE, payload)
        port.rx_ring.device_writeback_rx(rx.slot, length=len(payload))
        port.tx_ring.device_writeback_tx(view.slot)
        delivered += 1
    return delivered


class TestFootprint:
    def test_matches_hand_arithmetic(self):
        cfg = PoolConfig(mbuf_count=300, mbuf_size=1024)
        fp = pool_memory_footprint(cfg)
        # recomputed from the layout description, not from the function
        shared = 300 * 1024
        shadow = 300 * 1024
        assert fp == {"shared": shared, "shadow": shadow, "total": shared + shadow}

    def test_default_pool_sizes(self):
        assert pool_memory_footprint(PoolConfig())["shared"] == 8192 * 2176 == 17_825_792
        big = PoolConfig(mbuf_count=65456)
        assert pool_memory_footprint(big)["shared"] == 142_432_256

    def test_data_room(self):
        assert PoolConfig(mbuf_size=2176).data_room == 2048


class TestInitPools:
    """How port_new lays out a port's pools, and the configs it refuses."""

    def test_validation(self):
        """Every refusal comes before port_new creates or registers an
        arena: a refused port leaves its memory system as it found it."""
        torn_down = MemorySystem()
        torn_down.zero_and_release()
        wide_region = MemorySystem()
        wide_region._next_id = 0x10000  # the shared arena's id would not fit a u16
        too_small, no_capacity = "below metadata overhead", "capacity must be a power of two"
        unencodable, torn = "do not fit the ring encoding", "shared regions already torn down"
        four = PoolConfig(mbuf_count=4)
        refused = [
            (MemorySystem(), four, dict(canary=b""), ConfigInvalid, "canary must be"),
            (MemorySystem(), PoolConfig(mbuf_size=128), {}, SplitioError, too_small),
            (MemorySystem(), PoolConfig(mbuf_count=0), {}, SplitioError, "mbuf_count must be"),
            (MemorySystem(), four, dict(ring_capacity=0), SplitioError, no_capacity),
            (MemorySystem(), four, dict(ring_capacity=1), SplitioError, no_capacity),
            (MemorySystem(), four, dict(ring_capacity=3), SplitioError, no_capacity),
            # a room longer than the ring encoding's u16 length
            (MemorySystem(), PoolConfig(2, mbuf_size=70000), {}, OutOfBounds, unencodable),
            # a last room offset past the encoding's u32: never allocated
            (MemorySystem(), PoolConfig(2**16 + 1, mbuf_size=2**16), {}, OutOfBounds, unencodable),
            (wide_region, four, {}, OutOfBounds, unencodable),
            (torn_down, four, {}, SplitioError, torn),
        ]
        for mem, cfg, kw, error, fragment in refused:
            with pytest.raises(error, match=fragment):
                port_new(mem, cfg, **kw)
            assert mem.arenas == {} and mem.registered == set(), (cfg, kw)

    def test_pool_placement(self):
        mem, port = small_port(mbuf_count=8)
        assert port.pools.shared.meta_slab.region == port.pools.shared.data_slab.region
        shadow = port.pools.shadow
        assert mem.arena(shadow.meta_slab.region).kind is RegionKind.PRIVATE
        assert mem.arena(shadow.data_slab.region).kind is RegionKind.PRIVATE


def reference_meta_slab(pool, app_fill):
    """The metadata slab built one buffer at a time: every field zero (bytes
    8..16 reserved) but next, none, and the app-private fill."""
    slab = bytearray(pool.count * METADATA_OVERHEAD)
    for i in range(pool.count):
        base = i * METADATA_OVERHEAD
        struct.pack_into("<I", slab, base + META_OFF_NEXT, META_NEXT_NONE)
        slab[base + META_OFF_APP : base + META_OFF_APP + APP_PRIVATE_SIZE] = app_fill
    return bytes(slab)


class TestConstruction:
    @pytest.mark.parametrize("mbuf_count", [1, 2, 7, 300])
    @pytest.mark.parametrize("mbuf_size", [192, 1024, 2176])
    @pytest.mark.parametrize("canary", [None, CANARY])
    # the ring space that follows the pools in the shared arena: "exact" is
    # the least a ring allows (2 slots each), "roomy" 256 slots each
    @pytest.mark.parametrize("arenas", ["roomy", "exact"])
    def test_slabs_match_per_buffer_build(self, mbuf_count, mbuf_size, canary, arenas):
        mem = MemorySystem()
        cfg = PoolConfig(mbuf_count=mbuf_count, mbuf_size=mbuf_size)
        port = port_new(mem, cfg, ring_capacity=256 if arenas == "roomy" else 2, canary=canary)
        pools = port.pools
        # the layout from offset 0 fills the pools' share of both arenas:
        # the shared rooms end where the TX ring begins, the shadow rooms
        # end the private arena
        shared_rooms, shadow_rooms = pools.shared.data_slab, pools.shadow.data_slab
        assert shared_rooms.offset + shared_rooms.length == port.tx_ring.backing.offset
        assert shadow_rooms.offset + shadow_rooms.length == mem.arena(shadow_rooms.region).size
        zeros = bytes(APP_PRIVATE_SIZE)
        fill = zeros if canary is None else (canary * APP_PRIVATE_SIZE)[:APP_PRIVATE_SIZE]
        expected = [
            (pools.shared, shared_rooms, zeros),
            (pools.shadow, shadow_rooms, fill),
        ]
        for pool, rooms, app_fill in expected:
            assert mem.read(pool.meta_slab, Side.VM) == reference_meta_slab(pool, app_fill)
            for i in range(pool.count):
                room = Handle(pool.region, PacketBuffer(pool, i).room_at, pool.data_room)
                assert room == Handle(rooms.region, rooms.offset + i * pool.data_room, pool.data_room)

    @pytest.mark.parametrize("kind", ["shared", "shadow"])
    def test_data_room_index_checked(self, kind):
        mem, port = small_port(mbuf_count=8, ring_capacity=4)
        pool = getattr(port.pools, kind)
        for index in (-1, pool.count):
            with pytest.raises(OutOfBounds):
                PacketBuffer(pool, index)

    def test_room_too_long_for_ring_encoding(self):
        with pytest.raises(OutOfBounds):
            port_new(MemorySystem(), PoolConfig(mbuf_count=2, mbuf_size=70000), ring_capacity=2)

    def test_take_rooms_takes_what_take_would(self):
        """A bulk take hands out the buffers, in the order, that as many
        take() calls would, and refuses a count above what is free with
        nothing taken."""
        pools = []
        for _ in range(2):
            mem, port = small_port(mbuf_count=8, ring_capacity=2)
            pool = port.pools.shared
            first = pool.take()
            pool.take()
            pool.free(first)
            pools.append(pool)
        bulk, single = pools
        assert bulk.take_rooms(3) == [single.take().room_at for _ in range(3)]
        assert (bulk._free, bulk._is_free) == (single._free, single._is_free)
        with pytest.raises(PoolExhausted):
            bulk.take_rooms(bulk.remaining() + 1)
        assert (bulk._free, bulk._is_free) == (single._free, single._is_free)
        assert bulk.take_rooms(0) == []

    def test_construction_calls_independent_of_pool_size(self):
        def calls(mbuf_count):
            mem = MemorySystem()
            cfg = PoolConfig(mbuf_count=mbuf_count)
            n = 0

            def count(frame, event, arg):
                nonlocal n
                if event in ("call", "c_call"):
                    n += 1

            # a cyclic collection inside the window would run finalizers of
            # other tests' garbage and count their calls too
            gc.collect()
            gc.disable()
            sys.setprofile(count)
            try:
                port_new(mem, cfg, ring_capacity=16)
            finally:
                sys.setprofile(None)
                gc.enable()
            return n

        # ring_capacity bounds the RX fill, so both ports arm 16 slots
        assert calls(64) == calls(1024)


class TestFusedMetadataWrites:
    """The raw take paths write the same metadata bytes as alloc followed by
    one setter per field."""

    @pytest.mark.parametrize("mode", [None, OffloadMode.LOOKASIDE, OffloadMode.INLINE])
    def test_echo_run_leaves_shared_metadata_as_built(self, mode):
        rig = simloop._EchoRig(BenchConfig(duration_s=0.01, ipsec=mode, seed=3))
        ends = (rig.a, rig.b)
        built = [end.mem.read(end.port.pools.shared.meta_slab, Side.VM) for end in ends]
        result = rig.run()
        assert result.received == result.sent > 0
        for end, image in zip(ends, built):
            shared = end.port.pools.shared
            assert image == reference_meta_slab(shared, bytes(APP_PRIVATE_SIZE))
            assert end.mem.read(shared.meta_slab, Side.VM) == image
            # every shadow header rx_burst wrote kept its reserved bytes zero
            shadow = end.mem.read(end.port.pools.shadow.meta_slab, Side.VM)
            for at in range(0, len(shadow), METADATA_OVERHEAD):
                assert shadow[at + 8 : at + 16] == bytes(8)

    @staticmethod
    def _dirty_next_shadow(port):
        """Fill the header of the shadow buffer the next take returns with
        non-zero values in every field; returns its index."""
        buf, other = port.alloc_tx_buffer(), port.alloc_tx_buffer()
        buf.pkt_len = 999
        buf.msg_type = 0xAAAA
        buf.flags = 0x5554
        buf.rss = 0x12345678
        buf.chain(other)
        port.free_buffer(other)
        port.free_buffer(buf)  # LIFO: buf's index is taken next
        return buf.index

    @staticmethod
    def _header(port, buf):
        return port.mem.read_at(port.pools.shadow.region, buf.meta_at, 24, Side.VM)

    def test_rx_header_matches_alloc_and_setters(self):
        mem, port = small_port()
        index = self._dirty_next_shadow(port)
        # and its reserved bytes, which rx_burst writes zero
        shadow = port.pools.shadow
        mem.write_at(shadow.region, index * METADATA_OVERHEAD + 8, b"\xff" * 8, Side.VM)
        rx = port.rx_ring.device_fetch()[0]
        room = rx.packet_address
        mem.write(Handle(room.region, room.offset, 100), Side.DEVICE, bytes(range(100)))
        port.rx_ring.device_writeback_rx(rx.slot, length=100)
        # packet_info and rss as a NIC that computes them would write them;
        # the simulated one writes 0
        at = port.rx_ring.backing.offset + rx.slot * SLOT_SIZE + RX_OFF_INFO
        region = port.rx_ring.backing.region
        mem.pack_at(region, at, struct.Struct("<HI"), Side.DEVICE, 0x0102, 0xDEADBEEF)
        (got,) = port.rx_burst()
        assert got.index == index
        fused = self._header(port, got)
        port.free_buffer(got)

        # the per-field sequence rx_burst used to run, on the same dirty header
        assert self._dirty_next_shadow(port) == index
        ref = port.pools.shadow.alloc()
        ref.pkt_len = 100
        ref.msg_type = 0x0102
        ref.rss = 0xDEADBEEF
        assert fused == self._header(port, ref)
        assert fused[8:16] == bytes(8)
        assert ref.flags == 0
        assert [(seg.index, length) for seg, length in ref.segment_lengths()] == [(index, 100)]
        port.free_buffer(ref)


class TestBufferApi:
    def test_write_read_roundtrip(self):
        mem, port = small_port()
        buf = port.alloc_tx_buffer()
        buf.write_data(b"hello packet")
        assert buf.pkt_len == 12
        assert buf.read_data() == b"hello packet"
        port.free_buffer(buf)

    def test_oversize_payload(self):
        mem, port = small_port()
        buf = port.alloc_tx_buffer()
        with pytest.raises(SplitioError, match="B into a .* B room"):
            buf.write_data(b"x" * (buf.pool.data_room + 1))
        port.free_buffer(buf)

    def test_double_free(self):
        mem, port = small_port()
        buf = port.alloc_tx_buffer()
        port.free_buffer(buf)
        with pytest.raises(SplitioError, match="double free of buffer"):
            port.free_buffer(buf)

    def test_free_into_wrong_pool(self):
        mem, port = small_port()
        buf = port.alloc_tx_buffer()
        with pytest.raises(SplitioError, match="buffer belongs to another pool"):
            port.pools.shared.free(buf)
        port.free_buffer(buf)

    def test_chain_totals_and_flatten(self):
        mem, port = small_port()
        a = port.alloc_tx_buffer()
        b = port.alloc_tx_buffer()
        a.write_data(b"AAAA")
        b.write_data(b"BB")
        a.chain(b)
        assert a.total_len() == 6
        assert [s.index for s, _ in a.segment_lengths()] == [a.index, b.index]
        assert port.tx_burst([a]) == 1
        view = port.tx_ring.device_fetch()[0]
        assert mem.read(view.address, Side.DEVICE) == b"AAAABB"

    def test_chain_cycle_detected(self):
        mem, port = small_port()
        a = port.alloc_tx_buffer()
        a.write_data(b"zz")
        a.chain(a)
        with pytest.raises(SplitioError, match="segment chain longer than the pool"):
            a.total_len()

    def test_chain_across_pools_rejected(self):
        mem, port = small_port()
        a = port.alloc_tx_buffer()
        foreign = port.pools.shared.take()
        with pytest.raises(SplitioError, match="segments of a chain must come from one pool"):
            a.chain(foreign)
        port.pools.shared.free(foreign)
        port.free_buffer(a)

    def test_oversize_chain_rejected_by_tx(self):
        mem, port = small_port()
        a = port.alloc_tx_buffer()
        b = port.alloc_tx_buffer()
        a.write_data(b"x" * 2000)
        b.write_data(b"y" * 2000)
        a.chain(b)
        with pytest.raises(SplitioError, match="B exceeds .* B data room"):
            port.tx_burst([a])

    def test_tx_burst_rejects_non_shadow(self):
        mem, port = small_port()
        staged = port.pools.shared.take()
        with pytest.raises(SplitioError, match="tx_burst takes shadow-pool buffers"):
            port.tx_burst([staged])
        port.pools.shared.free(staged)


class TestTxBurstValidatesFirst:
    @pytest.mark.parametrize("bad", ["oversize_chain", "foreign"])
    def test_bad_buffer_mid_burst_posts_nothing(self, bad):
        mem, port = small_port()
        shared_free = port.pools.shared.remaining()
        shadow_free = port.pools.shadow.remaining()
        first, last = port.alloc_tx_buffer(), port.alloc_tx_buffer()
        first.write_data(b"first")
        last.write_data(b"last")
        if bad == "oversize_chain":
            mid, tail = port.alloc_tx_buffer(), port.alloc_tx_buffer()
            mid.write_data(b"x" * 2000)
            tail.write_data(b"y" * 2000)
            mid.chain(tail)
            expected, held = "B exceeds .* B data room", [first, mid, tail, last]
        else:
            mid = port.pools.shared.take()
            expected, held = "tx_burst takes shadow-pool buffers", [first, last]
        with pytest.raises(SplitioError, match=expected):
            port.tx_burst([first, mid, last])
        assert port.tx_ring.occupancy() == 0
        assert port.tx_ring.device_fetch() == []
        assert port.counters["copies_tx"] == 0
        # no shared buffer was staged, and the caller still owns every
        # shadow buffer it passed in
        assert port.pools.shared.remaining() == shared_free - (bad == "foreign")
        for buf in held:
            port.free_buffer(buf)
        assert port.pools.shadow.remaining() == shadow_free


class TestSingleCopyPath:
    def test_loopback_copies_exactly_once_each_way(self):
        mem, port = small_port()
        payload = bytes(range(200))
        buf = port.alloc_tx_buffer()
        buf.write_data(payload)
        assert port.tx_burst([buf]) == 1
        assert device_loopback(port) == 1
        (got,) = port.rx_burst()
        assert got.read_data() == payload
        assert got.pool.kind is PoolKind.SHADOW
        c = port.counters_snapshot()
        assert c["copies_tx"] == 1
        assert c["copies_rx"] == 1
        assert c["bytes_copied"] == 2 * len(payload)
        assert c["drops"] == 0
        port.free_buffer(got)

    def test_counters_scale_with_burst(self):
        mem, port = small_port()
        n, size = 10, 64
        bufs = []
        for i in range(n):
            b = port.alloc_tx_buffer()
            b.write_data(bytes([i]) * size)
            bufs.append(b)
        assert port.tx_burst(bufs) == n
        assert device_loopback(port) == n
        got = port.rx_burst()
        assert [g.read_data()[0] for g in got] == list(range(n))
        c = port.counters_snapshot()
        assert (c["copies_tx"], c["copies_rx"]) == (n, n)
        assert c["bytes_copied"] == 2 * n * size
        for g in got:
            port.free_buffer(g)

    def test_rx_reposts_shared_buffer(self):
        mem, port = small_port(mbuf_count=16, ring_capacity=8)
        before = port.rx_ring.occupancy()
        buf = port.alloc_tx_buffer()
        buf.write_data(b"q" * 32)
        port.tx_burst([buf])
        device_loopback(port)
        got = port.rx_burst()
        assert port.rx_ring.occupancy() == before  # harvested slot re-armed
        port.free_buffer(got[0])

    def test_temporary_buffers_reclaimed_after_completion(self):
        mem, port = small_port(mbuf_count=16, ring_capacity=8)
        free_before = port.pools.shared.remaining()
        buf = port.alloc_tx_buffer()
        buf.write_data(b"w" * 16)
        port.tx_burst([buf])
        assert port.pools.shared.remaining() == free_before - 1
        for view in port.tx_ring.device_fetch():
            port.tx_ring.device_writeback_tx(view.slot)
        port.reclaim_tx()
        assert port.pools.shared.remaining() == free_before


class TestBackpressure:
    def test_tx_accepts_prefix_on_ring_full(self):
        mem, port = small_port(mbuf_count=64, ring_capacity=4)
        bufs = []
        for i in range(6):
            b = port.alloc_tx_buffer()
            b.write_data(bytes([i]))
            bufs.append(b)
        shared_before = port.pools.shared.remaining()
        assert port.tx_burst(bufs) == 4
        # the failed fifth allocation went back to the pool
        assert port.pools.shared.remaining() == shared_before - 4
        for b in bufs[4:]:
            port.free_buffer(b)

    def test_tx_accepts_prefix_on_temp_exhaustion(self):
        mem, port = small_port(mbuf_count=8, ring_capacity=8)
        # 8 shared buffers, 4 armed for RX: only 4 left for TX
        bufs = []
        for i in range(6):
            b = port.alloc_tx_buffer()
            b.write_data(bytes([i]))
            bufs.append(b)
        assert port.tx_burst(bufs) == 4
        for b in bufs[4:]:
            port.free_buffer(b)

    def test_rx_drop_on_shadow_exhaustion(self):
        mem, port = small_port(mbuf_count=8, ring_capacity=8)
        hogs = [port.alloc_tx_buffer() for _ in range(port.pools.shadow.remaining())]
        spare = hogs.pop()
        spare.write_data(b"p" * 8)
        assert port.tx_burst([spare]) == 1  # frees one shadow back
        hogs.append(port.alloc_tx_buffer())  # ...and we take it again
        device_loopback(port)
        assert port.rx_burst() == []
        c = port.counters_snapshot()
        assert c["drops"] == 1
        assert c["copies_rx"] == 0
        # freeing a shadow buffer lets a later delivery through
        port.free_buffer(hogs.pop())


class TestRunEndConservation:
    """At the end of an echo run every buffer is accounted for: each port's
    shared buffers are free, armed in the RX ring or in flight in the TX ring,
    and every shadow buffer is free again, drops included."""

    @pytest.mark.parametrize(
        "cfg",
        [
            BenchConfig(duration_s=0.01),
            # ~3x server capacity: the shadow pool runs dry and rx_burst drops
            BenchConfig(duration_s=0.004, connections=50, mbuf_count=256),
            BenchConfig(duration_s=0.01, ipsec=OffloadMode.INLINE),
        ],
        ids=["plain_1", "plain_50_overload", "inline_esp"],
    )
    def test_every_buffer_free_armed_or_in_flight(self, cfg):
        rig = simloop._EchoRig(cfg)
        result = rig.run()
        assert result.received > 0
        for port in (rig.port_a, rig.port_b):
            pools = port.pools
            armed, in_flight = port.rx_ring.occupancy(), port.tx_ring.occupancy()
            assert pools.shared.remaining() + armed + in_flight == cfg.mbuf_count
            assert pools.shadow.remaining() == cfg.mbuf_count


class TestSuspectPolicy:
    @pytest.mark.parametrize(
        "claimed, status",
        [(60_000, RX_STATUS_READY), (64, RX_STATUS_READY | RX_STATUS_ERROR)],
        ids=["clamped", "error_bit"],
    )
    def test_suspect_dropped_by_default(self, claimed, status):
        mem, port = small_port()
        rx = port.rx_ring.device_fetch()[0]
        port.rx_ring.device_writeback_rx(rx.slot, length=claimed, status_error=status)
        assert port.rx_burst() == []
        c = port.counters_snapshot()
        assert c["metadata_suspect"] == 1
        assert c["drops"] == 1


class TestCanaryAndScrub:
    def test_canary_never_reaches_shared_memory(self):
        mem, port = small_port(canary=CANARY)
        assert not mem.pattern_in_shared(CANARY)
        buf = port.alloc_tx_buffer()
        buf.write_data(b"n" * 100)
        port.tx_burst([buf])
        device_loopback(port)
        got = port.rx_burst()
        assert not mem.pattern_in_shared(CANARY)
        port.free_buffer(got[0])

    def test_shadow_free_scrubs_app_private(self):
        mem, port = small_port(canary=CANARY)
        buf = port.alloc_tx_buffer()
        secret = b"do-not-leak-this-state"
        region, app_at = port.pools.shadow.region, buf.meta_at + META_OFF_APP
        mem.write_at(region, app_at, secret, Side.VM)
        port.free_buffer(buf)
        raw = mem.read_at(region, app_at, APP_PRIVATE_SIZE, Side.VM)
        assert secret not in raw
        assert raw.startswith(CANARY)

    def test_empty_canary_refused(self):
        mem = MemorySystem()
        with pytest.raises(ConfigInvalid):
            port_new(mem, PoolConfig(mbuf_count=8), ring_capacity=4, canary=b"")
        assert mem.arenas == {}


class TestTeardown:
    def test_graceful_destroy_zeroes_shared_arena(self):
        mem, port = small_port(mbuf_count=8, ring_capacity=4)
        buf = port.alloc_tx_buffer()
        buf.write_data(b"t" * 64)
        port.tx_burst([buf])
        device_loopback(port)
        for g in port.rx_burst():
            port.free_buffer(g)
        region = port.pools.shared.meta_slab.region
        assert not is_zero(mem.arena(region))
        port.destroy(graceful=True)
        assert is_zero(mem.arena(region))
        assert region not in mem.quarantined

    def test_crash_destroy_quarantines(self):
        mem, port = small_port(mbuf_count=8, ring_capacity=4)
        buf = port.alloc_tx_buffer()
        buf.write_data(b"c" * 64)
        port.tx_burst([buf])
        region = port.pools.shared.meta_slab.region
        port.destroy(graceful=False)
        assert region in mem.quarantined
        assert not is_zero(mem.arena(region))  # crash left bytes behind
        mem.zero_and_release()
        assert is_zero(mem.arena(region))
        assert region not in mem.quarantined

    def test_destroy_idempotent(self):
        mem, port = small_port(mbuf_count=8, ring_capacity=4)
        port.destroy()
        port.destroy()


@given(
    steps=st.lists(st.tuples(st.booleans(), st.integers(0, 7)), min_size=1, max_size=80)
)
@settings(max_examples=100, deadline=None)
def test_pool_alloc_free_model(steps):
    port = port_new(MemorySystem(), PoolConfig(mbuf_count=8, mbuf_size=256), ring_capacity=2)
    pool = port.pools.shadow
    live = {}
    for is_alloc, pick in steps:
        if is_alloc:
            if len(live) == 8:
                with pytest.raises(PoolExhausted):
                    pool.alloc()
            else:
                buf = pool.alloc()
                assert buf.index not in live  # never hand out a live index
                live[buf.index] = buf
        elif live:
            key = sorted(live)[pick % len(live)]
            pool.free(live.pop(key))
        assert pool.remaining() == 8 - len(live)
