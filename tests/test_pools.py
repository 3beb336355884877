import gc
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitio import simloop
from splitio.bench import BenchConfig
from splitio.errors import (
    ArenaTooSmall,
    ForeignBuffer,
    NotShared,
    OutOfBounds,
    OversizePacket,
    PoolExhausted,
    QuarantinedArena,
)
from splitio.ipsec import OffloadMode
from splitio.mem import MemorySystem, RegionKind, Side
from splitio.pools import (
    APP_PRIVATE_SIZE,
    META_NEXT_NONE,
    META_OFF_APP,
    META_OFF_DATA,
    META_OFF_NEXT,
    METADATA_OVERHEAD,
    PacketBuffer,
    PoolConfig,
    PoolKind,
    init_pools,
    pool_memory_footprint,
    port_new,
)
from splitio.ring import RX_STATUS_ERROR, RX_STATUS_READY, encode_handle

CANARY = b"\xc3\x96\xc3\x96"


def small_port(mbuf_count=64, ring_capacity=16, **kw):
    mem = MemorySystem(instrument=kw.pop("instrument", False))
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
        port.mem.write(rx.packet_address.sub(0, len(payload)), Side.DEVICE, payload)
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
        temporary = 300 * 128
        assert fp == {
            "shared": shared,
            "temporary": temporary,
            "shadow": shadow,
            "total": shared + shadow + temporary,
        }

    def test_default_pool_sizes(self):
        assert pool_memory_footprint(PoolConfig())["shared"] == 8192 * 2176 == 17_825_792
        big = PoolConfig(mbuf_count=65456)
        assert pool_memory_footprint(big)["shared"] == 142_432_256

    def test_data_room(self):
        assert PoolConfig(mbuf_size=2176).data_room == 2048


class TestInitPools:
    def test_validation(self):
        mem = MemorySystem()
        shared = mem.create_arena(RegionKind.SHARED, 1 << 20)
        mem.shared.register(shared)
        private = mem.create_arena(RegionKind.PRIVATE, 1 << 20)
        with pytest.raises(ArenaTooSmall):
            init_pools(mem, PoolConfig(mbuf_size=128), shared, private)
        with pytest.raises(ArenaTooSmall):
            init_pools(mem, PoolConfig(mbuf_count=0), shared, private)
        with pytest.raises(ArenaTooSmall):
            init_pools(mem, PoolConfig(mbuf_count=10_000), shared, private)
        with pytest.raises(NotShared):
            init_pools(mem, PoolConfig(mbuf_count=4), private, private)
        unreg = mem.create_arena(RegionKind.SHARED, 1 << 20)
        with pytest.raises(NotShared):
            init_pools(mem, PoolConfig(mbuf_count=4), unreg, private)
        with pytest.raises(NotShared):
            init_pools(mem, PoolConfig(mbuf_count=4), shared, shared)

    def test_quarantined_arena_rejected(self):
        mem = MemorySystem()
        shared = mem.create_arena(RegionKind.SHARED, 1 << 20)
        mem.shared.register(shared)
        private = mem.create_arena(RegionKind.PRIVATE, 1 << 20)
        mem.quarantined.add(shared.id)
        with pytest.raises(QuarantinedArena):
            init_pools(mem, PoolConfig(mbuf_count=4), shared, private)

    def test_temporary_data_rooms_are_the_shared_rooms(self):
        mem, port = small_port(mbuf_count=8, ring_capacity=4)
        shared = port.pools.shared
        temp = port.pools.temporary
        for i in range(8):
            assert temp.data_handle(i) == shared.data_handle(i)
        assert temp.meta_slab.region != shared.meta_slab.region

    def test_pool_placement(self):
        mem, port = small_port(mbuf_count=8)
        assert port.pools.shared.meta_slab.region == port.pools.shared.data_slab.region
        shadow = port.pools.shadow
        assert mem.arena(shadow.meta_slab.region).kind is RegionKind.PRIVATE
        assert mem.arena(shadow.data_slab.region).kind is RegionKind.PRIVATE


def reference_meta_slab(pool, rooms, app_fill):
    """The metadata slab built one buffer at a time, through Handle.sub and
    encode_handle: room i is rooms.sub(i * data_room, data_room)."""
    slab = bytearray(pool.count * METADATA_OVERHEAD)
    for i in range(pool.count):
        base = i * METADATA_OVERHEAD
        room = rooms.sub(i * pool.data_room, pool.data_room)
        slab[base + META_OFF_DATA : base + META_OFF_DATA + 8] = encode_handle(room)
        struct.pack_into("<I", slab, base + META_OFF_NEXT, META_NEXT_NONE)
        slab[base + META_OFF_APP : base + META_OFF_APP + APP_PRIVATE_SIZE] = app_fill
    return bytes(slab)


class TestConstruction:
    @pytest.mark.parametrize("mbuf_count", [1, 2, 7, 300])
    @pytest.mark.parametrize("mbuf_size", [192, 1024, 2176])
    @pytest.mark.parametrize("canary", [None, CANARY])
    @pytest.mark.parametrize("arenas", ["roomy", "exact"])
    def test_slabs_match_per_buffer_build(self, mbuf_count, mbuf_size, canary, arenas):
        mem = MemorySystem()
        cfg = PoolConfig(mbuf_count=mbuf_count, mbuf_size=mbuf_size)
        if arenas == "roomy":
            shared_size, private_size = 1 << 20, 2 << 20
        else:  # exactly the footprint: the layout from offset 0 must fill both arenas
            fp = pool_memory_footprint(cfg)
            shared_size, private_size = fp["shared"], fp["shadow"] + fp["temporary"]
        shared = mem.create_arena(RegionKind.SHARED, shared_size)
        mem.shared.register(shared)
        private = mem.create_arena(RegionKind.PRIVATE, private_size)
        pools = init_pools(mem, cfg, shared, private, canary=canary)
        if arenas == "exact":
            rooms, temp_meta = pools.shared.data_slab, pools.temporary.meta_slab
            assert rooms.offset + rooms.length == shared.size
            assert temp_meta.offset + temp_meta.length == private.size
        zeros = bytes(APP_PRIVATE_SIZE)
        fill = zeros if canary is None else (canary * APP_PRIVATE_SIZE)[:APP_PRIVATE_SIZE]
        shared_rooms = pools.shared.data_slab
        expected = [
            (pools.shared, shared_rooms, zeros),
            (pools.shadow, pools.shadow.data_slab, fill),
            (pools.temporary, shared_rooms, fill),
        ]
        for pool, rooms, app_fill in expected:
            assert mem.read(pool.meta_slab, Side.VM) == reference_meta_slab(pool, rooms, app_fill)
            for i in range(pool.count):
                assert pool.data_handle(i) == rooms.sub(i * pool.data_room, pool.data_room)

    @pytest.mark.parametrize("kind", ["shared", "temporary", "shadow"])
    def test_data_room_index_checked(self, kind):
        mem, port = small_port(mbuf_count=8, ring_capacity=4)
        pool = getattr(port.pools, kind)
        for index in (-1, pool.count):
            with pytest.raises(OutOfBounds):
                pool.data_handle(index)
            with pytest.raises(OutOfBounds):
                pool.data_at(index)

    def test_room_too_long_for_ring_encoding(self):
        with pytest.raises(OutOfBounds):
            port_new(MemorySystem(), PoolConfig(mbuf_count=2, mbuf_size=70000), ring_capacity=2)

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
    def test_echo_run_leaves_temporary_metadata_as_built(self, mode):
        rig = simloop._EchoRig(BenchConfig(duration_s=0.01, ipsec=mode, seed=3))
        ends = (rig.a, rig.b)
        built = [end.mem.read(end.port.pools.temporary.meta_slab, Side.VM) for end in ends]
        result = rig.run()
        assert result.received == result.sent > 0
        for end, image in zip(ends, built):
            pools = end.port.pools
            assert image == reference_meta_slab(
                pools.temporary, pools.shared.data_slab, bytes(APP_PRIVATE_SIZE)
            )
            assert end.mem.read(pools.temporary.meta_slab, Side.VM) == image

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
        pool = port.pools.shadow
        return port.mem.read_at(pool.meta_region, buf.meta_at, 24, Side.VM)

    def test_rx_header_matches_alloc_and_setters(self):
        mem, port = small_port()
        index = self._dirty_next_shadow(port)
        rx = port.rx_ring.device_fetch()[0]
        mem.write(rx.packet_address.sub(0, 100), Side.DEVICE, bytes(range(100)))
        port.rx_ring.device_writeback_rx(rx.slot, length=100, packet_info=0x0102, rss=0xDEADBEEF)
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
        assert (ref.pkt_len, ref.flags, ref.next_index) == (100, 0, None)
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
        with pytest.raises(OversizePacket):
            buf.write_data(b"x" * (buf.data_room + 1))
        port.free_buffer(buf)

    def test_app_private_area(self):
        mem, port = small_port()
        buf = port.alloc_tx_buffer()
        buf.write_app_private(b"state")
        assert buf.read_app_private()[:5] == b"state"
        with pytest.raises(OversizePacket):
            buf.write_app_private(b"y" * (APP_PRIVATE_SIZE + 1))
        port.free_buffer(buf)

    def test_double_free(self):
        mem, port = small_port()
        buf = port.alloc_tx_buffer()
        port.free_buffer(buf)
        with pytest.raises(ForeignBuffer):
            port.free_buffer(buf)

    def test_free_into_wrong_pool(self):
        mem, port = small_port()
        buf = port.alloc_tx_buffer()
        with pytest.raises(ForeignBuffer):
            port.pools.temporary.free(buf)
        port.free_buffer(buf)

    def test_chain_totals_and_flatten(self):
        mem, port = small_port()
        a = port.alloc_tx_buffer()
        b = port.alloc_tx_buffer()
        a.write_data(b"AAAA")
        b.write_data(b"BB")
        a.chain(b)
        assert a.total_len() == 6
        assert [s.index for s in a.segments()] == [a.index, b.index]
        assert port.tx_burst([a]) == 1
        view = port.tx_ring.device_fetch()[0]
        assert mem.read(view.address, Side.DEVICE) == b"AAAABB"

    def test_chain_cycle_detected(self):
        mem, port = small_port()
        a = port.alloc_tx_buffer()
        a.write_data(b"zz")
        a.chain(a)
        with pytest.raises(OversizePacket):
            a.total_len()

    def test_chain_across_pools_rejected(self):
        mem, port = small_port()
        a = port.alloc_tx_buffer()
        foreign = port.pools.temporary.alloc()
        with pytest.raises(ForeignBuffer):
            a.chain(foreign)
        port.pools.temporary.free(foreign)
        port.free_buffer(a)

    def test_oversize_chain_rejected_by_tx(self):
        mem, port = small_port()
        a = port.alloc_tx_buffer()
        b = port.alloc_tx_buffer()
        a.write_data(b"x" * 2000)
        b.write_data(b"y" * 2000)
        a.chain(b)
        with pytest.raises(OversizePacket):
            port.tx_burst([a])

    def test_tx_burst_rejects_non_shadow(self):
        mem, port = small_port()
        temp = port.pools.temporary.alloc()
        with pytest.raises(ForeignBuffer):
            port.tx_burst([temp])
        port.pools.temporary.free(temp)


class TestTxBurstValidatesFirst:
    @pytest.mark.parametrize("bad", ["oversize_chain", "foreign"])
    def test_bad_buffer_mid_burst_posts_nothing(self, bad):
        mem, port = small_port()
        temp_free = port.pools.temporary.remaining()
        shadow_free = port.pools.shadow.remaining()
        first, last = port.alloc_tx_buffer(), port.alloc_tx_buffer()
        first.write_data(b"first")
        last.write_data(b"last")
        if bad == "oversize_chain":
            mid, tail = port.alloc_tx_buffer(), port.alloc_tx_buffer()
            mid.write_data(b"x" * 2000)
            tail.write_data(b"y" * 2000)
            mid.chain(tail)
            expected, held = OversizePacket, [first, mid, tail, last]
        else:
            mid = port.pools.temporary.alloc()
            expected, held = ForeignBuffer, [first, last]
        with pytest.raises(expected):
            port.tx_burst([first, mid, last])
        assert port.tx_ring.occupancy() == 0
        assert port.tx_ring.device_fetch() == []
        assert port.counters["copies_tx"] == 0
        # no temporary buffer was taken, and the caller still owns every
        # shadow buffer it passed in
        assert port.pools.temporary.remaining() == temp_free - (bad == "foreign")
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
        free_before = port.pools.temporary.remaining()
        buf = port.alloc_tx_buffer()
        buf.write_data(b"w" * 16)
        port.tx_burst([buf])
        assert port.pools.temporary.remaining() == free_before - 1
        for view in port.tx_ring.device_fetch():
            port.tx_ring.device_writeback_tx(view.slot)
        port.reclaim_tx()
        assert port.pools.temporary.remaining() == free_before


class TestBackpressure:
    def test_tx_accepts_prefix_on_ring_full(self):
        mem, port = small_port(mbuf_count=64, ring_capacity=4)
        bufs = []
        for i in range(6):
            b = port.alloc_tx_buffer()
            b.write_data(bytes([i]))
            bufs.append(b)
        temp_before = port.pools.temporary.remaining()
        assert port.tx_burst(bufs) == 4
        # the failed fifth allocation went back to the pool
        assert port.pools.temporary.remaining() == temp_before - 4
        for b in bufs[4:]:
            port.free_buffer(b)

    def test_tx_accepts_prefix_on_temp_exhaustion(self):
        mem, port = small_port(mbuf_count=8, ring_capacity=8)
        # 8 temporaries, 4 armed for RX: only 4 left for TX
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
        buf.write_app_private(secret)
        index = buf.index
        port.free_buffer(buf)
        raw = PacketBuffer(port.pools.shadow, index).read_app_private()
        assert secret not in raw
        assert raw.startswith(CANARY)


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
        assert not mem.arena(region).is_zero()
        port.destroy(graceful=True)
        assert mem.arena(region).is_zero()
        assert region not in mem.quarantined

    def test_crash_destroy_quarantines(self):
        mem, port = small_port(mbuf_count=8, ring_capacity=4)
        buf = port.alloc_tx_buffer()
        buf.write_data(b"c" * 64)
        port.tx_burst([buf])
        region = port.pools.shared.meta_slab.region
        port.destroy(graceful=False)
        assert region in mem.quarantined
        assert not mem.arena(region).is_zero()  # crash left bytes behind
        assert not mem.is_reusable(mem.arena(region))
        mem.shared.zero_and_release()
        assert mem.arena(region).is_zero()
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
    mem = MemorySystem()
    cfg = PoolConfig(mbuf_count=8, mbuf_size=256)
    shared = mem.create_arena(RegionKind.SHARED, 1 << 16)
    mem.shared.register(shared)
    private = mem.create_arena(RegionKind.PRIVATE, 1 << 16)
    pools = init_pools(mem, cfg, shared, private)
    pool = pools.shadow
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
