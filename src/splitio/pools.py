"""Packet buffer pools and the port fast path.

Three pools back every port:

* shared   - metadata and data rooms in a registered shared arena; this is the
             only packet memory the device ever sees.
* temporary - metadata in private memory, data rooms bound 1:1 to the
             shared pool's; the port posts and reclaims these.
* shadow   - metadata and data both private; the only buffers the application
             ever holds.

The fast path performs exactly one bulk copy per packet per direction:
RX copies shared -> shadow after harvest (copy before anything parses the
bytes), TX copies shadow -> temporary right before posting. Buffer metadata,
free lists, and ring progress never live in shared memory.

Buffer metadata occupies a 128-byte block per buffer:

   0..2  msg_type   2..4 flags   4..8 pkt_len   8..16 data handle
  16..20 next index (0xFFFFFFFF = none)   20..24 rss   24..64 reserved
  64..128 app-private area (64 B)
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Optional

from .errors import (
    ArenaTooSmall,
    ForeignBuffer,
    NotShared,
    OutOfBounds,
    OversizePacket,
    PoolExhausted,
    QuarantinedArena,
    RingFull,
)
from .mem import Arena, Handle, MemorySystem, RegionKind, Side
from . import ring as ringmod
from .ring import DescriptorRing, Direction, TxDescriptor, encode_handle

METADATA_OVERHEAD = 128
APP_PRIVATE_SIZE = 64
DEFAULT_MBUF_SIZE = 2176
DEFAULT_MBUF_COUNT = 8192

META_OFF_MSG_TYPE = 0
META_OFF_FLAGS = 2
META_OFF_PKT_LEN = 4
META_OFF_DATA = 8
META_OFF_NEXT = 16
META_OFF_RSS = 20
META_OFF_APP = APP_PRIVATE_SIZE

META_NEXT_NONE = 0xFFFFFFFF

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_FLAGS_PKT_LEN = struct.Struct("<HI")  # 2..8
_LEN_NEXT = struct.Struct("<I8xI")  # 4..20: pkt_len, next
# 0..24: msg_type, flags, pkt_len, data handle, next, rss
_HEADER = struct.Struct("<HHIHIHII")


class PoolKind(enum.Enum):
    SHARED = "shared"
    TEMPORARY = "temporary"
    SHADOW = "shadow"


# enum members read once (see the note in mem.py)
_VM = Side.VM
_SHADOW = PoolKind.SHADOW


@dataclass(frozen=True)
class PoolConfig:
    mbuf_count: int = DEFAULT_MBUF_COUNT
    mbuf_size: int = DEFAULT_MBUF_SIZE

    @property
    def data_room(self) -> int:
        return self.mbuf_size - METADATA_OVERHEAD


def pool_memory_footprint(cfg: PoolConfig) -> dict[str, int]:
    """Bytes each pool occupies. Pure arithmetic, no allocation.

    The shared and shadow pools carry metadata plus data rooms; the temporary
    pool carries metadata only because its data rooms are the shared pool's.
    """
    shared = shadow = cfg.mbuf_count * cfg.mbuf_size
    temporary = cfg.mbuf_count * METADATA_OVERHEAD
    return {
        "shared": shared,
        "temporary": temporary,
        "shadow": shadow,
        "total": shared + temporary + shadow,
    }


class PacketBuffer:
    """One buffer (metadata block plus data room) in one pool. Field
    accessors go through the memory system so metadata physically lives in
    its arena; they address fields by absolute offset, so no Handle is built
    per access."""

    __slots__ = ("pool", "index", "meta_at")

    def __init__(self, pool: "PacketPool", index: int):
        if not 0 <= index < pool.count:
            raise OutOfBounds(f"buffer {index} outside a pool of {pool.count}")
        self.pool = pool
        self.index = index
        self.meta_at = pool.meta_base + index * METADATA_OVERHEAD

    @property
    def data_room(self) -> int:
        return self.pool.data_room

    def _get(self, off: int, fmt: struct.Struct) -> int:
        pool = self.pool
        return pool.mem.unpack_at(pool.meta_region, self.meta_at + off, fmt, _VM)[0]

    def _set(self, off: int, fmt: struct.Struct, value: int) -> None:
        pool = self.pool
        pool.mem.pack_at(pool.meta_region, self.meta_at + off, fmt, _VM, value)

    @property
    def pkt_len(self) -> int:
        return self._get(META_OFF_PKT_LEN, _U32)

    @pkt_len.setter
    def pkt_len(self, value: int) -> None:
        self._set(META_OFF_PKT_LEN, _U32, value)

    @property
    def msg_type(self) -> int:
        return self._get(META_OFF_MSG_TYPE, _U16)

    @msg_type.setter
    def msg_type(self, value: int) -> None:
        self._set(META_OFF_MSG_TYPE, _U16, value & 0xFFFF)

    @property
    def flags(self) -> int:
        return self._get(META_OFF_FLAGS, _U16)

    @flags.setter
    def flags(self, value: int) -> None:
        self._set(META_OFF_FLAGS, _U16, value & 0xFFFF)

    @property
    def rss(self) -> int:
        return self._get(META_OFF_RSS, _U32)

    @rss.setter
    def rss(self, value: int) -> None:
        self._set(META_OFF_RSS, _U32, value & 0xFFFFFFFF)

    @property
    def next_index(self) -> Optional[int]:
        raw = self._get(META_OFF_NEXT, _U32)
        return None if raw == META_NEXT_NONE else raw

    def chain(self, nxt: Optional["PacketBuffer"]) -> None:
        if nxt is not None and nxt.pool is not self.pool:
            raise ForeignBuffer("segments of a chain must come from one pool")
        self._set(META_OFF_NEXT, _U32, META_NEXT_NONE if nxt is None else nxt.index)

    def segment_lengths(self) -> list[tuple["PacketBuffer", int]]:
        """(segment, pkt_len) along the chain from this buffer. One read per
        segment covers its pkt_len and its next link (bytes 4..20)."""
        pool, buf, out = self.pool, self, []
        while True:
            at = buf.meta_at + META_OFF_PKT_LEN
            length, nxt = pool.mem.unpack_at(pool.meta_region, at, _LEN_NEXT, _VM)
            out.append((buf, length))
            if nxt == META_NEXT_NONE:
                return out
            if len(out) > pool.count:
                raise OversizePacket("segment chain longer than the pool")
            buf = PacketBuffer(pool, nxt)

    def segments(self) -> list["PacketBuffer"]:
        return [seg for seg, _ in self.segment_lengths()]

    def total_len(self) -> int:
        return sum(length for _, length in self.segment_lengths())

    def write_app_private(self, data: bytes) -> None:
        if len(data) > APP_PRIVATE_SIZE:
            raise OversizePacket(f"app-private area is {APP_PRIVATE_SIZE} B")
        pool = self.pool
        pool.mem.write_at(pool.meta_region, self.meta_at + META_OFF_APP, data, _VM)

    def read_app_private(self) -> bytes:
        pool = self.pool
        return pool.mem.read_at(
            pool.meta_region, self.meta_at + META_OFF_APP, APP_PRIVATE_SIZE, _VM
        )

    def write_data(self, payload: bytes) -> None:
        """App helper: set payload and pkt_len in one go."""
        if len(payload) > self.data_room:
            raise OversizePacket(f"{len(payload)} B into a {self.data_room} B room")
        pool = self.pool
        region, offset = pool.data_at(self.index)
        pool.mem.write_at(region, offset, payload, _VM)
        self.pkt_len = len(payload)

    def read_data(self) -> bytes:
        length = self.pkt_len
        pool = self.pool
        region, offset = pool.data_at(self.index, length)
        return pool.mem.read_at(region, offset, length, _VM)


class PacketPool:
    """Fixed-size buffer pool with a LIFO free list.

    The free list and allocation state are Python-side (private) state; only
    buffer bytes live in the arena.
    """

    def __init__(
        self,
        mem: MemorySystem,
        kind: PoolKind,
        count: int,
        data_room: int,
        meta_slab: Handle,
        data_slab: Optional[Handle],
        rooms: Optional[Handle] = None,
        canary: Optional[bytes] = None,
    ):
        """data_slab is the data the pool owns (None for the temporary pool);
        rooms is the slab its data rooms are carved from when that is not its
        own: the temporary pool's rooms are the shared pool's, 1:1 by index."""
        self.mem = mem
        self.kind = kind
        self.count = count
        self.data_room = data_room
        self.meta_slab = meta_slab
        self.data_slab = data_slab
        self.meta_region = meta_slab.region
        self.meta_base = meta_slab.offset
        if rooms is None:
            rooms = data_slab
        self.data_region = rooms.region
        self.data_base = rooms.offset
        if canary is not None and kind is not PoolKind.SHARED:
            self._app_fill = (canary * (APP_PRIVATE_SIZE // len(canary) + 1))[:APP_PRIVATE_SIZE]
        else:
            self._app_fill = bytes(APP_PRIVATE_SIZE)
        self._free: list[int] = list(range(count - 1, -1, -1))
        self._is_free = [True] * count
        self._init_meta_slab()

    def _init_meta_slab(self) -> None:
        """Build the whole metadata slab locally and write it in one call.

        Every block is the same except the offset of its data handle (bytes
        10..14, the handle's u32 offset field), so the slab is one block
        repeated, with that column filled from the packed room offsets one
        byte lane at a time. Region and room length are the same for every
        buffer and offsets only grow, so encoding the last room checks the
        ring-encoding bound for all of them."""
        count, room, base = self.count, self.data_room, self.data_base
        encode_handle(Handle(self.data_region, base + (count - 1) * room, room))
        block = bytearray(METADATA_OVERHEAD)
        block[META_OFF_DATA : META_OFF_DATA + 8] = encode_handle(
            Handle(self.data_region, base, room)
        )
        _U32.pack_into(block, META_OFF_NEXT, META_NEXT_NONE)
        block[META_OFF_APP : META_OFF_APP + APP_PRIVATE_SIZE] = self._app_fill
        slab = block * count
        offsets = struct.pack(f"<{count}I", *range(base, base + count * room, room))
        column = META_OFF_DATA + 2
        for lane in range(4):
            slab[column + lane :: METADATA_OVERHEAD] = offsets[lane::4]
        self.mem.write(self.meta_slab, _VM, slab)

    def _scrub_app_private(self, index: int) -> None:
        self.mem.write_at(
            self.meta_region,
            self.meta_base + index * METADATA_OVERHEAD + META_OFF_APP,
            self._app_fill,
            _VM,
        )

    def data_handle(self, index: int) -> Handle:
        region, offset = self.data_at(index)
        return Handle(region, offset, self.data_room)

    def room_offsets(self, bufs: list[PacketBuffer]) -> list[int]:
        """Data-room offsets, within data_region, of this pool's bufs."""
        base, room = self.data_base, self.data_room
        return [base + buf.index * room for buf in bufs]

    def data_at(self, index: int, length: int = 0) -> tuple[int, int]:
        """(region, offset) of buffer index's data room, for an access of
        length bytes from its start; the index and data-room bounds are
        checked here."""
        if not 0 <= index < self.count:
            raise OutOfBounds(f"buffer {index} outside a pool of {self.count}")
        if length > self.data_room:
            raise OutOfBounds(f"{length} B outside a data room of {self.data_room} B")
        return self.data_region, self.data_base + index * self.data_room

    def remaining(self) -> int:
        return len(self._free)

    def take(self) -> PacketBuffer:
        """Allocate without writing metadata: the header still holds what
        its last user left there. For callers that write the whole header
        themselves (rx_burst), and for the temporary pool, whose metadata
        nothing writes after construction."""
        if not self._free:
            raise PoolExhausted(f"{self.kind.value} pool empty")
        index = self._free.pop()
        self._is_free[index] = False
        return PacketBuffer(self, index)

    def alloc(self) -> PacketBuffer:
        """take(), then reset the header: flags and pkt_len 0, no next
        segment."""
        buf = self.take()
        mem, region, at = self.mem, self.meta_region, buf.meta_at
        # flags and pkt_len are adjacent (2..8): one write clears both
        mem.pack_at(region, at + META_OFF_FLAGS, _FLAGS_PKT_LEN, _VM, 0, 0)
        mem.pack_at(region, at + META_OFF_NEXT, _U32, _VM, META_NEXT_NONE)
        return buf

    def free(self, buf: PacketBuffer) -> None:
        if buf.pool is not self:
            raise ForeignBuffer("buffer belongs to another pool")
        if self._is_free[buf.index]:
            raise ForeignBuffer(f"double free of buffer {buf.index}")
        if self.kind is _SHADOW:
            # cheap scrub: the app-private area may hold secrets
            self._scrub_app_private(buf.index)
        self._is_free[buf.index] = True
        self._free.append(buf.index)

    def zero_slabs(self) -> None:
        self.mem.write(self.meta_slab, _VM, bytes(self.meta_slab.length))
        if self.data_slab is not None:
            self.mem.write(self.data_slab, _VM, bytes(self.data_slab.length))


@dataclass
class PoolSet:
    shared: PacketPool
    temporary: PacketPool
    shadow: PacketPool


def init_pools(
    mem: MemorySystem,
    cfg: PoolConfig,
    shared_arena: Arena,
    private_arena: Arena,
    canary: Optional[bytes] = None,
) -> PoolSet:
    """Carve the three pools out of their arenas.

    Layout, from offset 0 of each arena: the shared arena gets
    [meta slab | data slab] for the shared pool; the private arena gets
    [shadow meta | shadow data | temporary meta].
    Temporary buffer i's data room is shared data room i, fixed for the
    life of the pools.
    """
    if cfg.mbuf_size < METADATA_OVERHEAD + 64:
        raise ArenaTooSmall(
            f"mbuf_size {cfg.mbuf_size} below metadata overhead {METADATA_OVERHEAD} + 64"
        )
    if cfg.mbuf_count < 1:
        raise ArenaTooSmall("mbuf_count must be at least 1")
    if shared_arena.kind is not RegionKind.SHARED or not mem.shared.is_registered(shared_arena.id):
        raise NotShared("shared pool arena must be a registered shared arena")
    if private_arena.kind is not RegionKind.PRIVATE:
        raise NotShared("shadow/temporary pools must live in a private arena")
    if not mem.is_reusable(shared_arena):
        raise QuarantinedArena(f"arena {shared_arena.id} awaits zero_and_release")

    count = cfg.mbuf_count
    room = cfg.data_room
    meta_bytes = count * METADATA_OVERHEAD

    need_shared = count * cfg.mbuf_size
    if need_shared > shared_arena.size:
        raise ArenaTooSmall(
            f"shared arena of {shared_arena.size} B cannot hold {need_shared} B of pool"
        )
    need_private = need_shared + meta_bytes
    if need_private > private_arena.size:
        raise ArenaTooSmall(
            f"private arena of {private_arena.size} B cannot hold {need_private} B of pools"
        )

    shared_meta = Handle(shared_arena.id, 0, meta_bytes)
    shared_data = Handle(shared_arena.id, meta_bytes, count * room)
    shadow_meta = Handle(private_arena.id, 0, meta_bytes)
    shadow_data = Handle(private_arena.id, meta_bytes, count * room)
    temp_meta = Handle(private_arena.id, meta_bytes + shadow_data.length, meta_bytes)

    shared_pool = PacketPool(mem, PoolKind.SHARED, count, room, shared_meta, shared_data)
    shadow_pool = PacketPool(
        mem, PoolKind.SHADOW, count, room, shadow_meta, shadow_data, canary=canary
    )
    temp_pool = PacketPool(
        mem, PoolKind.TEMPORARY, count, room, temp_meta, None, rooms=shared_data, canary=canary
    )
    return PoolSet(shared=shared_pool, temporary=temp_pool, shadow=shadow_pool)


class PortContext:
    """One port: a TX/RX ring pair, the three pools, and flow counters.

    Applications interact through alloc_tx_buffer / tx_burst / rx_burst /
    free_buffer and only ever hold shadow (private) buffers.
    """

    def __init__(
        self,
        mem: MemorySystem,
        cfg: PoolConfig,
        pools: PoolSet,
        tx_ring: DescriptorRing,
        rx_ring: DescriptorRing,
    ):
        self.mem = mem
        self.cfg = cfg
        self.pools = pools
        self.tx_ring = tx_ring
        self.rx_ring = rx_ring
        self.counters: dict[str, int] = {
            "copies_rx": 0,
            "copies_tx": 0,
            "bytes_copied": 0,
            "drops": 0,
            "metadata_suspect": 0,
            "auth_fail": 0,
            "aes_ops": 0,  # AES executed by the application worker itself
        }
        self._tx_slot_temp: dict[int, PacketBuffer] = {}
        self._rx_slot_temp: dict[int, PacketBuffer] = {}
        self.crypto_worker = None  # set by inline_attach
        self.rx_more = False  # whether the last rx_burst may have left ready slots
        self.destroyed = False

    # -- setup -------------------------------------------------------------

    def arm_rx(self, slots: int) -> int:
        """Post up to `slots` temporary buffers to the RX ring."""
        ring, temporary = self.rx_ring, self.pools.temporary
        count = max(0, min(slots, ring.capacity - ring.occupancy(), temporary.remaining()))
        self._post_rx([temporary.take() for _ in range(count)])
        return count

    def _post_rx(self, temps: list[PacketBuffer]) -> None:
        """Post temporary buffers to the RX ring in one bulk post, in order;
        those the ring has no room for go back to the pool."""
        ring, temporary = self.rx_ring, self.pools.temporary
        space = ring.capacity - ring.occupancy()
        for temp in temps[space:]:
            temporary.free(temp)
        temps = temps[:space]
        if not temps:
            return
        first = ring.vm_post_rx_rooms(
            temporary.data_region, temporary.data_room, temporary.room_offsets(temps)
        )
        mask, slot_temp = ring.capacity - 1, self._rx_slot_temp
        for k, temp in enumerate(temps):
            slot_temp[(first + k) & mask] = temp

    # -- fast path ---------------------------------------------------------

    def rx_burst(self, max_count: int = 32) -> list[PacketBuffer]:
        """Harvest ready RX slots, bounce each payload into a private shadow
        buffer (the single RX copy), repost the shared-side buffers, and hand
        the shadow buffers to the caller."""
        mem, counters = self.mem, self.counters
        shadow_pool = self.pools.shadow
        meta_region, room = shadow_pool.meta_region, shadow_pool.data_room
        out: list[PacketBuffer] = []
        repost: list[PacketBuffer] = []
        harvested = self.rx_ring.vm_harvest_rx(max_count)
        # a short harvest stopped at a slot that was not ready
        self.rx_more = len(harvested) == max_count
        for rec in harvested:
            temp = self._rx_slot_temp.pop(rec.slot)
            repost.append(temp)
            if rec.suspect:
                counters["metadata_suspect"] += 1
                counters["drops"] += 1
                continue
            try:
                shadow = shadow_pool.take()
            except PoolExhausted:
                counters["drops"] += 1
                continue
            # the harvest clamped length to the posted room it names
            length, src = rec.length, rec.packet_address
            dst_region, dst_offset = shadow_pool.data_at(shadow.index, length)
            payload = mem.read_at(src.region, src.offset, length, _VM)
            mem.write_at(dst_region, dst_offset, payload, _VM)
            counters["copies_rx"] += 1
            counters["bytes_copied"] += length
            # the whole header in one write, so the raw take needs no reset;
            # the data handle gets the value the slab was built with
            mem.pack_at(
                meta_region, shadow.meta_at, _HEADER, _VM, rec.packet_info, 0, length,
                dst_region, dst_offset, room, META_NEXT_NONE, rec.rss,
            )
            out.append(shadow)
        self._post_rx(repost)
        return out

    def tx_burst(self, bufs: list[PacketBuffer]) -> int:
        """Queue shadow buffers for transmit. Each accepted packet is copied
        once (shadow -> temporary, flattening any chain) and its shadow
        buffer(s) freed; returns the length of the accepted prefix.

        Every buffer's pool and flattened length are checked before any of
        them is posted, so a bad buffer raises with nothing on the ring."""
        self.reclaim_tx()
        shadow_pool, temporary = self.pools.shadow, self.pools.temporary
        room = self.cfg.data_room
        checked = []
        for buf in bufs:
            if buf.pool is not shadow_pool:
                raise ForeignBuffer("tx_burst takes shadow-pool buffers")
            segments = buf.segment_lengths()
            total = sum(length for _, length in segments)
            if total > room:
                raise OversizePacket(f"{total} B exceeds {room} B data room")
            checked.append((segments, total))

        mem = self.mem
        accepted = 0
        for segments, total in checked:
            try:
                temp = temporary.take()  # its metadata is never read or written
            except PoolExhausted:
                break
            # total fits the room, so each segment's length does too
            payload = b"".join(
                [
                    mem.read_at(*shadow_pool.data_at(seg.index), length, _VM)
                    for seg, length in segments
                ]
            )
            region, offset = temporary.data_at(temp.index, total)
            try:
                mem.write_at(region, offset, payload, _VM)
                slot = self.tx_ring.vm_post_tx(
                    TxDescriptor(
                        Handle(region, offset, total),
                        (total & ringmod.TX_CMD_LEN_MASK) | ringmod.TX_CMD_EOP,
                        0,
                    )
                )
            except RingFull:
                temporary.free(temp)
                break
            self._tx_slot_temp[slot] = temp
            self.counters["copies_tx"] += 1
            self.counters["bytes_copied"] += total
            for seg, _ in segments:
                shadow_pool.free(seg)
            accepted += 1
        return accepted

    def reclaim_tx(self) -> int:
        """Return completed temporary buffers to their pool."""
        done = 0
        for slot in self.tx_ring.vm_poll_tx():
            temp = self._tx_slot_temp.pop(slot, None)
            if temp is not None:
                self.pools.temporary.free(temp)
                done += 1
        return done

    # -- app-facing buffer management -------------------------------------

    def alloc_tx_buffer(self) -> PacketBuffer:
        return self.pools.shadow.alloc()

    def free_buffer(self, buf: PacketBuffer) -> None:
        self.pools.shadow.free(buf)

    def counters_snapshot(self) -> dict[str, int]:
        return dict(self.counters)

    # -- teardown ----------------------------------------------------------

    def destroy(self, graceful: bool = True) -> None:
        """Graceful teardown zeroes the port's shared bytes immediately.
        A non-graceful one (crash model) quarantines the shared arena: its
        pages stay unreusable until zero_and_release scrubs them."""
        if self.destroyed:
            return
        self.destroyed = True
        shared_region = self.pools.shared.meta_slab.region
        if graceful:
            self.pools.shared.zero_slabs()
            self.mem.write(self.tx_ring.backing, _VM, bytes(self.tx_ring.backing.length))
            self.mem.write(self.rx_ring.backing, _VM, bytes(self.rx_ring.backing.length))
        else:
            self.mem.quarantined.add(shared_region)


def port_new(
    mem: MemorySystem,
    cfg: PoolConfig,
    ring_capacity: int = ringmod.DEFAULT_CAPACITY,
    canary: Optional[bytes] = None,
) -> PortContext:
    """Allocate arenas, pools, and rings for one port and arm its RX side
    with min(ring_capacity, max(1, mbuf_count // 2)) buffers."""
    footprint = pool_memory_footprint(cfg)
    pool_bytes = footprint["shared"]
    ring_bytes = ring_capacity * ringmod.SLOT_SIZE
    shared_arena = mem.create_arena(RegionKind.SHARED, pool_bytes + 2 * ring_bytes)
    mem.shared.register(shared_arena)
    private_size = footprint["shadow"] + footprint["temporary"]
    private_arena = mem.create_arena(RegionKind.PRIVATE, private_size)

    pools = init_pools(mem, cfg, shared_arena, private_arena, canary=canary)
    tx_backing = Handle(shared_arena.id, pool_bytes, ring_bytes)
    rx_backing = Handle(shared_arena.id, pool_bytes + ring_bytes, ring_bytes)
    tx_ring = DescriptorRing(mem, tx_backing, ring_capacity, Direction.TX)
    rx_ring = DescriptorRing(mem, rx_backing, ring_capacity, Direction.RX)

    port = PortContext(mem, cfg, pools, tx_ring, rx_ring)
    port.arm_rx(min(ring_capacity, max(1, cfg.mbuf_count // 2)))
    return port
