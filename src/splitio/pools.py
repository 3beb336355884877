"""Packet buffer pools and the port fast path.

Two pools back every port, each laid out as [metadata | data rooms] from
offset 0 of its own arena:

* shared - in a registered shared arena, the only packet memory the device
           ever sees. The port takes these buffers to stage TX frames and to
           arm the RX ring, and after construction never reads or writes
           their metadata, which the device can write.
* shadow - in a private arena; the only buffers the application ever holds.

The fast path performs exactly one bulk copy per packet per direction:
RX copies shared -> shadow after harvest (copy before anything parses the
bytes), TX copies shadow -> shared right before posting. Free lists, ring
progress and every metadata field the port reads live in private memory.

Buffer metadata occupies a 128-byte block per buffer:

   0..2  msg_type   2..4 flags   4..8 pkt_len   8..16 reserved (zero)
  16..20 next index (0xFFFFFFFF = none)   20..24 rss   24..64 reserved
  64..128 app-private area (64 B)
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigInvalid, OutOfBounds, PoolExhausted, RingFull, SplitioError
from .mem import Handle, MemorySystem, RegionKind, Side
from . import ring as ringmod
from .ring import DescriptorRing, Direction, TxDescriptor

METADATA_OVERHEAD = 128
APP_PRIVATE_SIZE = 64
DEFAULT_MBUF_SIZE = 2176
DEFAULT_MBUF_COUNT = 8192

META_OFF_MSG_TYPE = 0
META_OFF_FLAGS = 2
META_OFF_PKT_LEN = 4
META_OFF_NEXT = 16
META_OFF_RSS = 20
META_OFF_APP = APP_PRIVATE_SIZE

META_NEXT_NONE = 0xFFFFFFFF

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_FLAGS_PKT_LEN = struct.Struct("<HI")  # 2..8
_LEN_NEXT = struct.Struct("<I8xI")  # 4..20: pkt_len, next
# 0..24: msg_type, flags, pkt_len, 8 reserved zero bytes, next, rss
_HEADER = struct.Struct("<HHI8xII")


class PoolKind(enum.Enum):
    SHARED = "shared"
    SHADOW = "shadow"


# enum members read once, and records built without a constructor frame
# (see the notes in mem.py and ring.py)
_VM = Side.VM
_SHADOW = PoolKind.SHADOW
_new = tuple.__new__


@dataclass(frozen=True)
class PoolConfig:
    mbuf_count: int = DEFAULT_MBUF_COUNT
    mbuf_size: int = DEFAULT_MBUF_SIZE

    @property
    def data_room(self) -> int:
        return self.mbuf_size - METADATA_OVERHEAD


def pool_memory_footprint(cfg: PoolConfig) -> dict[str, int]:
    """Bytes each pool occupies, metadata plus data rooms. Pure arithmetic,
    no allocation."""
    shared = shadow = cfg.mbuf_count * cfg.mbuf_size
    return {"shared": shared, "shadow": shadow, "total": shared + shadow}


class PacketBuffer:
    """One buffer (metadata block plus data room) in one pool. Its index
    fixes where both live: meta_at and room_at are their absolute offsets in
    the pool's region, checked once here, so no access recomputes or
    re-checks them. Field accessors go through the memory system so
    metadata physically lives in its arena, and no Handle is built per
    access."""

    __slots__ = ("pool", "index", "meta_at", "room_at")

    def __init__(self, pool: "PacketPool", index: int):
        if not 0 <= index < pool.count:
            raise OutOfBounds(f"buffer {index} outside a pool of {pool.count}")
        self.pool = pool
        self.index = index
        self.meta_at = index * METADATA_OVERHEAD
        self.room_at = pool.data_base + index * pool.data_room

    def _get(self, off: int, fmt: struct.Struct) -> int:
        pool = self.pool
        return pool.mem.unpack_at(pool.region, self.meta_at + off, fmt, _VM)[0]

    def _set(self, off: int, fmt: struct.Struct, value: int) -> None:
        pool = self.pool
        pool.mem.pack_at(pool.region, self.meta_at + off, fmt, _VM, value)

    # pkt_len is read and written on every packet, so it skips _get/_set
    @property
    def pkt_len(self) -> int:
        pool = self.pool
        return pool.mem.unpack_at(pool.region, self.meta_at + META_OFF_PKT_LEN, _U32, _VM)[0]

    @pkt_len.setter
    def pkt_len(self, value: int) -> None:
        pool = self.pool
        pool.mem.pack_at(pool.region, self.meta_at + META_OFF_PKT_LEN, _U32, _VM, value)

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

    def chain(self, nxt: Optional["PacketBuffer"]) -> None:
        if nxt is not None and nxt.pool is not self.pool:
            raise SplitioError("segments of a chain must come from one pool")
        self._set(META_OFF_NEXT, _U32, META_NEXT_NONE if nxt is None else nxt.index)

    def segment_lengths(self) -> list[tuple["PacketBuffer", int]]:
        """(segment, pkt_len) along the chain from this buffer. One read per
        segment covers its pkt_len and its next link (bytes 4..20)."""
        pool, buf, out = self.pool, self, []
        while True:
            at = buf.meta_at + META_OFF_PKT_LEN
            length, nxt = pool.mem.unpack_at(pool.region, at, _LEN_NEXT, _VM)
            out.append((buf, length))
            if nxt == META_NEXT_NONE:
                return out
            if len(out) > pool.count:
                raise SplitioError("segment chain longer than the pool")
            buf = PacketBuffer(pool, nxt)

    def total_len(self) -> int:
        return sum(length for _, length in self.segment_lengths())

    def write_data(self, payload: bytes) -> None:
        """App helper: set payload and pkt_len in one go."""
        pool, length = self.pool, len(payload)
        if length > pool.data_room:
            raise SplitioError(f"{length} B into a {pool.data_room} B room")
        pool.mem.write_at(pool.region, self.room_at, payload, _VM)
        self.pkt_len = length

    def read_data(self) -> bytes:
        length = self.pkt_len
        pool = self.pool
        # pkt_len comes from memory, so it is checked against the room
        if length > pool.data_room:
            raise OutOfBounds(f"{length} B outside a data room of {pool.data_room} B")
        return pool.mem.read_at(pool.region, self.room_at, length, _VM)


class PacketPool:
    """Fixed-size buffer pool with a LIFO free list.

    The free list and allocation state are Python-side (private) state; only
    buffer bytes live in the arena.
    """

    def __init__(
        self,
        mem: MemorySystem,
        kind: PoolKind,
        region: int,
        cfg: PoolConfig,
        canary: Optional[bytes] = None,
    ):
        """Lay cfg.mbuf_count buffers out from offset 0 of region as
        [metadata | data rooms] and write the metadata. canary fills every
        buffer's app-private area, which is zeroed without one."""
        self.mem = mem
        self.kind = kind
        self.region = region
        self.count = count = cfg.mbuf_count
        self.data_room = room = cfg.data_room
        self.data_base = count * METADATA_OVERHEAD
        self.meta_slab = Handle(region, 0, self.data_base)
        self.data_slab = Handle(region, self.data_base, count * room)
        if canary is not None:
            self._app_fill = (canary * (APP_PRIVATE_SIZE // len(canary) + 1))[:APP_PRIVATE_SIZE]
        else:
            self._app_fill = bytes(APP_PRIVATE_SIZE)
        self._free: list[int] = list(range(count - 1, -1, -1))
        self._is_free = [True] * count
        # every block is the same, so the slab is one block repeated, in one write
        block = bytearray(METADATA_OVERHEAD)
        _U32.pack_into(block, META_OFF_NEXT, META_NEXT_NONE)
        block[META_OFF_APP:] = self._app_fill
        mem.write(self.meta_slab, _VM, block * count)

    def remaining(self) -> int:
        return len(self._free)

    def take(self) -> PacketBuffer:
        """Allocate without writing metadata: the header still holds what
        its last user left there. For callers that write the whole header
        themselves (rx_burst), and for the shared pool, whose metadata the
        port never touches after construction."""
        if not self._free:
            raise PoolExhausted(f"{self.kind.value} pool empty")
        index = self._free.pop()
        self._is_free[index] = False
        return PacketBuffer(self, index)

    def take_rooms(self, count: int) -> list[int]:
        """take() count buffers in one slice of the free list, in the order
        take() would hand them out; returns their room offsets."""
        free, cut = self._free, len(self._free) - count
        if cut < 0:
            raise PoolExhausted(f"{self.kind.value} pool holds fewer than {count} buffers")
        indices = free[cut:][::-1]
        del free[cut:]
        for index in indices:
            self._is_free[index] = False
        return [self.data_base + index * self.data_room for index in indices]

    def alloc(self) -> PacketBuffer:
        """take(), then reset the header: flags and pkt_len 0, no next
        segment."""
        buf = self.take()
        mem, region, at = self.mem, self.region, buf.meta_at
        # flags and pkt_len are adjacent (2..8): one write clears both
        mem.pack_at(region, at + META_OFF_FLAGS, _FLAGS_PKT_LEN, _VM, 0, 0)
        mem.pack_at(region, at + META_OFF_NEXT, _U32, _VM, META_NEXT_NONE)
        return buf

    def free(self, buf: PacketBuffer) -> None:
        if buf.pool is not self:
            raise SplitioError("buffer belongs to another pool")
        if self._is_free[buf.index]:
            raise SplitioError(f"double free of buffer {buf.index}")
        if self.kind is _SHADOW:
            # cheap scrub: the app-private area may hold secrets
            self.mem.write_at(self.region, buf.meta_at + META_OFF_APP, self._app_fill, _VM)
        self._is_free[buf.index] = True
        self._free.append(buf.index)


@dataclass
class PoolSet:
    shared: PacketPool
    shadow: PacketPool


class PortContext:
    """One port: a TX/RX ring pair, the two pools, and flow counters.

    Applications interact through alloc_tx_buffer / tx_burst / rx_burst /
    free_buffer and only ever hold shadow (private) buffers.
    """

    def __init__(
        self,
        mem: MemorySystem,
        pools: PoolSet,
        tx_ring: DescriptorRing,
        rx_ring: DescriptorRing,
    ):
        self.mem = mem
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
        # TX slot -> the shared buffer staged in it, until reclaim_tx
        self._tx_staged: dict[int, PacketBuffer] = {}
        self.crypto_worker = None  # set by inline_attach
        self.rx_more = False  # whether the last rx_burst may have left ready slots
        self.destroyed = False

    # -- setup -------------------------------------------------------------

    def arm_rx(self, slots: int) -> int:
        """Post up to `slots` shared buffers to the RX ring. They stay
        taken for the life of the port: the ring's record of each posted
        room is what rx_burst reposts once the room is harvested."""
        ring, shared = self.rx_ring, self.pools.shared
        count = max(0, min(slots, ring.capacity - ring.occupancy(), shared.remaining()))
        ring.vm_post_rx_rooms(shared.region, shared.data_room, shared.take_rooms(count))
        return count

    # -- fast path ---------------------------------------------------------

    def rx_burst(self, max_count: int = 32) -> list[PacketBuffer]:
        """Harvest ready RX slots, bounce each payload into a private shadow
        buffer (the single RX copy), repost the shared-side buffers, and hand
        the shadow buffers to the caller."""
        mem, counters, rx_ring = self.mem, self.counters, self.rx_ring
        shadow_pool, shared = self.pools.shadow, self.pools.shared
        shadow_region, room = shadow_pool.region, shadow_pool.data_room
        out: list[PacketBuffer] = []
        harvested = rx_ring.vm_harvest_rx(max_count)
        # a short harvest stopped at a slot that was not ready
        self.rx_more = len(harvested) == max_count
        for rec in harvested:
            if rec.suspect:
                counters["metadata_suspect"] += 1
                counters["drops"] += 1
                continue
            try:
                shadow = shadow_pool.take()
            except PoolExhausted:
                counters["drops"] += 1
                continue
            # the harvest clamped length, read from memory, to the posted
            # room it names; the shadow room is checked all the same
            length, src, dst_offset = rec.length, rec.packet_address, shadow.room_at
            if length > room:
                raise OutOfBounds(f"{length} B outside a data room of {room} B")
            payload = mem.read_at(src.region, src.offset, length, _VM)
            mem.write_at(shadow_region, dst_offset, payload, _VM)
            counters["copies_rx"] += 1
            counters["bytes_copied"] += length
            # the whole header in one write, so the raw take needs no reset
            mem.pack_at(
                shadow_region, shadow.meta_at, _HEADER, _VM,
                rec.packet_info, 0, length, META_NEXT_NONE, rec.rss,
            )
            out.append(shadow)
        if harvested:
            # the harvest freed one slot per room, so every room fits back
            rx_ring.vm_post_rx_rooms(
                shared.region, shared.data_room, [rec.packet_address.offset for rec in harvested]
            )
        return out

    def tx_burst(self, bufs: list[PacketBuffer]) -> int:
        """Queue shadow buffers for transmit. Each accepted packet is copied
        once (shadow -> shared, flattening any chain) and its shadow
        buffer(s) freed; returns the length of the accepted prefix.

        Every buffer's pool and flattened length are checked before any of
        them is posted, so a bad buffer raises with nothing on the ring."""
        self.reclaim_tx()
        shadow_pool, shared = self.pools.shadow, self.pools.shared
        room = shadow_pool.data_room  # the shared pool's rooms are as long
        checked = []
        for buf in bufs:
            if buf.pool is not shadow_pool:
                raise SplitioError("tx_burst takes shadow-pool buffers")
            segments = buf.segment_lengths()
            total = 0
            for _, length in segments:
                total += length
            if total > room:
                raise SplitioError(f"{total} B exceeds {room} B data room")
            checked.append((segments, total))

        mem, region, shadow_region = self.mem, shared.region, shadow_pool.region
        accepted = 0
        for segments, total in checked:
            try:
                staged = shared.take()  # its metadata is never read or written
            except PoolExhausted:
                break
            # total fits the room, so each segment's length does too; b"" + x
            # is x itself, so a one-segment packet is read once and not copied
            payload = b""
            for seg, length in segments:
                payload += mem.read_at(shadow_region, seg.room_at, length, _VM)
            offset = staged.room_at
            try:
                mem.write_at(region, offset, payload, _VM)
                address = _new(Handle, (region, offset, total))
                cmd = (total & ringmod.TX_CMD_LEN_MASK) | ringmod.TX_CMD_EOP
                slot = self.tx_ring.vm_post_tx(_new(TxDescriptor, (address, cmd, 0)))
            except RingFull:
                shared.free(staged)
                break
            self._tx_staged[slot] = staged
            self.counters["copies_tx"] += 1
            self.counters["bytes_copied"] += total
            for seg, _ in segments:
                shadow_pool.free(seg)
            accepted += 1
        return accepted

    def reclaim_tx(self) -> int:
        """Return the shared buffers of completed TX slots to their pool."""
        done = 0
        for slot in self.tx_ring.vm_poll_tx():
            staged = self._tx_staged.pop(slot, None)
            if staged is not None:
                self.pools.shared.free(staged)
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
        """Graceful teardown zeroes the port's shared arena, which holds
        exactly [pool metadata | rooms | TX ring | RX ring], in one write.
        A non-graceful one (crash model) quarantines it instead: its pages
        stay unreusable until zero_and_release scrubs them."""
        if self.destroyed:
            return
        self.destroyed = True
        region = self.pools.shared.meta_slab.region
        if graceful:
            self.mem.write_at(region, 0, bytes(self.mem.arena(region).size), _VM)
        else:
            self.mem.quarantined.add(region)


def port_new(
    mem: MemorySystem,
    cfg: PoolConfig,
    ring_capacity: int = ringmod.DEFAULT_CAPACITY,
    canary: Optional[bytes] = None,
) -> PortContext:
    """Lay out one port in two fresh arenas of mem and arm its RX side with
    min(ring_capacity, max(1, mbuf_count // 2)) buffers. From offset 0, the
    registered shared arena holds [shared meta | shared rooms | TX ring |
    RX ring], the only bytes the device sees, and the private arena holds
    [shadow meta | shadow rooms]. The canary fills the shadow pool's
    app-private areas only. Every refusal comes before the first arena is
    created, so a refused config leaves mem untouched."""
    if canary is not None and not canary:
        raise ConfigInvalid("a canary must be at least one byte long")
    if cfg.mbuf_size < METADATA_OVERHEAD + 64:
        raise SplitioError(
            f"mbuf_size {cfg.mbuf_size} below metadata overhead {METADATA_OVERHEAD} + 64"
        )
    if cfg.mbuf_count < 1:
        raise SplitioError("mbuf_count must be at least 1")
    ringmod.check_capacity(ring_capacity)
    footprint = pool_memory_footprint(cfg)
    pool_bytes, room = footprint["shared"], cfg.data_room
    last = pool_bytes - room
    # the RX ring carries every shared room as region:u16 | offset:u32 |
    # length:u16; the shared arena's id is the next one mem hands out
    if room > 0xFFFF or last > ringmod.MASK32 or mem._next_id > 0xFFFF:
        raise OutOfBounds(f"rooms of {room} B up to offset {last} do not fit the ring encoding")
    if mem.torn_down:
        raise SplitioError("shared regions already torn down")
    ring_bytes = ring_capacity * ringmod.SLOT_SIZE
    shared = mem.create_arena(RegionKind.SHARED, pool_bytes + 2 * ring_bytes)
    mem.register(shared)
    private = mem.create_arena(RegionKind.PRIVATE, footprint["shadow"])

    # built in this order, each part writing itself as it is made: the
    # tests hash a port's construction writes
    shared_pool = PacketPool(mem, PoolKind.SHARED, shared.id, cfg)
    shadow_pool = PacketPool(mem, PoolKind.SHADOW, private.id, cfg, canary)
    tx_backing = Handle(shared.id, pool_bytes, ring_bytes)
    rx_backing = Handle(shared.id, pool_bytes + ring_bytes, ring_bytes)
    tx_ring = DescriptorRing(mem, tx_backing, ring_capacity, Direction.TX)
    rx_ring = DescriptorRing(mem, rx_backing, ring_capacity, Direction.RX)

    port = PortContext(mem, PoolSet(shared=shared_pool, shadow=shadow_pool), tx_ring, rx_ring)
    port.arm_rx(min(ring_capacity, max(1, cfg.mbuf_count // 2)))
    return port
