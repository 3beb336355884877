"""SPSC descriptor rings living in shared memory.

Both rings use 32-byte slots in a registered shared arena. The VM produces
descriptors, the device consumes them and writes results back. Because the
device side is untrusted, the VM follows a strict field discipline:

* TX: the VM writes address/cmd_type_len/olinfo_status exactly once per post
  and afterwards reads only the status byte, only until it reads "free".
* RX: the VM writes the two buffer handles once per post; after the device
  signals ready it reads each writeback field exactly once, and it clamps the
  device-claimed length to the posted buffer before anyone trusts it.

Head/tail/device cursors are free-running 32-bit counters masked by capacity,
kept as plain attributes (they model doorbell registers, not shared bytes).

Slot byte layout (offsets within a slot; see docs/architecture.md):

  TX:  0..8  address handle   8..12 cmd_type_len  12..16 olinfo_status  16 status
  RX:  0..8  packet handle    8..16 header handle
      16..18 packet_info  18..22 rss  22..24 status_error  24..26 vlan_tag
      26..28 length

Handles are encoded on-ring as region:u16 | offset:u32 | length:u16, little
endian.
"""

from __future__ import annotations

import enum
import struct
from typing import NamedTuple, Optional, Sequence

from .errors import (
    AddressNotShared,
    BadCapacity,
    NotShared,
    OutOfBounds,
    QuarantinedArena,
    RingFull,
)
from .mem import Handle, MemorySystem, RegionKind, Side

SLOT_SIZE = 32
DEFAULT_CAPACITY = 256

MASK32 = 0xFFFFFFFF

_HANDLE_FMT = struct.Struct("<HIH")
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
# multi-field spans read or written as one access
_TX_FETCH = struct.Struct("<HIHII")  # 0..16: address handle, cmd_type_len, olinfo_status
_RX_FETCH = struct.Struct("<HIHHIH")  # 0..16: packet handle, header handle
_TX_POST = struct.Struct("<HIHIIB")  # 0..17: the TX fetch span, then status
_RX_INFO_RSS = struct.Struct("<HI")  # 16..22
_RX_VLAN_LEN = struct.Struct("<HH")  # 24..28
_RX_WRITEBACK = struct.Struct("<HIHHH")  # 16..28: info, rss, status, vlan, length
# a whole posted RX slot: packet handle, header handle, zeroed writeback
_RX_POST = struct.Struct("<HIHHIH16x")

# TX slot field offsets
TX_OFF_ADDR = 0
TX_OFF_STATUS = 16

# RX slot field offsets
RX_OFF_PKT = 0
RX_OFF_INFO = 16
RX_OFF_STATUS = 22
RX_OFF_VLAN = 24

# TX status byte values
TX_STATUS_INFLIGHT = 0
TX_STATUS_FREE = 1

# RX status_error bits
RX_STATUS_READY = 0x0001
RX_STATUS_ERROR = 0x0002

# cmd_type_len: low 16 bits carry the frame length, upper bits are flags
TX_CMD_LEN_MASK = 0xFFFF
TX_CMD_EOP = 1 << 24


def encode_handle(h: Handle) -> bytes:
    if not (0 <= h.region <= 0xFFFF and 0 <= h.offset <= 0xFFFFFFFF and 0 <= h.length <= 0xFFFF):
        raise OutOfBounds(f"handle {h} does not fit the 8-byte ring encoding")
    return _HANDLE_FMT.pack(h.region, h.offset, h.length)


def decode_handle(raw: bytes) -> Handle:
    region, offset, length = _HANDLE_FMT.unpack(raw)
    return Handle(region, offset, length)


class Direction(enum.Enum):
    TX = "tx"
    RX = "rx"


# enum members read once (see the note in mem.py)
_VM, _DEVICE = Side.VM, Side.DEVICE
_TX, _RX = Direction.TX, Direction.RX


class TxDescriptor(NamedTuple):
    address: Handle
    cmd_type_len: int
    olinfo_status: int


class TxView(NamedTuple):
    """What the device sees when it fetches a TX slot."""

    slot: int
    address: Handle
    cmd_type_len: int
    olinfo_status: int


class RxView(NamedTuple):
    slot: int
    packet_address: Handle
    header_address: Handle


class RxHarvest(NamedTuple):
    """One harvested RX writeback, post-clamp. suspect means the device-claimed
    metadata failed validation (oversized length or error bit)."""

    slot: int
    packet_address: Handle
    packet_info: int
    rss: int
    status_error: int
    vlan_tag: int
    length: int
    suspect: bool


class DescriptorRing:
    def __init__(self, mem: MemorySystem, backing: Handle, capacity: int, direction: Direction):
        if capacity < 2 or capacity & (capacity - 1):
            raise BadCapacity(f"capacity must be a power of two >= 2, got {capacity}")
        arena = mem.arena(backing.region)
        if arena.kind is not RegionKind.SHARED or not mem.shared.is_registered(arena.id):
            raise NotShared("ring backing must be in a registered shared arena")
        if not mem.is_reusable(arena):
            raise QuarantinedArena(f"arena {arena.id} awaits zero_and_release")
        if backing.length < capacity * SLOT_SIZE or not mem.contains(arena, backing):
            raise BadCapacity(
                f"backing of {backing.length} B cannot hold {capacity} slots of {SLOT_SIZE} B"
            )
        self.mem = mem
        self.backing = backing
        self.capacity = capacity
        self.direction = direction
        self.head = 0  # VM produce counter, free-running
        self.tail = 0  # VM reclaim counter, free-running
        self.device_next = 0  # device fetch cursor, free-running

        cap = capacity
        # fixed layout: every slot's absolute arena offset, computed once
        self._region = backing.region
        self._slot_at = [backing.offset + slot * SLOT_SIZE for slot in range(cap)]
        # VM-private shadow state; pointers and progress never live in shared
        # memory, only descriptor bytes do
        self._seen_free = [False] * cap
        self._posted_rx: list[Optional[Handle]] = [None] * cap
        # device-private completion bookkeeping (models writeback ordering)
        self._completion_seq: dict[int, int] = {}
        self._next_completion = 0
        self._device_done = [False] * cap
        self.violations: list[tuple[str, int]] = []

        self._init_slots()

    # -- construction helpers ---------------------------------------------

    def _init_slots(self) -> None:
        """Write the whole fresh ring in one access: all zero, with every TX
        status byte FREE."""
        image = bytearray(self.capacity * SLOT_SIZE)
        if self.direction is _TX:
            image[TX_OFF_STATUS::SLOT_SIZE] = bytes([TX_STATUS_FREE]) * self.capacity
        self.mem.write_at(self._region, self.backing.offset, image, _VM)

    def _device_slot_at(self, slot: int) -> int:
        """Absolute offset of a slot the device names. The device may name
        any number, so it is checked against the backing like a sub-handle."""
        start = slot * SLOT_SIZE
        if slot < 0 or start + SLOT_SIZE > self.backing.length:
            raise OutOfBounds(
                f"slot {slot} outside ring backing of length {self.backing.length}"
            )
        return self.backing.offset + start

    def occupancy(self) -> int:
        return (self.head - self.tail) & MASK32

    # -- VM side: TX -------------------------------------------------------

    def vm_post_tx(self, desc: TxDescriptor) -> int:
        assert self.direction is _TX
        if self.occupancy() == self.capacity:
            raise RingFull(f"tx ring full at capacity {self.capacity}")
        mem = self.mem
        a_region, a_offset, a_length = desc.address
        if (
            not mem.is_device_accessible(a_region)
            or a_offset < 0
            or a_length < 0
            or a_offset + a_length > mem.arenas[a_region].size
        ):
            raise AddressNotShared(f"tx address {desc.address} not in a registered shared arena")
        if a_region > 0xFFFF or a_offset > MASK32 or a_length > 0xFFFF:
            raise OutOfBounds(f"handle {desc.address} does not fit the 8-byte ring encoding")
        slot = self.head & (self.capacity - 1)
        # the whole descriptor and its INFLIGHT status, bytes 0..17, in one write
        mem.pack_at(
            self._region, self._slot_at[slot] + TX_OFF_ADDR, _TX_POST, _VM,
            a_region, a_offset, a_length, desc.cmd_type_len & MASK32,
            desc.olinfo_status & MASK32, TX_STATUS_INFLIGHT,
        )
        self._seen_free[slot] = False
        self._device_done[slot] = False
        self._completion_seq.pop(slot, None)
        self.head = (self.head + 1) & MASK32
        return slot

    def vm_poll_tx(self) -> list[int]:
        """Return slots newly observed free, in device completion order.

        Reads only status bytes, and only for slots not already seen free;
        ring space is reclaimed in ring order over the contiguous freed
        prefix.
        """
        assert self.direction is _TX
        mem, region, slot_at, seen_free = self.mem, self._region, self._slot_at, self._seen_free
        mask = self.capacity - 1
        newly: list[int] = []
        idx = self.tail
        while idx != self.head:
            slot = idx & mask
            if not seen_free[slot]:
                (status,) = mem.unpack_at(region, slot_at[slot] + TX_OFF_STATUS, _U8, _VM)
                if status == TX_STATUS_FREE:
                    seen_free[slot] = True
                    newly.append(slot)
            idx = (idx + 1) & MASK32
        if len(newly) > 1:
            newly.sort(key=lambda s: self._completion_seq.get(s, 1 << 62))
        while self.tail != self.head and seen_free[self.tail & mask]:
            seen_free[self.tail & mask] = False
            self.tail = (self.tail + 1) & MASK32
        return newly

    # -- VM side: RX -------------------------------------------------------

    def vm_post_rx_buffer(self, packet: Handle) -> int:
        """Post one RX buffer; returns its slot."""
        return self.vm_post_rx_rooms(packet.region, packet.length, (packet.offset,))

    def vm_post_rx_rooms(self, region: int, length: int, offsets: Sequence[int]) -> int:
        """Post one RX buffer per offset, room k being (region, offsets[k],
        length), to consecutive slots from head; returns the first slot.

        Nothing is written and head does not move unless the whole post is
        valid: the ring must have room for every buffer, the region must be
        a registered shared arena (checked once), and every room must lie in
        that arena and fit the 8-byte ring encoding (checked through the
        extreme offsets). Each slot gets the packet handle twice, as packet
        and as header (no header split in this driver model), and a zeroed
        writeback, so a fresh slot never looks ready. Each contiguous run of
        slots is written in one access: one run, or two when the post wraps
        past the ring's last slot.
        """
        assert self.direction is _RX
        n, cap = len(offsets), self.capacity
        if n > cap - self.occupancy():
            raise RingFull(f"rx ring at capacity {cap} has no room for {n} buffers")
        first = self.head & (cap - 1)
        if not n:
            return first
        mem = self.mem
        lo, hi = min(offsets), max(offsets)
        if (
            not mem.is_device_accessible(region)
            or lo < 0
            or length < 0
            or hi + length > mem.arenas[region].size
        ):
            raise AddressNotShared(
                f"rx buffers of {length} B at region {region}+[{lo}, {hi}] not in a"
                " registered shared arena"
            )
        if region > 0xFFFF or hi > MASK32 or length > 0xFFFF:
            raise OutOfBounds(
                f"rx buffers of {length} B at region {region}+[{lo}, {hi}] do not fit"
                " the 8-byte ring encoding"
            )
        if n <= cap - first:
            runs = ((first, n, offsets),)
        else:
            split = cap - first
            runs = ((first, split, offsets[:split]), (0, n - split, offsets[split:]))
        pack, posted_rx, device_done = _RX_POST.pack, self._posted_rx, self._device_done
        for start, count, run in runs:
            image = b"".join([pack(region, off, length, region, off, length) for off in run])
            mem.write_at(self._region, self._slot_at[start], image, _VM)
            posted_rx[start : start + count] = [Handle(region, off, length) for off in run]
            device_done[start : start + count] = [False] * count
        self.head = (self.head + n) & MASK32
        return first

    def vm_harvest_rx(self, max_count: int) -> list[RxHarvest]:
        """Harvest up to max_count ready slots in ring order.

        Each writeback field is read exactly once per harvested slot; the
        device-claimed length is clamped to the posted buffer size and the
        record is flagged suspect if the claim was out of range or the error
        bit is set. A harvested slot is released and never read again until
        it is reposted.
        """
        assert self.direction is _RX
        mem, region, slot_at, posted_rx = self.mem, self._region, self._slot_at, self._posted_rx
        mask = self.capacity - 1
        out: list[RxHarvest] = []
        while max_count > 0 and self.tail != self.head:
            slot = self.tail & mask
            at = slot_at[slot]
            (status,) = mem.unpack_at(region, at + RX_OFF_STATUS, _U16, _VM)
            if not status & RX_STATUS_READY:
                break
            # adjacent fields share one read; each byte is still read once
            info, rss = mem.unpack_at(region, at + RX_OFF_INFO, _RX_INFO_RSS, _VM)
            vlan, length = mem.unpack_at(region, at + RX_OFF_VLAN, _RX_VLAN_LEN, _VM)
            packet = posted_rx[slot]
            assert packet is not None, "ready slot without a posted buffer"
            suspect = False
            if length > packet.length:
                length = packet.length
                suspect = True
            if status & RX_STATUS_ERROR:
                suspect = True
            out.append(RxHarvest(slot, packet, info, rss, status, vlan, length, suspect))
            posted_rx[slot] = None
            max_count -= 1
            self.tail = (self.tail + 1) & MASK32
        return out

    # -- device side -------------------------------------------------------

    def device_fetch(self) -> list[TxView] | list[RxView]:
        """Read VM-written fields of every not-yet-fetched slot, in order.

        Raises DeviceAccessDenied if the ring's arena is not device
        accessible; the caller (the simulated NIC) records that as a
        violation instead of crashing.
        """
        mem, region, slot_at = self.mem, self._region, self._slot_at
        mask = self.capacity - 1
        tx = self.direction is _TX
        views: list = []
        while self.device_next != self.head:
            slot = self.device_next & mask
            if tx:
                a_region, a_offset, a_length, cmd, olinfo = mem.unpack_at(
                    region, slot_at[slot] + TX_OFF_ADDR, _TX_FETCH, _DEVICE
                )
                views.append(TxView(slot, Handle(a_region, a_offset, a_length), cmd, olinfo))
            else:
                p_region, p_offset, p_length, h_region, h_offset, h_length = mem.unpack_at(
                    region, slot_at[slot] + RX_OFF_PKT, _RX_FETCH, _DEVICE
                )
                views.append(
                    RxView(
                        slot,
                        Handle(p_region, p_offset, p_length),
                        Handle(h_region, h_offset, h_length),
                    )
                )
            self.device_next = (self.device_next + 1) & MASK32
        return views

    def _writeback_window_ok(self, slot: int) -> bool:
        """Slot must be fetched, not yet completed, and still in flight.

        The window is the run of ring positions [tail, device_next); slot
        lies in it iff its distance from tail, modulo capacity, is shorter
        than the run. Should a forged status let tail overtake device_next,
        the run is longer than the ring and every slot lies in it, which is
        what a walk from tail to device_next would find.
        """
        if not 0 <= slot < self.capacity:
            return False
        window = (self.device_next - self.tail) & MASK32
        return ((slot - self.tail) & (self.capacity - 1)) < window and not self._device_done[slot]

    def device_writeback_tx(self, slot: int) -> bool:
        """Mark a TX slot complete. Returns False (and logs) for a replayed or
        out-of-window completion; the byte write still happens because shared
        memory cannot be defended, only distrusted."""
        assert self.direction is _TX
        ok = self._writeback_window_ok(slot)
        at = self._device_slot_at(slot)
        self.mem.pack_at(self._region, at + TX_OFF_STATUS, _U8, _DEVICE, TX_STATUS_FREE)
        if ok:
            self._device_done[slot] = True
            self._completion_seq[slot] = self._next_completion
            self._next_completion += 1
        else:
            self.violations.append(("replayed_tx_completion", slot))
        return ok

    def device_writeback_rx(
        self,
        slot: int,
        length: int,
        packet_info: int = 0,
        rss: int = 0,
        vlan_tag: int = 0,
        status_error: int = RX_STATUS_READY,
    ) -> bool:
        assert self.direction is _RX
        ok = self._writeback_window_ok(slot)
        # one write, so the VM never sees a ready status without its fields
        self.mem.pack_at(
            self._region, self._device_slot_at(slot) + RX_OFF_INFO, _RX_WRITEBACK, _DEVICE,
            packet_info & 0xFFFF, rss & MASK32, status_error & 0xFFFF, vlan_tag & 0xFFFF,
            length & 0xFFFF,
        )
        if ok:
            self._device_done[slot] = True
        else:
            self.violations.append(("replayed_rx_writeback", slot))
        return ok

