"""ESP transport-mode protection with two offload shapes.

Wire layout of a protected packet (offsets in bytes):

   0..8   addressing prefix (src u32 | dst u32), cleartext, copied from the
          head of the original packet
   8..12  spi (big endian)
  12..16  sequence number, low 32 bits (big endian)
  16..24  explicit IV = the full 64-bit sequence number (big endian)
  24..N-16 ciphertext of: payload[8:] + padding + pad_len + next_header
   N-16..N 16-byte integrity tag

AES-128-GCM does the crypto: nonce = 4-byte salt || 8-byte IV, AAD = the
8-byte spi||seq header. Padding brings (inner + 2) to a 4-byte boundary, so
expansion over the original packet is 34 to 37 bytes, bounded by 40. The
single-SA receiver authenticates the received header bytes, so any bit flip
anywhere in the ESP frame proper (spi through tag) fails authentication; the
addressing prefix sits outside the protected frame, as outer headers do.

Key and salt bytes live in a private arena, so a scan of shared memory and
of each frame sent can prove they never leak. The key is read once, when
an association builds its AES-GCM object on its first transform, and the
salt is read on every transform to form the nonce. The AEAD library itself
is imported earlier, when the first association is built, so a run that
protects nothing never loads it. AES executions are attributed to whoever
passes its ops counter, which is how the tests prove the app worker does
zero AES in inline mode.

Offload shapes:

* look-aside (PortProtect): the application worker itself seals and opens
  around its tx/rx bursts.
* emulated inline (CryptoWorker): a dedicated crypto worker owns three bounded
  staging queues (plain-out inbound, plain-in / cipher-out outbound), polls
  the pool layer, and does every AES operation; the application only touches
  the plain-side queues.

Both are application data paths with the port's own shape: app_tx(bufs)
returns how many buffers it accepted, always a prefix, and the caller keeps
(and frees) the rest; app_rx(max_count) returns plaintext buffers the caller
owns. A received frame that fails verification is refused in one place,
esp_open, and never reaches the application.
"""

from __future__ import annotations

import enum
import struct
import weakref
from collections import deque
from typing import Optional

from .errors import AuthFail, OutOfBounds, SplitioError
from .mem import Handle, MemorySystem, RegionKind, Side
from .pools import META_OFF_MSG_TYPE, PacketBuffer, PortContext
from .prng import Splitmix64

ADDR_PREFIX_LEN = 8
ESP_HEADER_LEN = 8  # spi + seq32
IV_LEN = 8
ICV_LEN = 16
ESP_OVERHEAD = 40  # contract bound on expansion; actual is 34..37
MIN_FRAME_LEN = ADDR_PREFIX_LEN + ESP_HEADER_LEN + IV_LEN + 4 + ICV_LEN  # 44
NEXT_HEADER = 17  # inner payload treated as UDP-like
MAX_WIRE_SEQ = 0xFFFFFFFF

MSG_TYPE_PLAIN = 0
MSG_TYPE_ESP = 0x0032

KEY_LEN = 16
SALT_LEN = 4


class SaDirection(enum.Enum):
    OUTBOUND = "outbound"
    INBOUND = "inbound"


class OffloadMode(enum.Enum):
    LOOKASIDE = "lookaside"
    INLINE = "inline"


_U16 = struct.Struct("<H")

# enum members read once (see the note in mem.py)
_VM = Side.VM
_OUTBOUND, _INBOUND = SaDirection.OUTBOUND, SaDirection.INBOUND

# bound by _load_aead when the first association is built
AESGCM = InvalidTag = None


def _load_aead() -> None:
    global AESGCM, InvalidTag
    from cryptography.exceptions import InvalidTag
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM


class SecurityAssociation:
    """One direction of one flow. Key material is stored in a private arena;
    the object keeps only its handles and the next outbound sequence number."""

    def __init__(
        self, mem: MemorySystem, spi: int, key: bytes, salt: bytes, direction: SaDirection
    ):
        if len(key) != KEY_LEN:
            raise SplitioError(f"key must be {KEY_LEN} bytes, got {len(key)}")
        if len(salt) != SALT_LEN:
            raise SplitioError(f"salt must be {SALT_LEN} bytes, got {len(salt)}")
        if not 0 <= spi <= 0xFFFFFFFF:
            raise SplitioError(f"spi out of u32 range: {spi}")
        self.mem = mem
        self.spi = spi
        self.direction = direction
        self.seq = 1  # first outbound packet uses sequence number 1
        arena = mem.create_arena(RegionKind.PRIVATE, KEY_LEN + SALT_LEN)
        self.key_handle = Handle(arena.id, 0, KEY_LEN)
        self.salt_handle = Handle(arena.id, KEY_LEN, SALT_LEN)
        mem.write(self.key_handle, _VM, key)
        mem.write(self.salt_handle, _VM, salt)
        self._aead: Optional[AESGCM] = None
        if AESGCM is None:
            _load_aead()

    def key_bytes(self) -> bytes:
        return self.mem.read(self.key_handle, _VM)

    def _cipher(self) -> AESGCM:
        if self._aead is None:
            self._aead = AESGCM(self.key_bytes())
        return self._aead


def sa_keys(seed: int) -> tuple[bytes, bytes, bytes, bytes]:
    """(key_ab, salt_ab, key_ba, salt_ba) for the two directions of a flow,
    drawn big-endian from one Splitmix64 stream: each key takes two draws,
    each salt the first four bytes of one."""
    ks = Splitmix64(seed)
    w = [ks.next_u64().to_bytes(8, "big") for _ in range(6)]
    return w[0] + w[1], w[2][:SALT_LEN], w[3] + w[4], w[5][:SALT_LEN]


def esp_frame_len(pkt_len: int) -> int:
    """Protected length of a pkt_len-byte packet: +34 to +37 depending on pad."""
    inner = pkt_len - ADDR_PREFIX_LEN
    pad = (-(inner + 2)) % 4
    return pkt_len + 34 + pad


def esp_encrypt(sa: SecurityAssociation, buf: PacketBuffer, ops_counter: Optional[dict] = None) -> None:
    """Protect a shadow buffer in place; pkt_len grows by 34..37 bytes."""
    if sa.direction is not _OUTBOUND:
        raise SplitioError("encrypt requires an outbound association")
    if buf.pool.mem is not sa.mem:
        raise SplitioError("buffer and association belong to different memory systems")
    pkt_len, pool = buf.pkt_len, buf.pool
    room = pool.data_room
    if pkt_len < ADDR_PREFIX_LEN:
        raise SplitioError(f"packet of {pkt_len} B lacks the {ADDR_PREFIX_LEN} B addressing prefix")
    if pkt_len > room - ESP_OVERHEAD:
        raise SplitioError(f"{pkt_len} B cannot grow by {ESP_OVERHEAD} B in a {room} B room")
    if sa.seq > MAX_WIRE_SEQ:
        raise SplitioError(f"sequence space of SPI {sa.spi:#x} exhausted")

    mem, region, offset = sa.mem, pool.region, buf.room_at
    raw = mem.read_at(region, offset, pkt_len, _VM)
    addressing, inner = raw[:ADDR_PREFIX_LEN], raw[ADDR_PREFIX_LEN:]
    pad_len = (-(len(inner) + 2)) % 4
    plaintext = inner + bytes(range(1, pad_len + 1)) + bytes([pad_len, NEXT_HEADER])

    seq = sa.seq
    sa.seq += 1
    iv = seq.to_bytes(IV_LEN, "big")
    header = sa.spi.to_bytes(4, "big") + (seq & MAX_WIRE_SEQ).to_bytes(4, "big")
    aead = sa._aead or sa._cipher()  # reads the key on first use, before the salt
    salt = mem.read_at(*sa.salt_handle, _VM)
    sealed = aead.encrypt(salt + iv, plaintext, header)
    if ops_counter is not None:
        ops_counter["aes_ops"] = ops_counter.get("aes_ops", 0) + 1

    frame = addressing + header + iv + sealed
    mem.write_at(region, offset, frame, _VM)  # fits: checked against ESP_OVERHEAD above
    buf.pkt_len = len(frame)
    mem.pack_at(region, buf.meta_at + META_OFF_MSG_TYPE, _U16, _VM, MSG_TYPE_ESP)


def esp_decrypt(sa: SecurityAssociation, buf: PacketBuffer, ops_counter: Optional[dict] = None) -> None:
    """Verify and unprotect a shadow buffer in place.

    A frame that is malformed or fails authentication raises AuthFail. The
    AAD is taken from the received header bytes, so header tampering
    surfaces as AuthFail, not as a lookup error.
    """
    if sa.direction is not _INBOUND:
        raise SplitioError("decrypt requires an inbound association")
    if buf.pool.mem is not sa.mem:
        raise SplitioError("buffer and association belong to different memory systems")
    frame_len = buf.pkt_len
    if frame_len < MIN_FRAME_LEN:
        raise AuthFail(f"frame of {frame_len} B below minimum {MIN_FRAME_LEN}")
    pool = buf.pool
    if frame_len > pool.data_room:
        raise OutOfBounds(f"{frame_len} B outside a data room of {pool.data_room} B")
    mem, region, offset = sa.mem, pool.region, buf.room_at
    frame = mem.read_at(region, offset, frame_len, _VM)
    addressing = frame[:ADDR_PREFIX_LEN]
    header = frame[8:16]
    iv = frame[16:24]
    sealed = frame[24:]
    if (len(sealed) - ICV_LEN) % 4 != 0:
        raise AuthFail("ciphertext length not 4-byte aligned")

    # the AES op runs whether or not the tag verifies
    if ops_counter is not None:
        ops_counter["aes_ops"] = ops_counter.get("aes_ops", 0) + 1
    aead = sa._aead or sa._cipher()  # reads the key on first use, before the salt
    salt = mem.read_at(*sa.salt_handle, _VM)
    try:
        plaintext = aead.decrypt(salt + iv, sealed, header)
    except InvalidTag:
        raise AuthFail(f"integrity check failed for SPI {sa.spi:#x}") from None

    pad_len, _next_header = plaintext[-2], plaintext[-1]
    if pad_len + 2 > len(plaintext):
        raise AuthFail(f"pad length {pad_len} exceeds plaintext")
    inner = plaintext[: len(plaintext) - 2 - pad_len]

    restored = addressing + inner
    mem.write_at(region, offset, restored, _VM)  # shorter than the frame read
    buf.pkt_len = len(restored)
    mem.pack_at(region, buf.meta_at + META_OFF_MSG_TYPE, _U16, _VM, MSG_TYPE_PLAIN)


# ---------------------------------------------------------------------------
# Application data paths.


def esp_open(
    sa: SecurityAssociation, buf: PacketBuffer, port: PortContext, ops_counter: dict
) -> bool:
    """Unprotect buf in place, or refuse it. A frame that fails
    verification counts in port's auth_fail and returns False; the caller
    still holds it. Every protected receive path refuses frames here and
    nowhere else."""
    try:
        esp_decrypt(sa, buf, ops_counter=ops_counter)
    except AuthFail:
        port.counters["auth_fail"] += 1
        return False
    return True


class PortProtect:
    """Look-aside data path: the calling (application) worker seals every
    buffer before tx_burst and opens every buffer rx_burst returns. Its AES
    work lands in port.counters["aes_ops"], the application worker's
    tally."""

    def __init__(self, port: PortContext, sa_out: SecurityAssociation, sa_in: SecurityAssociation):
        self.port = port
        self.sa_out = sa_out
        self.sa_in = sa_in

    def app_tx(self, bufs: list[PacketBuffer]) -> int:
        for buf in bufs:
            esp_encrypt(self.sa_out, buf, ops_counter=self.port.counters)
        return self.port.tx_burst(bufs)

    def app_rx(self, max_count: int = 32) -> list[PacketBuffer]:
        """Refused frames are freed here, never delivered."""
        port = self.port
        out = []
        for buf in port.rx_burst(max_count):
            if esp_open(self.sa_in, buf, port, port.counters):
                out.append(buf)
            else:
                port.free_buffer(buf)
        return out

    @property
    def rx_more(self) -> bool:
        return self.port.rx_more

    def encrypt(self, buf: PacketBuffer) -> None:
        esp_encrypt(self.sa_out, buf, ops_counter=self.port.counters)

    def decrypt(self, buf: PacketBuffer) -> bool:
        """Open one buffer; False (counted) if it fails, and the caller
        still holds it."""
        return esp_open(self.sa_in, buf, self.port, self.port.counters)


STAGING_CAPACITY = 1024
BATCH_MAX = 64  # most frames one worker step harvests, and most transforms it runs


class CryptoWorker:
    """Emulated inline data path: owns the three staging queues and all AES
    work for one port.

    The application enqueues plaintext shadow buffers (app_tx) and dequeues
    decrypted ones (app_rx); the worker's step pulls up to BATCH_MAX
    ciphertext frames from the pool layer and opens them all, seals what
    plain_in holds within the same BATCH_MAX, and pushes ciphertext out
    through tx_burst. Queues are bounded; a packet that finds its queue
    full is a stage drop. The attached port holds its worker
    (port.crypto_worker); the worker reaches the port through a weak proxy,
    so the two do not form a reference cycle.
    """

    def __init__(
        self,
        port: PortContext,
        sa_in: SecurityAssociation,
        sa_out: SecurityAssociation,
    ):
        self.port = weakref.proxy(port)
        self.sa_in = sa_in
        self.sa_out = sa_out
        self.plain_out: deque[PacketBuffer] = deque()
        self.plain_in: deque[PacketBuffer] = deque()
        self.cipher_out: deque[PacketBuffer] = deque()
        self.counters = {"aes_ops": 0, "stage_drops": 0, "auth_fail": 0, "processed": 0}

    # -- app-side (plain queues only, zero crypto here) --------------------

    def app_tx(self, bufs: list[PacketBuffer]) -> int:
        """Stage as many as plain_in has room for; the rest count as stage
        drops and stay the caller's."""
        accepted = max(0, min(len(bufs), STAGING_CAPACITY - len(self.plain_in)))
        self.plain_in.extend(bufs[:accepted])
        self.counters["stage_drops"] += len(bufs) - accepted
        return accepted

    def app_rx(self, max_count: int = 32) -> list[PacketBuffer]:
        out = []
        while self.plain_out and len(out) < max_count:
            out.append(self.plain_out.popleft())
        return out

    @property
    def rx_more(self) -> bool:
        return bool(self.plain_out)

    # -- worker side -------------------------------------------------------

    def step(self) -> int:
        """One polling iteration; returns the number of transforms performed."""
        port = self.port
        done = 0
        for buf in port.rx_burst(BATCH_MAX):
            done += 1
            if not esp_open(self.sa_in, buf, port, self.counters):
                self.counters["auth_fail"] += 1
                port.free_buffer(buf)
            elif len(self.plain_out) >= STAGING_CAPACITY:
                self.counters["stage_drops"] += 1
                port.free_buffer(buf)
            else:
                self.plain_out.append(buf)

        while self.plain_in and done < BATCH_MAX:
            buf = self.plain_in.popleft()
            esp_encrypt(self.sa_out, buf, ops_counter=self.counters)
            if len(self.cipher_out) >= STAGING_CAPACITY:
                self.counters["stage_drops"] += 1
                port.free_buffer(buf)
            else:
                self.cipher_out.append(buf)
            done += 1

        if self.cipher_out:
            batch = list(self.cipher_out)
            accepted = port.tx_burst(batch)
            for _ in range(accepted):
                self.cipher_out.popleft()

        self.counters["processed"] += done
        return done


def inline_attach(
    port: PortContext,
    sa_in: SecurityAssociation,
    sa_out: SecurityAssociation,
) -> CryptoWorker:
    if getattr(port, "crypto_worker", None) is not None:
        raise SplitioError("port already has a crypto worker")
    worker = CryptoWorker(port, sa_in, sa_out)
    port.crypto_worker = worker
    return worker


def esp_paths(
    port_a: PortContext, port_b: PortContext, mode: OffloadMode, seed: int
) -> tuple[PortProtect | CryptoWorker, PortProtect | CryptoWorker]:
    """The two endpoints' protected data paths, look-aside (PortProtect) or
    inline (an attached CryptoWorker). SPI 0x1001 carries a to b, 0x2002 b
    to a, keyed by sa_keys(seed); each endpoint's pair lives in its port's
    memory system."""
    key_ab, salt_ab, key_ba, salt_ba = sa_keys(seed)
    mem_a, mem_b = port_a.mem, port_b.mem
    a_out = SecurityAssociation(mem_a, 0x1001, key_ab, salt_ab, _OUTBOUND)
    b_in = SecurityAssociation(mem_b, 0x1001, key_ab, salt_ab, _INBOUND)
    b_out = SecurityAssociation(mem_b, 0x2002, key_ba, salt_ba, _OUTBOUND)
    a_in = SecurityAssociation(mem_a, 0x2002, key_ba, salt_ba, _INBOUND)
    if mode is OffloadMode.INLINE:
        return inline_attach(port_a, a_in, a_out), inline_attach(port_b, b_in, b_out)
    return PortProtect(port_a, a_out, a_in), PortProtect(port_b, b_out, b_in)

