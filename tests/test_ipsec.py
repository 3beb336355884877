import random

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings
from hypothesis import strategies as st

from gcm_oracle import gcm_decrypt, gcm_encrypt
from splitio.errors import (
    AuthFail,
    BadSaConfig,
    ForeignBuffer,
    Malformed,
    Oversize,
    SeqExhausted,
)
from splitio.ipsec import (
    ADDR_PREFIX_LEN,
    ESP_OVERHEAD,
    MIN_FRAME_LEN,
    MSG_TYPE_ESP,
    MSG_TYPE_PLAIN,
    PortProtect,
    SaDirection,
    SecurityAssociation,
    WrongDirection,
    esp_decrypt,
    esp_encrypt,
    esp_frame_len,
    inline_attach,
    parse_esp,
)
from splitio.errors import AlreadyAttached
from splitio.mem import MemorySystem, Side
from splitio.pools import PoolConfig, port_new

KEY = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
SALT = bytes.fromhex("cafebabe")


def make_port(mbuf_count=64, ring_capacity=16):
    mem = MemorySystem()
    port = port_new(mem, PoolConfig(mbuf_count=mbuf_count), ring_capacity=ring_capacity)
    return mem, port


def sa_pair(mem, spi=0x1001, key=KEY, salt=SALT, replay=False):
    out = SecurityAssociation(mem, spi, key, salt, SaDirection.OUTBOUND)
    inn = SecurityAssociation(mem, spi, key, salt, SaDirection.INBOUND, replay_counting=replay)
    return out, inn


def wire_loopback(port, mutate=None):
    """Device role: complete TX frames and deliver each into the same port's
    RX ring; returns the raw frames seen on the wire."""
    frames = []
    rx_views = port.rx_ring.device_fetch()
    for view in port.tx_ring.device_fetch():
        frame = port.mem.read(view.address, Side.DEVICE)
        frames.append(frame)
        if mutate is not None:
            frame = mutate(frame)
        rx = rx_views.pop(0)
        port.mem.write(rx.packet_address.sub(0, len(frame)), Side.DEVICE, frame)
        port.rx_ring.device_writeback_rx(rx.slot, length=len(frame))
        port.tx_ring.device_writeback_tx(view.slot)
    return frames


# ---------------------------------------------------------------------------
# The AEAD itself, checked through two unrelated implementations. These
# expected values were frozen only after the pure-Python oracle and the
# production library agreed on every one of them.

GCM_CASES = [
    # key, nonce, plaintext, aad, ciphertext, tag
    (
        "00000000000000000000000000000000",
        "000000000000000000000000",
        "",
        "",
        "",
        "58e2fccefa7e3061367f1d57a4e7455a",
    ),
    (
        "00000000000000000000000000000000",
        "000000000000000000000000",
        "00000000000000000000000000000000",
        "",
        "0388dace60b6a392f328c2b971b2fe78",
        "ab6e47d42cec13bdf53a67b21257bddf",
    ),
    (
        "feffe9928665731c6d6a8f9467308308",
        "cafebabefacedbaddecaf888",
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        "",
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
        "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
        "4d5c2af327cd64a62cf35abd2ba6fab4",
    ),
    (
        "feffe9928665731c6d6a8f9467308308",
        "cafebabefacedbaddecaf888",
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        "feedfacedeadbeeffeedfacedeadbeefabaddad2",
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
        "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
        "5bc94fbc3221a5db94fae95ae7121a47",
    ),
]


class TestAeadKnownAnswers:
    @pytest.mark.parametrize("case", GCM_CASES, ids=["tc1", "tc2", "tc3", "tc4"])
    def test_oracle_route(self, case):
        key, nonce, pt, aad, ct, tag = (bytes.fromhex(x) for x in case)
        got_ct, got_tag = gcm_encrypt(key, nonce, pt, aad)
        assert got_ct == ct
        assert got_tag == tag
        assert gcm_decrypt(key, nonce, ct, aad, tag) == pt

    @pytest.mark.parametrize("case", GCM_CASES, ids=["tc1", "tc2", "tc3", "tc4"])
    def test_library_route(self, case):
        key, nonce, pt, aad, ct, tag = (bytes.fromhex(x) for x in case)
        sealed = AESGCM(key).encrypt(nonce, pt, aad or None)
        assert sealed == ct + tag
        assert AESGCM(key).decrypt(nonce, ct + tag, aad or None) == pt

    def test_oracle_rejects_bad_tag(self):
        key, nonce, pt, aad, ct, tag = (bytes.fromhex(x) for x in GCM_CASES[2])
        bad = bytes([tag[0] ^ 1]) + tag[1:]
        with pytest.raises(ValueError):
            gcm_decrypt(key, nonce, ct, aad, bad)

    @given(
        key=st.binary(min_size=16, max_size=16),
        nonce=st.binary(min_size=12, max_size=12),
        pt=st.binary(max_size=80),
        aad=st.binary(max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_routes_agree_on_random_inputs(self, key, nonce, pt, aad):
        ct, tag = gcm_encrypt(key, nonce, pt, aad)
        assert AESGCM(key).encrypt(nonce, pt, aad or None) == ct + tag


class TestFrameLength:
    def test_growth_cycle(self):
        # pad depends on inner length mod 4; growth cycles through 36,35,34,37
        assert [esp_frame_len(8 + i) - (8 + i) for i in range(8)] == [
            36, 35, 34, 37, 36, 35, 34, 37,
        ]
        assert esp_frame_len(8) == MIN_FRAME_LEN

    @given(pkt_len=st.integers(8, 2000))
    @settings(max_examples=80)
    def test_growth_bounds_and_alignment(self, pkt_len):
        frame = esp_frame_len(pkt_len)
        assert 34 <= frame - pkt_len <= 37
        assert frame - pkt_len <= ESP_OVERHEAD
        # ciphertext region (minus the 16 B tag) stays 4-byte aligned
        assert (frame - ADDR_PREFIX_LEN - 8 - 8 - 16) % 4 == 0


class TestFrameConstruction:
    def test_frame_matches_independent_construction(self):
        """Build the expected wire frame from the documented layout with the
        oracle AEAD and require the production path to produce it verbatim."""
        mem, port = make_port()
        sa_out, sa_in = sa_pair(mem, spi=0x1001)
        payload = b"ADDRPREF" + b"hello world of packets!!"
        buf = port.alloc_tx_buffer()
        buf.write_data(payload)
        esp_encrypt(sa_out, buf)
        frame = buf.read_data()

        inner = payload[ADDR_PREFIX_LEN:]
        pad_len = (-(len(inner) + 2)) % 4
        plaintext = inner + bytes(range(1, pad_len + 1)) + bytes([pad_len, 17])
        seq = 1
        iv = seq.to_bytes(8, "big")
        header = (0x1001).to_bytes(4, "big") + seq.to_bytes(4, "big")
        ct, tag = gcm_encrypt(KEY, SALT + iv, plaintext, header)
        expected = payload[:ADDR_PREFIX_LEN] + header + iv + ct + tag
        assert frame == expected
        assert buf.pkt_len == esp_frame_len(len(payload))
        assert buf.msg_type == MSG_TYPE_ESP

        parts = parse_esp(frame)
        assert (parts.spi, parts.seq32, parts.iv) == (0x1001, 1, iv)
        assert parts.icv == tag
        # and the reverse direction restores the exact original
        esp_decrypt(sa_in, buf)
        assert buf.read_data() == payload
        assert buf.msg_type == MSG_TYPE_PLAIN
        port.free_buffer(buf)

    def test_sequence_advances_iv(self):
        mem, port = make_port()
        sa_out, _ = sa_pair(mem)
        ivs = []
        for _ in range(3):
            buf = port.alloc_tx_buffer()
            buf.write_data(b"ADDRPREFpayload")
            esp_encrypt(sa_out, buf)
            ivs.append(parse_esp(buf.read_data()).iv)
            port.free_buffer(buf)
        assert ivs == [n.to_bytes(8, "big") for n in (1, 2, 3)]

    def test_roundtrip_thousand_random_packets(self):
        mem, port = make_port()
        sa_out, sa_in = sa_pair(mem)
        rng = random.Random(1234)
        room = port.cfg.data_room
        buf = port.alloc_tx_buffer()
        for _ in range(1000):
            length = rng.randint(ADDR_PREFIX_LEN, room - ESP_OVERHEAD)
            payload = rng.randbytes(length)
            buf.write_data(payload)
            esp_encrypt(sa_out, buf)
            assert buf.pkt_len == esp_frame_len(length)
            esp_decrypt(sa_in, buf)
            assert buf.read_data() == payload
        assert sa_out.seq == 1001
        assert sa_in.auth_fails == 0
        port.free_buffer(buf)


class TestTamperResistance:
    def test_every_authenticated_bit_flip_fails(self):
        mem, port = make_port()
        sa_out, sa_in = sa_pair(mem)
        payload = b"ADDRPREF" + bytes(range(16))
        buf = port.alloc_tx_buffer()
        buf.write_data(payload)
        esp_encrypt(sa_out, buf)
        frame = buf.read_data()

        flips = 0
        for byte_idx in range(ADDR_PREFIX_LEN, len(frame)):
            for bit in range(8):
                mutated = bytearray(frame)
                mutated[byte_idx] ^= 1 << bit
                buf.write_data(bytes(mutated))
                buf.msg_type = MSG_TYPE_ESP
                with pytest.raises(AuthFail):
                    esp_decrypt(sa_in, buf)
                flips += 1
        assert flips == (len(frame) - ADDR_PREFIX_LEN) * 8
        assert sa_in.auth_fails == flips
        port.free_buffer(buf)

    def test_addressing_prefix_is_not_authenticated(self):
        mem, port = make_port()
        sa_out, sa_in = sa_pair(mem)
        payload = b"ADDRPREF" + b"covered bytes"
        buf = port.alloc_tx_buffer()
        buf.write_data(payload)
        esp_encrypt(sa_out, buf)
        frame = bytearray(buf.read_data())
        frame[0] ^= 0xFF
        buf.write_data(bytes(frame))
        esp_decrypt(sa_in, buf)
        got = buf.read_data()
        assert got[1:] == payload[1:]
        assert got[0] == payload[0] ^ 0xFF
        port.free_buffer(buf)


class TestErrorPaths:
    def test_wrong_direction(self):
        mem, port = make_port()
        sa_out, sa_in = sa_pair(mem)
        buf = port.alloc_tx_buffer()
        buf.write_data(b"ADDRPREFxx")
        with pytest.raises(WrongDirection):
            esp_encrypt(sa_in, buf)
        with pytest.raises(WrongDirection):
            esp_decrypt(sa_out, buf)
        port.free_buffer(buf)

    def test_encrypt_needs_addressing_prefix(self):
        mem, port = make_port()
        sa_out, _ = sa_pair(mem)
        buf = port.alloc_tx_buffer()
        buf.write_data(b"short")
        with pytest.raises(Malformed):
            esp_encrypt(sa_out, buf)
        port.free_buffer(buf)

    def test_encrypt_oversize(self):
        mem, port = make_port()
        sa_out, _ = sa_pair(mem)
        buf = port.alloc_tx_buffer()
        buf.write_data(b"z" * (buf.data_room - ESP_OVERHEAD + 1))
        with pytest.raises(Oversize):
            esp_encrypt(sa_out, buf)
        port.free_buffer(buf)

    def test_sequence_exhaustion(self):
        mem, port = make_port()
        sa_out, _ = sa_pair(mem)
        sa_out.seq = 0xFFFFFFFF + 1
        buf = port.alloc_tx_buffer()
        buf.write_data(b"ADDRPREFdata")
        with pytest.raises(SeqExhausted):
            esp_encrypt(sa_out, buf)
        port.free_buffer(buf)

    def test_decrypt_runt_frame(self):
        mem, port = make_port()
        _, sa_in = sa_pair(mem)
        buf = port.alloc_tx_buffer()
        buf.write_data(b"x" * (MIN_FRAME_LEN - 1))
        with pytest.raises(Malformed):
            esp_decrypt(sa_in, buf)
        port.free_buffer(buf)

    def test_decrypt_misaligned_ciphertext(self):
        mem, port = make_port()
        sa_out, sa_in = sa_pair(mem)
        buf = port.alloc_tx_buffer()
        buf.write_data(b"ADDRPREFabcdef")
        esp_encrypt(sa_out, buf)
        frame = buf.read_data()
        buf.write_data(frame + b"\x00")  # one stray byte breaks alignment
        with pytest.raises(Malformed):
            esp_decrypt(sa_in, buf)
        port.free_buffer(buf)


class TestForeignBuffer:
    """An association works only on buffers of its own memory system; one
    built on another system must not read or write that system's arena at
    the buffer's offsets."""

    def test_seal_with_a_foreign_association_refused(self):
        _, port = make_port()
        other, _ = make_port()
        sa_out, _ = sa_pair(other)
        payload = b"ADDRPREF" + bytes(range(56))
        buf = port.alloc_tx_buffer()
        buf.write_data(payload)
        ops = {}
        with pytest.raises(ForeignBuffer):
            esp_encrypt(sa_out, buf, ops_counter=ops)
        assert sa_out.seq == 1
        assert ops == {}
        assert buf.pkt_len == 64
        assert buf.read_data() == payload

    def test_open_with_a_foreign_association_refused(self):
        mem, port = make_port()
        other, _ = make_port()
        home_out, _ = sa_pair(mem)
        _, foreign_in = sa_pair(other, replay=True)
        buf = port.alloc_tx_buffer()
        buf.write_data(b"ADDRPREF" + bytes(range(56)))
        esp_encrypt(home_out, buf)
        frame = buf.read_data()
        ops = {}
        with pytest.raises(ForeignBuffer):
            esp_decrypt(foreign_in, buf, ops_counter=ops)
        assert (foreign_in.seq, foreign_in.last_seq, foreign_in.auth_fails) == (1, 0, 0)
        assert ops == {}
        assert buf.pkt_len == len(frame)
        assert buf.read_data() == frame


class TestReplayCounting:
    def test_stale_sequence_counted_not_dropped(self):
        mem, port = make_port()
        sa_out, sa_in = sa_pair(mem, replay=True)
        frames = []
        for text in (b"ADDRPREFfirst", b"ADDRPREFsecond"):
            buf = port.alloc_tx_buffer()
            buf.write_data(text)
            esp_encrypt(sa_out, buf)
            frames.append(buf.read_data())
            port.free_buffer(buf)

        buf = port.alloc_tx_buffer()
        for frame, expect_replays in ((frames[1], 0), (frames[0], 1), (frames[0], 2)):
            buf.write_data(frame)
            esp_decrypt(sa_in, buf)  # delivery still succeeds
            assert sa_in.replays_detected == expect_replays
        assert sa_in.last_seq == 2
        port.free_buffer(buf)

    def test_in_order_traffic_counts_nothing(self):
        mem, port = make_port()
        sa_out, sa_in = sa_pair(mem, replay=True)
        buf = port.alloc_tx_buffer()
        for i in range(5):
            buf.write_data(b"ADDRPREF" + bytes([i]) * 8)
            esp_encrypt(sa_out, buf)
            esp_decrypt(sa_in, buf)
        assert sa_in.replays_detected == 0
        assert sa_in.last_seq == 5
        port.free_buffer(buf)


class TestLookasidePath:
    def test_port_roundtrip_encrypted_on_wire(self):
        mem, port = make_port()
        sa_out, sa_in = sa_pair(mem)
        payloads = [b"ADDRPREF" + bytes([i]) * 32 for i in range(6)]
        bufs = []
        for p in payloads:
            b = port.alloc_tx_buffer()
            b.write_data(p)
            bufs.append(b)
        protect = PortProtect(port, sa_out, sa_in)
        assert protect.app_tx(bufs) == 6
        frames = wire_loopback(port)
        for p, frame in zip(payloads, frames):
            assert p not in frame  # nothing readable on the wire
            assert len(frame) == esp_frame_len(len(p))
        got = protect.app_rx()
        assert sorted(b.read_data() for b in got) == sorted(payloads)
        assert port.counters["aes_ops"] == 12  # app worker did all the AES
        assert port.counters["auth_fail"] == 0
        for b in got:
            port.free_buffer(b)

    def test_wire_corruption_dropped_and_counted(self):
        mem, port = make_port()
        sa_out, sa_in = sa_pair(mem)
        buf = port.alloc_tx_buffer()
        buf.write_data(b"ADDRPREF" + b"sensitive")
        protect = PortProtect(port, sa_out, sa_in)
        protect.app_tx([buf])

        def flip(frame):
            out = bytearray(frame)
            out[30] ^= 0x80
            return bytes(out)

        wire_loopback(port, mutate=flip)
        assert protect.app_rx() == []
        assert port.counters["auth_fail"] == 1
        assert port.pools.shadow.remaining() == port.pools.shadow.count  # refused frame freed


class TestInlinePath:
    def test_worker_does_all_aes(self):
        mem, port = make_port()
        sa_out, sa_in = sa_pair(mem)
        worker = inline_attach(port, sa_in, sa_out)
        payloads = [b"ADDRPREF" + bytes([i]) * 24 for i in range(5)]
        bufs = []
        for p in payloads:
            b = port.alloc_tx_buffer()
            b.write_data(p)
            bufs.append(b)
        assert worker.app_tx(bufs) == 5
        worker.step()  # encrypt + post
        wire_loopback(port)
        worker.step()  # harvest + decrypt
        got = worker.app_rx()
        assert sorted(b.read_data() for b in got) == sorted(payloads)
        assert port.counters["aes_ops"] == 0  # the app worker never touched AES
        assert worker.counters["aes_ops"] == 10
        assert worker.counters["auth_fail"] == 0
        for b in got:
            port.free_buffer(b)

    def test_lookaside_and_inline_deliver_identical_plaintexts(self):
        def run(inline: bool):
            mem, port = make_port()
            sa_out, sa_in = sa_pair(mem)
            payloads = [b"ADDRPREF" + bytes([7 * i % 251]) * 40 for i in range(8)]
            bufs = []
            for p in payloads:
                b = port.alloc_tx_buffer()
                b.write_data(p)
                bufs.append(b)
            if inline:
                worker = inline_attach(port, sa_in, sa_out)
                worker.app_tx(bufs)
                worker.step()
                wire_loopback(port)
                worker.step()
                got = worker.app_rx()
            else:
                protect = PortProtect(port, sa_out, sa_in)
                protect.app_tx(bufs)
                wire_loopback(port)
                got = protect.app_rx()
            return sorted(b.read_data() for b in got)

        assert run(inline=False) == run(inline=True)

    def test_double_attach_rejected(self):
        mem, port = make_port()
        sa_out, sa_in = sa_pair(mem)
        inline_attach(port, sa_in, sa_out)
        with pytest.raises(AlreadyAttached):
            inline_attach(port, sa_in, sa_out)


class TestSaConfig:
    def test_sa_validation(self):
        mem = MemorySystem()
        with pytest.raises(BadSaConfig):
            SecurityAssociation(mem, 1, b"short", SALT, SaDirection.OUTBOUND)
        with pytest.raises(BadSaConfig):
            SecurityAssociation(mem, 1, KEY, b"toolongsalt", SaDirection.OUTBOUND)
        with pytest.raises(BadSaConfig):
            SecurityAssociation(mem, 0x1_0000_0000, KEY, SALT, SaDirection.OUTBOUND)

    @pytest.mark.parametrize(
        "spi, key, salt, fragment",
        [
            (1, KEY[:-1], SALT, "key must be"),
            (1, KEY + b"\x00", SALT, "key must be"),
            (1, KEY, SALT[:-1], "salt must be"),
            (1, KEY, SALT + b"\x00", "salt must be"),
            (-1, KEY, SALT, "u32"),
            (0x1_0000_0000, KEY, SALT, "u32"),
        ],
        ids=["key_short", "key_long", "salt_short", "salt_long", "spi_negative", "spi_past_u32"],
    )
    def test_bad_sa_rejected_with_reason(self, spi, key, salt, fragment):
        with pytest.raises(BadSaConfig, match=fragment):
            SecurityAssociation(MemorySystem(), spi, key, salt, SaDirection.OUTBOUND)

    @pytest.mark.parametrize("spi", [0, 0xFFFF_FFFF])
    def test_spi_range_ends_accepted(self, spi):
        assert SecurityAssociation(MemorySystem(), spi, KEY, SALT, SaDirection.INBOUND).spi == spi

    def test_key_material_lives_in_private_memory(self):
        mem, port = make_port()
        sa_out, _ = sa_pair(mem)
        arena = mem.arena(sa_out.key_handle.region)
        assert arena.kind.name == "PRIVATE"
        assert not mem.pattern_in_shared(KEY)


class TestPortProtect:
    def test_adapter_reports_failures_as_false(self):
        mem, port = make_port()
        sa_out, sa_in = sa_pair(mem)
        protect = PortProtect(port, sa_out, sa_in)
        buf = port.alloc_tx_buffer()
        buf.write_data(b"ADDRPREFdata0")
        protect.encrypt(buf)
        frame = bytearray(buf.read_data())
        frame[40] ^= 1
        buf.write_data(bytes(frame))
        assert protect.decrypt(buf) is False
        assert port.counters["auth_fail"] == 1
        port.free_buffer(buf)
