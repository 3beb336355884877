import pytest

from splitio.devsim import (
    AdversaryPlan,
    LinkModel,
    LoopbackSystem,
    run_adversary,
)
from splitio.devsim import _payloads_for_run
from splitio.errors import BadPlan, ConfigInvalid
from splitio.ipsec import OffloadMode, esp_paths
from splitio.mem import Handle, Side
from splitio.pools import PoolConfig
from esp_factory import lookaside_factory

# Reference stream, rebuilt from the generator's documented constants rather
# than imported, so a stream bug cannot hide from its own replay test.
_M = 0xFFFFFFFFFFFFFFFF


def _stream(seed):
    state = seed & _M
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _M
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M
        yield z ^ (z >> 31)


def empty_plan() -> AdversaryPlan:
    return AdversaryPlan.parse("")


class TestPlanParsing:
    def test_full_grammar(self):
        text = """
        # warm-up comment
        tamper_shared target=b when=0x10 region=3 offset=16 data=deadbeef

        forge_writeback slot=2 length=9000 status_error=0x3
        forge_address region=1 offset=0 length=64
        replay_descriptor slot=0 when=5000
        drop_packet count=3
        corrupt_ciphertext offset=7
        """
        plan = AdversaryPlan.parse(text)
        kinds = [a.kind.value for a in plan.actions]
        assert kinds == [
            "tamper_shared",
            "forge_writeback",
            "forge_address",
            "replay_descriptor",
            "drop_packet",
            "corrupt_ciphertext",
        ]
        first = plan.actions[0]
        assert (first.target, first.when, first.data) == ("b", 16, bytes.fromhex("deadbeef"))
        assert plan.actions[1].status_error == 3

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("launch_missiles", "line 1"),
            ("drop_packet\ntamper_shared data=xyz", "line 2"),
            ("tamper_shared unknown_key=1", "unknown key"),
            ("tamper_shared data", "key=value"),
            ("forge_writeback slot=abc", "bad value"),
            ("tamper_shared target=c", "target"),
        ],
    )
    def test_bad_plans(self, text, fragment):
        with pytest.raises(BadPlan, match=fragment):
            AdversaryPlan.parse(text)

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "plan.txt"
        p.write_text("drop_packet count=2\n")
        plan = AdversaryPlan.load(str(p))
        assert plan.actions[0].count == 2


class TestLinkModel:
    def test_delay_formula(self):
        link = LinkModel(base_latency_ns=1000, per_byte_ns=0.5)
        assert link.delay_ns(100, 7) == 1057


class TestLoopback:
    def test_clean_echo_roundtrip(self):
        system = LoopbackSystem()
        payloads = [bytes([i]) * 50 for i in range(4)]
        for p in payloads:
            system.send_from_a(p)
            system.pump(1)
        system.pump(20)
        assert system.delivered_b == payloads
        assert system.delivered_a == payloads
        assert system.nic_a.drops == 0 and system.nic_b.drops == 0

    def test_capture_sees_every_frame(self):
        system = LoopbackSystem(plan=empty_plan())
        payloads = [b"frame-%d" % i for i in range(3)]
        for p in payloads:
            system.send_from_a(p)
            system.pump(1)
        system.pump(20)
        assert system.nic_a.capture == payloads  # outbound direction
        assert system.nic_b.capture == payloads  # echoes

    def test_loss_and_jitter_replay_draw_for_draw(self):
        n = 30
        link = LinkModel(
            base_latency_ns=500, jitter_ns=300, jitter_seed=42, loss_rate=0.3
        )
        system = LoopbackSystem(link=link)
        arrivals = []
        enqueue = system.nic_b.enqueue

        def record(arrival, payload):
            arrivals.append((arrival, payload))
            enqueue(arrival, payload)

        system.nic_b.enqueue = record
        payloads = [bytes([i]) * 40 for i in range(n)]
        for payload in payloads:
            system.send_from_a(payload)
            system.pump(1)
        system.pump(40)

        # oracle: per serviced frame, one jitter draw then one loss draw
        def predict(count):
            gen = _stream(42)
            flags, jitters = [], []
            threshold = int(0.3 * 2.0**64)
            for _ in range(count):
                jitters.append(next(gen) % 301)
                flags.append(next(gen) < threshold)
            return flags, jitters

        lost_a, jit_a = predict(n)
        # frame i leaves a at i * STEP_NS; every frame not lost reaches b's
        # NIC after the base latency plus its own jitter draw
        assert arrivals == [
            (i * LoopbackSystem.STEP_NS + 500 + jit_a[i], payloads[i])
            for i in range(n)
            if not lost_a[i]
        ]
        assert system.nic_a.drops == sum(lost_a)
        survivors = n - sum(lost_a)
        assert len(system.delivered_b) == survivors
        # the echo direction consumes its own stream, same seed
        lost_b, _ = predict(survivors)
        assert len(system.delivered_a) == survivors - sum(lost_b)

    def test_two_runs_identical(self):
        def run():
            link = LinkModel(base_latency_ns=500, jitter_ns=200, jitter_seed=7, loss_rate=0.4)
            system = LoopbackSystem(link=link)
            for i in range(20):
                system.send_from_a(bytes([i, i]) * 16)
                system.pump(1)
            system.pump(30)
            return (system.delivered_b, system.delivered_a, system.nic_a.drops)

        assert run() == run()


class TestSeedRange:
    """Every generator refuses a seed outside [0, 2^64) as it is seeded:
    reduced to 64 bits, such a seed would replay another seed's run."""

    WIDE = [2**64 + 5, -1]

    @pytest.mark.parametrize("seed", WIDE)
    def test_adversary_run_refuses_wide_seed(self, seed):
        with pytest.raises(ConfigInvalid, match=rf"^seed {seed} lies outside \[0, 2\^64\)$"):
            run_adversary(empty_plan(), packets=4, payload_len=64, seed=seed)

    @pytest.mark.parametrize("seed", WIDE)
    def test_rig_refuses_wide_jitter_seed(self, seed):
        with pytest.raises(ConfigInvalid, match=rf"^seed {seed} lies outside"):
            LoopbackSystem(link=LinkModel(jitter_seed=seed))

    def test_widest_seed_accepted(self):
        report = run_adversary(empty_plan(), packets=2, seed=2**64 - 1)
        assert len(report.delivered) == 2
        LoopbackSystem(link=LinkModel(jitter_seed=2**64 - 1))


class TestWakeDrainsReadyFrames:
    """One application wake takes every frame its data path has ready, in
    order, even when that is more than one 64-frame app_rx call returns."""

    @pytest.mark.parametrize("handler", ["server", "client"])
    @pytest.mark.parametrize("mode", [None, OffloadMode.LOOKASIDE, OffloadMode.INLINE])
    def test_wake_delivers_more_than_64(self, mode, handler):
        system = LoopbackSystem(PoolConfig(mbuf_count=512), ring_capacity=256)
        if mode is not None:
            system.protect_a, system.protect_b = esp_paths(
                system.port_a, system.port_b, mode, seed=11
            )
        # the server's frames come from a, the client's from b
        src, dst = (system.a, system.b) if handler == "server" else (system.b, system.a)
        payloads = [i.to_bytes(2, "big") * 32 for i in range(100)]
        for p in payloads:
            buf = src.port.alloc_tx_buffer()
            buf.write_data(p)
            assert src.app_tx([buf]) == 1
        # two worker steps of BATCH_MAX (64) frames each cover all 100
        if src.inline:
            src.path.step()
            src.path.step()
        src.nic.step(0)
        assert dst.nic.step(10**9) == 100
        if dst.inline:
            dst.path.step()
            dst.path.step()
        system._HANDLERS[handler](system, 0, None)  # one wake
        delivered = system.delivered_b if handler == "server" else system.delivered_a
        assert delivered == payloads


class TestBurstsAboveBatch:
    """A burst larger than one crypto worker step is echoed in full: the
    rig steps the worker again while its port may have ready frames."""

    @pytest.mark.parametrize("mode", [None, OffloadMode.LOOKASIDE, OffloadMode.INLINE])
    def test_hundred_sends_at_once_all_echoed(self, mode):
        system = LoopbackSystem(PoolConfig(mbuf_count=512), ring_capacity=256)
        if mode is not None:
            system.protect_a, system.protect_b = esp_paths(
                system.port_a, system.port_b, mode, seed=11
            )
        payloads = [i.to_bytes(2, "big") * 32 for i in range(100)]
        for p in payloads:
            system.send_from_a(p)
        system.pump(10**6)
        assert system.delivered_b == payloads
        assert system.delivered_a == payloads


def _probe_layout():
    """Discover deterministic construction-time layout facts from a twin
    system so a plan can aim at exact addresses."""
    probe = LoopbackSystem()
    shared = probe.port_a.pools.shared
    next_tx_data = Handle(*shared.data_at(shared._free[-1]), shared.data_room)
    private_region = probe.port_a.pools.shadow.meta_slab.region
    return next_tx_data, private_region


class TestOutcomeClassification:
    def test_forge_address_rejected_without_breach(self):
        _, private_region = _probe_layout()
        plan = AdversaryPlan.parse(
            f"forge_address target=a region={private_region} offset=0 length=64 when=1000"
        )
        report = run_adversary(plan, packets=2)
        assert report.outcomes == [("forge_address", "rejected")]
        assert not report.breach
        kinds = {v["kind"] for v in report.violations}
        assert "forge_address_denied" in kinds
        assert not any(k.startswith("private_") for k in kinds)

    def test_forge_address_unknown_region_rejected(self):
        plan = AdversaryPlan.parse("forge_address target=a region=999 offset=0 length=8")
        report = run_adversary(plan, packets=1)
        assert report.outcomes == [("forge_address", "rejected")]
        assert not report.breach

    def test_forge_address_at_own_shared_region_is_no_breach(self):
        # region 1 is A's registered shared arena: the device may DMA it
        shared_region = LoopbackSystem().port_a.pools.shared.data_slab.region
        assert shared_region == 1
        plan = AdversaryPlan.parse("forge_address target=a region=1 offset=0 length=8")
        report = run_adversary(plan, packets=2)
        assert not report.breach
        assert report.outcomes == [("forge_address", "no_effect")]
        assert not any(v["kind"].startswith("private_") for v in report.violations)

    def test_tamper_shared_corrupts_delivery(self):
        next_tx_data, _ = _probe_layout()
        plan = AdversaryPlan.parse(
            "tamper_shared target=a when=0 "
            f"region={next_tx_data.region} offset={next_tx_data.offset} data={'ff' * 8}"
        )
        report = run_adversary(plan, packets=1, payload_len=64)
        assert report.outcomes == [("tamper_shared", "delivered_corrupted")]
        assert report.delivered and report.delivered[0] != report.sent[0]
        assert not report.breach  # shared memory is fair game, private is not

    def test_tamper_outside_any_arena_rejected(self):
        plan = AdversaryPlan.parse("tamper_shared target=a region=42 offset=0 data=00ff")
        report = run_adversary(plan, packets=1)
        assert report.outcomes == [("tamper_shared", "rejected")]

    def test_forged_oversize_writeback_rejected(self):
        plan = AdversaryPlan.parse("forge_writeback target=a slot=0 length=60000 when=0")
        report = run_adversary(plan, packets=2)
        assert report.outcomes == [("forge_writeback", "rejected")]
        assert report.counters_a["metadata_suspect"] >= 1

    def test_forged_writeback_before_fetch_rejected(self):
        plan = AdversaryPlan.parse("forge_writeback target=a slot=0 length=64 when=1000")
        report = run_adversary(plan, packets=2)
        assert report.outcomes == [("forge_writeback", "rejected")]
        assert any(v["kind"] == "replayed_rx_writeback" for v in report.violations)

    def test_forged_writeback_fabricates_without_crypto(self):
        # a validly fetched slot plus a forged completion hands the app a
        # fabricated packet; memory confinement does not defend content
        plan = AdversaryPlan.parse("forge_writeback target=a slot=0 length=64 when=500")
        report = run_adversary(plan, packets=2)
        assert report.outcomes == [("forge_writeback", "delivered_corrupted")]
        assert not report.breach

    def test_replay_descriptor_rejected(self):
        plan = AdversaryPlan.parse("replay_descriptor target=a slot=0 when=3000")
        report = run_adversary(plan, packets=2)
        assert report.outcomes == [("replay_descriptor", "rejected")]
        assert any(v["kind"] == "replayed_tx_completion" for v in report.violations)

    def test_drop_packet_reduces_delivery(self):
        plan = AdversaryPlan.parse("drop_packet target=a count=2 when=1000")
        report = run_adversary(plan, packets=4)
        assert report.outcomes == [("drop_packet", "no_effect")]
        assert len(report.delivered) == 2
        assert not report.breach

    def test_corrupt_ciphertext_without_crypto_corrupts(self):
        plan = AdversaryPlan.parse("corrupt_ciphertext target=a offset=3 when=0")
        report = run_adversary(plan, packets=1, payload_len=64)
        assert report.outcomes == [("corrupt_ciphertext", "delivered_corrupted")]
        assert report.counters_b["auth_fail"] == 0

    def test_corrupt_ciphertext_with_crypto_rejected(self):
        factory, keys = lookaside_factory(5)
        # offset 24 lands in the ciphertext, past the clear addressing prefix
        plan = AdversaryPlan.parse("corrupt_ciphertext target=a offset=24 when=1000")
        report = run_adversary(
            plan, packets=2, payload_len=64, protect_factory=factory, secret_patterns=keys
        )
        assert report.outcomes == [("corrupt_ciphertext", "rejected")]
        assert report.counters_b["auth_fail"] >= 1
        assert not report.breach

    def test_corrupt_addressing_prefix_evades_auth(self):
        """The first 8 bytes address the frame and sit outside the integrity
        envelope, like an outer header; flipping them is visible to the app
        but is not an authentication failure."""
        factory, keys = lookaside_factory(5)
        plan = AdversaryPlan.parse("corrupt_ciphertext target=a offset=3 when=1000")
        report = run_adversary(
            plan, packets=2, payload_len=64, protect_factory=factory, secret_patterns=keys
        )
        assert report.outcomes == [("corrupt_ciphertext", "delivered_corrupted")]
        assert report.counters_b["auth_fail"] == 0
        assert not report.breach

    def test_plan_object_runs_the_same_twice(self):
        # a run keeps its state off the plan, so running the same object
        # again executes every action again
        plan = AdversaryPlan.parse(
            "forge_address target=a region=2 offset=0 length=64 when=1000\n"
            "drop_packet target=a count=2 when=1000"
        )
        first = run_adversary(plan, packets=4, payload_len=64)
        second = run_adversary(plan, packets=4, payload_len=64)
        assert second.to_dict() == first.to_dict()
        assert any(v["kind"] == "forge_address_denied" for v in second.violations)
        assert len(second.delivered) == 2

    def test_empty_plan_clean_run(self):
        report = run_adversary(empty_plan(), packets=3)
        assert report.outcomes == []
        assert not report.breach
        assert report.delivered == report.sent
        assert report.echoed == report.sent


class TestBreachDetector:
    def test_plaintext_secret_on_wire_is_flagged(self):
        """Positive control: the detector must actually fire when a secret
        pattern legitimately crosses the wire unencrypted."""
        pattern = _payloads_for_run(1, 64, seed=0)[0][:16]
        report = run_adversary(empty_plan(), packets=1, payload_len=64, secret_patterns=[pattern])
        assert report.breach

    def test_encrypted_secret_not_flagged(self):
        factory, keys = lookaside_factory(5)
        pattern = _payloads_for_run(1, 64, seed=0)[0][:16]
        report = run_adversary(
            empty_plan(),
            packets=1,
            payload_len=64,
            protect_factory=factory,
            secret_patterns=keys + [pattern],
        )
        assert not report.breach
        assert report.delivered == report.sent

    def test_clean_run_after_scrub_not_flagged(self):
        """A clean run stays clean after teardown: the device's earlier
        accesses are not judged against the registered set that
        zero_and_release emptied."""
        system = LoopbackSystem(ring_capacity=8)
        for i in range(4):
            system.send_from_a(bytes([i]) * 64)
        system.pump(16)
        assert system.delivered_a == system.sent
        for port in (system.port_a, system.port_b):
            port.destroy()
        for mem in (system.mem_a, system.mem_b):
            mem.zero_and_release()
            assert mem.registered == set()
        assert system.violations() == []
        assert system.breached() is False


class TestForgedDescriptorsAndEmptyFrames:
    """Two plans that once raised out of run_adversary. Each must now end
    in a report: no breach, and one outcome per action."""

    KW = dict(packets=4, payload_len=64, ring_capacity=8, canary=b"\xc3\x96" * 8)

    def test_forged_out_of_arena_descriptor_is_a_violation(self):
        # the tamper rewrites a posted RX descriptor's packet handle to name
        # a region that does not exist; the device's DMA through it must be
        # recorded, not raised
        plan = AdversaryPlan.parse(
            "tamper_shared target=a when=0 region=1 offset=69947 data=b3f335ff67b16e\n"
            "forge_writeback target=a when=0 slot=0 length=2048"
        )
        report = run_adversary(plan, **self.KW)
        assert report.breach is False
        assert [a for a, _ in report.outcomes] == ["tamper_shared", "forge_writeback"]
        assert any(v["kind"] == "dma_write_denied" for v in report.violations)

    def test_corrupting_an_empty_frame_does_not_raise(self):
        plan = AdversaryPlan.parse(
            "corrupt_ciphertext target=b when=0 offset=94\n"
            "forge_writeback target=b when=0 slot=0 length=0"
        )
        report = run_adversary(plan, **self.KW)
        assert report.breach is False
        assert [a for a, _ in report.outcomes] == ["corrupt_ciphertext", "forge_writeback"]

    def test_forged_writeback_slot_wraps_to_the_ring(self):
        # a device names slots modulo the ring, as replay_descriptor does
        wrapped = run_adversary(
            AdversaryPlan.parse("forge_writeback target=a when=0 slot=8 length=64"),
            ring_capacity=8,
        )
        assert wrapped.breach is False
        assert [a for a, _ in wrapped.outcomes] == ["forge_writeback"]
        same = run_adversary(
            AdversaryPlan.parse("forge_writeback target=a when=0 slot=0 length=64"),
            ring_capacity=8,
        )
        assert wrapped.to_dict() == same.to_dict()

    def test_forged_tx_descriptor_read_is_a_violation(self):
        system = LoopbackSystem(ring_capacity=8)
        ring = system.port_a.tx_ring
        system.send_from_a(bytes(64))
        # rewrite the posted descriptor's address to name no arena at all
        system.mem_a.write_at(
            ring.backing.region, ring.backing.offset, b"\xff\x7f" + bytes(6), Side.DEVICE
        )
        system.pump(4)
        kinds = [v["kind"] for v in system.nic_a.violations]
        assert kinds == ["dma_read_denied"]
        assert "no arena with id 32767" in system.nic_a.violations[0]["error"]
