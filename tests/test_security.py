"""Randomized adversary campaign.

A large batch of seeded random attack plans runs against small loopback
rigs, half of them with ESP protection on. Every run must uphold the
containment invariants: no secret material in device-visible memory or on
the wire, no successful device access to private regions, and (under ESP)
no corrupted payload body ever reaching the application.
"""

import random
import time
from dataclasses import replace

import pytest

from access_oracle import access_log, device_touched_regions, is_zero, read_counts
from port_oracle import check_shared_buffers
from splitio import simloop
from splitio.bench import BenchConfig
from splitio.devsim import AdversaryPlan, LoopbackSystem, run_adversary
from splitio.ipsec import PortProtect, SaDirection, SecurityAssociation
from splitio.mem import RegionKind, Side
from splitio.ring import RX_OFF_STATUS, SLOT_SIZE

# the recorder checks every memory access of every rig built here
pytestmark = pytest.mark.usefixtures("recorded")

CANARY = b"\xc3\x96" * 8

# Region ids are deterministic per MemorySystem: the twin rig below is
# built exactly like the adversary runner builds its own, so the ids match.
_TWIN = LoopbackSystem(ring_capacity=8)
SHARED_REGION = _TWIN.port_a.pools.shared.data_slab.region
PRIVATE_REGION = _TWIN.port_a.pools.shadow.meta_slab.region
SHARED_ARENA_SIZE = _TWIN.mem_a.arena(SHARED_REGION).size
del _TWIN

ACTION_KINDS = (
    "tamper_shared",
    "forge_writeback",
    "forge_address",
    "replay_descriptor",
    "drop_packet",
    "corrupt_ciphertext",
)


def random_plan(rng):
    lines = []
    kinds = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(ACTION_KINDS)
        kinds.append(kind)
        target = rng.choice("ab")
        when = rng.choice([0, 1000 * rng.randrange(20)])
        head = f"{kind} target={target} when={when}"
        if kind == "tamper_shared":
            region = SHARED_REGION if rng.random() < 0.6 else rng.randrange(7)
            offset = rng.randrange(SHARED_ARENA_SIZE + 512)
            data = bytes(rng.randrange(256) for _ in range(rng.randint(1, 12))).hex()
            lines.append(f"{head} region={region} offset={offset} data={data}")
        elif kind == "forge_writeback":
            slot = rng.randrange(8)
            length = rng.choice([0, 17, 43, 64, 2048, 4096, 65000])
            suffix = " status_error=3" if rng.random() < 0.3 else ""
            lines.append(f"{head} slot={slot} length={length}{suffix}")
        elif kind == "forge_address":
            region = PRIVATE_REGION if rng.random() < 0.6 else rng.choice([0, 5, 77])
            offset = rng.randrange(4096)
            length = rng.randint(1, 256)
            lines.append(f"{head} region={region} offset={offset} length={length}")
        elif kind == "replay_descriptor":
            lines.append(f"{head} slot={rng.randrange(32)}")
        elif kind == "drop_packet":
            lines.append(f"{head} count={rng.randint(1, 3)}")
        else:
            lines.append(f"{head} offset={rng.randrange(96)}")
    return AdversaryPlan.parse("\n".join(lines)), kinds


def protect_factory_for(rng):
    key_ab, key_ba = rng.randbytes(16), rng.randbytes(16)
    salt_ab, salt_ba = rng.randbytes(4), rng.randbytes(4)

    def factory(system):
        a_out = SecurityAssociation(system.mem_a, 0x11, key_ab, salt_ab, SaDirection.OUTBOUND)
        b_in = SecurityAssociation(system.mem_b, 0x11, key_ab, salt_ab, SaDirection.INBOUND)
        b_out = SecurityAssociation(system.mem_b, 0x22, key_ba, salt_ba, SaDirection.OUTBOUND)
        a_in = SecurityAssociation(system.mem_a, 0x22, key_ba, salt_ba, SaDirection.INBOUND)
        return (
            PortProtect(system.port_a, a_out, a_in),
            PortProtect(system.port_b, b_out, b_in),
        )

    return factory, [key_ab, key_ba]


class TestRandomizedCampaign:
    def test_thousand_plans_uphold_invariants(self):
        rng = random.Random(0x5EC0)
        started = time.monotonic()
        kind_seen = {k: 0 for k in ACTION_KINDS}
        for i in range(1000):
            plan, kinds = random_plan(rng)
            for k in kinds:
                kind_seen[k] += 1
            protected = i % 2 == 1
            factory = secrets = None
            if protected:
                factory, secrets = protect_factory_for(rng)
            report = run_adversary(
                plan,
                packets=4,
                payload_len=64,
                ring_capacity=8,
                canary=CANARY,
                secret_patterns=secrets,
                protect_factory=factory,
                seed=i,
            )

            context = f"run {i}: {plan}"
            # secrets stay out of shared memory and off the wire
            assert report.breach is False, context
            # the device never gets through to private regions
            for violation in report.violations:
                assert not violation["kind"].startswith("private_"), context
            for action, outcome in report.outcomes:
                assert outcome in ("rejected", "delivered_corrupted", "no_effect"), context
                if action.startswith("forge_address"):
                    assert outcome == "rejected", context
            if protected:
                # ESP: a delivered payload body always matches a sent one;
                # only the clear addressing prefix is forgeable
                for got in report.delivered + report.echoed:
                    assert any(got[8:] == sent[8:] for sent in report.sent), context
        elapsed = time.monotonic() - started
        assert all(count >= 50 for count in kind_seen.values()), kind_seen
        assert elapsed < 60.0, f"campaign took {elapsed:.1f} s"


class TestAttackWhilePoolsAreDry:
    """Plans fire during overload_fanout-shaped echo traffic: 50 connections
    at 5,000 pps each against 256 mbufs, about three times what the server
    can serve, so its shadow pool runs dry and rx_burst drops. Each plan's
    actions are shifted past the first drop."""

    CFG = BenchConfig(connections=50, duration_s=0.002, mbuf_count=256)

    def first_drop_ns(self):
        probe = simloop._EchoRig(self.CFG)
        probe.schedule_sends()
        while probe.port_b.counters["drops"] == 0:
            probe.pump(10)
        return probe.now

    def test_plans_uphold_invariants_under_overload(self):
        first_drop = self.first_drop_ns()
        # the ten plans this seed draws cover all six action kinds
        rng = random.Random(0)
        for i in range(10):
            plan, kinds = random_plan(rng)
            shifted = AdversaryPlan([replace(a, when=a.when + first_drop) for a in plan.actions])
            rig = simloop._EchoRig(replace(self.CFG, seed=i), plan=shifted, canary=CANARY)
            result = rig.run()

            context = f"run {i}: {plan}"
            assert rig.port_b.counters["drops"] > 0, context
            assert result.received > 0, context
            assert rig.breached() is False, context
            violations = rig.violations()
            assert not any(v["kind"].startswith("private_") for v in violations), context
            denied = sum(v["kind"] == "forge_address_denied" for v in violations)
            assert denied == kinds.count("forge_address"), context
            for port in (rig.port_a, rig.port_b):
                pools = port.pools
                # the heap has drained, so the applications hold no buffer
                assert pools.shadow.remaining() == pools.shadow.count, context
                armed, in_flight = port.rx_ring.occupancy(), len(port._tx_staged)
                assert pools.shared.remaining() + armed + in_flight == pools.shared.count, context
                check_shared_buffers(port)


class TestPostCopyTamper:
    @pytest.mark.parametrize("seed", range(10))
    def test_late_tamper_never_alters_delivered_data(self, seed):
        rng = random.Random(seed)
        offset = rng.randrange(SHARED_ARENA_SIZE - 16)
        data = bytes(rng.randrange(256) for _ in range(16)).hex()
        plan = AdversaryPlan.parse(
            f"tamper_shared target=a when=15000 region={SHARED_REGION} offset={offset} data={data}"
        )
        report = run_adversary(
            plan, packets=4, payload_len=64, ring_capacity=8, canary=CANARY, seed=seed
        )
        # traffic is long finished when the tamper fires; every payload the
        # application saw was already copied into private memory
        assert report.delivered == report.sent
        assert report.echoed == report.sent
        assert report.breach is False


class TestPrivateAddressForgery:
    def test_forged_dma_is_denied_and_touches_nothing(self):
        plan = AdversaryPlan.parse(
            f"forge_address target=a when=2000 region={PRIVATE_REGION} offset=0 length=128\n"
            f"forge_address target=b when=3000 region={PRIVATE_REGION} offset=512 length=64"
        )
        system = LoopbackSystem(ring_capacity=8, plan=plan, canary=CANARY)
        for i in range(4):
            system.send_from_a(bytes([i]) * 64)
            system.pump()
        system.pump(16)

        for mem in (system.mem_a, system.mem_b):
            private = [a for a in mem.arenas.values() if a.kind is RegionKind.PRIVATE]
            assert private
            for record in access_log(mem):
                if record.side is Side.DEVICE and record.ok:
                    assert mem.arenas[record.region].kind is RegionKind.SHARED
            assert device_touched_regions(mem) <= mem.registered
        denials = [v for v in system.nic_a.violations if v["kind"] == "forge_address_denied"]
        assert denials
        assert system.delivered_b == system.sent


class TestTeardownScrub:
    @pytest.mark.parametrize("seed", range(10))
    def test_shared_arenas_zero_after_graceful_teardown(self, seed):
        rng = random.Random(7000 + seed)
        plan, _ = random_plan(rng)
        system = LoopbackSystem(ring_capacity=8, plan=plan, canary=CANARY)
        for i in range(4):
            system.send_from_a(bytes(rng.randrange(256) for _ in range(64)))
            system.pump()
        system.pump(16)
        system.port_a.destroy()
        system.port_b.destroy()
        for mem in (system.mem_a, system.mem_b):
            for arena in mem.arenas.values():
                if arena.kind is RegionKind.SHARED:
                    assert is_zero(arena), f"run {seed}: region {arena.id} not scrubbed"

    def test_protected_teardown_leaves_no_key_material(self):
        rng = random.Random(99)
        factory, secrets = protect_factory_for(rng)
        system = LoopbackSystem(ring_capacity=8, canary=CANARY)
        system.protect_a, system.protect_b = factory(system)
        for i in range(4):
            system.send_from_a(bytes([0x40 + i]) * 64)
            system.pump()
        system.pump(16)
        system.port_a.destroy()
        system.port_b.destroy()
        for mem in (system.mem_a, system.mem_b):
            for pattern in secrets + [CANARY]:
                assert not mem.pattern_in_shared(pattern)


class TestReadOnceHarvest:
    FIELD_BYTES = tuple(range(16, 22)) + tuple(range(24, 28))
    STATUS_BYTES = (RX_OFF_STATUS, RX_OFF_STATUS + 1)

    def test_writeback_fields_read_exactly_once_per_harvest(self):
        system = LoopbackSystem(ring_capacity=8)
        for i in range(12):
            system.send_from_a(bytes([i]) * 64)
            system.pump()
        system.pump(16)
        assert len(system.delivered_b) == 12
        assert len(system.delivered_a) == 12

        for mem, port, harvests in (
            (system.mem_b, system.port_b, 12),
            (system.mem_a, system.port_a, 12),
        ):
            ring = port.rx_ring
            counters = read_counts(mem, ring.backing.region)
            total_field_reads = 0
            for slot in range(ring.capacity):
                base = ring.backing.offset + slot * SLOT_SIZE
                field_counts = {counters[base + off] for off in self.FIELD_BYTES}
                # all non-status bytes of one slot share a single count:
                # the number of times that slot was harvested
                assert len(field_counts) == 1, f"slot {slot}: {field_counts}"
                count = field_counts.pop()
                for off in self.STATUS_BYTES:
                    assert counters[base + off] >= count
                total_field_reads += count
            assert total_field_reads == harvests
