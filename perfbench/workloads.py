"""The benchmark's four workloads: seeded inputs, set-up, reports, checks.

A report is one call into an entry point: ``bench.run_echo_result(cfg)``
for the echo workloads, ``devsim.run_adversary(plan, ...)`` for the
adversary campaign. An op is one completed simulated round trip
(``EchoResult.received``) in the echo workloads and one checked plan in the
campaign. Every input a report receives is generated here from the
benchmark's ``--seed`` and the report's index, so a (seed, index) pair
always names the same report.

Entry points are looked up as module attributes at call time, so the
tracer's patches are seen.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from typing import Optional

from splitio import bench, devsim
from splitio.bench import BenchConfig, CostProfile
from splitio.devsim import AdversaryPlan, LinkModel, LoopbackSystem, SimNic
from splitio.ipsec import (
    OffloadMode,
    PortProtect,
    SaDirection,
    SecurityAssociation,
    esp_frame_len,
    inline_attach,
)
from splitio.mem import MemorySystem
from splitio.pools import PoolConfig, port_new


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # string seeds are hashed with sha512, so this is stable across processes
    return random.Random(f"{workload}:{seed}:{index}")


def _sa_pair(mem_out: MemorySystem, mem_in: MemorySystem, spi: int, key: bytes, salt: bytes):
    return (
        SecurityAssociation(mem_out, spi, key, salt, SaDirection.OUTBOUND),
        SecurityAssociation(mem_in, spi, key, salt, SaDirection.INBOUND),
    )


# ---------------------------------------------------------------------------
# Echo workloads.


@dataclass(frozen=True)
class EchoWorkload:
    name: str
    base: BenchConfig
    modes: tuple[Optional[OffloadMode], ...]  # report i uses modes[i % len]
    digest_reports: int  # always run; the model outputs cover exactly these
    trace_reports: int
    count_reports: int
    seed: int = 0

    def prepare(self, index: int) -> BenchConfig:
        rng = _rng(self.name, self.seed, index)
        return replace(self.base, seed=rng.getrandbits(32), ipsec=self.modes[index % len(self.modes)])

    def setup(self, index: int) -> None:
        """Build report index's endpoint pair the way a report does, through
        the public constructors."""
        cfg = self.prepare(index)
        pool_cfg = PoolConfig(mbuf_count=cfg.mbuf_count)
        mem_a, mem_b = MemorySystem(), MemorySystem()
        port_a = port_new(mem_a, pool_cfg, ring_capacity=cfg.ring_capacity)
        port_b = port_new(mem_b, pool_cfg, ring_capacity=cfg.ring_capacity)
        p = cfg.profile
        link = LinkModel(p.link_base_ns, p.link_per_byte_ns, p.jitter_ns, cfg.seed, p.loss_rate)
        nic_a, nic_b = SimNic("a", mem_a, port_a, link), SimNic("b", mem_b, port_b, link)
        nic_a.connect(nic_b)
        nic_b.connect(nic_a)
        if cfg.ipsec is not None:
            rng = _rng(self.name + ".setup", cfg.seed, index)
            a_out, b_in = _sa_pair(mem_a, mem_b, 0x1001, rng.randbytes(16), rng.randbytes(4))
            b_out, a_in = _sa_pair(mem_b, mem_a, 0x2002, rng.randbytes(16), rng.randbytes(4))
            if cfg.ipsec is OffloadMode.INLINE:
                inline_attach(port_a, a_in, a_out)
                inline_attach(port_b, b_in, b_out)

    def run(self, cfg: BenchConfig):
        return bench.run_echo_result(cfg)

    @staticmethod
    def stretched(cfg: BenchConfig) -> BenchConfig:
        """The same report run twice as long: the call-count difference
        between the two is the cost of the extra round trips alone, free of
        the per-report construction."""
        return replace(cfg, duration_s=2 * cfg.duration_s)

    @staticmethod
    def ops(result) -> int:
        return result.received

    @staticmethod
    def digest(result) -> bytes:
        record = (
            result.sent,
            result.received,
            result.drops,
            result.samples,
            sorted(result.counters_a.items()),
            sorted(result.counters_b.items()),
            sorted((result.worker_counters_a or {}).items()),
            sorted((result.worker_counters_b or {}).items()),
            result.link_drops_a,
            result.link_drops_b,
        )
        return hashlib.sha256(repr(record).encode()).digest()

    @staticmethod
    def check(cfg: BenchConfig, r) -> list[str]:
        """Conservation and one-copy-per-direction checks on one report."""
        errs = []

        def expect(ok: bool, what: str) -> None:
            if not ok:
                errs.append(what)

        a, b = r.counters_a, r.counters_b
        wa, wb = r.worker_counters_a, r.worker_counters_b
        expect(r.sent == r.received + r.drops, f"sent {r.sent} != received {r.received} + drops {r.drops}")
        expect(r.received == len(r.samples) == len(r.client_payloads), "received != samples != client payloads")
        expect(r.received > 0 and all(s > 0 for s in r.samples), "no positive round-trip samples")
        # every packet an application saw was copied in once; every echo out once
        staged_a = wa["stage_drops"] if wa else 0
        staged_b = wb["stage_drops"] if wb else 0
        expect(b["copies_rx"] == len(r.server_payloads) + b["auth_fail"] + staged_b, "server copies_rx != packets received")
        expect(b["copies_tx"] == len(r.server_payloads), "server copies_tx != echoes sent")
        expect(a["copies_rx"] == len(r.client_payloads) + a["auth_fail"] + staged_a, "client copies_rx != echoes received")
        expect(a["copies_tx"] <= r.sent, "client copies_tx exceeds packets sent")
        # every frame copied onto a TX ring was copied in or dropped at the peer
        out = a["copies_tx"] + b["copies_tx"]
        landed = a["copies_rx"] + a["drops"] + b["copies_rx"] + b["drops"] + r.link_drops_a + r.link_drops_b
        expect(out == landed, f"{out} frames sent but {landed} copied in or dropped")
        wire = esp_frame_len(cfg.payload_len) if cfg.ipsec is not None else cfg.payload_len
        for side, c in (("a", a), ("b", b)):
            copies = c["copies_rx"] + c["copies_tx"]
            expect(c["bytes_copied"] == wire * copies, f"port {side} copied {c['bytes_copied']} B for {copies} copies of {wire} B")
            worker = wa if side == "a" else wb
            if cfg.ipsec is OffloadMode.INLINE:
                expect(c["aes_ops"] == 0, f"port {side} app worker ran AES in inline mode")
                expect(worker["aes_ops"] == worker["processed"] == copies, f"port {side}: AES ops != transforms != copies")
            elif cfg.ipsec is OffloadMode.LOOKASIDE:
                expect(c["aes_ops"] == copies, f"port {side}: {c['aes_ops']} AES ops for {copies} transforms")
            else:
                expect(c["aes_ops"] == 0, f"port {side} ran AES without ESP")
        sent_bodies = set(r.server_payloads)
        expect(all(len(p) == cfg.payload_len for p in sent_bodies), "server saw a payload of the wrong length")
        expect(all(p in sent_bodies for p in r.client_payloads), "client received a payload the server never echoed")
        return errs

    @staticmethod
    def model_outputs(results: list) -> dict[str, str]:
        samples = sorted(s for r in results for s in r.samples)
        sent = sum(r.sent for r in results)
        drops = sum(r.drops for r in results)
        return {
            "model.p50_us": f"{bench.percentile(samples, 0.50) / 1000:.3f}",
            "model.p99_us": f"{bench.percentile(samples, 0.99) / 1000:.3f}",
            "model.drop_share": f"{drops / sent:.6f}",
        }


ECHO_SMALL = EchoWorkload(
    "echo_small",
    BenchConfig(duration_s=0.05),
    modes=(None,),
    digest_reports=8,
    trace_reports=6,
    count_reports=1,
)
ESP_MTU = EchoWorkload(
    "esp_mtu",
    BenchConfig(payload_len=1400, duration_s=0.05, profile=replace(CostProfile(), jitter_ns=10_000)),
    modes=(OffloadMode.LOOKASIDE, OffloadMode.INLINE),
    digest_reports=8,
    trace_reports=4,
    count_reports=2,
)
OVERLOAD_FANOUT = EchoWorkload(
    "overload_fanout",
    # a 256-buffer pool exhausts within 1.5 ms of simulated time, so a
    # short report (and with it a report-time tail) still spends most of
    # its traffic on the drop path
    BenchConfig(connections=50, duration_s=0.004, mbuf_count=256),
    modes=(None,),
    digest_reports=4,
    trace_reports=2,
    count_reports=1,
)


# ---------------------------------------------------------------------------
# Adversary campaign.

CANARY = b"\xc3\x96" * 8
ACTION_KINDS = (
    "tamper_shared",
    "forge_writeback",
    "forge_address",
    "replay_descriptor",
    "drop_packet",
    "corrupt_ciphertext",
)
WRITEBACK_LENGTHS = (0, 17, 43, 64, 2048, 4096, 65000)


class EspFactory:
    """protect_factory for run_adversary: two SA pairs, one per direction."""

    def __init__(self, key_ab: bytes, salt_ab: bytes, key_ba: bytes, salt_ba: bytes):
        self.key_ab, self.salt_ab, self.key_ba, self.salt_ba = key_ab, salt_ab, key_ba, salt_ba

    def __call__(self, system: LoopbackSystem):
        a_out, b_in = _sa_pair(system.mem_a, system.mem_b, 0x11, self.key_ab, self.salt_ab)
        b_out, a_in = _sa_pair(system.mem_b, system.mem_a, 0x22, self.key_ba, self.salt_ba)
        return PortProtect(system.port_a, a_out, a_in), PortProtect(system.port_b, b_out, b_in)


@dataclass
class Plan:
    text: str
    kinds: list[str]
    factory: Optional[EspFactory]
    seed: int

    @property
    def secrets(self) -> Optional[list[bytes]]:
        return [self.factory.key_ab, self.factory.key_ba] if self.factory else None


class AdversaryCampaign:
    name = "adversary_campaign"
    digest_reports = 60  # ten plans led by each action kind
    trace_reports = 60
    count_reports = 12

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # region ids are deterministic per MemorySystem, so a rig built the
        # way run_adversary builds its own names the same regions
        twin = LoopbackSystem(ring_capacity=8, canary=CANARY)
        self.shared_region = twin.port_a.pools.shared.data_slab.region
        self.private_region = twin.port_a.pools.shadow.meta_slab.region
        self.shared_size = twin.mem_a.arena(self.shared_region).size
        rings = (twin.port_a.tx_ring.backing, twin.port_a.rx_ring.backing)
        assert all(r.region == self.shared_region for r in rings)
        self.rings_start = min(r.offset for r in rings)
        self.rings_end = max(r.offset + r.length for r in rings)

    def prepare(self, index: int) -> Plan:
        """Plan index: 1-3 actions over random targets and times; the first
        action's kind cycles through all six, odd plans run under ESP."""
        rng = _rng(self.name, self.seed, index)
        kinds = [ACTION_KINDS[index % len(ACTION_KINDS)]]
        kinds += [rng.choice(ACTION_KINDS) for _ in range(rng.randint(1, 3) - 1)]
        # a forged empty writeback is echoed as an empty frame, which a
        # pending corrupt_ciphertext cannot handle (see "Known defects" in
        # README.md)
        lengths = WRITEBACK_LENGTHS[1:] if "corrupt_ciphertext" in kinds else WRITEBACK_LENGTHS
        lines = []
        for kind in kinds:
            head = f"{kind} target={rng.choice('ab')} when={rng.choice([0, 1000 * rng.randrange(20)])}"
            if kind == "tamper_shared":
                region = self.shared_region if rng.random() < 0.6 else rng.randrange(7)
                data = rng.randbytes(rng.randint(1, 12))
                lines.append(f"{head} region={region} offset={self.tamper_offset(rng, len(data))} data={data.hex()}")
            elif kind == "forge_writeback":
                length = rng.choice(lengths)
                suffix = " status_error=3" if rng.random() < 0.3 else ""
                lines.append(f"{head} slot={rng.randrange(8)} length={length}{suffix}")
            elif kind == "forge_address":
                region = self.private_region if rng.random() < 0.6 else rng.choice([0, 5, 77])
                lines.append(f"{head} region={region} offset={rng.randrange(4096)} length={rng.randint(1, 256)}")
            elif kind == "replay_descriptor":
                lines.append(f"{head} slot={rng.randrange(32)}")
            elif kind == "drop_packet":
                lines.append(f"{head} count={rng.randint(1, 3)}")
            else:
                lines.append(f"{head} offset={rng.randrange(96)}")
        factory = None
        if index % 2 == 1:
            factory = EspFactory(rng.randbytes(16), rng.randbytes(4), rng.randbytes(16), rng.randbytes(4))
        return Plan("\n".join(lines), kinds, factory, rng.getrandbits(32))

    def tamper_offset(self, rng: random.Random, length: int) -> int:
        """An offset in [0, shared_size + 512) at which a write of length
        bytes misses the descriptor rings. Writes over a ring descriptor are
        left out: a forged descriptor handle makes SimNic raise out of
        run_adversary (see "Known defects" in README.md)."""
        span = self.rings_end - self.rings_start + length - 1
        offset = rng.randrange(self.shared_size + 512 - span)
        return offset + span if offset > self.rings_start - length else offset

    def setup(self, index: int) -> None:
        """Build plan index's rig the way run_adversary does."""
        plan = self.prepare(index)
        system = LoopbackSystem(plan=AdversaryPlan.parse(plan.text), ring_capacity=8, canary=CANARY)
        if plan.factory is not None:
            system.protect_a, system.protect_b = plan.factory(system)

    def run(self, plan: Plan):
        return devsim.run_adversary(
            AdversaryPlan.parse(plan.text),
            packets=4,
            payload_len=64,
            ring_capacity=8,
            canary=CANARY,
            secret_patterns=plan.secrets,
            protect_factory=plan.factory,
            seed=plan.seed,
        )

    @staticmethod
    def ops(report) -> int:
        return 1

    @staticmethod
    def digest(report) -> bytes:
        return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).digest()

    @staticmethod
    def check(plan: Plan, report) -> list[str]:
        errs = []
        if report.breach is not False:
            errs.append("breach")
        errs += [f"violation {v['kind']}" for v in report.violations if v["kind"].startswith("private_")]
        for action, outcome in report.outcomes:
            if outcome not in ("rejected", "delivered_corrupted", "no_effect"):
                errs.append(f"{action}: unknown outcome {outcome}")
            if action == "forge_address" and outcome != "rejected":
                errs.append(f"forge_address classified {outcome}")
        if [a for a, _ in report.outcomes] != plan.kinds:
            errs.append("outcomes do not follow the plan")
        if plan.factory is not None:
            # under ESP only the clear addressing prefix is forgeable
            bodies = {s[8:] for s in report.sent}
            errs += ["corrupted body delivered" for p in report.delivered + report.echoed if p[8:] not in bodies]
        return errs

    @staticmethod
    def model_outputs(reports: list) -> dict[str, str]:
        tally: dict[str, int] = {}
        for r in reports:
            for _, outcome in r.outcomes:
                tally[outcome] = tally.get(outcome, 0) + 1
        out = {"model.breaches": str(sum(1 for r in reports if r.breach))}
        out.update({f"model.outcome.{k}": str(v) for k, v in sorted(tally.items())})
        return out


def make(name: str, seed: int):
    if name == AdversaryCampaign.name:
        return AdversaryCampaign(seed)
    return replace({w.name: w for w in (ECHO_SMALL, ESP_MTU, OVERLOAD_FANOUT)}[name], seed=seed)

