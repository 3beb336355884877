"""The evidence attacked runs leave, pinned record for record.

TestGoldenDigests pins the modeled numbers and the campaign's verdicts; this
pins the memory accesses behind them, as the access recorder logs them. A
change that only makes the model faster must leave every access in place:
none dropped, merged or reordered, and the packet path's records built as
their own types. The same logs show that the VM never touches the metadata
the device can write.
"""

import hashlib
import random

import pytest

from access_oracle import AccessRecord, access_log
from splitio import devsim, simloop
from splitio.bench import BenchConfig
from splitio.devsim import AdversaryPlan, LoopbackSystem, run_adversary
from splitio.ipsec import OffloadMode
from splitio.mem import Handle, Side
from splitio.ring import RxHarvest, RxView, TxDescriptor, TxView
from test_security import CANARY, PRIVATE_REGION, protect_factory_for, random_plan

pytestmark = pytest.mark.usefixtures("recorded")

# two actions on each echo rig: a denied forged DMA into private memory, and
# a forged RX writeback on the slot B harvests next, claiming more than its
# room, which the harvest clamps and rx_burst drops as suspect
ECHO_PLAN = (
    f"forge_address target=a when=1000000 region={PRIVATE_REGION} offset=0 length=64\n"
    "forge_writeback target=b when=2500000 slot=13 length=4096"
)


def _log_digest(rigs) -> str:
    h = hashlib.sha256()
    for rig in rigs:
        for mem in (rig.mem_a, rig.mem_b):
            log = access_log(mem)
            h.update(f"log {len(log)}\n".encode())
            for r in log:
                h.update(repr((type(r).__name__, *r)).encode() + b"\n")
    return h.hexdigest()


def _campaign_rigs(monkeypatch) -> list:
    """The rigs run_adversary builds for 20 seeded plans, half under ESP."""
    rigs = []
    judge = devsim.classify_attack

    def keep_rig(system, *args):
        rigs.append(system)
        return judge(system, *args)

    monkeypatch.setattr(devsim, "classify_attack", keep_rig)
    rng = random.Random(0x10C5)
    for i in range(20):
        plan, _ = random_plan(rng)
        factory = secrets = None
        if i % 2 == 1:
            factory, secrets = protect_factory_for(rng)
        run_adversary(
            plan,
            packets=4,
            payload_len=64,
            ring_capacity=8,
            canary=CANARY,
            secret_patterns=secrets,
            protect_factory=factory,
            seed=i,
        )
    assert len(rigs) == 20
    return rigs


class TestAccessLogDigest:
    CAMPAIGN = "e7741f7558f9fc86bee4b9b18daa90d268fec3e4ecdbbdd08905bad39b5c93d4"
    ECHO = "8bb59fe67bbea1d26a638eb3d1d62dca13253782716565c380f2af3fabf2a1c8"

    def test_campaign_access_logs(self, monkeypatch):
        assert _log_digest(_campaign_rigs(monkeypatch)) == self.CAMPAIGN

    def test_echo_access_logs(self):
        """One attacked echo rig per offload mode."""
        rigs = []
        for seed, mode in enumerate((None, OffloadMode.LOOKASIDE, OffloadMode.INLINE)):
            cfg = BenchConfig(duration_s=0.005, seed=seed, ipsec=mode)
            rig = simloop._EchoRig(cfg, plan=AdversaryPlan.parse(ECHO_PLAN), canary=CANARY)
            assert rig.run().received > 0
            assert rig.port_b.counters["metadata_suspect"] == 1
            rigs.append(rig)
        assert _log_digest(rigs) == self.ECHO


class TestSharedMetadataUntouched:
    """The shared pool's metadata sits in memory the device can write, so
    the VM writes it once, as the port is built, and never reads or writes
    it again: the port stages TX frames and arms RX rooms in shared buffers
    taken raw, and reads every metadata field from the private shadow pool.
    The device's own accesses there (tampering included) are not the VM's."""

    @staticmethod
    def _check(rigs):
        for rig in rigs:
            for mem, port in ((rig.mem_a, rig.port_a), (rig.mem_b, rig.port_b)):
                slab = port.pools.shared.meta_slab
                end = slab.offset + slab.length
                touched = [
                    r
                    for r in access_log(mem)
                    if r.side is Side.VM
                    and r.region == slab.region
                    and r.offset < end
                    and r.offset + r.length > slab.offset
                ]
                built = AccessRecord(Side.VM, "write", *slab, True)
                assert touched == [built]

    @pytest.mark.parametrize("mode", [None, OffloadMode.LOOKASIDE, OffloadMode.INLINE])
    def test_echo_run(self, mode):
        rig = simloop._EchoRig(BenchConfig(duration_s=0.01, ipsec=mode, seed=2))
        result = rig.run()
        assert result.received == result.sent > 0
        self._check([rig])

    def test_campaign(self, monkeypatch):
        self._check(_campaign_rigs(monkeypatch))


class TestRecordShapes:
    """The packet path builds its records with tuple.__new__, which skips
    the NamedTuple constructor's arity check: a call site that dropped a
    field would build a short record of the right type. Every record a run
    builds, and every Handle inside one, has its class's type and arity."""

    @staticmethod
    def _check(record, cls):
        assert type(record) is cls and len(record) == len(cls._fields), record
        for field in record:
            if isinstance(field, tuple):
                assert type(field) is Handle and len(field) == len(Handle._fields), record

    @staticmethod
    def _spy(rig):
        """Record what each ring method under test takes or returns, in
        (class, records) pairs."""
        seen = []

        def wrap(ring, name, cls, arg):
            method = getattr(ring, name)

            def spy(*args, **kwargs):
                result = method(*args, **kwargs)
                seen.append((cls, [args[0]] if arg else result))
                return result

            setattr(ring, name, spy)

        for port in (rig.port_a, rig.port_b):
            wrap(port.tx_ring, "vm_post_tx", TxDescriptor, arg=True)
            wrap(port.tx_ring, "device_fetch", TxView, arg=False)
            wrap(port.rx_ring, "device_fetch", RxView, arg=False)
            wrap(port.rx_ring, "vm_harvest_rx", RxHarvest, arg=False)
        return seen

    def _check_rig(self, rig, seen):
        assert {cls for cls, records in seen if records} == {TxDescriptor, TxView, RxView, RxHarvest}
        for cls, records in seen:
            for record in records:
                self._check(record, cls)
        for port in (rig.port_a, rig.port_b):
            posted = [h for h in port.rx_ring._posted_rx if h is not None]
            assert posted
            for handle in posted:
                self._check(handle, Handle)
        for mem in (rig.mem_a, rig.mem_b):
            assert access_log(mem)
            for record in access_log(mem):
                self._check(record, AccessRecord)

    def test_port_pair_records(self):
        """TX post, fetch, writeback and reclaim; RX post, fetch, writeback,
        harvest and repost, on a loopback pair."""
        rig = LoopbackSystem(ring_capacity=8)
        seen = self._spy(rig)
        for i in range(12):
            rig.send_from_a(bytes([i]) * 64)
            rig.pump()
        rig.pump(16)
        assert rig.delivered_a == rig.sent
        # the last send on each side is reclaimed by the next TX burst; do it now
        for port in (rig.port_a, rig.port_b):
            assert port.reclaim_tx() == 1 and not port._tx_staged
        self._check_rig(rig, seen)

    def test_attacked_echo_run_records(self):
        """An attacked inline-ESP echo run, with a denied access logged."""
        cfg = BenchConfig(duration_s=0.005, ipsec=OffloadMode.INLINE)
        rig = simloop._EchoRig(cfg, plan=AdversaryPlan.parse(ECHO_PLAN), canary=CANARY)
        seen = self._spy(rig)
        assert rig.run().received > 0
        assert any(not r.ok for r in access_log(rig.mem_a))
        self._check_rig(rig, seen)
