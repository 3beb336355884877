"""Acceptance gate.

One test per acceptance criterion, at the stated tolerance, each printing a
single pass line (pytest -v adds the matching PASSED/FAILED verdict). The
heavy randomized-adversary criterion re-runs its generator here under its
own time budget so this file alone certifies the build.
"""

import random
import time
from dataclasses import replace

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from access_oracle import is_zero, read_counts
from splitio.bench import (
    BenchConfig,
    CostProfile,
    app_cost_sweep,
    emit_report,
    load_capacity_pps,
    max_connections,
    percentile,
    run_echo,
    run_echo_result,
)
from splitio.devsim import AdversaryPlan, LoopbackSystem, run_adversary
from splitio.errors import AuthFail
from splitio.factors import (
    FactorState,
    OverheadFactor,
    VmConfiguration,
    diff_configs,
    factor_state,
)
from splitio.ipsec import (
    OffloadMode,
    esp_decrypt,
    esp_encrypt,
    esp_frame_len,
)
from splitio.mem import RegionKind
from splitio.pools import PoolConfig, pool_memory_footprint
from splitio.ring import SLOT_SIZE

from test_bench import rank_oracle
from test_factors import CONFIG_COLUMNS, _CHAR_STATE
from test_ipsec import GCM_CASES, make_port, sa_pair
from test_security import (
    CANARY,
    SHARED_REGION,
    protect_factory_for,
    random_plan,
)


def _pass(n, detail):
    print(f"criterion {n}: PASS - {detail}")


def test_criterion_01_factor_matrix_fixture():
    started = time.monotonic()
    assert set(CONFIG_COLUMNS) == set(VmConfiguration)
    cells = 0
    for config, column in CONFIG_COLUMNS.items():
        for factor, char in zip(OverheadFactor, column, strict=True):
            assert factor_state(factor, config) is _CHAR_STATE[char]
            cells += 1
    assert cells == 130

    delta = diff_configs(VmConfiguration.SNP_SOFTWARE, VmConfiguration.SNP_TIO_DPDK)
    assert delta == [
        (OverheadFactor.BOUNCE_BUFFER_COPY, FactorState("Y"), FactorState("N")),
        (OverheadFactor.IO_PCIE_ENCRYPTION, FactorState("N"), FactorState("Y")),
    ]
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _pass(1, f"130 matrix cells + diff pair in {elapsed * 1000:.0f} ms")


def test_criterion_02_memory_accounting():
    big = pool_memory_footprint(PoolConfig(mbuf_count=65_456))
    assert big["shared"] == 65_456 * 2_176 == 142_432_256
    small = pool_memory_footprint(PoolConfig())
    assert small["shared"] == 8_192 * 2_176 == 17_825_792
    _pass(2, "shared pool footprints 142,432,256 and 17,825,792 B exact")


def test_criterion_03_connection_formula():
    expected = {100: 10_000, 200: 5_000, 500: 2_000, 1000: 1_000}
    for payload, conns in expected.items():
        assert max_connections(8e9, payload, 1000) == conns
    _pass(3, "max connections at 8 Gbit/s, 1000 pps: " + str(expected))


def test_criterion_04_randomized_adversary_suite(recorded):
    started = time.monotonic()
    rng = random.Random(0xACC4)

    # (a) secrets never leak + (c) private DMA always denied, 1000 plans
    for i in range(1000):
        plan, _ = random_plan(rng)
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
        assert report.breach is False, f"run {i}"
        for violation in report.violations:
            assert not violation["kind"].startswith("private_"), f"run {i}"
        for action, outcome in report.outcomes:
            if action.startswith("forge_address"):
                assert outcome == "rejected", f"run {i}"

    # (b) tampering after the copy never reaches delivered data
    for seed in range(10):
        trng = random.Random(seed)
        data = bytes(trng.randrange(256) for _ in range(16)).hex()
        plan = AdversaryPlan.parse(
            f"tamper_shared target=a when=15000 region={SHARED_REGION}"
            f" offset={trng.randrange(60000)} data={data}"
        )
        report = run_adversary(
            plan, packets=4, payload_len=64, ring_capacity=8, canary=CANARY, seed=seed
        )
        assert report.delivered == report.sent
        assert report.echoed == report.sent

    # (d) graceful teardown scrubs every shared arena
    for seed in range(10):
        srng = random.Random(4000 + seed)
        plan, _ = random_plan(srng)
        system = LoopbackSystem(ring_capacity=8, plan=plan, canary=CANARY)
        for i in range(4):
            system.send_from_a(bytes(srng.randrange(256) for _ in range(64)))
            system.pump()
        system.pump(16)
        system.port_a.destroy()
        system.port_b.destroy()
        for mem in (system.mem_a, system.mem_b):
            for arena in mem.arenas.values():
                if arena.kind is RegionKind.SHARED:
                    assert is_zero(arena)

    # (e) every harvested RX writeback field is read exactly once
    system = LoopbackSystem(ring_capacity=8)
    for i in range(12):
        system.send_from_a(bytes([i]) * 64)
        system.pump()
    system.pump(16)
    assert len(system.delivered_b) == 12 and len(system.delivered_a) == 12
    field_bytes = tuple(range(16, 22)) + tuple(range(24, 28))
    for mem, port in ((system.mem_b, system.port_b), (system.mem_a, system.port_a)):
        ring = port.rx_ring
        counters = read_counts(mem, ring.backing.region)
        harvested = 0
        for slot in range(ring.capacity):
            base = ring.backing.offset + slot * SLOT_SIZE
            counts = {counters[base + off] for off in field_bytes}
            assert len(counts) == 1
            harvested += counts.pop()
        assert harvested == 12

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _pass(4, f"1020 adversarial runs, all invariants held, {elapsed:.1f} s")


def test_criterion_05_single_copy_accounting():
    system = LoopbackSystem(ring_capacity=8)
    rng = random.Random(505)
    total_len = 0
    packets = 10_000
    for _ in range(packets):
        length = rng.randint(8, 192)
        total_len += length
        system.send_from_a(bytes(rng.randrange(256) for _ in range(length)))
        system.pump()
    system.pump(16)
    assert len(system.delivered_b) == packets
    assert len(system.delivered_a) == packets
    for port in (system.port_a, system.port_b):
        assert port.counters["copies_tx"] == packets
        assert port.counters["copies_rx"] == packets
        assert port.counters["bytes_copied"] == 2 * total_len
    _pass(5, f"{packets} packets each way, one copy per packet per direction, "
             f"{2 * total_len} B per port exact")


def test_criterion_06_crypto():
    # bit-exact known answers (values frozen after two independent
    # implementations agreed on every vector)
    for key, nonce, pt, aad, ct, tag in GCM_CASES:
        sealed = AESGCM(bytes.fromhex(key)).encrypt(
            bytes.fromhex(nonce), bytes.fromhex(pt), bytes.fromhex(aad) or None
        )
        assert sealed == bytes.fromhex(ct) + bytes.fromhex(tag)

    # decrypt-after-encrypt identity over 1000 random packets
    mem, port = make_port()
    sa_out, sa_in = sa_pair(mem)
    rng = random.Random(606)
    room = port.pools.shadow.data_room
    for _ in range(1000):
        payload = bytes(rng.randrange(256) for _ in range(rng.randint(8, room - 40)))
        buf = port.alloc_tx_buffer()
        buf.write_data(payload)
        esp_encrypt(sa_out, buf)
        esp_decrypt(sa_in, buf)
        assert buf.read_data() == payload
        port.free_buffer(buf)

    # exhaustive single-bit corruption of one 64 B frame
    payload = bytes(range(28))
    assert esp_frame_len(len(payload)) == 64
    buf = port.alloc_tx_buffer()
    buf.write_data(payload)
    esp_encrypt(sa_out, buf)
    frame = buf.read_data()
    port.free_buffer(buf)
    flips = 0
    for byte in range(8, 64):  # everything from the ESP header on is sealed
        for bit in range(8):
            mutated = bytearray(frame)
            mutated[byte] ^= 1 << bit
            victim = port.alloc_tx_buffer()
            victim.write_data(bytes(mutated))
            try:
                esp_decrypt(sa_in, victim)
                raise AssertionError(f"flip at byte {byte} bit {bit} went unnoticed")
            except AuthFail:
                flips += 1
            port.free_buffer(victim)
    assert flips == 56 * 8

    # the two offload modes agree on what the applications see
    base = BenchConfig(
        rate_pps=1000.0,
        duration_s=0.05,
        payload_len=96,
        profile=CostProfile.bare(),
    )
    look = run_echo_result(replace(base, ipsec=OffloadMode.LOOKASIDE))
    inline = run_echo_result(replace(base, ipsec=OffloadMode.INLINE))
    assert look.received == inline.received == 50
    assert sorted(look.server_payloads) == sorted(inline.server_payloads)
    assert sorted(look.client_payloads) == sorted(inline.client_payloads)
    _pass(6, "4 KATs, 1000 round trips, 448/448 flips caught, offload modes agree")


def test_criterion_07_simulation_orderings():
    base = BenchConfig(rate_pps=2000.0, duration_s=0.1, seed=3)
    poll = run_echo(replace(base, interrupt_exit_ns=None))
    for exit_cost in (500, 2000):
        intr = run_echo(replace(base, interrupt_exit_ns=exit_cost))
        for stat in ("mean_ns", "p50_ns", "p95_ns", "p99_ns", "p999_ns"):
            assert getattr(poll, stat) < getattr(intr, stat)

    free = replace(CostProfile(), crypto_fixed_ns=0, crypto_per_byte_ns=0.0)
    plain = BenchConfig(payload_len=1000, profile=free, bandwidth_bps=float("inf"))
    sealed = replace(plain, ipsec=OffloadMode.LOOKASIDE)
    assert load_capacity_pps(sealed) == load_capacity_pps(plain)
    costly = replace(sealed, profile=replace(free, crypto_fixed_ns=600))
    assert load_capacity_pps(costly) < load_capacity_pps(plain)

    costs = [500.0, 1000.0, 2000.0, 4000.0, 8000.0]
    for k in (0.0, 700.0, 1500.0, 5000.0):
        sweep = app_cost_sweep(costs, k)
        pairs = list(zip(sweep[OffloadMode.LOOKASIDE], sweep[OffloadMode.INLINE]))
        assert all(inline >= look for look, inline in pairs)
        if k == 0.0:
            assert all(inline == look for look, inline in pairs)
    _pass(7, "polling < interrupt everywhere; ipsec <= plaintext, equal iff free; "
             "inline >= lookaside")


def test_criterion_08_copy_cost_smallness():
    worst = 0.0
    for payload in (64, 512, 1500):
        base = BenchConfig(payload_len=payload, rate_pps=5000.0, duration_s=0.2)
        with_copy = run_echo(base)
        free_copies = replace(base.profile, copy_fixed_ns=0, copy_per_byte_ns=0.0)
        no_copy = run_echo(replace(base, profile=free_copies))
        delta = (with_copy.mean_ns - no_copy.mean_ns) / no_copy.mean_ns
        assert 0.0 < delta < 0.02, f"{payload} B payload: {delta:.2%}"
        worst = max(worst, delta)
    _pass(8, f"copy on/off mean RTT delta at most {worst:.2%} for 64-1500 B")


def test_criterion_09_statistics():
    rng = random.Random(909)
    samples = [rng.uniform(0.0, 1e6) for _ in range(10_000)]
    for q in (0.5, 0.95, 0.99, 0.999):
        assert percentile(samples, q) == rank_oracle(samples, q)

    cfg = BenchConfig(
        rate_pps=2000.0,
        duration_s=0.1,
        seed=17,
        profile=replace(CostProfile.bare(), jitter_ns=400, loss_rate=0.1),
    )
    first = emit_report(run_echo(cfg), "json")
    second = emit_report(run_echo(cfg), "json")
    assert first == second
    _pass(9, "percentiles match the sort-and-index oracle; reports byte-identical")
