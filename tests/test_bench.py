import bisect
import gc
import hashlib
import json
import os
import random
import sys
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitio.bench import (
    CSV_HEADER,
    BenchConfig,
    CostProfile,
    LatencyStats,
    RampSchedule,
    app_cost_sweep,
    emit_report,
    load_capacity_pps,
    max_connections,
    percentile,
    run_echo,
    run_echo_result,
    run_load,
    server_service_ns,
    validate_config,
)
from splitio.devsim import AdversaryPlan, run_adversary
from splitio import simloop
from splitio.errors import (
    BadQuantile,
    ConfigInvalid,
    EmptySamples,
    EventBudgetExhausted,
    ZeroArgument,
)
from splitio.ipsec import ESP_OVERHEAD, OffloadMode, esp_frame_len, sa_keys
from splitio.mem import MemorySystem
from splitio.pools import PoolConfig

from esp_factory import lookaside_factory


def bare_cfg(**kw):
    defaults = dict(
        rate_pps=1000.0,
        duration_s=0.05,
        profile=CostProfile.bare(),
    )
    defaults.update(kw)
    return BenchConfig(**defaults)


def rank_oracle(samples, q):
    """Independent reading of the nearest-rank definition: the smallest
    sample whose cumulative count reaches q*n."""
    ordered = sorted(samples)
    n = len(ordered)
    for v in ordered:
        if bisect.bisect_right(ordered, v) >= q * n:
            return v
    return ordered[-1]


class TestPercentile:
    def test_against_oracle_on_large_sample(self):
        rng = random.Random(77)
        samples = [rng.uniform(0, 1e6) for _ in range(10_000)]
        for q in (0.5, 0.95, 0.99, 0.999, 1.0):
            assert percentile(samples, q) == rank_oracle(samples, q)

    def test_against_oracle_with_heavy_ties(self):
        rng = random.Random(78)
        samples = [float(rng.randint(0, 5)) for _ in range(1000)]
        for q in (0.25, 0.5, 0.9, 0.999):
            assert percentile(samples, q) == rank_oracle(samples, q)

    def test_small_sets(self):
        assert percentile([5.0], 0.5) == 5.0
        assert percentile([5.0], 0.999) == 5.0
        assert percentile([1.0, 2.0], 0.5) == 1.0
        assert percentile([1.0, 2.0], 0.95) == 2.0
        assert percentile([3.0, 1.0, 2.0], 1.0) == 3.0

    def test_error_cases(self):
        with pytest.raises(EmptySamples):
            percentile([], 0.5)
        for q in (0.0, -0.1, 1.0001):
            with pytest.raises(BadQuantile):
                percentile([1.0], q)

    @given(st.lists(st.floats(0, 1e9), min_size=1, max_size=200), st.floats(0.01, 1.0))
    @settings(max_examples=150)
    def test_oracle_agreement_property(self, samples, q):
        assert percentile(samples, q) == rank_oracle(samples, q)


class TestLatencyStats:
    @given(st.lists(st.floats(1, 1e9), min_size=1, max_size=300))
    @settings(max_examples=100)
    def test_invariants(self, samples):
        stats = LatencyStats.from_samples(samples, drops=3)
        assert stats.count == len(samples)
        assert stats.p50_ns <= stats.p95_ns <= stats.p99_ns <= stats.p999_ns
        # summation rounding can push the mean a few ulp outside [min, max]
        slack = 1e-9 * stats.max_ns
        assert stats.min_ns - slack <= stats.mean_ns <= stats.max_ns + slack
        assert stats.drops == 3

    def test_empty_samples(self):
        stats = LatencyStats.from_samples([], drops=7)
        assert stats.count == 0
        assert stats.mean_ns == 0.0
        assert stats.drops == 7


class TestReports:
    STATS = LatencyStats.from_samples([1000.0, 2000.0, 3000.0], drops=1)

    def test_json_schema(self):
        text = emit_report(self.STATS, "json")
        assert text.endswith("\n")
        doc = json.loads(text)
        assert list(doc) == ["count", "mean_ns", "p50_ns", "p95_ns", "p99_ns", "p999_ns", "drops"]
        assert doc["count"] == 3
        assert doc["mean_ns"] == 2000.0
        assert doc["drops"] == 1

    def test_csv_round_trips(self):
        text = emit_report(self.STATS, "csv")
        header, row, trailer = text.split("\n")
        assert header == CSV_HEADER
        assert trailer == ""
        fields = row.split(",")
        assert int(fields[0]) == 3
        assert float(fields[1]) == self.STATS.mean_ns
        assert int(fields[6]) == 1

    def test_text_format(self):
        text = emit_report(self.STATS, "text")
        assert "packets   3" in text
        assert "mean      2.000 us" in text
        assert "drops     1" in text

    def test_unknown_format(self):
        with pytest.raises(ConfigInvalid):
            emit_report(self.STATS, "xml")


class TestConnectionMath:
    def test_link_budget_examples(self):
        for rate, expect in ((100, 10_000), (200, 5_000), (500, 2_000), (1000, 1_000)):
            assert max_connections(8e9, 1000, rate) == expect

    def test_zero_arguments(self):
        for args in ((0, 1000, 100), (8e9, 0, 100), (8e9, 1000, 0)):
            with pytest.raises(ZeroArgument):
                max_connections(*args)

    def test_ramp_schedule(self):
        sched = RampSchedule(max_connections=1000)
        assert sched.step == 50
        assert sched.ramp_seconds == 20
        assert sched.total_seconds == 50
        assert sched.connections_at(0) == 50
        assert sched.connections_at(19) == 1000
        assert sched.connections_at(49) == 1000

    def test_ramp_step_never_zero(self):
        sched = RampSchedule(max_connections=3, hold_s=1)
        assert sched.step == 1
        assert [sched.connections_at(s) for s in range(sched.total_seconds)] == [1, 2, 3, 3]

    @given(st.integers(1, 100_000))
    @settings(max_examples=60)
    def test_ramp_reaches_target_monotonically(self, target):
        sched = RampSchedule(max_connections=target, hold_s=0)
        values = [sched.connections_at(s) for s in range(sched.total_seconds)]
        assert values[-1] == target
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(1 <= v <= target for v in values)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(payload_len=7),
            dict(payload_len=2040, ipsec=OffloadMode.LOOKASIDE),
            dict(rate_pps=0.0),
            dict(connections=0),
            dict(duration_s=0.0),
            dict(interrupt_exit_ns=-5),
            dict(profile=replace(CostProfile(), loss_rate=1.5)),
            dict(ring_capacity=48),
            dict(mbuf_count=4),
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ConfigInvalid):
            validate_config(BenchConfig(**kw))

    def test_defaults_valid(self):
        validate_config(BenchConfig())

    @pytest.mark.parametrize("mode", [OffloadMode.LOOKASIDE, OffloadMode.INLINE])
    def test_esp_payload_limit_is_room_minus_overhead(self, mode):
        limit = PoolConfig().data_room - ESP_OVERHEAD
        at_limit = BenchConfig(payload_len=limit, ipsec=mode, rate_pps=1000.0, duration_s=0.002)
        validate_config(at_limit)
        assert run_echo_result(at_limit).received == 2
        with pytest.raises(ConfigInvalid, match=f"the {limit} B limit"):
            validate_config(replace(at_limit, payload_len=limit + 1))

    @pytest.mark.parametrize("rate, duration", [(0.5, 1.0), (1000.0, 0.0005), (9.0, 0.1)])
    def test_run_sending_no_packet_rejected(self, rate, duration):
        with pytest.raises(ConfigInvalid, match="sends no packet"):
            validate_config(BenchConfig(rate_pps=rate, duration_s=duration))

    def test_one_packet_per_connection_accepted(self):
        validate_config(BenchConfig(rate_pps=0.5, duration_s=2.0))


class TestServiceModel:
    def test_service_formula_from_first_principles(self):
        cfg = BenchConfig(payload_len=128)
        p = cfg.profile
        copy = p.copy_fixed_ns + p.copy_per_byte_ns * 128
        assert server_service_ns(cfg) == p.server_fixed_ns + 2 * copy
        free_copies = replace(p, copy_fixed_ns=0, copy_per_byte_ns=0.0)
        assert server_service_ns(replace(cfg, profile=free_copies)) == p.server_fixed_ns
        k = p.crypto_fixed_ns + p.crypto_per_byte_ns * esp_frame_len(128)
        look = replace(cfg, ipsec=OffloadMode.LOOKASIDE)
        assert server_service_ns(look) == p.server_fixed_ns + 2 * copy + 2 * k
        inline = replace(look, ipsec=OffloadMode.INLINE)
        assert server_service_ns(inline) == max(p.server_fixed_ns + 2 * copy, 2 * k)

    def test_ipsec_capacity_never_exceeds_plaintext(self):
        plain = BenchConfig(payload_len=1000)
        ipsec = replace(plain, ipsec=OffloadMode.LOOKASIDE)
        assert load_capacity_pps(ipsec) < load_capacity_pps(plain)

    def test_ipsec_matches_plaintext_only_at_zero_crypto_cost(self):
        profile = replace(
            CostProfile(), crypto_fixed_ns=0, crypto_per_byte_ns=0.0
        )
        plain = BenchConfig(payload_len=1000, profile=profile, bandwidth_bps=float("inf"))
        ipsec = replace(plain, ipsec=OffloadMode.LOOKASIDE)
        assert load_capacity_pps(ipsec) == load_capacity_pps(plain)
        costly = replace(ipsec, profile=replace(profile, crypto_fixed_ns=600))
        assert load_capacity_pps(costly) < load_capacity_pps(plain)

    def test_app_cost_sweep_against_formula(self):
        costs = [500.0, 1000.0, 2000.0, 4000.0, 8000.0]
        k = 1500.0
        sweep = app_cost_sweep(costs, k, rate_pps=1000.0)
        expect_look = [int(1e9 / (c + 2 * k) // 1000) for c in costs]
        expect_inline = [int(1e9 / max(c, 2 * k) // 1000) for c in costs]
        assert sweep[OffloadMode.LOOKASIDE] == expect_look == [285, 250, 200, 142, 90]
        assert sweep[OffloadMode.INLINE] == expect_inline == [333, 333, 333, 250, 125]

    def test_inline_never_below_lookaside(self):
        costs = [300.0, 900.0, 2700.0, 8100.0]
        for k in (0.0, 451.0, 1350.0, 4000.0):
            sweep = app_cost_sweep(costs, k)
            pairs = zip(sweep[OffloadMode.LOOKASIDE], sweep[OffloadMode.INLINE])
            assert all(look <= inline for look, inline in pairs)
            if k == 0.0:
                assert sweep[OffloadMode.LOOKASIDE] == sweep[OffloadMode.INLINE]
            else:
                assert sweep[OffloadMode.LOOKASIDE] != sweep[OffloadMode.INLINE]

    def test_sweep_argument_validation(self):
        with pytest.raises(ZeroArgument):
            app_cost_sweep([1000.0], 100.0, rate_pps=0.0)
        with pytest.raises(ZeroArgument):
            app_cost_sweep([0.0], 100.0)
        with pytest.raises(ZeroArgument):
            app_cost_sweep([1000.0], -1.0)


def _quarter_means(samples):
    q = len(samples) // 4
    return sum(samples[:q]) / q, sum(samples[-q:]) / q


_DEFAULT_ROWS = [
    pytest.param(mode, payload_len, CostProfile(), id=f"{mode.value if mode else 'plain'}_{payload_len}")
    for mode in (None, OffloadMode.LOOKASIDE, OffloadMode.INLINE)
    for payload_len in (128, 1400)
]
_CRYPTO_BOUND_ROW = pytest.param(
    OffloadMode.INLINE,
    1400,
    replace(CostProfile(), crypto_per_byte_ns=10.0),
    id="inline_1400_crypto_bound",
    marks=pytest.mark.xfail(
        strict=True,
        reason="early release (CHANGES.md FOUND line on simloop._do_crypto): CryptoWorker.step "
        "transmits before crypto_busy covers its AES time, so the sim outruns a crypto-bound "
        "capacity",
    ),
)


class TestModelCrossCheck:
    """The fluid model and the event sim price every stage with the same
    stage_costs; here the sim's dynamics must bear the fluid capacity out.
    Twenty staggered connections offer a fixed fraction of the capacity."""

    CONNECTIONS = 20
    PER_CONNECTION = 20

    def _run(self, mode, payload_len, profile, load):
        base = BenchConfig(payload_len=payload_len, ipsec=mode, profile=profile)
        capacity = load_capacity_pps(base)
        rate = load * capacity / self.CONNECTIONS
        cfg = replace(
            base,
            connections=self.CONNECTIONS,
            rate_pps=rate,
            duration_s=(self.PER_CONNECTION + 0.5) / rate,
        )
        rig = simloop._EchoRig(cfg)
        marks = []  # (completion time, echoes completed) after each client wake
        client = rig._HANDLERS["client"]

        def recording(echo, t, arg):
            before = len(echo.samples)
            client(echo, t, arg)
            if len(echo.samples) > before:
                marks.append((echo.client_busy, len(echo.samples)))

        rig._HANDLERS = {**rig._HANDLERS, "client": recording}
        return capacity, rig.run(), marks

    @pytest.mark.parametrize("mode, payload_len, profile", [*_DEFAULT_ROWS, _CRYPTO_BOUND_ROW])
    def test_overload_is_served_at_fluid_capacity(self, mode, payload_len, profile):
        capacity, result, marks = self._run(mode, payload_len, profile, 1.05)
        assert result.drops == 0
        # the middle half of the completions, when the bottleneck never idles
        (t1, n1), (t2, n2) = marks[len(marks) // 4], marks[3 * len(marks) // 4]
        assert (n2 - n1) * 1e9 / (t2 - t1) == pytest.approx(capacity, rel=0.005)
        # the backlog shows in the round trips, so the flatness check below
        # would see an overload
        first, last = _quarter_means(result.samples)
        assert last > 1.5 * first

    @pytest.mark.parametrize("mode, payload_len, profile", _DEFAULT_ROWS)
    def test_underload_is_drop_free_and_flat(self, mode, payload_len, profile):
        _, result, _ = self._run(mode, payload_len, profile, 0.95)
        assert result.drops == 0
        first, last = _quarter_means(result.samples)
        assert last == pytest.approx(first, rel=0.01)


class TestEchoClosedForm:
    def test_polling_round_trip_is_two_link_delays(self):
        stats = run_echo(bare_cfg())
        assert stats.count == 50
        assert stats.drops == 0
        for value in (stats.mean_ns, stats.p50_ns, stats.p95_ns, stats.p99_ns, stats.p999_ns):
            assert value == 2000.0

    def test_interrupt_adds_exit_cost_per_wake(self):
        cfg = bare_cfg(interrupt_exit_ns=500)
        result = run_echo_result(cfg)
        # one wake on each side of the round trip, two exits per wake
        assert result.stats.mean_ns == 2000.0 + 2 * 2 * 500
        assert len(result.exit_events) == 2 * result.received
        assert all(exits == 2 for _, _, exits in result.exit_events)

    @pytest.mark.parametrize("mode", [None, OffloadMode.LOOKASIDE, OffloadMode.INLINE])
    def test_one_wake_per_delivery_in_every_mode(self, mode):
        # 20 connections keep the inline worker busy, so some crypto steps
        # open nothing while earlier frames still wait for the application
        cfg = BenchConfig(duration_s=0.005, connections=20, interrupt_exit_ns=2000, ipsec=mode)
        result = run_echo_result(cfg)
        assert result.received > 0
        assert len(result.exit_events) == 2 * result.received
        assert all(exits == 2 for _, _, exits in result.exit_events)

    def test_polling_beats_interrupt_at_every_percentile(self):
        base = BenchConfig(rate_pps=2000.0, duration_s=0.2, seed=3)
        poll = run_echo(replace(base, interrupt_exit_ns=None))
        intr = run_echo(replace(base, interrupt_exit_ns=2000))
        for stat in ("mean_ns", "p50_ns", "p95_ns", "p99_ns", "p999_ns"):
            assert getattr(poll, stat) < getattr(intr, stat)

    def test_connections_multiply_traffic(self):
        stats = run_echo(bare_cfg(connections=4))
        assert stats.count == 200


class TestEventBudget:
    def test_spent_budget_with_work_queued_raises(self):
        cfg = bare_cfg(duration_s=0.01)
        rig = simloop._EchoRig(cfg)
        # a send that schedules itself again never lets the heap drain
        def resend(self, t, arg):
            self.push(t + 1.0, "send", arg)

        rig._HANDLERS = {**rig._HANDLERS, "send": resend}
        with pytest.raises(EventBudgetExhausted):
            rig.run()

    def test_draining_run_completes(self):
        result = run_echo_result(bare_cfg(duration_s=0.01))
        assert result.sent == result.received == 10


class TestRigLifetime:
    """A run's rig holds no reference cycle, so its arenas are freed by
    reference counting when the run returns, not at some later cyclic
    collection. The collector stays off while each run executes."""

    @pytest.fixture
    def built(self, monkeypatch):
        systems = []
        init = MemorySystem.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            systems.append(weakref.ref(self))

        monkeypatch.setattr(MemorySystem, "__init__", recording)
        gc.collect()
        gc.disable()
        try:
            yield systems
        finally:
            gc.enable()

    @pytest.mark.parametrize("mode", [None, OffloadMode.LOOKASIDE, OffloadMode.INLINE])
    def test_echo_run_frees_its_rig(self, built, mode):
        result = run_echo_result(BenchConfig(duration_s=0.01, ipsec=mode))
        assert result.received == 50
        assert len(built) == 2
        assert [ref() for ref in built] == [None, None]

    @pytest.mark.parametrize("protected", [False, True])
    def test_adversary_run_frees_its_rig(self, built, protected):
        factory = lookaside_factory(5)[0] if protected else None
        plan = AdversaryPlan.parse(
            "forge_writeback target=a when=0 slot=1 length=64\n"
            "replay_descriptor target=b when=2000 slot=1"
        )
        report = run_adversary(plan, protect_factory=factory)
        assert report.breach is False
        assert len(built) == 2
        assert [ref() for ref in built] == [None, None]

    @pytest.mark.parametrize("mode", [None, OffloadMode.LOOKASIDE, OffloadMode.INLINE])
    def test_attacked_echo_run_frees_its_rig(self, built, mode):
        plan = AdversaryPlan.parse(
            "forge_writeback target=a when=0 slot=1 length=64\n"
            "replay_descriptor target=b when=2000 slot=1"
        )
        report = simloop.run_echo_attack(
            BenchConfig(duration_s=0.01, ipsec=mode), plan, canary=b"\xc3\x96" * 8
        )
        assert report.breach is False
        assert len(report.sent) == 50
        assert len(built) == 2
        assert [ref() for ref in built] == [None, None]


class TestCallBudget:
    """Python calls per plain echo round trip stay within budget, so
    per-packet work cannot creep back unnoticed."""

    CEILING = 420

    @staticmethod
    def _calls(duration_s):
        """Calls made in splitio code ("call" and "c_call" events) over
        one plain echo run, with the round trips it completed."""
        package = os.path.dirname(simloop.__file__) + os.sep
        n = 0

        def count(frame, event, arg):
            nonlocal n
            if event in ("call", "c_call") and frame.f_code.co_filename.startswith(package):
                n += 1

        cfg = BenchConfig(duration_s=duration_s, seed=1)
        # a cyclic collection inside the window would run finalizers of
        # other tests' garbage and count their calls too
        gc.collect()
        gc.disable()
        sys.setprofile(count)
        try:
            result = simloop.run_echo_sim(cfg)
        finally:
            sys.setprofile(None)
            gc.enable()
        return n, result.received

    def test_calls_per_round_trip(self):
        # the difference of two runs cancels construction and teardown
        calls_d, trips_d = self._calls(0.02)
        calls_2d, trips_2d = self._calls(0.04)
        assert trips_2d > trips_d > 0
        per_trip = (calls_2d - calls_d) / (trips_2d - trips_d)
        assert per_trip <= self.CEILING


class TestDeterminism:
    LOSSY = dict(
        rate_pps=2000.0,
        duration_s=0.1,
        seed=9,
        profile=replace(CostProfile.bare(), jitter_ns=300, loss_rate=0.15),
    )

    def test_identical_runs_identical_reports(self):
        a = run_echo_result(bare_cfg(**self.LOSSY))
        b = run_echo_result(bare_cfg(**self.LOSSY))
        assert a.samples == b.samples
        assert a.drops == b.drops
        assert emit_report(a.stats, "json") == emit_report(b.stats, "json")
        assert emit_report(a.stats, "csv") == emit_report(b.stats, "csv")

    def test_seed_changes_the_run(self):
        kw = dict(self.LOSSY)
        a = run_echo_result(bare_cfg(**kw))
        kw["seed"] = 10
        b = run_echo_result(bare_cfg(**kw))
        assert a.samples != b.samples

    def test_loss_replays_from_independent_stream(self):
        result = run_echo_result(bare_cfg(**self.LOSSY))

        def walk(seed, count, loss_rate, jitter_ns):
            state = seed & 0xFFFFFFFFFFFFFFFF
            threshold = int(loss_rate * 2.0**64)

            def u64():
                nonlocal state
                state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
                z = state
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
                return z ^ (z >> 31)

            lost = 0
            for _ in range(count):
                u64()  # jitter draw always precedes the loss draw
                if u64() < threshold:
                    lost += 1
            return lost

        lost_a = walk(9, result.sent, 0.15, 300)
        assert result.link_drops_a == lost_a
        lost_b = walk(9, result.sent - lost_a, 0.15, 300)
        assert result.link_drops_b == lost_b
        assert result.drops == lost_a + lost_b
        assert result.received == result.sent - result.drops


class TestCopyCost:
    @pytest.mark.parametrize("payload", [64, 512, 1500])
    def test_single_copy_overhead_under_two_percent(self, payload):
        base = BenchConfig(payload_len=payload, rate_pps=5000.0, duration_s=0.2)
        with_copy = run_echo(base)
        free_copies = replace(base.profile, copy_fixed_ns=0, copy_per_byte_ns=0.0)
        no_copy = run_echo(replace(base, profile=free_copies))
        assert no_copy.mean_ns < with_copy.mean_ns
        delta = (with_copy.mean_ns - no_copy.mean_ns) / no_copy.mean_ns
        assert delta < 0.02, f"copy overhead {delta:.2%} at {payload} B"


class TestIpsecEcho:
    def test_offload_modes_deliver_identical_payload_multisets(self):
        base = bare_cfg(payload_len=96)
        look = run_echo_result(replace(base, ipsec=OffloadMode.LOOKASIDE))
        inline = run_echo_result(replace(base, ipsec=OffloadMode.INLINE))
        assert look.received == inline.received == 50
        assert sorted(look.server_payloads) == sorted(inline.server_payloads)
        assert sorted(look.client_payloads) == sorted(inline.client_payloads)

    def test_lookaside_aes_on_app_worker_inline_on_crypto_worker(self):
        base = bare_cfg(payload_len=96)
        look = run_echo_result(replace(base, ipsec=OffloadMode.LOOKASIDE))
        inline = run_echo_result(replace(base, ipsec=OffloadMode.INLINE))
        assert look.counters_a["aes_ops"] > 0
        assert look.worker_counters_a is None
        assert inline.counters_a["aes_ops"] == 0
        assert inline.worker_counters_a["aes_ops"] == 2 * inline.received

    def test_ipsec_echo_slower_than_plaintext(self):
        profile = CostProfile(link_base_ns=30_000)
        plain = run_echo(BenchConfig(rate_pps=2000.0, duration_s=0.1, profile=profile))
        sealed = run_echo(
            BenchConfig(
                ipsec=OffloadMode.LOOKASIDE,
                rate_pps=2000.0,
                duration_s=0.1,
                profile=profile,
            )
        )
        assert sealed.mean_ns > plain.mean_ns

    @pytest.mark.parametrize("key_index", [0, 2])  # key_ab, key_ba
    @pytest.mark.parametrize("mode", [None, OffloadMode.LOOKASIDE, OffloadMode.INLINE])
    def test_attack_breach_scan_looks_for_the_rig_keys(self, mode, key_index):
        # taken from the key stream, not read off the rig's SAs as the scan
        # reads them, so a scan reading the wrong keys cannot pass
        key = sa_keys(4 ^ simloop._KEY_STREAM_TWEAK)[key_index]
        # offset 2226276 lies in data room 1023 of b's shared arena, which
        # a 50-packet run never uses, so the planted key stays there
        plan = AdversaryPlan.parse(
            f"tamper_shared target=b when=0 region=1 offset=2226276 data={key.hex()}"
        )
        report = simloop.run_echo_attack(BenchConfig(duration_s=0.01, seed=4, ipsec=mode), plan)
        assert report.breach is (mode is not None)


class TestLoadRuns:
    def test_link_bound_run_saturates_exactly(self):
        cfg = BenchConfig(
            payload_len=1000,
            rate_pps=1000.0,
            connections=1000,
            profile=CostProfile.bare(),
        )
        report = run_load(cfg)
        assert report.achieved_bps == 8.0e9
        assert report.loss_onset_connections is None
        assert report.clamped_from is None
        assert all(s.dropped_pps == 0.0 for s in report.seconds)

    def test_overcommitted_connections_clamped(self):
        cfg = BenchConfig(
            payload_len=1000,
            rate_pps=1000.0,
            connections=1100,
            profile=CostProfile.bare(),
        )
        report = run_load(cfg)
        assert report.clamped_from == 1100
        assert max(s.connections for s in report.seconds) == 1000

    def test_loss_onset_at_capacity_crossing(self):
        # a 4 Gbit/s link carries 500,000 pps of 1000 B; the schedule is
        # explicit because the link would clamp 1000 connections to 500
        cfg = BenchConfig(
            payload_len=1000,
            rate_pps=1000.0,
            connections=1000,
            bandwidth_bps=4e9,
            profile=CostProfile.bare(),
        )
        report = run_load(cfg, schedule=RampSchedule(max_connections=1000))
        assert report.capacity_pps == 500_000.0
        assert report.loss_onset_connections == 550
        assert report.loss_onset_second == 10
        assert report.achieved_bps == 500_000.0 * 1000 * 8

    def test_below_capacity_no_loss(self):
        cfg = BenchConfig(
            payload_len=1000,
            rate_pps=100.0,
            connections=10,
            profile=CostProfile.bare(),
        )
        report = run_load(cfg)
        assert report.loss_onset_connections is None
        assert all(s.dropped_pps == 0.0 for s in report.seconds)

    def test_custom_schedule_sets_duration(self):
        cfg = BenchConfig(payload_len=1000, rate_pps=100.0)
        sched = RampSchedule(max_connections=10, hold_s=2)
        report = run_load(cfg, schedule=sched)
        assert len(report.seconds) == sched.ramp_seconds + 2

    def test_report_dict_shape(self):
        cfg = BenchConfig(rate_pps=100.0, connections=2)
        doc = run_load(cfg).to_dict()
        # key order is pinned: `load --format json` prints the keys in this order
        assert list(doc) == [
            "achieved_bps",
            "capacity_pps",
            "loss_onset_connections",
            "loss_onset_second",
            "clamped_from",
            "seconds",
        ]
        assert list(doc["seconds"][0]) == [
            "second",
            "connections",
            "offered_pps",
            "delivered_pps",
            "dropped_pps",
        ]
        assert doc["seconds"][0]["second"] == 0


def _echo_digest(result) -> str:
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
        result.server_payloads,
        result.client_payloads,
    )
    return hashlib.sha256(repr(record).encode()).hexdigest()


class TestGoldenDigests:
    """Seeded outputs pinned byte for byte. A change that only makes the
    model faster must leave every one of these unchanged; a change that
    means to move a modeled number updates the digest and says why."""

    JITTER = replace(CostProfile(), jitter_ns=10_000)
    CONFIGS = {
        "plain_128": BenchConfig(duration_s=0.05, seed=11, profile=JITTER),
        "lookaside_128": BenchConfig(
            duration_s=0.05, seed=12, profile=JITTER, ipsec=OffloadMode.LOOKASIDE
        ),
        "inline_128": BenchConfig(
            duration_s=0.05, seed=13, profile=JITTER, ipsec=OffloadMode.INLINE
        ),
        "plain_1500": BenchConfig(payload_len=1500, duration_s=0.05, seed=14, profile=JITTER),
        "overload_50": BenchConfig(connections=50, mbuf_count=256, duration_s=0.004, seed=15),
    }
    DIGESTS = {
        "plain_128": "16534b51f2722db2c35b4596061790e72a0c26dcff89a11a9cc3abd75f5775d4",
        "lookaside_128": "bc367ceb8937e2ab4dead59282c16e117cfe7044a2ded3771a356764eadd62ce",
        "inline_128": "555732cabba77dc41ff41931a122d879fee7d00844df5ac8745ac8640a1313b0",
        "plain_1500": "1c106a2509897680f27ee90f791bf810ab0f2d119e3faad250531c579ac759bc",
        "overload_50": "8b46e9ff6a911198090b7d531ce632ab10b0c70d7d08b5fc624d58d2e352cd43",
    }
    CAMPAIGN_DIGEST = "e201446448aad97d40a25c0caa6d57cca21d4245a383a6de4828f3f123ca2d11"

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_echo_digest(self, name):
        assert _echo_digest(run_echo_result(self.CONFIGS[name])) == self.DIGESTS[name]

    def test_campaign_digest(self):
        from test_security import CANARY, protect_factory_for, random_plan

        rng = random.Random(0x5EC0)
        h = hashlib.sha256()
        for i in range(60):
            plan, _ = random_plan(rng)
            factory = secrets = None
            if i % 2 == 1:
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
            h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
        assert h.hexdigest() == self.CAMPAIGN_DIGEST
