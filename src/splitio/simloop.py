"""Echo rig: every benchmark packet traverses the real rings and pools.

The rig is devsim.LoopbackSystem, one event heap over virtual nanoseconds;
this module adds the send schedule, serial payloads and round-trip timing,
and run_echo_attack runs the same traffic under an adversary plan.
Costs from the profile gate WHEN each stage acts, but the stages themselves
are the production code paths: buffers come from the pools, descriptors
cross the rings, the simulated device moves the bytes, ESP protection is the
real cipher. Losing the distinction between "modeled time" and "modeled
work" is how benchmark rigs drift from the system they claim to measure;
here only time is modeled.

Each application talks to its endpoint's data path (plain, look-aside or
inline) through the same app_tx/app_rx calls. What differs by offload mode
is timing only: look-aside charges each transform to the application
worker, inline runs it on a crypto worker scheduled by "crypto" events.

Accounting choices (uniform across offload modes, so comparisons stay fair):
copy costs are charged to the application worker at the moment data enters
or leaves private use; crypto costs are charged to whichever worker runs
the transform; an emulated interrupt charges EXITS_PER_WAKE exits at each
delivery that wakes an application worker. bench.stage_costs prices each.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional

from .bench import (
    PACKET_ID_LEN,
    BenchConfig,
    LatencyStats,
    stage_costs,
    validate_config,
)
from .devsim import AdversaryPlan, AdversaryReport, LinkModel, LoopbackSystem, classify_attack
from .errors import PoolExhausted
from .ipsec import esp_paths
from .pools import PoolConfig

# unused here, but perfbench's tracer test looks both names up on this
# module to check that its patches reach by-name imports
from .ipsec import esp_encrypt  # noqa: F401
from .pools import port_new  # noqa: F401

_KEY_STREAM_TWEAK = 0x5E55_1011_C0DE_F00D  # separates key material from jitter draws


@dataclass(frozen=True)
class EchoResult:
    stats: LatencyStats
    sent: int
    received: int
    drops: int
    samples: tuple[float, ...]
    counters_a: dict
    counters_b: dict
    worker_counters_a: Optional[dict]
    worker_counters_b: Optional[dict]
    link_drops_a: int
    link_drops_b: int
    wakes: int  # application wakes; each costs EXITS_PER_WAKE exits under interrupts
    server_payloads: tuple[bytes, ...]
    client_payloads: tuple[bytes, ...]


class _EchoRig(LoopbackSystem):
    """The loopback rig priced from cfg; a plan and a canary pass through to
    it, to attack benchmark traffic."""

    def __init__(
        self,
        cfg: BenchConfig,
        plan: Optional[AdversaryPlan] = None,
        canary: Optional[bytes] = None,
    ):
        profile = cfg.profile
        link = LinkModel(
            base_latency_ns=profile.link_base_ns,
            per_byte_ns=profile.link_per_byte_ns,
            jitter_ns=profile.jitter_ns,
            jitter_seed=cfg.seed,
            loss_rate=profile.loss_rate,
        )
        super().__init__(
            PoolConfig(mbuf_count=cfg.mbuf_count),
            link,
            plan=plan,
            ring_capacity=cfg.ring_capacity,
            canary=canary,
        )
        self.cfg = cfg
        # every per-packet charge, priced once; under ESP the sim charges
        # RX copies on the wire frame (see stage_costs)
        self.costs = stage_costs(cfg, rx_on_wire=True)
        if cfg.ipsec is not None:
            self.protect_a, self.protect_b = esp_paths(
                self.port_a, self.port_b, cfg.ipsec, cfg.seed ^ _KEY_STREAM_TWEAK
            )

        self.sent_count = 0
        # serial -> send time until its echo comes back
        self.in_flight: dict[int, float] = {}
        self.samples: list[float] = []

        # body byte i of packet s is (s*131 + i) & 0xFF: a slice of this ramp
        self._body_len = cfg.payload_len - PACKET_ID_LEN
        self._ramp = bytes(range(256)) * (self._body_len // 256 + 2)

    def _payload(self, serial: int) -> bytes:
        start = (serial * 131) & 0xFF
        return serial.to_bytes(PACKET_ID_LEN, "big") + self._ramp[start : start + self._body_len]

    def _do_send(self, t: float, send: tuple[int, int]) -> None:
        conn, j = send
        if j + 1 < self._per_conn:
            self._push_send(conn, j + 1)
        serial = self.sent_count
        self.sent_count += 1
        self.in_flight[serial] = t
        try:
            buf = self.a.port.alloc_tx_buffer()
        except PoolExhausted:
            return  # counted as a drop by the sent/received difference
        buf.write_data(self._payload(serial))
        self.client_busy = max(t, self.client_busy) + self.costs.send_ns
        self._transmit(self.client_busy, buf, "a")

    def _echoed(self, data: bytes, done: float) -> None:
        sent_t = self.in_flight.pop(int.from_bytes(data[:PACKET_ID_LEN], "big"), None)
        if sent_t is None:
            return  # duplicate or corrupted serial; nothing to time
        self.samples.append(done - sent_t)

    _HANDLERS = {**LoopbackSystem._HANDLERS, "send": _do_send}

    def schedule_sends(self) -> None:
        """Push each connection's first send; each send pushes its
        connection's next, so at most one per connection is queued. Send j
        of connection conn is due at j * period + conn * stagger, with a seq
        from a range reserved here, so ties run as if all were queued now."""
        cfg = self.cfg
        self._per_conn = int(cfg.rate_pps * cfg.duration_s)
        self._first_seq = self._seq
        self._seq += cfg.connections * self._per_conn
        for conn in range(cfg.connections if self._per_conn else 0):
            self._push_send(conn, 0)

    def _push_send(self, conn: int, j: int) -> None:
        period = 1e9 / self.cfg.rate_pps
        t = j * period + conn * (period / self.cfg.connections)
        seq = self._first_seq + conn * self._per_conn + j
        heapq.heappush(self.heap, (t, seq, "send", (conn, j)))

    def run(self) -> EchoResult:
        self.schedule_sends()
        self._dispatch(math.inf, later=self.cfg.connections * max(self._per_conn - 1, 0))
        received = len(self.samples)
        drops = self.sent_count - received
        return EchoResult(
            stats=LatencyStats.from_samples(self.samples, drops=drops),
            sent=self.sent_count,
            received=received,
            drops=drops,
            samples=tuple(self.samples),
            counters_a=self.a.port.counters_snapshot(),
            counters_b=self.b.port.counters_snapshot(),
            worker_counters_a=dict(self.a.path.counters) if self.a.inline else None,
            worker_counters_b=dict(self.b.path.counters) if self.b.inline else None,
            link_drops_a=self.a.nic.drops,
            link_drops_b=self.b.nic.drops,
            wakes=self.wakes,
            server_payloads=tuple(self.delivered_b),
            client_payloads=tuple(self.delivered_a),
        )


def run_echo_sim(cfg: BenchConfig) -> EchoResult:
    return _EchoRig(cfg).run()


def run_echo_attack(
    cfg: BenchConfig, plan: AdversaryPlan, canary: Optional[bytes] = None
) -> AdversaryReport:
    """cfg's echo run with plan attacking it, each action classified as
    run_adversary classifies it. The breach scan looks for the canary and,
    under ESP, the rig's two SA keys."""
    validate_config(cfg)
    rig = _EchoRig(cfg, plan=plan, canary=canary)
    rig.run()
    secrets = [end.path.sa_out.key_bytes() for end in (rig.a, rig.b) if end.path is not None]
    # every serial the schedule sent, as EchoResult.sent counts them
    sent = [rig._payload(serial) for serial in range(rig.sent_count)]
    return classify_attack(rig, plan, sent, secrets)
