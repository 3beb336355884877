"""Echo rig: every benchmark packet traverses the real rings and pools.

Deterministic mode runs a single event heap over virtual nanoseconds. Costs
from the profile gate WHEN each stage acts, but the stages themselves are
the production code paths: buffers come from the pools, descriptors cross
the rings, the simulated device moves the bytes, ESP protection is the real
cipher. Losing the distinction between "modeled time" and "modeled work" is
how benchmark rigs drift from the system they claim to measure; here only
time is modeled.

Both endpoints come from devsim.endpoint_pair, and each application talks
to its endpoint's data path (plain, look-aside or inline) through the same
app_tx/app_rx calls. What differs by offload mode is timing only: look-aside
charges each transform to the application worker, inline runs it on a
crypto worker scheduled by "crypto" events.

Accounting choices (uniform across offload modes, so comparisons stay fair):
copy costs are charged to the application worker at the moment data enters
or leaves private use; crypto costs are charged to whichever worker runs
the transform; an emulated interrupt charges exits_per_packet exits at each
delivery that wakes an application worker.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from .bench import (
    PACKET_ID_LEN,
    BenchConfig,
    CopyModel,
    LatencyStats,
    NotificationMode,
    Workload,
)
from .devsim import LinkModel, endpoint_pair
from .errors import EventBudgetExhausted, PoolExhausted
from .ipsec import OffloadMode, PortProtect, esp_frame_len, esp_sa_pairs, inline_attach
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
    exit_events: tuple[tuple[str, float, int], ...]
    server_payloads: tuple[bytes, ...]
    client_payloads: tuple[bytes, ...]


class _EchoRig:
    def __init__(self, cfg: BenchConfig):
        self.cfg = cfg
        self.profile = profile = cfg.profile
        self.mode = mode = cfg.effective_ipsec()
        link = LinkModel(
            base_latency_ns=profile.link_base_ns,
            per_byte_ns=profile.link_per_byte_ns,
            jitter_ns=profile.jitter_ns,
            jitter_seed=cfg.seed,
            loss_rate=profile.loss_rate,
        )
        self.a, self.b = endpoint_pair(PoolConfig(mbuf_count=cfg.mbuf_count), link, cfg.ring_capacity)

        k_len = esp_frame_len(cfg.payload_len) if mode is not None else cfg.payload_len
        self.k_ns = profile.crypto_cost_ns(k_len)
        self.inline = mode is OffloadMode.INLINE
        # crypto time the application worker itself pays per transform
        self.app_k_ns = self.k_ns if mode is OffloadMode.LOOKASIDE else 0.0
        # RX copies are charged on the wire frame, except the inline
        # client's, which is charged on the decrypted length
        self.server_wire = mode is not None
        self.client_wire = mode is OffloadMode.LOOKASIDE
        # the config's enum tests, made once: the handlers below run per
        # packet (see the note on enum member reads in mem.py)
        self.single_copy = cfg.copy_model is CopyModel.SINGLE_COPY
        self.interrupts = cfg.notification.mode is NotificationMode.EMULATED_INTERRUPT
        self.chained = cfg.workload is Workload.TCP_LIKE_LOAD
        if mode is not None:
            pairs = esp_sa_pairs(self.a.mem, self.b.mem, cfg.seed ^ _KEY_STREAM_TWEAK)
            for end, (sa_out, sa_in) in zip((self.a, self.b), pairs):
                if self.inline:
                    end.use(inline_attach(end.port, sa_in, sa_out))
                else:
                    end.use(PortProtect(end.port, sa_out, sa_in))

        self.heap: list[tuple[float, int, str, object]] = []
        self._seq = 0
        self._pushed_polls: set[tuple[str, float]] = set()
        self._delivered_seen = {"a": 0, "b": 0}

        self.client_busy = 0.0
        self.server_busy = 0.0
        self.crypto_busy = {"a": 0.0, "b": 0.0}

        self.sent_count = 0
        self.sent_at: dict[int, float] = {}
        self.msg_of: dict[int, tuple[int, int]] = {}
        self.samples: list[float] = []
        self.exit_events: list[tuple[str, float, int]] = []
        self.server_payloads: list[bytes] = []
        self.client_payloads: list[bytes] = []

        # body byte i of packet s is (s*131 + i) & 0xFF: a slice of this ramp
        self._body_len = cfg.payload_len - PACKET_ID_LEN
        self._ramp = bytes(range(256)) * (self._body_len // 256 + 2)

    # -- event plumbing ----------------------------------------------------

    def push(self, t: float, kind: str, arg: object = None) -> None:
        heapq.heappush(self.heap, (t, self._seq, kind, arg))
        self._seq += 1

    def push_nic(self, side: str, t: float) -> None:
        key = (side, t)
        if key in self._pushed_polls:
            return
        self._pushed_polls.add(key)
        self.push(t, "nic", side)

    def _copy_cost(self, length: int) -> float:
        if self.single_copy:
            return self.profile.copy_cost_ns(length)
        return 0.0

    def _wake_cost(self) -> float:
        if self.interrupts:
            return self.cfg.exits_per_packet * self.cfg.notification.exit_cost_ns
        return 0.0

    def _record_wake(self, side: str, t: float) -> None:
        if self.interrupts:
            self.exit_events.append((side, t, self.cfg.exits_per_packet))

    def _payload(self, serial: int) -> bytes:
        start = (serial * 131) & 0xFF
        return serial.to_bytes(PACKET_ID_LEN, "big") + self._ramp[start : start + self._body_len]

    # -- client send side --------------------------------------------------

    def _do_send(self, t: float, arg: object) -> None:
        conn, msg_idx = arg  # type: ignore[misc]
        serial = self.sent_count
        self.sent_count += 1
        self.sent_at[serial] = t
        self.msg_of[serial] = (conn, msg_idx)
        payload = self._payload(serial)
        a = self.a
        try:
            buf = a.port.alloc_tx_buffer()
        except PoolExhausted:
            return  # counted as a drop by the sent/received difference
        buf.write_data(payload)
        cost = self._copy_cost(len(payload)) + self.app_k_ns
        ready = max(t, self.client_busy) + cost
        self.client_busy = ready
        if a.app_tx([buf]) == 0:
            a.port.free_buffer(buf)
            return
        if self.inline:
            self.push(ready, "crypto", "a")
        else:
            self.push_nic("a", ready)

    # -- device polls ------------------------------------------------------

    def _do_nic(self, t: float, arg: object) -> None:
        side = arg
        # this poll is now spent; work posted at the same instant after it
        # ran must be able to schedule a fresh one
        self._pushed_polls.discard((side, t))
        nic = self.a.nic if side == "a" else self.b.nic
        peer = self.b.nic if side == "a" else self.a.nic
        nic.step(t)
        arrival = peer.next_arrival()
        if arrival is not None:
            self.push_nic("b" if side == "a" else "a", float(arrival))
        own_next = nic.next_arrival()
        if own_next is not None:
            self.push_nic(side, float(own_next))
        delivered = nic.delivered
        if delivered > self._delivered_seen[side]:
            self._delivered_seen[side] = delivered
            if self.inline:
                # the crypto worker polls its rings; the app pays exits later
                self.push(t, "crypto", side)
            else:
                wake = t + self._wake_cost()
                self._record_wake(side, wake)
                self.push(wake, "server" if side == "b" else "client", None)

    # -- crypto worker (inline mode) ---------------------------------------

    def _do_crypto(self, t: float, arg: object) -> None:
        side = arg
        worker = (self.a if side == "a" else self.b).path
        before = worker.counters["aes_ops"]
        worker.step(batch_max=64)
        ops = worker.counters["aes_ops"] - before
        start = max(t, self.crypto_busy[side])
        end = start + ops * self.k_ns
        self.crypto_busy[side] = end
        if worker.plain_out:
            wake = end + self._wake_cost()
            self._record_wake(side, wake)
            self.push(wake, "server" if side == "b" else "client", None)
        if worker.cipher_in or worker.plain_in:
            self.push(end, "crypto", side)
        # anything the step pushed out through tx_burst departs once paid for
        self.push_nic(side, end)

    # -- server (echo) side ------------------------------------------------

    def _do_server(self, t: float, arg: object) -> None:
        app_rx = self.b.app_rx
        while True:
            bufs = app_rx(64)
            if not bufs:
                return
            for buf in bufs:
                data = buf.read_data()
                length = len(data)
                wire = esp_frame_len(length) if self.server_wire else length
                start = max(t, self.server_busy)
                svc = float(self.profile.server_fixed_ns)
                svc += self._copy_cost(wire) + self._copy_cost(length)
                svc += 2 * self.app_k_ns  # decrypt already done, encrypt deferred
                self.server_busy = start + svc
                self.server_payloads.append(data)
                self.push(self.server_busy, "tx_b", buf)

    def _do_tx_b(self, t: float, arg: object) -> None:
        buf, b = arg, self.b
        if b.app_tx([buf]) == 0:
            b.port.free_buffer(buf)
            return
        if self.inline:
            self.push(t, "crypto", "b")
        else:
            self.push_nic("b", t)

    # -- client receive side -----------------------------------------------

    def _do_client(self, t: float, arg: object) -> None:
        app_rx = self.a.app_rx
        free = self.a.port.free_buffer
        while True:
            bufs = app_rx(64)
            if not bufs:
                return
            for buf in bufs:
                data = buf.read_data()
                length = esp_frame_len(len(data)) if self.client_wire else len(data)
                done = max(t, self.client_busy) + (self._copy_cost(length) + self.app_k_ns)
                self.client_busy = done
                self.client_payloads.append(data)
                serial = int.from_bytes(data[:PACKET_ID_LEN], "big")
                sent_t = self.sent_at.pop(serial, None)
                free(buf)
                if sent_t is None:
                    continue  # duplicate or corrupted serial; nothing to time
                self.samples.append(done - sent_t)
                conn, msg_idx = self.msg_of[serial]
                if self.chained and msg_idx < 2:
                    self.push(done, "send", (conn, msg_idx + 1))

    # -- the run ------------------------------------------------------------

    _HANDLERS = {
        "send": _do_send,
        "nic": _do_nic,
        "crypto": _do_crypto,
        "server": _do_server,
        "tx_b": _do_tx_b,
        "client": _do_client,
    }

    def schedule_sends(self) -> None:
        cfg = self.cfg
        if self.chained:
            # each connection runs one 3-message exchange, then closes
            spacing = cfg.duration_s * 1e9 / cfg.connections
            for conn in range(cfg.connections):
                self.push(conn * spacing, "send", (conn, 0))
            return
        period = 1e9 / cfg.rate_pps
        per_conn = int(cfg.rate_pps * cfg.duration_s)
        stagger = period / cfg.connections
        for conn in range(cfg.connections):
            for j in range(per_conn):
                self.push(j * period + conn * stagger, "send", (conn, j))

    def run(self) -> EchoResult:
        self.schedule_sends()
        # safety valve against scheduling bugs, not a modeled limit; the
        # chained workload adds up to two follow-on sends per initial one
        budget = 10_000 + len(self.heap) * 150
        handlers = self._HANDLERS
        while self.heap:
            if not budget:
                raise EventBudgetExhausted(
                    f"event budget spent with {len(self.heap)} events still queued"
                )
            budget -= 1
            t, _, kind, arg = heapq.heappop(self.heap)
            handlers[kind](self, t, arg)

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
            worker_counters_a=dict(self.a.path.counters) if self.inline else None,
            worker_counters_b=dict(self.b.path.counters) if self.inline else None,
            link_drops_a=self.a.nic.drops,
            link_drops_b=self.b.nic.drops,
            exit_events=tuple(self.exit_events),
            server_payloads=tuple(self.server_payloads),
            client_payloads=tuple(self.client_payloads),
        )



def run_echo_sim(cfg: BenchConfig) -> EchoResult:
    return _EchoRig(cfg).run()
