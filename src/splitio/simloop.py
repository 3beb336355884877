"""Echo rig: every benchmark packet traverses the real rings and pools.

Deterministic mode runs a single event heap over virtual nanoseconds. Costs
from the profile gate WHEN each stage acts, but the stages themselves are
the production code paths: buffers come from the pools, descriptors cross
the rings, the simulated device moves the bytes, ESP protection is the real
cipher. Losing the distinction between "modeled time" and "modeled work" is
how benchmark rigs drift from the system they claim to measure; here only
time is modeled.

Accounting choices (uniform across offload modes, so comparisons stay fair):
copy costs are charged to the application worker at the moment data enters
or leaves private use; crypto costs are charged to whichever worker runs
the transform; an emulated interrupt charges exits_per_packet exits at each
delivery that wakes an application worker.
"""

from __future__ import annotations

import heapq
import threading
import time
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
from .devsim import LinkModel, SimNic
from .errors import AuthFail, ConfigInvalid, EventBudgetExhausted, Malformed, PoolExhausted
from .ipsec import (
    OffloadMode,
    SaDirection,
    SecurityAssociation,
    esp_decrypt,
    esp_encrypt,
    esp_frame_len,
    inline_attach,
)
from .mem import MemorySystem
from .pools import PoolConfig, port_new
from .prng import Splitmix64

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
        self.profile = cfg.profile
        self.mode = cfg.effective_ipsec()
        pool_cfg = PoolConfig(mbuf_count=cfg.mbuf_count)

        self.mem_a = MemorySystem()
        self.mem_b = MemorySystem()
        self.port_a = port_new(self.mem_a, pool_cfg, ring_capacity=cfg.ring_capacity)
        self.port_b = port_new(self.mem_b, pool_cfg, ring_capacity=cfg.ring_capacity)
        link = LinkModel(
            base_latency_ns=self.profile.link_base_ns,
            per_byte_ns=self.profile.link_per_byte_ns,
            jitter_ns=self.profile.jitter_ns,
            jitter_seed=cfg.seed,
            loss_rate=self.profile.loss_rate,
        )
        self.nic_a = SimNic("a", self.mem_a, self.port_a, link)
        self.nic_b = SimNic("b", self.mem_b, self.port_b, link)
        self.nic_a.connect(self.nic_b)
        self.nic_b.connect(self.nic_a)

        self.worker_a = self.worker_b = None
        if self.mode is not None:
            ks = Splitmix64(cfg.seed ^ _KEY_STREAM_TWEAK)

            def take(n: int) -> bytes:
                out = b""
                while len(out) < n:
                    out += ks.next_u64().to_bytes(8, "big")
                return out[:n]

            key_ab, salt_ab = take(16), take(4)
            key_ba, salt_ba = take(16), take(4)
            self.sa_a_out = SecurityAssociation(
                self.mem_a, 0x1001, key_ab, salt_ab, SaDirection.OUTBOUND
            )
            self.sa_b_in = SecurityAssociation(
                self.mem_b, 0x1001, key_ab, salt_ab, SaDirection.INBOUND
            )
            self.sa_b_out = SecurityAssociation(
                self.mem_b, 0x2002, key_ba, salt_ba, SaDirection.OUTBOUND
            )
            self.sa_a_in = SecurityAssociation(
                self.mem_a, 0x2002, key_ba, salt_ba, SaDirection.INBOUND
            )
            if self.mode is OffloadMode.INLINE:
                self.worker_a = inline_attach(self.port_a, self.sa_a_in, self.sa_a_out)
                self.worker_b = inline_attach(self.port_b, self.sa_b_in, self.sa_b_out)

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

        k_len = esp_frame_len(cfg.payload_len) if self.mode is not None else cfg.payload_len
        self.k_ns = self.profile.crypto_cost_ns(k_len)
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
        if self.cfg.copy_model is CopyModel.SINGLE_COPY:
            return self.profile.copy_cost_ns(length)
        return 0.0

    def _wake_cost(self) -> float:
        note = self.cfg.notification
        if note.mode is NotificationMode.EMULATED_INTERRUPT:
            return self.cfg.exits_per_packet * note.exit_cost_ns
        return 0.0

    def _record_wake(self, side: str, t: float) -> None:
        if self.cfg.notification.mode is NotificationMode.EMULATED_INTERRUPT:
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
        try:
            buf = self.port_a.alloc_tx_buffer()
        except PoolExhausted:
            return  # counted as a drop by the sent/received difference
        buf.write_data(payload)
        cost = self._copy_cost(len(payload))
        if self.mode is OffloadMode.LOOKASIDE:
            esp_encrypt(self.sa_a_out, buf, ops_counter=self.port_a.counters)
            cost += self.k_ns
        ready = max(t, self.client_busy) + cost
        self.client_busy = ready
        if self.mode is OffloadMode.INLINE:
            self.worker_a.app_tx([buf])
            self.push(ready, "crypto", "a")
        else:
            if self.port_a.tx_burst([buf]) == 0:
                self.port_a.free_buffer(buf)
                return
            self.push_nic("a", ready)

    # -- device polls ------------------------------------------------------

    def _do_nic(self, t: float, arg: object) -> None:
        side = arg
        # this poll is now spent; work posted at the same instant after it
        # ran must be able to schedule a fresh one
        self._pushed_polls.discard((side, t))
        nic = self.nic_a if side == "a" else self.nic_b
        peer = self.nic_b if side == "a" else self.nic_a
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
            if self.mode is OffloadMode.INLINE:
                # the crypto worker polls its rings; the app pays exits later
                self.push(t, "crypto", side)
            else:
                wake = t + self._wake_cost()
                self._record_wake(side, wake)
                self.push(wake, "server" if side == "b" else "client", None)

    # -- crypto worker (inline mode) ---------------------------------------

    def _do_crypto(self, t: float, arg: object) -> None:
        side = arg
        worker = self.worker_a if side == "a" else self.worker_b
        before = worker.counters["aes_ops"]
        worker.step(batch_max=64)
        ops = worker.counters["aes_ops"] - before
        start = max(t, self.crypto_busy[side])
        end = start + ops * self.k_ns
        self.crypto_busy[side] = end
        if worker.plain_out:
            wake = end + self._wake_cost()
            self._record_wake(side, wake)
            self.push(wake, "server_inline" if side == "b" else "client_inline", None)
        if worker.cipher_in or worker.plain_in:
            self.push(end, "crypto", side)
        # anything the step pushed out through tx_burst departs once paid for
        self.push_nic(side, end)

    # -- server (echo) side ------------------------------------------------

    def _server_process(self, t: float, buf, received_len: int) -> None:
        start = max(t, self.server_busy)
        svc = float(self.profile.server_fixed_ns)
        svc += self._copy_cost(received_len) + self._copy_cost(buf.pkt_len)
        if self.mode is OffloadMode.LOOKASIDE:
            svc += 2 * self.k_ns  # decrypt already done, encrypt deferred
        self.server_busy = start + svc
        self.server_payloads.append(buf.read_data())
        kind = "tx_b_inline" if self.mode is OffloadMode.INLINE else "tx_b"
        self.push(self.server_busy, kind, buf)

    def _do_server(self, t: float, arg: object) -> None:
        while True:
            bufs = self.port_b.rx_burst(64)
            if not bufs:
                return
            for buf in bufs:
                received = buf.pkt_len
                if self.mode is OffloadMode.LOOKASIDE:
                    try:
                        esp_decrypt(self.sa_b_in, buf, ops_counter=self.port_b.counters)
                    except (AuthFail, Malformed):
                        self.port_b.counters["auth_fail"] += 1
                        self.port_b.free_buffer(buf)
                        continue
                self._server_process(t, buf, received)

    def _do_server_inline(self, t: float, arg: object) -> None:
        while True:
            bufs = self.worker_b.app_rx(64)
            if not bufs:
                return
            for buf in bufs:
                self._server_process(t, buf, esp_frame_len(buf.pkt_len))

    def _do_tx_b(self, t: float, arg: object) -> None:
        buf = arg
        if self.mode is OffloadMode.LOOKASIDE:
            esp_encrypt(self.sa_b_out, buf, ops_counter=self.port_b.counters)
        if self.port_b.tx_burst([buf]) == 0:
            self.port_b.free_buffer(buf)
            return
        self.push_nic("b", t)

    def _do_tx_b_inline(self, t: float, arg: object) -> None:
        self.worker_b.app_tx([arg])
        self.push(t, "crypto", "b")

    # -- client receive side -----------------------------------------------

    def _client_complete(self, t: float, buf, extra_cost: float) -> None:
        start = max(t, self.client_busy)
        done = start + extra_cost
        self.client_busy = done
        data = buf.read_data()
        self.client_payloads.append(data)
        serial = int.from_bytes(data[:PACKET_ID_LEN], "big")
        sent_t = self.sent_at.pop(serial, None)
        self.port_a.free_buffer(buf)
        if sent_t is None:
            return  # duplicate or corrupted serial; nothing to time
        self.samples.append(done - sent_t)
        conn, msg_idx = self.msg_of[serial]
        if self.cfg.workload is Workload.TCP_LIKE_LOAD and msg_idx < 2:
            self.push(done, "send", (conn, msg_idx + 1))

    def _do_client(self, t: float, arg: object) -> None:
        while True:
            bufs = self.port_a.rx_burst(64)
            if not bufs:
                return
            for buf in bufs:
                cost = self._copy_cost(buf.pkt_len)
                if self.mode is OffloadMode.LOOKASIDE:
                    try:
                        esp_decrypt(self.sa_a_in, buf, ops_counter=self.port_a.counters)
                    except (AuthFail, Malformed):
                        self.port_a.counters["auth_fail"] += 1
                        self.port_a.free_buffer(buf)
                        continue
                    cost += self.k_ns
                self._client_complete(t, buf, cost)

    def _do_client_inline(self, t: float, arg: object) -> None:
        while True:
            bufs = self.worker_a.app_rx(64)
            if not bufs:
                return
            for buf in bufs:
                self._client_complete(t, buf, self._copy_cost(buf.pkt_len))

    # -- the run ------------------------------------------------------------

    _HANDLERS = {
        "send": _do_send,
        "nic": _do_nic,
        "crypto": _do_crypto,
        "server": _do_server,
        "server_inline": _do_server_inline,
        "tx_b": _do_tx_b,
        "tx_b_inline": _do_tx_b_inline,
        "client": _do_client,
        "client_inline": _do_client_inline,
    }

    def schedule_sends(self) -> None:
        cfg = self.cfg
        if cfg.workload is Workload.TCP_LIKE_LOAD:
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
            counters_a=self.port_a.counters_snapshot(),
            counters_b=self.port_b.counters_snapshot(),
            worker_counters_a=dict(self.worker_a.counters) if self.worker_a else None,
            worker_counters_b=dict(self.worker_b.counters) if self.worker_b else None,
            link_drops_a=self.nic_a.drops,
            link_drops_b=self.nic_b.drops,
            exit_events=tuple(self.exit_events),
            server_payloads=tuple(self.server_payloads),
            client_payloads=tuple(self.client_payloads),
        )


def run_echo_sim(cfg: BenchConfig) -> EchoResult:
    return _EchoRig(cfg).run()


# ---------------------------------------------------------------------------
# Wall-clock mode: real threads, monotonic timestamps, no virtual costs.
# One clock read per batch keeps timestamping out of the per-packet path.


def run_echo_wall(cfg: BenchConfig) -> EchoResult:
    if cfg.workload is Workload.TCP_LIKE_LOAD:
        raise ConfigInvalid("the chained exchange runs in deterministic mode only")
    rig = _EchoRig(cfg)  # reuse construction; the heap stays unused
    lock = threading.Lock()
    stop = threading.Event()
    sent_at: dict[int, int] = {}
    samples: list[float] = []
    sent_box = [0]

    total = max(1, int(cfg.rate_pps * cfg.duration_s)) * cfg.connections
    period_ns = int(1e9 / (cfg.rate_pps * cfg.connections))
    t0 = time.monotonic_ns()

    def client_send() -> None:
        for serial in range(total):
            due = t0 + serial * period_ns
            while time.monotonic_ns() < due:
                time.sleep(0)
            now = time.monotonic_ns()
            with lock:
                try:
                    buf = rig.port_a.alloc_tx_buffer()
                except PoolExhausted:
                    sent_box[0] += 1
                    continue
                sent_at[serial] = now
                sent_box[0] += 1
                buf.write_data(rig._payload(serial))
                if rig.mode is OffloadMode.LOOKASIDE:
                    esp_encrypt(rig.sa_a_out, buf, ops_counter=rig.port_a.counters)
                if rig.mode is OffloadMode.INLINE:
                    rig.worker_a.app_tx([buf])
                elif rig.port_a.tx_burst([buf]) == 0:
                    rig.port_a.free_buffer(buf)

    def nic_loop(nic: SimNic) -> None:
        while not stop.is_set():
            with lock:
                nic.step(time.monotonic_ns())
            time.sleep(50e-6)

    def crypto_loop(worker) -> None:
        while not stop.is_set():
            with lock:
                worker.step(batch_max=64)
            time.sleep(50e-6)

    def server_loop() -> None:
        while not stop.is_set():
            with lock:
                if rig.mode is OffloadMode.INLINE:
                    bufs = rig.worker_b.app_rx(64)
                else:
                    bufs = rig.port_b.rx_burst(64)
                for buf in bufs:
                    if rig.mode is OffloadMode.LOOKASIDE:
                        try:
                            esp_decrypt(rig.sa_b_in, buf, ops_counter=rig.port_b.counters)
                        except (AuthFail, Malformed):
                            rig.port_b.counters["auth_fail"] += 1
                            rig.port_b.free_buffer(buf)
                            continue
                        esp_encrypt(rig.sa_b_out, buf, ops_counter=rig.port_b.counters)
                    if rig.mode is OffloadMode.INLINE:
                        rig.worker_b.app_tx([buf])
                    elif rig.port_b.tx_burst([buf]) == 0:
                        rig.port_b.free_buffer(buf)
            time.sleep(50e-6)

    def client_recv() -> None:
        while not stop.is_set():
            with lock:
                if rig.mode is OffloadMode.INLINE:
                    bufs = rig.worker_a.app_rx(64)
                else:
                    bufs = rig.port_a.rx_burst(64)
                now = time.monotonic_ns()
                for buf in bufs:
                    if rig.mode is OffloadMode.LOOKASIDE:
                        try:
                            esp_decrypt(rig.sa_a_in, buf, ops_counter=rig.port_a.counters)
                        except (AuthFail, Malformed):
                            rig.port_a.counters["auth_fail"] += 1
                            rig.port_a.free_buffer(buf)
                            continue
                    serial = int.from_bytes(buf.read_data()[:PACKET_ID_LEN], "big")
                    sent = sent_at.pop(serial, None)
                    if sent is not None:
                        samples.append(float(now - sent))
                    rig.port_a.free_buffer(buf)
            time.sleep(50e-6)

    workers = [
        threading.Thread(target=nic_loop, args=(rig.nic_a,), daemon=True),
        threading.Thread(target=nic_loop, args=(rig.nic_b,), daemon=True),
        threading.Thread(target=server_loop, daemon=True),
        threading.Thread(target=client_recv, daemon=True),
    ]
    if rig.mode is OffloadMode.INLINE:
        workers.append(threading.Thread(target=crypto_loop, args=(rig.worker_a,), daemon=True))
        workers.append(threading.Thread(target=crypto_loop, args=(rig.worker_b,), daemon=True))
    sender = threading.Thread(target=client_send, daemon=True)
    for w in workers:
        w.start()
    sender.start()
    sender.join()
    deadline = time.monotonic() + 0.25
    while time.monotonic() < deadline and len(samples) < sent_box[0]:
        time.sleep(0.01)
    stop.set()
    for w in workers:
        w.join(timeout=1.0)

    received = len(samples)
    drops = sent_box[0] - received
    return EchoResult(
        stats=LatencyStats.from_samples(samples, drops=drops),
        sent=sent_box[0],
        received=received,
        drops=drops,
        samples=tuple(samples),
        counters_a=rig.port_a.counters_snapshot(),
        counters_b=rig.port_b.counters_snapshot(),
        worker_counters_a=dict(rig.worker_a.counters) if rig.worker_a else None,
        worker_counters_b=dict(rig.worker_b.counters) if rig.worker_b else None,
        link_drops_a=rig.nic_a.drops,
        link_drops_b=rig.nic_b.drops,
        exit_events=(),
        server_payloads=(),
        client_payloads=(),
    )
