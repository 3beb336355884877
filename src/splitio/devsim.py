"""Simulated NIC, link model, the two-endpoint rig and adversary runs.

The NIC is deliberately written as an untrusted actor: every byte it touches
goes through MemorySystem with Side.DEVICE, so private memory is physically
out of its reach and any attempt is recorded and denied rather than crashing
the run. An AdversaryPlan scripts tampering, forgery, replay, drop and
corruption actions; the rig fires each one as an event at its nanosecond
trigger time.

Determinism: all randomness (jitter, loss) comes from per-link Splitmix64
streams; per transmitted packet the link draws jitter first, then loss, so a
run can be replayed draw-for-draw from the seed.
"""

from __future__ import annotations

import enum
import heapq
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .bench import StageCosts
from .errors import ConfigInvalid, DeviceAccessDenied, OutOfBounds, SplitioError
from .ipsec import CryptoWorker
from .mem import Handle, MemorySystem, Side
from .pools import PoolConfig, PortContext, port_new
from .prng import Splitmix64
from .ring import RxView, TxView

# enum member read once (see the note in mem.py)
_DEVICE = Side.DEVICE


@dataclass(frozen=True)
class LinkModel:
    """One direction of a link. Delay for an n-byte frame is
    base_latency_ns + n * per_byte_ns + jitter, jitter uniform in
    [0, jitter_ns]."""

    base_latency_ns: int = 1000
    per_byte_ns: float = 0.0
    jitter_ns: int = 0
    jitter_seed: int = 0
    loss_rate: float = 0.0

    def delay_ns(self, length: int, jitter: int) -> int:
        return int(self.base_latency_ns + length * self.per_byte_ns) + jitter


class ActionKind(enum.Enum):
    TAMPER_SHARED = "tamper_shared"
    FORGE_WRITEBACK = "forge_writeback"
    FORGE_ADDRESS = "forge_address"
    REPLAY_DESCRIPTOR = "replay_descriptor"
    DROP_PACKET = "drop_packet"
    CORRUPT_CIPHERTEXT = "corrupt_ciphertext"


@dataclass
class AdversaryAction:
    kind: ActionKind
    when: int = 0
    # which endpoint's device side performs the action
    target: str = "a"
    # the rest belong to the kinds _PLAN_KEYS gives them
    region: int = 0
    offset: int = 0
    data: bytes = b""
    length: int = 0
    slot: int = 0
    status_error: Optional[int] = None
    count: int = 1


# the keys each action reads; a plan line may give no other
_PLAN_KEYS = {
    ActionKind.TAMPER_SHARED: {"target", "when", "region", "offset", "data"},
    ActionKind.FORGE_WRITEBACK: {"target", "when", "slot", "length", "status_error"},
    ActionKind.FORGE_ADDRESS: {"target", "when", "region", "offset", "length"},
    ActionKind.REPLAY_DESCRIPTOR: {"target", "when", "slot"},
    ActionKind.DROP_PACKET: {"target", "when", "count"},
    ActionKind.CORRUPT_CIPHERTEXT: {"target", "when", "offset"},
}


@dataclass
class AdversaryPlan:
    actions: list[AdversaryAction] = field(default_factory=list)

    @staticmethod
    def parse(text: str) -> "AdversaryPlan":
        """Line format: `<action> key=value ...`. Unknown actions, keys
        outside the action's _PLAN_KEYS and bad values raise ConfigInvalid, and
        so do a count or a forge_address length below 1 and a length or
        status_error that does not fit its 16-bit device field. Blank lines
        and #-comments are skipped."""
        actions = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                kind = ActionKind(parts[0])
            except ValueError:
                raise ConfigInvalid(f"line {lineno}: unknown action {parts[0]!r}") from None
            kwargs: dict = {}
            for tok in parts[1:]:
                if "=" not in tok:
                    raise ConfigInvalid(f"line {lineno}: expected key=value, got {tok!r}")
                key, val = tok.split("=", 1)
                if key not in _PLAN_KEYS[kind]:
                    raise ConfigInvalid(f"line {lineno}: unknown key {key!r} for {kind.value}")
                try:
                    if key == "data":
                        kwargs[key] = bytes.fromhex(val)
                    elif key == "target":
                        if val not in ("a", "b"):
                            raise ConfigInvalid(f"line {lineno}: target must be a or b")
                        kwargs[key] = val
                    else:
                        kwargs[key] = int(val, 0)
                except ValueError:
                    raise ConfigInvalid(f"line {lineno}: bad value for {key}: {val!r}") from None
            action = AdversaryAction(kind=kind, **kwargs)
            if action.count < 1:
                raise ConfigInvalid(f"line {lineno}: count must be at least 1, got {action.count}")
            if kind is ActionKind.FORGE_ADDRESS and action.length < 1:
                raise ConfigInvalid(
                    f"line {lineno}: forge_address length must be at least 1, got {action.length}"
                )
            for key in ("length", "status_error"):
                if not 0 <= kwargs.get(key, 0) <= 0xFFFF:
                    raise ConfigInvalid(
                        f"line {lineno}: {key} must lie in [0, 0xFFFF], got {kwargs[key]}"
                    )
            actions.append(action)
        return AdversaryPlan(actions)

    @staticmethod
    def load(path: str) -> "AdversaryPlan":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigInvalid(f"cannot read plan {path}: {exc.strerror or exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigInvalid(f"cannot read plan {path}: not UTF-8 at byte {exc.start}") from None
        return AdversaryPlan.parse(text)


class Outcome(enum.Enum):
    NO_EFFECT = "no_effect"
    REJECTED = "rejected"
    DELIVERED_CORRUPTED = "delivered_corrupted"


class SimNic:
    """Device side of one port. Fetches TX descriptors, DMAs payloads out of
    shared memory, models the link, and delivers arrivals into posted RX
    buffers. All memory access is device-side and therefore confined.
    While watched holds patterns, leaked records whether a frame it sent
    held one; the loopback rig sets watched on both NICs of an attacked run."""

    def __init__(
        self,
        name: str,
        mem: MemorySystem,
        port: PortContext,
        link: LinkModel,
    ):
        self.name = name
        self.mem = mem
        self.port = port
        self.link = link
        self.peer: Optional[SimNic] = None
        self.prng = Splitmix64(link.jitter_seed)
        # (arrival, seq, payload) heap; seq is unique, so a comparison never
        # reaches the payload and equal arrivals leave in enqueue order
        self.inbox: list[tuple[int, int, bytes]] = []
        self._rx_avail: deque[RxView] = deque()
        self._seq = 0
        self.watched: Optional[list[bytes]] = None
        self.leaked = False
        self.violations: list[dict] = []
        self.drops = 0
        self.delivered = 0
        self._forced_drops = 0
        self._pending_corrupt: deque[int] = deque()

    # -- wiring ------------------------------------------------------------

    def connect(self, peer: "SimNic") -> None:
        # a proxy: two connected NICs would otherwise hold each other (and
        # through their ports every arena) in a reference cycle
        self.peer = weakref.proxy(peer)

    def enqueue(self, arrival: int, payload: bytes) -> None:
        heapq.heappush(self.inbox, (arrival, self._seq, payload))
        self._seq += 1

    def next_arrival(self) -> Optional[int]:
        """Arrival time of the earliest in-flight packet, if any. Event-driven
        callers use this to know when the next step() is worth scheduling."""
        return self.inbox[0][0] if self.inbox else None

    # -- violation recording ----------------------------------------------

    def _violation(self, kind: str, t: int, **detail) -> None:
        self.violations.append({"kind": kind, "t": t, **detail})

    # -- the step ----------------------------------------------------------

    def step(self, now: int) -> int:
        """One device iteration: fetch and transmit new TX descriptors, then
        deliver due arrivals; returns how many it delivered. Never raises on
        a confinement denial; those become violation records."""
        self._service_tx(now)
        before = self.delivered
        self._service_rx(now)
        return self.delivered - before

    def _service_tx(self, now: int) -> None:
        ring = self.port.tx_ring
        if ring.device_next == ring.head:
            return  # nothing posted since the last fetch
        try:
            views: list[TxView] = ring.device_fetch()  # type: ignore[assignment]
        except DeviceAccessDenied as exc:
            self._violation("tx_ring_unreachable", now, error=str(exc))
            return
        # what every frame of the burst uses, bound once
        mem, link, prng, peer = self.mem, self.link, self.prng, self.peer
        jitter_ns, loss_rate = link.jitter_ns, link.loss_rate
        for slot, (region, offset, room), cmd_type_len, _olinfo in views:
            claimed = cmd_type_len & 0xFFFF
            length = claimed if claimed < room else room
            payload: Optional[bytes] = None
            try:
                payload = mem.read_at(region, offset, length, _DEVICE)
            except (DeviceAccessDenied, OutOfBounds) as exc:
                # a forged descriptor can name private memory or no memory
                self._violation("dma_read_denied", now, slot=slot, error=str(exc))
            if payload is not None:
                # an empty frame has no byte to flip; the corruption stays
                # armed for the next frame that does
                if self._pending_corrupt and payload:
                    off = self._pending_corrupt.popleft()
                    mutable = bytearray(payload)
                    mutable[off % len(mutable)] ^= 0xFF
                    payload = bytes(mutable)
                # always two draws per packet (jitter, then loss) so runs
                # replay from the seed regardless of configuration
                jitter_draw = prng.next_u64()
                jitter = jitter_draw % (jitter_ns + 1) if jitter_ns else 0
                lost = prng.chance(loss_rate)
                if self._forced_drops > 0:
                    self._forced_drops -= 1
                    lost = True
                if self.watched and not self.leaked:
                    for pattern in self.watched:
                        if pattern in payload:
                            self.leaked = True
                if lost:
                    self.drops += 1
                elif peer is not None:
                    peer.enqueue(now + link.delay_ns(length, jitter), payload)
            # sender-side completion happens whether or not the frame survived
            ring.device_writeback_tx(slot)

    def _service_rx(self, now: int) -> None:
        ring = self.port.rx_ring
        try:
            if ring.device_next != ring.head:
                self._rx_avail.extend(ring.device_fetch())  # type: ignore[arg-type]
        except DeviceAccessDenied as exc:
            self._violation("rx_ring_unreachable", now, error=str(exc))
            return
        inbox, rx_avail, mem = self.inbox, self._rx_avail, self.mem
        while inbox and inbox[0][0] <= now:
            _arrival, _seq, payload = heapq.heappop(inbox)
            if not rx_avail:
                self.drops += 1
                continue
            slot, (region, offset, room), _header = rx_avail.popleft()
            n = len(payload)
            if n > room:
                n = room
            try:
                mem.write_at(region, offset, payload[:n], _DEVICE)
            except (DeviceAccessDenied, OutOfBounds) as exc:
                self._violation("dma_write_denied", now, slot=slot, error=str(exc))
                continue
            ring.device_writeback_rx(slot, length=n)
            self.delivered += 1

    # -- adversary actions -------------------------------------------------

    def _execute(self, action: AdversaryAction, now: int) -> None:
        kind = action.kind
        if kind is ActionKind.TAMPER_SHARED:
            try:
                self.mem.write(
                    Handle(action.region, action.offset, len(action.data)), _DEVICE, action.data
                )
            except SplitioError as exc:  # denied or out of bounds, either way rejected
                self._violation("tamper_denied", now, region=action.region, error=str(exc))
        elif kind is ActionKind.FORGE_WRITEBACK:
            self.port.rx_ring.device_writeback_rx(
                action.slot % self.port.rx_ring.capacity,
                length=action.length,
                status_error=action.status_error if action.status_error is not None else 0x0001,
            )
        elif kind is ActionKind.FORGE_ADDRESS:
            target = Handle(action.region, action.offset, action.length)
            # a region registered for the device is its own to DMA: a legal
            # access, though the zeroes written may corrupt a frame in flight;
            # reaching any other region would be a violation
            private = action.region not in self.mem.registered
            try:
                self.mem.read(target, _DEVICE)
                if private:
                    self._violation("private_read_succeeded", now, region=action.region)
            except SplitioError as exc:
                self._violation("forge_address_denied", now, region=action.region, error=str(exc))
            try:
                self.mem.write(target, _DEVICE, bytes(target.length))
                if private:
                    self._violation("private_write_succeeded", now, region=action.region)
            except SplitioError:
                pass
        elif kind is ActionKind.REPLAY_DESCRIPTOR:
            # a refused completion is logged by the ring as replayed_tx_completion
            self.port.tx_ring.device_writeback_tx(action.slot % self.port.tx_ring.capacity)
        elif kind is ActionKind.DROP_PACKET:
            self._forced_drops += action.count
        elif kind is ActionKind.CORRUPT_CIPHERTEXT:
            self._pending_corrupt.append(action.offset)


def loopback_pair(
    port_a: PortContext,
    port_b: PortContext,
    cfg: LinkModel,
) -> tuple[SimNic, SimNic]:
    """Wire two ports with a symmetric link: both directions use cfg."""
    nic_a = SimNic("nic_a", port_a.mem, port_a, cfg)
    nic_b = SimNic("nic_b", port_b.mem, port_b, cfg)
    nic_a.connect(nic_b)
    nic_b.connect(nic_a)
    return nic_a, nic_b


# ---------------------------------------------------------------------------
# Endpoints, the loopback rig and adversary runs


class Endpoint:
    """One side of a two-endpoint rig: its memory, port and device, plus
    the application's data path.

    app_tx(bufs) sends shadow buffers and returns how many it accepted,
    always a prefix; the caller still owns the rest and frees them.
    app_rx(max_count) returns received plaintext buffers, which the caller
    owns. The plain path is the port's own tx_burst/rx_burst, bound
    directly; use() switches to a PortProtect (look-aside) or a
    CryptoWorker (inline), which refuses frames that fail verification
    before the application sees them. rx_path is the object app_rx belongs
    to; its rx_more says whether the last app_rx may have left frames.
    """

    def __init__(self, mem: MemorySystem, port: PortContext, nic: SimNic):
        self.mem = mem
        self.port = port
        self.nic = nic
        self.use(None)

    def use(self, path) -> None:
        self.path = path
        self.inline = isinstance(path, CryptoWorker)  # the rig steps the worker
        self.rx_path = self.port if path is None else path
        if path is None:
            self.app_tx, self.app_rx = self.port.tx_burst, self.port.rx_burst
        else:
            self.app_tx, self.app_rx = path.app_tx, path.app_rx


def _protect(side: str) -> property:
    def get(self):
        return getattr(self, side).path

    def set_(self, path) -> None:
        getattr(self, side).use(path)

    return property(get, set_, doc=f"Endpoint {side}'s data path; None is plain.")


_APP_EVENT = {"a": "client", "b": "server"}  # the handler of each side's application


class LoopbackSystem:
    """Two full endpoints (memory, port, NIC) joined by a symmetric link,
    driven by one event heap over virtual nanoseconds. A's application
    sends, B's records what it receives and echoes it, A's records the
    echoes. Events due at one instant run in the order they were pushed;
    each plan action is pushed at its `when` as the rig is built, so it
    fires first, then polls its side's NIC and application. Under a plan
    both NICs judge each frame they send against the patterns the rig
    watches. Stages take the times in `costs`: none here; simloop prices
    them for the echo benchmark."""

    STEP_NS = 1000
    costs = StageCosts(0, 0, 0, 0, 0)

    protect_a = _protect("a")
    protect_b = _protect("b")

    def __init__(
        self,
        pool_cfg: Optional[PoolConfig] = None,
        link: Optional[LinkModel] = None,
        plan: Optional[AdversaryPlan] = None,
        ring_capacity: int = 8,
        canary: Optional[bytes] = None,
    ):
        self.watched: list[bytes] = [canary] if canary else []
        pool_cfg = pool_cfg or PoolConfig(mbuf_count=32)
        # each endpoint on its own MemorySystem with one port
        self.mem_a = MemorySystem()
        self.mem_b = MemorySystem()
        self.port_a = port_new(self.mem_a, pool_cfg, ring_capacity=ring_capacity, canary=canary)
        self.port_b = port_new(self.mem_b, pool_cfg, ring_capacity=ring_capacity, canary=canary)
        self.nic_a, self.nic_b = loopback_pair(
            self.port_a, self.port_b, link or LinkModel(base_latency_ns=500)
        )
        if plan is not None:
            self.nic_a.watched = self.nic_b.watched = self.watched
        self.a = Endpoint(self.mem_a, self.port_a, self.nic_a)
        self.b = Endpoint(self.mem_b, self.port_b, self.nic_b)
        self.now = 0
        self.sent: list[bytes] = []
        self.delivered_b: list[bytes] = []
        self.delivered_a: list[bytes] = []
        self.wakes = 0  # one per delivery that wakes an application worker
        self.client_busy = self.server_busy = 0
        self.crypto_busy = {"a": 0, "b": 0}
        self.heap: list[tuple[float, int, str, object]] = []  # (t, seq, kind, arg)
        self._seq = 0
        self._pushed_polls: set[tuple[str, float]] = set()
        for action in plan.actions if plan is not None else ():
            self.push(action.when, "action", action)

    def watch(self, patterns: Sequence[bytes]) -> None:
        """Add secret patterns to the breach scan, before the run: frames are
        judged as they leave. An empty one matches everything, so is refused."""
        if not all(patterns):
            raise ConfigInvalid("an empty pattern matches every offset")
        self.watched.extend(patterns)

    def send_from_a(self, payload: bytes) -> None:
        """A's application sends payload at now."""
        buf = self.port_a.alloc_tx_buffer()
        buf.write_data(payload)
        self.sent.append(payload)
        self._transmit(self.now, buf, "a")

    def pump(self, steps: int = 1) -> None:
        """Advance virtual time by steps * STEP_NS, running every event due
        by then."""
        self.now += steps * self.STEP_NS
        self._dispatch(self.now)

    def _dispatch(self, until: float, later: int = 0) -> None:
        """Run every event due by until, earliest first; the budget also
        covers `later` events that handlers will push but have not yet."""
        heap, handlers = self.heap, self._HANDLERS
        # safety valve against scheduling bugs, not a modeled limit
        budget = 10_000 + (len(heap) + later) * 150
        while heap and heap[0][0] <= until:
            if not budget:
                raise SplitioError(
                    f"event budget spent with {len(heap)} events still queued"
                )
            budget -= 1
            t, _, kind, arg = heapq.heappop(heap)
            handlers[kind](self, t, arg)

    # -- event plumbing ----------------------------------------------------

    def push(self, t: float, kind: str, arg: object = None) -> None:
        heapq.heappush(self.heap, (t, self._seq, kind, arg))
        self._seq += 1

    def push_nic(self, side: str, t: float) -> None:
        key = (side, t)
        if key not in self._pushed_polls:
            self._pushed_polls.add(key)
            # push's body, without its frame: this runs once per poll
            heapq.heappush(self.heap, (t, self._seq, "nic", side))
            self._seq += 1

    def _wake(self, side: str, t: float) -> None:
        """Wake side's application worker for what was just delivered."""
        self.wakes += 1
        heapq.heappush(self.heap, (t + self.costs.wake_ns, self._seq, _APP_EVENT[side], None))
        self._seq += 1

    def _transmit(self, t: float, buf, side: str = "b") -> None:
        """Hand buf to side's data path, then poll whatever sends it on.
        Also the tx_b handler, which sends B's echo once it is served."""
        end = self.a if side == "a" else self.b
        if end.app_tx([buf]) == 0:
            end.port.free_buffer(buf)
        elif end.inline:
            self.push(t, "crypto", side)
        else:
            self.push_nic(side, t)

    # -- handlers ----------------------------------------------------------

    def _do_action(self, t: float, action: AdversaryAction) -> None:
        side = action.target
        end = self.a if side == "a" else self.b
        end.nic._execute(action, t)
        self.push_nic(side, t)
        self.push(t, "crypto" if end.inline else _APP_EVENT[side], side)

    def _do_nic(self, t: float, side: str) -> None:
        # this poll is now spent; work posted at the same instant after it
        # ran must be able to schedule a fresh one
        self._pushed_polls.discard((side, t))
        end = self.a if side == "a" else self.b
        nic = end.nic
        peer = self.nic_b if side == "a" else self.nic_a
        delivered = nic.step(t)
        arrival = peer.next_arrival()
        if arrival is not None:
            self.push_nic("b" if side == "a" else "a", arrival)
        own_next = nic.next_arrival()
        if own_next is not None:
            self.push_nic(side, own_next)
        if delivered and end.inline:
            # the crypto worker polls its rings; the app pays exits later
            self.push(t, "crypto", side)
        elif delivered:
            self._wake(side, t)

    def _do_crypto(self, t: float, side: str) -> None:
        worker = (self.a if side == "a" else self.b).path
        before = worker.counters["aes_ops"]
        held = len(worker.plain_out)
        worker.step()
        ops = worker.counters["aes_ops"] - before
        start = max(t, self.crypto_busy[side])
        end = start + ops * self.costs.transform_ns
        self.crypto_busy[side] = end
        if len(worker.plain_out) > held:  # wake only for frames this step opened
            self._wake(side, end)
        if worker.plain_in or worker.port.rx_more:
            self.push(end, "crypto", side)
        # anything the step pushed out through tx_burst departs once paid for
        self.push_nic(side, end)

    def _do_server(self, t: float, arg: object) -> None:
        app_rx = self.b.app_rx
        service_ns = self.costs.server_ns
        while bufs := app_rx(64):
            for buf in bufs:
                self.delivered_b.append(buf.read_data())
                self.server_busy = max(t, self.server_busy) + service_ns
                self.push(self.server_busy, "tx_b", buf)
            if not self.b.rx_path.rx_more:
                break

    def _do_client(self, t: float, arg: object) -> None:
        app_rx = self.a.app_rx
        free = self.port_a.free_buffer
        receive_ns = self.costs.receive_ns
        echoed = self._echoed
        while bufs := app_rx(64):
            for buf in bufs:
                data = buf.read_data()
                done = max(t, self.client_busy) + receive_ns
                self.client_busy = done
                self.delivered_a.append(data)
                free(buf)
                echoed(data, done)
            if not self.a.rx_path.rx_more:
                break

    def _echoed(self, data: bytes, done: float) -> None:
        """A's application finished receiving data at done."""

    _HANDLERS = {
        "action": _do_action,
        "nic": _do_nic,
        "crypto": _do_crypto,
        "server": _do_server,
        "tx_b": _transmit,
        "client": _do_client,
    }

    def violations(self) -> list[dict]:
        """Every violation recorded so far: both NICs', then each ring's."""
        found = self.nic_a.violations + self.nic_b.violations
        for side, port in (("a", self.port_a), ("b", self.port_b)):
            for name, ring in (("tx_" + side, port.tx_ring), ("rx_" + side, port.rx_ring)):
                found += [{"kind": k, "slot": s, "ring": name} for k, s in ring.violations]
        return found

    def breached(self) -> bool:
        """The red flag: the device reached private memory, or a watched
        pattern is in a frame an attacked run sent or in a shared arena.
        A device access to an unregistered region is no breach: the accessor
        refuses it before it touches a byte."""
        private = any(v["kind"].startswith("private_") for v in self.violations())
        if private or self.nic_a.leaked or self.nic_b.leaked:
            return True
        return any(m.pattern_in_shared(p) for p in self.watched for m in (self.mem_a, self.mem_b))


@dataclass
class AdversaryReport:
    outcomes: list[tuple[str, str]]
    violations: list[dict]
    breach: bool
    sent: list[bytes]
    delivered: list[bytes]
    echoed: list[bytes]
    counters_a: dict[str, int]
    counters_b: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "outcomes": [list(pair) for pair in self.outcomes],
            "violations": self.violations,
            "breach": self.breach,
            "sent": [p.hex() for p in self.sent],
            "delivered": [p.hex() for p in self.delivered],
            "echoed": [p.hex() for p in self.echoed],
            "counters_a": self.counters_a,
            "counters_b": self.counters_b,
        }


def _payloads_for_run(count: int, length: int, seed: int) -> list[bytes]:
    # tweaked after Splitmix64 checks the seed, so a refusal names the seed given
    rng = Splitmix64(seed)
    rng.state ^= 0xA5A5A5A5
    out = []
    for i in range(count):
        head = i.to_bytes(4, "little")
        body = bytearray(head)
        while len(body) < length:
            body.extend(rng.next_u64().to_bytes(8, "little"))
        out.append(bytes(body[:length]))
    return out


def run_adversary(
    plan: AdversaryPlan,
    packets: int = 4,
    payload_len: int = 128,
    ring_capacity: int = 8,
    canary: Optional[bytes] = None,
    secret_patterns: Optional[list[bytes]] = None,
    protect_factory=None,
    seed: int = 0,
) -> AdversaryReport:
    """Send `packets` seeded payloads 1 µs apart through the unpriced
    loopback rig under an adversary plan; classify_attack judges each action."""
    system = LoopbackSystem(plan=plan, ring_capacity=ring_capacity, canary=canary)
    system.watch(secret_patterns or ())
    if protect_factory is not None:
        system.protect_a, system.protect_b = protect_factory(system)

    for payload in _payloads_for_run(packets, payload_len, seed):
        system.send_from_a(payload)
        system.pump(1)
    system.pump(12 + 2 * packets)
    return classify_attack(system, plan, system.sent)


def classify_attack(system: LoopbackSystem, plan: AdversaryPlan, sent: list[bytes]) -> AdversaryReport:
    """Classify each of plan's actions from the evidence a finished,
    attacked run left on system, which sent the payloads in sent.

    An action is REJECTED if the defenses visibly stopped it (access
    denied, clamp, replay log, auth failure), DELIVERED_CORRUPTED if
    application-visible data was corrupted or fabricated, and NO_EFFECT
    otherwise. `breach` is LoopbackSystem.breached.
    """
    counters_a = system.port_a.counters_snapshot()
    counters_b = system.port_b.counters_snapshot()
    sent_set = set(sent)
    corrupt_delivered = [p for p in system.delivered_b if p not in sent_set]
    # A legitimately receives only echoes of what it sent
    fabricated_at_a = [p for p in system.delivered_a if p not in sent_set]
    violations = system.violations()
    vkinds = {v["kind"] for v in violations}

    outcomes: list[tuple[str, str]] = []
    for action in plan.actions:
        kind = action.kind
        if kind is ActionKind.TAMPER_SHARED or kind is ActionKind.FORGE_ADDRESS:
            # a forged address into private memory that succeeded would have
            # left a private_* violation; one into a shared region is a
            # legal DMA and is judged like a tamper, by what it corrupted
            denied = "tamper_denied" if kind is ActionKind.TAMPER_SHARED else "forge_address_denied"
            if kind is ActionKind.FORGE_ADDRESS and any(
                v["kind"].startswith("private_") for v in violations
            ):
                outcome = Outcome.DELIVERED_CORRUPTED
            elif any(v["kind"] == denied and v.get("region") == action.region for v in violations):
                outcome = Outcome.REJECTED
            elif corrupt_delivered or fabricated_at_a:
                outcome = Outcome.DELIVERED_CORRUPTED
            else:
                outcome = Outcome.NO_EFFECT
        elif kind is ActionKind.FORGE_WRITEBACK:
            suspects = counters_a["metadata_suspect"] + counters_b["metadata_suspect"]
            if suspects > 0 or "replayed_rx_writeback" in vkinds:
                outcome = Outcome.REJECTED
            elif fabricated_at_a or corrupt_delivered:
                outcome = Outcome.DELIVERED_CORRUPTED
            else:
                outcome = Outcome.NO_EFFECT
        elif kind is ActionKind.REPLAY_DESCRIPTOR:
            outcome = (
                Outcome.REJECTED if "replayed_tx_completion" in vkinds else Outcome.NO_EFFECT
            )
        elif kind is ActionKind.DROP_PACKET:
            outcome = Outcome.NO_EFFECT
        else:  # CORRUPT_CIPHERTEXT
            if counters_a["auth_fail"] + counters_b["auth_fail"] > 0:
                outcome = Outcome.REJECTED
            elif corrupt_delivered:
                outcome = Outcome.DELIVERED_CORRUPTED
            else:
                outcome = Outcome.NO_EFFECT
        outcomes.append((kind.value, outcome.value))

    return AdversaryReport(
        outcomes=outcomes,
        violations=violations,
        breach=system.breached(),
        sent=sent,
        delivered=system.delivered_b,
        echoed=system.delivered_a,
        counters_a=counters_a,
        counters_b=counters_b,
    )
