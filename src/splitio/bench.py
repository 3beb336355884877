"""Benchmark harness: echo latency runs, ramped load runs, statistics.

Two runners with deliberately different fidelity:

* run_echo drives the full stack (rings, pools, optional ESP protection)
  packet by packet under a deterministic event clock and reports
  round-trip latency percentiles.
* run_load is a fluid-flow model: per-second accounting of offered versus
  deliverable packet rate under a capacity derived from the same cost
  profile. It answers throughput and loss-onset questions that would take
  minutes of simulated traffic, in microseconds.

Costs come from a profile whose defaults were fitted to reproduce the
relative overhead structure of the measured configurations; they are data,
not measurements taken here.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

from .errors import ConfigInvalid, SplitioError
from .ipsec import ESP_OVERHEAD, OffloadMode, esp_frame_len
from .pools import PoolConfig
from .prng import MASK64

PACKET_ID_LEN = 8  # every benchmark payload starts with a packet serial
EXITS_PER_WAKE = 2  # VM exits an emulated interrupt costs per application wake


@dataclass(frozen=True)
class CostProfile:
    """Per-operation simulated costs in nanoseconds.

    The defaults are calibrated against the fitted factor costs: a round
    trip with polling and no crypto lands in the low-70-microsecond range
    that the measured baseline occupies, and the copy terms price one
    bounce-buffer copy small relative to routing and exit handling. Fitted,
    not measured.
    """

    link_base_ns: int = 30_000
    link_per_byte_ns: float = 0.8
    jitter_ns: int = 0
    loss_rate: float = 0.0
    server_fixed_ns: float = 12_016
    copy_fixed_ns: int = 100
    copy_per_byte_ns: float = 0.04
    crypto_fixed_ns: int = 600
    crypto_per_byte_ns: float = 0.25

    @staticmethod
    def bare() -> "CostProfile":
        """A 1,000 ns link and every other cost zero, for closed-form checks."""
        return CostProfile(
            link_base_ns=1000,
            link_per_byte_ns=0.0,
            server_fixed_ns=0,
            copy_fixed_ns=0,
            copy_per_byte_ns=0.0,
            crypto_fixed_ns=0,
            crypto_per_byte_ns=0.0,
        )

    def copy_cost_ns(self, length: int) -> float:
        return self.copy_fixed_ns + self.copy_per_byte_ns * length

    def crypto_cost_ns(self, length: int) -> float:
        return self.crypto_fixed_ns + self.crypto_per_byte_ns * length


@dataclass(frozen=True)
class BenchConfig:
    payload_len: int = 128
    rate_pps: float = 5000.0  # per connection
    connections: int = 1
    duration_s: float = 1.0
    # cost of one VM exit when an emulated interrupt wakes the application;
    # None: the applications poll, which is free
    interrupt_exit_ns: Optional[int] = None
    ipsec: Optional[OffloadMode] = None
    seed: int = 0
    profile: CostProfile = field(default_factory=CostProfile)
    bandwidth_bps: float = 8e9
    ring_capacity: int = 256
    mbuf_count: int = 1024


# What an echo run keeps per send until it returns: the payload twice (the
# server's and the client's copy) and 139-141 B of sample, list and tuple
# slots, polling or interrupted (tracemalloc peak over 1,000-3,000 sends of
# 8-1,500 B, Python 3.11.7 on a 2-CPU x86-64 host), against 1 GiB that an
# echo run may keep.
ECHO_BYTES_PER_SEND = 160
ECHO_MEMORY_BUDGET = 1 << 30


def validate_config(cfg: BenchConfig) -> None:
    """Reject configurations the echo runners cannot execute faithfully."""
    if not (math.isfinite(cfg.rate_pps) and math.isfinite(cfg.duration_s)):
        raise ConfigInvalid("rate and duration must be finite")
    _validate_run(cfg)
    if cfg.duration_s <= 0:
        raise ConfigInvalid("duration must be positive")
    if cfg.rate_pps * cfg.duration_s < 1:
        raise ConfigInvalid(
            f"{cfg.rate_pps} pps for {cfg.duration_s} s sends no packet on a connection"
        )
    if cfg.interrupt_exit_ns is not None and cfg.interrupt_exit_ns < 0:
        raise ConfigInvalid("exit cost cannot be negative")
    if not 0.0 <= cfg.profile.loss_rate <= 1.0:
        raise ConfigInvalid("loss rate must lie in [0, 1]")
    if cfg.ring_capacity < 2 or cfg.ring_capacity & (cfg.ring_capacity - 1):
        raise ConfigInvalid("ring capacity must be a power of two, at least 2")
    if cfg.mbuf_count < 8:
        raise ConfigInvalid("buffer pool too small to run")
    if not 0 <= cfg.seed <= MASK64:
        # Splitmix64 refuses it too, but only once the ports are built
        raise ConfigInvalid(f"seed {cfg.seed} lies outside [0, 2^64)")
    per_conn = cfg.rate_pps * cfg.duration_s  # inf if it overflows, which int() refuses
    sends = int(per_conn) * cfg.connections if per_conn <= ECHO_MEMORY_BUDGET else math.inf
    if sends * (2 * cfg.payload_len + ECHO_BYTES_PER_SEND) > ECHO_MEMORY_BUDGET:
        raise ConfigInvalid(
            f"{sends} sends of {cfg.payload_len} B exceed the 1 GiB an echo run may keep"
        )


def _validate_run(cfg: BenchConfig) -> None:
    """Reject a payload, rate or connection count no runner can execute
    faithfully. The load runner checks only these: besides its costs, they
    are all it reads."""
    if cfg.payload_len < PACKET_ID_LEN:
        raise ConfigInvalid(f"payload must be at least {PACKET_ID_LEN} B")
    limit = PoolConfig().data_room - (ESP_OVERHEAD if cfg.ipsec is not None else 0)
    if cfg.payload_len > limit:
        raise ConfigInvalid(f"payload {cfg.payload_len} B exceeds the {limit} B limit")
    if not math.isfinite(cfg.rate_pps):
        raise ConfigInvalid("rate must be finite")
    if cfg.rate_pps <= 0:
        raise ConfigInvalid("rate must be positive")
    if cfg.connections < 1:
        raise ConfigInvalid("need at least one connection")


class StageCosts(NamedTuple):
    """What one packet costs at each echo stage, in ns."""

    send_ns: float  # client: copy out, plus the look-aside encrypt
    server_ns: float  # server worker: app work, RX and TX copies, look-aside decrypt and encrypt
    receive_ns: float  # client: RX copy, plus the look-aside decrypt
    transform_ns: float  # one ESP transform on an inline crypto worker; 0 in other modes
    wake_ns: float  # one emulated-interrupt wake; 0 under polling


def stage_costs(cfg: BenchConfig, rx_on_wire: bool = False) -> StageCosts:
    """Price each echo stage for one cfg.payload_len-byte packet.

    Both models read their costs here: the event sim (simloop) charges each
    stage as it runs, and the fluid model serves at max(server_ns,
    2 * transform_ns) per packet. They differ in rx_on_wire only. Under ESP
    the event sim (True) charges the server's RX copy, and the look-aside
    client's, on the wire frame that rx_burst copied; the fluid model
    (False) charges every copy on the payload, so that ESP capacity equals
    plaintext capacity exactly when crypto is free.
    """
    profile = cfg.profile
    mode = cfg.ipsec
    k = profile.crypto_cost_ns(esp_frame_len(cfg.payload_len)) if mode is not None else 0.0
    app_k = k if mode is OffloadMode.LOOKASIDE else 0.0
    copy = rx_copy = profile.copy_cost_ns(cfg.payload_len)
    if rx_on_wire and mode is not None:
        rx_copy = profile.copy_cost_ns(esp_frame_len(cfg.payload_len))
    wake = 0.0
    if cfg.interrupt_exit_ns is not None:
        wake = float(EXITS_PER_WAKE * cfg.interrupt_exit_ns)
    return StageCosts(
        send_ns=copy + app_k,
        server_ns=float(profile.server_fixed_ns) + (rx_copy + copy) + 2 * app_k,
        receive_ns=(rx_copy if mode is OffloadMode.LOOKASIDE else copy) + app_k,
        transform_ns=k if mode is OffloadMode.INLINE else 0.0,
        wake_ns=wake,
    )


# ---------------------------------------------------------------------------
# Statistics.


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: sorted[ceil(q*n) - 1]."""
    if not samples:
        raise SplitioError("percentile of an empty sample set")
    if not 0.0 < q <= 1.0:
        raise SplitioError(f"quantile {q} outside (0, 1]")
    ordered = sorted(samples)
    return ordered[math.ceil(q * len(ordered)) - 1]


@dataclass(frozen=True)
class LatencyStats:
    count: int
    mean_ns: float
    p50_ns: float
    p95_ns: float
    p99_ns: float
    p999_ns: float
    drops: int
    min_ns: float = 0.0
    max_ns: float = 0.0

    @staticmethod
    def from_samples(samples: Sequence[float], drops: int = 0) -> "LatencyStats":
        if not samples:
            return LatencyStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, drops)
        return LatencyStats(
            count=len(samples),
            mean_ns=sum(samples) / len(samples),
            p50_ns=percentile(samples, 0.50),
            p95_ns=percentile(samples, 0.95),
            p99_ns=percentile(samples, 0.99),
            p999_ns=percentile(samples, 0.999),
            drops=drops,
            min_ns=min(samples),
            max_ns=max(samples),
        )


# the fields of a machine-readable report, in order: JSON keys, CSV columns
_REPORT_FIELDS = ("count", "mean_ns", "p50_ns", "p95_ns", "p99_ns", "p999_ns", "drops")
CSV_HEADER = ",".join(_REPORT_FIELDS)


def emit_report(stats: LatencyStats, fmt: str = "text") -> str:
    """Render stats in a stable field order.

    The same stats object always renders to identical bytes, which is what
    makes seeded runs comparable file-to-file.
    """
    if fmt == "json":
        text = json.dumps({f: getattr(stats, f) for f in _REPORT_FIELDS}, indent=2) + "\n"
    elif fmt == "csv":
        # repr keeps every digit of a float; an int's repr is its str
        row = ",".join(repr(getattr(stats, f)) for f in _REPORT_FIELDS)
        text = CSV_HEADER + "\n" + row + "\n"
    elif fmt == "text":
        text = (
            f"packets   {stats.count}\n"
            f"mean      {stats.mean_ns / 1000:.3f} us\n"
            f"p50       {stats.p50_ns / 1000:.3f} us\n"
            f"p95       {stats.p95_ns / 1000:.3f} us\n"
            f"p99       {stats.p99_ns / 1000:.3f} us\n"
            f"p99.9     {stats.p999_ns / 1000:.3f} us\n"
            f"drops     {stats.drops}\n"
        )
    else:
        raise ConfigInvalid(f"unknown report format {fmt!r}")
    return text


# ---------------------------------------------------------------------------
# Connection math and the ramp schedule.


def max_connections(bandwidth_bps: float, payload_bytes: int, rate_pps: float) -> int:
    """floor(bandwidth / (payload * 8 * rate)): the connection count at which
    offered load meets the link."""
    if bandwidth_bps <= 0 or payload_bytes <= 0 or rate_pps <= 0:
        raise ConfigInvalid("bandwidth, payload, and rate must all be positive")
    return int(bandwidth_bps // (payload_bytes * 8 * rate_pps))


RAMP_FRACTION = 0.05
HOLD_S = 30


@dataclass(frozen=True)
class RampSchedule:
    """Connections grow by RAMP_FRACTION of the target per second, then hold HOLD_S s."""

    max_connections: int

    @property
    def step(self) -> int:
        return max(1, int(self.max_connections * RAMP_FRACTION))

    @property
    def ramp_seconds(self) -> int:
        return math.ceil(self.max_connections / self.step)

    @property
    def total_seconds(self) -> int:
        return self.ramp_seconds + HOLD_S

    def connections_at(self, second: int) -> int:
        return min(self.max_connections, self.step * (second + 1))


# ---------------------------------------------------------------------------
# Fluid load model.


@dataclass(frozen=True)
class LoadSecond:
    second: int
    connections: int
    offered_pps: float
    delivered_pps: float
    dropped_pps: float


@dataclass(frozen=True)
class ThroughputReport:
    # field order is JSON key order, here and in LoadSecond
    achieved_bps: float
    capacity_pps: float
    loss_onset_connections: Optional[int]
    loss_onset_second: Optional[int]
    clamped_from: Optional[int]
    seconds: tuple[LoadSecond, ...]

    def to_dict(self) -> dict:
        return asdict(self)


def server_service_ns(cfg: BenchConfig) -> float:
    """Per-packet time on the receive host, by offload mode.

    Look-aside crypto runs on the same worker as the application, so its
    decrypt and re-encrypt serialize with the app cost in server_ns. The
    inline worker is a second core: the slower pipeline stage sets the pace.
    """
    costs = stage_costs(cfg)
    return max(costs.server_ns, 2 * costs.transform_ns)


def load_capacity_pps(cfg: BenchConfig) -> float:
    """Deliverable packet rate: the binding one of link and server."""
    wire_len = esp_frame_len(cfg.payload_len) if cfg.ipsec is not None else cfg.payload_len
    link_pps = cfg.bandwidth_bps / (wire_len * 8)
    service = server_service_ns(cfg)
    server_pps = 1e9 / service if service > 0 else float("inf")
    return min(link_pps, server_pps)


def run_load(cfg: BenchConfig) -> ThroughputReport:
    """Ramp to cfg.connections, clamped to what the link supports (refused
    when that is none), and account offered versus delivered packets second
    by second. Duration comes from the ramp and its hold, not from
    cfg.duration_s."""
    _validate_run(cfg)
    clamped_from: Optional[int] = None
    formula_max = max_connections(cfg.bandwidth_bps, cfg.payload_len, cfg.rate_pps)
    if formula_max == 0:
        raise ConfigInvalid(
            f"the link carries no connection of {cfg.payload_len} B at {cfg.rate_pps:g} packets/s"
        )
    target = cfg.connections
    if target > formula_max:
        clamped_from = target
        target = formula_max
    schedule = RampSchedule(max_connections=target)

    capacity = load_capacity_pps(cfg)
    rows = []
    onset_conns: Optional[int] = None
    onset_second: Optional[int] = None
    best_delivered = 0.0
    for second in range(schedule.total_seconds):
        conns = schedule.connections_at(second)
        offered = conns * cfg.rate_pps
        delivered = min(offered, capacity)
        dropped = offered - delivered
        if dropped > 0 and onset_conns is None:
            onset_conns = conns
            onset_second = second
        best_delivered = max(best_delivered, delivered)
        rows.append(LoadSecond(second, conns, offered, delivered, dropped))

    return ThroughputReport(
        seconds=tuple(rows),
        achieved_bps=best_delivered * cfg.payload_len * 8,
        capacity_pps=capacity,
        loss_onset_connections=onset_conns,
        loss_onset_second=onset_second,
        clamped_from=clamped_from,
    )


def app_cost_sweep(
    app_costs_ns: Sequence[float],
    crypto_cost_ns: float,
    rate_pps: float = 1000.0,
) -> dict[OffloadMode, list[int]]:
    """Largest sustainable connection count at each per-packet app cost, for
    both offload modes. Only the app cost, as fixed server work, and the
    crypto cost, taken as given per transform, are priced: copies are free
    and the link is unbounded, so the payload length does not matter."""
    if rate_pps <= 0:
        raise ConfigInvalid("rate must be positive")
    if crypto_cost_ns < 0 or any(c <= 0 for c in app_costs_ns):
        raise ConfigInvalid("app costs must be positive and crypto cost non-negative")
    flat = replace(CostProfile.bare(), crypto_fixed_ns=int(crypto_cost_ns))
    cfg = BenchConfig(rate_pps=rate_pps, profile=flat, bandwidth_bps=float("inf"))
    out: dict[OffloadMode, list[int]] = {OffloadMode.LOOKASIDE: [], OffloadMode.INLINE: []}
    for mode in (OffloadMode.LOOKASIDE, OffloadMode.INLINE):
        mode_cfg = replace(cfg, ipsec=mode)
        for c in app_costs_ns:
            app_cfg = replace(mode_cfg, profile=replace(flat, server_fixed_ns=c))
            out[mode].append(int(load_capacity_pps(app_cfg) // rate_pps))
    return out


# ---------------------------------------------------------------------------
# Echo runner front door. The heavy lifting lives in simloop.


def run_echo(cfg: BenchConfig) -> LatencyStats:
    """Round-trip echo through the full stack; see simloop for the rig."""
    return run_echo_result(cfg).stats


def run_echo_result(cfg: BenchConfig):
    validate_config(cfg)
    from . import simloop

    return simloop.run_echo_sim(cfg)
