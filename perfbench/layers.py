"""Which splitio functions the traced run times, and the per-layer metrics.

A span's label is ``<layer>.<Class>.<method>`` or ``<layer>.<function>``;
the layer is the splitio module that defines the code. Only public entry
points are wrapped: anything they call that is not itself wrapped counts
toward their self time. ``MemorySystem.find_pattern`` and the other audit
helpers are deliberately left unwrapped, so ``run_adversary``'s self time
holds the verdict work (classification and pattern scans).

Count metrics come from the objects the reports built (ports, NICs, crypto
workers, collected through after-hooks on their constructors) and from
hook tallies, so they are exact and repeat run to run. A metric whose
layer was never called on a workload is n/a: it is printed as such and
carries the value 0 in the result line.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from splitio import bench, devsim, ipsec, mem, pools, ring, simloop

from tracer import LAYERS, Spans, Tracer, self_times

FUNCTIONS = [
    (pools, "port_new", "pools.port_new"),
    (ipsec, "esp_encrypt", "ipsec.esp_encrypt"),
    (ipsec, "esp_decrypt", "ipsec.esp_decrypt"),
    (ipsec, "inline_attach", "ipsec.inline_attach"),
    (devsim, "loopback_pair", "devsim.loopback_pair"),
    (devsim, "run_adversary", "devsim.run_adversary"),
    (simloop, "run_echo_sim", "simloop.run_echo_sim"),
    (bench, "run_echo_result", "bench.run_echo_result"),
]

_METHODS = {
    (mem, "MemorySystem"): ("read", "write"),
    (ring, "DescriptorRing"): (
        "vm_post_tx", "vm_post_rx_buffer", "vm_poll_tx", "vm_harvest_rx",
        "device_fetch", "device_writeback_tx", "device_writeback_rx",
    ),
    (pools, "PortContext"): (
        "tx_burst", "rx_burst", "reclaim_tx", "arm_rx", "alloc_tx_buffer", "free_buffer",
    ),
    (pools, "PacketPool"): ("alloc", "free"),
    (pools, "PacketBuffer"): (
        "write_data", "read_data", "total_len", "chain", "pkt_len", "msg_type", "flags", "rss",
    ),
    (ipsec, "SecurityAssociation"): ("__init__",),
    (ipsec, "CryptoWorker"): ("step", "app_tx", "app_rx"),
    (ipsec, "PortProtect"): ("encrypt", "decrypt"),
    (devsim, "SimNic"): ("__init__", "step", "next_arrival", "enqueue"),
    (devsim, "LoopbackSystem"): ("__init__", "send_from_a", "pump"),
    (bench, "LatencyStats"): ("from_samples",),
}
METHODS = [
    (getattr(module, cls), attr, f"{module.__name__.rsplit('.', 1)[1]}.{cls}.{attr}")
    for (module, cls), attrs in _METHODS.items()
    for attr in attrs
]


@dataclass
class Collected:
    """Objects built and units of work done inside traced reports."""

    ports: list = field(default_factory=list)
    nics: list = field(default_factory=list)
    workers: list = field(default_factory=list)
    tally: Counter = field(default_factory=Counter)


def make_tracer(got: Collected) -> Tracer:
    tally = got.tally

    def count(key, measure):
        def hook(args, kwargs, result):
            tally[key] += measure(args, kwargs, result)
        return hook

    after = {
        "pools.port_new": lambda a, k, r: got.ports.append(r),
        "devsim.SimNic.__init__": lambda a, k, r: got.nics.append(a[0]),
        "ipsec.inline_attach": lambda a, k, r: got.workers.append(r),
        "mem.MemorySystem.read": count("mem_bytes", lambda a, k, r: len(r)),
        "mem.MemorySystem.write": count("mem_bytes", lambda a, k, r: len(a[3] if len(a) > 3 else k["data"])),
        "ring.DescriptorRing.vm_harvest_rx": count("harvested", lambda a, k, r: len(r)),
        "ring.DescriptorRing.device_fetch": count("fetched", lambda a, k, r: len(r)),
        "pools.PortContext.tx_burst": count("tx_pkts", lambda a, k, r: r),
        "pools.PortContext.rx_burst": count("rx_pkts", lambda a, k, r: len(r)),
    }
    return Tracer(FUNCTIONS, METHODS, after)


# ---------------------------------------------------------------------------
# Metric derivation.

# name -> (unit, better); the order is the print order
PER_LAYER = {
    "mem.calls_per_op": ("calls/op", "lower"),
    "mem.bytes_per_op": ("B/op", "lower"),
    "mem.read_ns": ("ns", "lower"),
    "mem.write_ns": ("ns", "lower"),
    "mem.self_us_per_op": ("us/op", "lower"),
    "mem.py_calls_per_op": ("calls/op", "lower"),
    "ring.calls_per_op": ("calls/op", "lower"),
    "ring.post_ns": ("ns", "lower"),
    "ring.poll_tx_ns": ("ns", "lower"),
    "ring.harvest_ns_per_slot": ("ns/slot", "lower"),
    "ring.fetch_ns_per_slot": ("ns/slot", "lower"),
    "ring.writeback_ns": ("ns", "lower"),
    "ring.violations_per_op": ("count/op", "lower"),
    "ring.self_us_per_op": ("us/op", "lower"),
    "ring.py_calls_per_op": ("calls/op", "lower"),
    "pools.calls_per_op": ("calls/op", "lower"),
    "pools.tx_burst_ns_per_pkt": ("ns/pkt", "lower"),
    "pools.rx_burst_ns_per_pkt": ("ns/pkt", "lower"),
    "pools.alloc_free_ns": ("ns", "lower"),
    "pools.port_new_ms": ("ms", "lower"),
    "pools.copies_per_op": ("copies/op", "lower"),
    "pools.drop_share": ("ratio", "lower"),
    "pools.suspect_per_op": ("count/op", "lower"),
    "pools.self_us_per_op": ("us/op", "lower"),
    "pools.py_calls_per_op": ("calls/op", "lower"),
    "ipsec.seal_ns": ("ns", "lower"),
    "ipsec.open_ns": ("ns", "lower"),
    "ipsec.worker_step_ns": ("ns", "lower"),
    "ipsec.aes_ops_per_op": ("count/op", "lower"),
    "ipsec.auth_fail_per_op": ("count/op", "lower"),
    "ipsec.self_us_per_op": ("us/op", "lower"),
    "ipsec.py_calls_per_op": ("calls/op", "lower"),
    "devsim.nic_step_ns": ("ns", "lower"),
    "devsim.nic_steps_per_op": ("count/op", "lower"),
    "devsim.link_drops_per_op": ("count/op", "lower"),
    "devsim.pump_ns": ("ns", "lower"),
    "devsim.verdict_ms_per_plan": ("ms/plan", "lower"),
    "devsim.self_us_per_op": ("us/op", "lower"),
    "devsim.py_calls_per_op": ("calls/op", "lower"),
    "simloop.self_us_per_op": ("us/op", "lower"),
    "simloop.self_share": ("ratio", "lower"),
    "simloop.py_calls_per_op": ("calls/op", "lower"),
    "bench.stats_ms_per_report": ("ms", "lower"),
    "trace.py_calls_per_op": ("calls/op", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _ratio(num: float, den: float):
    return num / den if den else None


@dataclass
class SpanStats:
    calls: Counter
    total_ns: Counter
    self_ns: Counter

    @staticmethod
    def of(spans: Spans) -> "SpanStats":
        calls, total, own = Counter(), Counter(), Counter()
        selfs = self_times(spans)
        for i in range(len(spans)):
            label = spans.names[spans.name[i]]
            calls[label] += 1
            total[label] += spans.end[i] - spans.start[i]
            own[label] += selfs[i]
        return SpanStats(calls, total, own)

    def mean_ns(self, *labels: str):
        return _ratio(sum(self.total_ns[x] for x in labels), sum(self.calls[x] for x in labels))

    def layer(self, counter: Counter, layer: str) -> int:
        return sum(v for k, v in counter.items() if k.split(".", 1)[0] == layer)


def per_layer_metrics(
    spans: Spans,
    got: Collected,
    reports: int,
    ops: int,
    report_ns: int,
    py_calls: Counter,
    count_ops: int,
    overhead_ratio: float,
) -> dict[str, object]:
    """Every PER_LAYER metric; None marks a layer the workload never called.

    ops and report_ns cover the traced reports; py_calls and count_ops come
    from the separate counting pass.
    """
    st = SpanStats.of(spans)
    port_sum = defaultdict(int)
    for port in got.ports:
        for key, value in port.counters.items():
            port_sum[key] += value
    worker_aes = sum(w.counters["aes_ops"] for w in got.workers)
    violations = sum(len(p.tx_ring.violations) + len(p.rx_ring.violations) for p in got.ports)
    t = got.tally
    per_op = lambda v: _ratio(v, ops)  # noqa: E731
    us_per_op = lambda layer: _ratio(st.layer(st.self_ns, layer) / 1000, ops)  # noqa: E731
    ns = st.mean_ns
    m: dict[str, object] = {
        "mem.calls_per_op": per_op(st.layer(st.calls, "mem")),
        "mem.bytes_per_op": per_op(t["mem_bytes"]),
        "mem.read_ns": ns("mem.MemorySystem.read"),
        "mem.write_ns": ns("mem.MemorySystem.write"),
        "ring.calls_per_op": per_op(st.layer(st.calls, "ring")),
        "ring.post_ns": ns("ring.DescriptorRing.vm_post_tx", "ring.DescriptorRing.vm_post_rx_buffer"),
        "ring.poll_tx_ns": ns("ring.DescriptorRing.vm_poll_tx"),
        "ring.harvest_ns_per_slot": _ratio(st.total_ns["ring.DescriptorRing.vm_harvest_rx"], t["harvested"]),
        "ring.fetch_ns_per_slot": _ratio(st.total_ns["ring.DescriptorRing.device_fetch"], t["fetched"]),
        "ring.writeback_ns": ns("ring.DescriptorRing.device_writeback_tx", "ring.DescriptorRing.device_writeback_rx"),
        "ring.violations_per_op": per_op(violations),
        "pools.calls_per_op": per_op(st.layer(st.calls, "pools")),
        "pools.tx_burst_ns_per_pkt": _ratio(st.total_ns["pools.PortContext.tx_burst"], t["tx_pkts"]),
        "pools.rx_burst_ns_per_pkt": _ratio(st.total_ns["pools.PortContext.rx_burst"], t["rx_pkts"] + port_sum["drops"]),
        "pools.alloc_free_ns": ns("pools.PacketPool.alloc", "pools.PacketPool.free"),
        "pools.port_new_ms": _ratio(st.total_ns["pools.port_new"] / 1e6, st.calls["pools.port_new"]),
        "pools.copies_per_op": per_op(port_sum["copies_rx"] + port_sum["copies_tx"]),
        "pools.drop_share": _ratio(port_sum["drops"], port_sum["drops"] + port_sum["copies_rx"]),
        "pools.suspect_per_op": per_op(port_sum["metadata_suspect"]),
        "ipsec.seal_ns": ns("ipsec.esp_encrypt"),
        "ipsec.open_ns": ns("ipsec.esp_decrypt"),
        "ipsec.worker_step_ns": ns("ipsec.CryptoWorker.step"),
        "ipsec.aes_ops_per_op": per_op(port_sum["aes_ops"] + worker_aes),
        "ipsec.auth_fail_per_op": per_op(port_sum["auth_fail"]),
        "devsim.nic_step_ns": ns("devsim.SimNic.step"),
        "devsim.nic_steps_per_op": per_op(st.calls["devsim.SimNic.step"]),
        "devsim.link_drops_per_op": per_op(sum(n.drops for n in got.nics)),
        "devsim.pump_ns": ns("devsim.LoopbackSystem.pump"),
        "devsim.verdict_ms_per_plan": _ratio(st.self_ns["devsim.run_adversary"] / 1e6, st.calls["devsim.run_adversary"]),
        "simloop.self_share": _ratio(st.layer(st.self_ns, "simloop"), report_ns),
        "bench.stats_ms_per_report": _ratio(st.total_ns["bench.LatencyStats.from_samples"] / 1e6, reports),
        "trace.py_calls_per_op": _ratio(sum(py_calls.values()), count_ops),
        "trace.overhead_ratio": overhead_ratio,
    }
    for layer in LAYERS:
        m[f"{layer}.self_us_per_op"] = us_per_op(layer)
        m[f"{layer}.py_calls_per_op"] = _ratio(py_calls[f"splitio.{layer}"], count_ops)
        # a layer never entered leaves its counts at zero: report those as n/a
        if st.layer(st.calls, layer) == 0:
            m.update({name: None for name in PER_LAYER if name.startswith(layer + ".")})
    return {name: m[name] for name in PER_LAYER}
