"""Userspace packet I/O with a hard private/shared memory split.

The device side of the house (simulated here) can only ever see explicitly
shared arenas; applications only ever touch private shadow buffers. The
layers in between move each packet across that boundary with exactly one
copy per direction and optional ESP protection, and the bench layer prices
the whole arrangement against a factor-based overhead model.
"""

from .bench import (
    BenchConfig,
    CostProfile,
    LatencyStats,
    RampSchedule,
    ThroughputReport,
    app_cost_sweep,
    emit_report,
    max_connections,
    percentile,
    run_echo,
    run_load,
)
from .devsim import (
    ActionKind,
    AdversaryPlan,
    AdversaryReport,
    LinkModel,
    LoopbackSystem,
    Outcome,
    SimNic,
    loopback_pair,
    run_adversary,
)
from .errors import SplitioError
from .factors import (
    FactorState,
    OverheadFactor,
    VmConfiguration,
    diff_configs,
    factor_matrix,
    predict_latency,
    standardize,
)
from .ipsec import (
    CryptoWorker,
    OffloadMode,
    PortProtect,
    SaDirection,
    SecurityAssociation,
    esp_decrypt,
    esp_encrypt,
    inline_attach,
)
from .mem import Handle, MemorySystem, RegionKind, Side
from .pools import (
    PacketBuffer,
    PacketPool,
    PoolConfig,
    PoolKind,
    PortContext,
    init_pools,
    pool_memory_footprint,
    port_new,
)
from .prng import Splitmix64
from .ring import DescriptorRing, Direction

__version__ = "0.1.0"

__all__ = [
    "ActionKind",
    "AdversaryPlan",
    "AdversaryReport",
    "BenchConfig",
    "CostProfile",
    "CryptoWorker",
    "DescriptorRing",
    "Direction",
    "FactorState",
    "Handle",
    "LatencyStats",
    "LinkModel",
    "LoopbackSystem",
    "MemorySystem",
    "OffloadMode",
    "Outcome",
    "OverheadFactor",
    "PacketBuffer",
    "PacketPool",
    "PoolConfig",
    "PoolKind",
    "PortContext",
    "PortProtect",
    "RampSchedule",
    "RegionKind",
    "SaDirection",
    "SecurityAssociation",
    "Side",
    "SimNic",
    "SplitioError",
    "Splitmix64",
    "ThroughputReport",
    "VmConfiguration",
    "app_cost_sweep",
    "diff_configs",
    "emit_report",
    "esp_decrypt",
    "esp_encrypt",
    "factor_matrix",
    "init_pools",
    "inline_attach",
    "loopback_pair",
    "max_connections",
    "percentile",
    "pool_memory_footprint",
    "port_new",
    "predict_latency",
    "run_adversary",
    "run_echo",
    "run_load",
    "standardize",
]
