"""Overhead-factor matrix, configuration differencing, and latency prediction.

The model captures which per-packet overhead sources are active in each VM
I/O configuration, from a plain VM with emulated I/O all the way to
hardware-assisted trusted I/O and the software-only split-memory design this
package implements. Factor states distinguish plain absence from absence with
a caveat (minimized by polling, write-access-only checks, minimized VC
handling), because those caveats are exactly where the remaining cost hides.

The standardized latency table and the per-factor cost profile are data, not
measurements made here: ratio cells are relative to the paravirtual SR-IOV
baseline, open bounds stay open (GreaterThan), and the shipped cost profile
is a least-squares style fit against the measured columns, labeled fitted.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Optional, Union

from .errors import ConfigInvalid, SplitioError


class FactorClass(enum.Enum):
    COMMON = "common"
    SEV_ONLY = "sev_only"


class OverheadFactor(enum.Enum):
    ROUTING_WITHIN_VM = "routing_within_vm"
    ROUTING_WITHIN_HOST = "routing_within_host"
    EMULATED_IO_INTERRUPT = "emulated_io_interrupt"
    OTHER_FACTORS = "other_factors"
    ENCRYPTED_MEMORY = "encrypted_memory"
    REGISTER_ENCRYPTION = "register_encryption"
    BOUNCE_BUFFER_ALLOCATION = "bounce_buffer_allocation"
    BOUNCE_BUFFER_COPY = "bounce_buffer_copy"
    VMEXIT_CHECK = "vmexit_check"
    VC_HANDLER = "vc_handler"
    OWNERSHIP_CHECK = "ownership_check"
    TLB_CHECK = "tlb_check"
    IO_PCIE_ENCRYPTION = "io_pcie_encryption"

    @property
    def factor_class(self) -> FactorClass:
        if self in (
            OverheadFactor.ROUTING_WITHIN_VM,
            OverheadFactor.ROUTING_WITHIN_HOST,
            OverheadFactor.EMULATED_IO_INTERRUPT,
            OverheadFactor.OTHER_FACTORS,
        ):
            return FactorClass.COMMON
        return FactorClass.SEV_ONLY


class VmConfiguration(enum.Enum):
    NON_TEE_VM = "non_tee_vm"
    VM_SRIOV = "vm_sriov"
    VM_DPDK = "vm_dpdk"
    SEV_VM = "sev_vm"
    SEV_SRIOV = "sev_sriov"
    ES_SRIOV = "es_sriov"
    SNP_SRIOV = "snp_sriov"
    SNP_TIO = "snp_tio"
    SNP_TIO_DPDK = "snp_tio_dpdk"  # projected optimal
    SNP_SOFTWARE = "snp_software"  # the split-memory design built here


class FactorState(enum.Enum):
    PRESENT = "Y"
    ABSENT = "N"
    ABSENT_MINIMIZED = "N+"  # VMEXIT count minimized by polling mode
    ABSENT_WRITE_ONLY = "N-"  # ownership checked for write access only
    ABSENT_VC_MINIMIZED = "N*"  # VC handling minimized (scheduler/interrupts)


_Y = FactorState.PRESENT
_N = FactorState.ABSENT
_NP = FactorState.ABSENT_MINIMIZED
_NW = FactorState.ABSENT_WRITE_ONLY
_NV = FactorState.ABSENT_VC_MINIMIZED

# the matrix columns follow VmConfiguration's definition order
_CONFIG_ORDER = tuple(VmConfiguration)

_MATRIX_ROWS: dict[OverheadFactor, tuple[FactorState, ...]] = {
    OverheadFactor.ROUTING_WITHIN_VM: (_Y, _Y, _N, _Y, _Y, _Y, _Y, _N, _N, _N),
    OverheadFactor.ROUTING_WITHIN_HOST: (_Y, _N, _N, _Y, _N, _N, _N, _N, _N, _N),
    OverheadFactor.EMULATED_IO_INTERRUPT: (_Y, _Y, _N, _Y, _Y, _Y, _Y, _Y, _N, _N),
    OverheadFactor.OTHER_FACTORS: (_Y, _Y, _Y, _Y, _Y, _Y, _Y, _Y, _Y, _Y),
    OverheadFactor.ENCRYPTED_MEMORY: (_Y, _Y, _Y, _Y, _Y, _Y, _Y, _Y, _Y, _Y),
    OverheadFactor.REGISTER_ENCRYPTION: (_Y, _Y, _NP, _Y, _Y, _Y, _Y, _Y, _NP, _NP),
    OverheadFactor.BOUNCE_BUFFER_ALLOCATION: (_N, _N, _N, _Y, _Y, _Y, _Y, _N, _N, _N),
    OverheadFactor.BOUNCE_BUFFER_COPY: (_N, _N, _N, _Y, _Y, _Y, _Y, _N, _N, _Y),
    OverheadFactor.VMEXIT_CHECK: (_N, _N, _N, _N, _N, _Y, _N, _N, _N, _N),
    OverheadFactor.VC_HANDLER: (_N, _N, _N, _N, _N, _Y, _Y, _Y, _NV, _NV),
    OverheadFactor.OWNERSHIP_CHECK: (_NW, _NW, _NW, _NW, _NW, _NW, _Y, _Y, _Y, _Y),
    OverheadFactor.TLB_CHECK: (_N, _N, _N, _N, _N, _N, _Y, _Y, _NP, _NP),
    OverheadFactor.IO_PCIE_ENCRYPTION: (_N, _N, _N, _N, _N, _N, _N, _Y, _Y, _N),
}


def factor_state(factor: OverheadFactor, config: VmConfiguration) -> FactorState:
    return _MATRIX_ROWS[factor][_CONFIG_ORDER.index(config)]


def is_present(factor: OverheadFactor, config: VmConfiguration) -> bool:
    return factor_state(factor, config) is FactorState.PRESENT


def diff_configs(
    a: VmConfiguration, b: VmConfiguration
) -> list[tuple[OverheadFactor, FactorState, FactorState]]:
    """Factors whose state differs between two configurations, in matrix row
    order. Differencing a configuration against itself is a caller bug."""
    if a is b:
        raise SplitioError(f"cannot diff {a.value} against itself")
    ia, ib = _CONFIG_ORDER.index(a), _CONFIG_ORDER.index(b)
    out = []
    for factor, row in _MATRIX_ROWS.items():
        if row[ia] is not row[ib]:
            out.append((factor, row[ia], row[ib]))
    return out


# ---------------------------------------------------------------------------
# Standardized latency table.


@dataclass(frozen=True)
class GreaterThan:
    """An open lower bound, e.g. 'more than 50 times the baseline'."""

    bound: float

    def __str__(self) -> str:
        return f">{self.bound:g}x"


Ratio = Union[float, GreaterThan, None]


@dataclass(frozen=True)
class LatencyRow:
    """Standardized latency of one configuration: ratios to the baseline at
    each statistic, None where the configuration was not measurable."""

    mean: Ratio
    median: Ratio
    p95: Ratio
    p99: Ratio


BASELINE_CONFIG = VmConfiguration.VM_SRIOV

# Baseline absolute latencies in microseconds (the 1.00x column).
BASELINE_MICROS = {"mean": 75.1, "median": 75.3, "p95": 83.8, "p99": 123.6}

_G50 = GreaterThan(50.0)

LATENCY_TABLE: dict[VmConfiguration, Optional[LatencyRow]] = {
    VmConfiguration.NON_TEE_VM: LatencyRow(_G50, _G50, _G50, _G50),
    VmConfiguration.VM_SRIOV: LatencyRow(1.00, 1.00, 1.00, 1.00),
    VmConfiguration.VM_DPDK: LatencyRow(0.37, 0.36, 0.33, 0.31),
    VmConfiguration.SEV_VM: LatencyRow(_G50, _G50, _G50, _G50),
    VmConfiguration.SEV_SRIOV: LatencyRow(1.01, 1.02, 1.00, 0.78),
    VmConfiguration.ES_SRIOV: LatencyRow(1.17, 1.18, 1.20, 0.94),
    VmConfiguration.SNP_SRIOV: LatencyRow(1.16, 1.13, 1.18, 2.19),
    VmConfiguration.SNP_TIO: None,  # projected configuration, no measurement
    VmConfiguration.SNP_TIO_DPDK: None,
    VmConfiguration.SNP_SOFTWARE: None,
}


def standardize(rows: dict[VmConfiguration, dict[str, float]], baseline: VmConfiguration) -> dict[
    VmConfiguration, LatencyRow
]:
    """Turn absolute per-statistic latencies into baseline-relative ratios,
    rounded to two decimals (the table's printed precision)."""
    if baseline not in rows:
        raise SplitioError(f"no row for baseline {baseline.value}")
    base = rows[baseline]
    out = {}
    for stat in ("mean", "median", "p95", "p99"):
        if base.get(stat, 0.0) == 0.0:
            raise SplitioError(f"baseline {stat} is zero")
    for config, stats in rows.items():
        out[config] = LatencyRow(
            mean=round(stats["mean"] / base["mean"], 2),
            median=round(stats["median"] / base["median"], 2),
            p95=round(stats["p95"] / base["p95"], 2),
            p99=round(stats["p99"] / base["p99"], 2),
        )
    return out


# ---------------------------------------------------------------------------
# Additive latency prediction over present factors.

# Per-factor mean cost in microseconds. Fitted against the measured mean
# column, not measured directly; several factor groups are collinear across
# the measured configurations, so the split inside each group is pinned by
# hand and documented as such. always-on factors are folded into the base.
FITTED_BASE_MICROS = 27.787
FITTED_FACTOR_COST_MICROS: dict[OverheadFactor, float] = {
    OverheadFactor.ROUTING_WITHIN_VM: 40.0,
    OverheadFactor.ROUTING_WITHIN_HOST: 3679.9,  # floor implied by the >50x bound
    OverheadFactor.EMULATED_IO_INTERRUPT: 6.0,
    OverheadFactor.OTHER_FACTORS: 0.0,  # excluded from prediction by contract
    OverheadFactor.ENCRYPTED_MEMORY: 0.0,  # active everywhere, folded into base
    OverheadFactor.REGISTER_ENCRYPTION: 1.313,
    OverheadFactor.BOUNCE_BUFFER_ALLOCATION: 0.401,
    OverheadFactor.BOUNCE_BUFFER_COPY: 0.350,
    OverheadFactor.VMEXIT_CHECK: 6.0,
    OverheadFactor.VC_HANDLER: 6.016,
    OverheadFactor.OWNERSHIP_CHECK: 4.0,
    OverheadFactor.TLB_CHECK: 1.249,
    OverheadFactor.IO_PCIE_ENCRYPTION: 0.0,  # no measured column exercises it
}


def predict_latency(
    config: VmConfiguration,
    costs: Optional[dict[OverheadFactor, float]] = None,
    base: Optional[float] = None,
) -> float:
    """base + sum of costs over factors PRESENT in the configuration.

    OTHER_FACTORS is always present by definition and therefore carries no
    incremental cost; it is excluded from the sum.
    """
    costs = FITTED_FACTOR_COST_MICROS if costs is None else costs
    base = FITTED_BASE_MICROS if base is None else base
    total = base
    for factor in OverheadFactor:
        if factor is OverheadFactor.OTHER_FACTORS:
            continue
        if is_present(factor, config):
            total += costs.get(factor, 0.0)
    return total


# ---------------------------------------------------------------------------
# Report rendering.

_FACTOR_LABELS = {
    OverheadFactor.ROUTING_WITHIN_VM: "Routing within VM",
    OverheadFactor.ROUTING_WITHIN_HOST: "Routing within host",
    OverheadFactor.EMULATED_IO_INTERRUPT: "Emulated I/O interrupt",
    OverheadFactor.OTHER_FACTORS: "Other factors",
    OverheadFactor.ENCRYPTED_MEMORY: "Encrypted memory",
    OverheadFactor.REGISTER_ENCRYPTION: "Register encryption",
    OverheadFactor.BOUNCE_BUFFER_ALLOCATION: "Bounce buffer allocation",
    OverheadFactor.BOUNCE_BUFFER_COPY: "Bounce buffer copy",
    OverheadFactor.VMEXIT_CHECK: "VMEXIT check",
    OverheadFactor.VC_HANDLER: "VC handler",
    OverheadFactor.OWNERSHIP_CHECK: "Ownership check",
    OverheadFactor.TLB_CHECK: "TLB check",
    OverheadFactor.IO_PCIE_ENCRYPTION: "I/O PCIe encryption",
}

_CONFIG_LABELS = {
    VmConfiguration.NON_TEE_VM: "VM",
    VmConfiguration.VM_SRIOV: "VM+SRIOV",
    VmConfiguration.VM_DPDK: "VM+DPDK",
    VmConfiguration.SEV_VM: "SEV",
    VmConfiguration.SEV_SRIOV: "SEV+SRIOV",
    VmConfiguration.ES_SRIOV: "ES+SRIOV",
    VmConfiguration.SNP_SRIOV: "SNP+SRIOV",
    VmConfiguration.SNP_TIO: "SNP+TIO",
    VmConfiguration.SNP_TIO_DPDK: "SNP+TIO+DPDK",
    VmConfiguration.SNP_SOFTWARE: "SNP+SW",
}


def _ratio_str(r: Ratio) -> str:
    if r is None:
        return "N/A"
    if isinstance(r, GreaterThan):
        return str(r)
    return f"{r:.2f}x"


def render_report(fmt: str = "text") -> str:
    """The factor matrix plus the standardized latency rows, as aligned text
    or as JSON with stable key order."""
    if fmt not in ("text", "json"):
        raise ConfigInvalid(f"report format must be text or json, got {fmt!r}")
    if fmt == "json":
        payload = {
            "configurations": [c.value for c in _CONFIG_ORDER],
            "factors": [
                {
                    "name": f.value,
                    "class": f.factor_class.value,
                    "states": [_MATRIX_ROWS[f][i].value for i in range(len(_CONFIG_ORDER))],
                }
                for f in OverheadFactor
            ],
            "latency": {
                stat: [
                    _ratio_str(getattr(LATENCY_TABLE[c], stat) if LATENCY_TABLE[c] else None)
                    for c in _CONFIG_ORDER
                ]
                for stat in ("mean", "median", "p95", "p99")
            },
            "baseline": {
                "configuration": BASELINE_CONFIG.value,
                "micros": BASELINE_MICROS,
            },
        }
        return json.dumps(payload, indent=2, sort_keys=False)

    name_w = max(len(v) for v in _FACTOR_LABELS.values()) + 2
    col_w = max(max(len(v) for v in _CONFIG_LABELS.values()), 6) + 2
    lines = []
    header = " " * name_w + "".join(
        _CONFIG_LABELS[c].rjust(col_w) for c in _CONFIG_ORDER
    )
    lines.append(header)
    lines.append("-" * len(header))
    for factor in OverheadFactor:
        row = _MATRIX_ROWS[factor]
        lines.append(
            _FACTOR_LABELS[factor].ljust(name_w)
            + "".join(state.value.rjust(col_w) for state in row)
        )
    lines.append("-" * len(header))
    for stat in ("mean", "median", "p95", "p99"):
        cells = []
        for c in _CONFIG_ORDER:
            row = LATENCY_TABLE[c]
            cells.append(_ratio_str(getattr(row, stat) if row else None))
        lines.append((stat + " (x baseline)").ljust(name_w) + "".join(s.rjust(col_w) for s in cells))
    lines.append("")
    lines.append(
        "baseline {}: mean {mean} us, median {median} us, p95 {p95} us, p99 {p99} us".format(
            _CONFIG_LABELS[BASELINE_CONFIG], **BASELINE_MICROS
        )
    )
    lines.append("states: Y present, N absent, N+ absent (exits minimized by polling),")
    lines.append("        N- absent (write-access checks only), N* absent (VC handling minimized)")
    return "\n".join(lines)
