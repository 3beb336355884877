import json

import numpy as np
import pytest
from scipy.optimize import nnls

from splitio.errors import SplitioError
from splitio.factors import (
    BASELINE_CONFIG,
    BASELINE_MICROS,
    FITTED_BASE_MICROS,
    FITTED_FACTOR_COST_MICROS,
    FactorClass,
    FactorState,
    GreaterThan,
    LatencyRow,
    LATENCY_TABLE,
    OverheadFactor,
    VmConfiguration,
    diff_configs,
    factor_state,
    is_present,
    predict_latency,
    render_report,
    standardize,
)

# Second transcription of the factor matrix, written per configuration
# instead of per factor so a copy error in one encoding cannot survive the
# comparison. One character per factor, in OverheadFactor declaration order:
# Y present, N absent, P absent-minimized (N+), W absent-write-only (N-),
# V absent-vc-minimized (N*).
CONFIG_COLUMNS = {
    VmConfiguration.NON_TEE_VM: "YYYYYYNNNNWNN",
    VmConfiguration.VM_SRIOV: "YNYYYYNNNNWNN",
    VmConfiguration.VM_DPDK: "NNNYYPNNNNWNN",
    VmConfiguration.SEV_VM: "YYYYYYYYNNWNN",
    VmConfiguration.SEV_SRIOV: "YNYYYYYYNNWNN",
    VmConfiguration.ES_SRIOV: "YNYYYYYYYYWNN",
    VmConfiguration.SNP_SRIOV: "YNYYYYYYNYYYN",
    VmConfiguration.SNP_TIO: "NNYYYYNNNYYYY",
    VmConfiguration.SNP_TIO_DPDK: "NNNYYPNNNVYPY",
    VmConfiguration.SNP_SOFTWARE: "NNNYYPNYNVYPN",
}

_CHAR_STATE = {
    "Y": FactorState("Y"),
    "N": FactorState("N"),
    "P": FactorState("N+"),
    "W": FactorState("N-"),
    "V": FactorState("N*"),
}

MEASURED_MEANS = {
    VmConfiguration.VM_SRIOV: 1.00 * 75.1,
    VmConfiguration.VM_DPDK: 0.37 * 75.1,
    VmConfiguration.SEV_SRIOV: 1.01 * 75.1,
    VmConfiguration.ES_SRIOV: 1.17 * 75.1,
    VmConfiguration.SNP_SRIOV: 1.16 * 75.1,
}


class TestMatrix:
    def test_matches_second_transcription_cell_by_cell(self):
        assert set(CONFIG_COLUMNS) == set(VmConfiguration)
        for config, column in CONFIG_COLUMNS.items():
            assert len(column) == 13
            for factor, char in zip(OverheadFactor, column, strict=True):
                expected = _CHAR_STATE[char]
                got = factor_state(factor, config)
                assert got is expected, (
                    f"{factor.value} @ {config.value}: {got.value} != {expected.value}"
                )

    def test_is_present_means_plain_y(self):
        assert is_present(OverheadFactor.ROUTING_WITHIN_VM, VmConfiguration.NON_TEE_VM)
        # every absence flavor counts as not-present
        assert not is_present(OverheadFactor.REGISTER_ENCRYPTION, VmConfiguration.VM_DPDK)
        assert not is_present(OverheadFactor.OWNERSHIP_CHECK, VmConfiguration.NON_TEE_VM)
        assert not is_present(OverheadFactor.VC_HANDLER, VmConfiguration.SNP_TIO_DPDK)

    def test_factor_classes(self):
        common = {f for f in OverheadFactor if f.factor_class is FactorClass.COMMON}
        assert common == {
            OverheadFactor.ROUTING_WITHIN_VM,
            OverheadFactor.ROUTING_WITHIN_HOST,
            OverheadFactor.EMULATED_IO_INTERRUPT,
            OverheadFactor.OTHER_FACTORS,
        }

    def test_projected_configurations(self):
        # projected hardware configurations have no measured latency row
        for c in (VmConfiguration.SNP_TIO, VmConfiguration.SNP_TIO_DPDK):
            assert LATENCY_TABLE[c] is None


class TestDiff:
    def test_software_design_vs_projected_hardware(self):
        delta = diff_configs(VmConfiguration.SNP_SOFTWARE, VmConfiguration.SNP_TIO_DPDK)
        assert delta == [
            (
                OverheadFactor.BOUNCE_BUFFER_COPY,
                FactorState.PRESENT,
                FactorState.ABSENT,
            ),
            (
                OverheadFactor.IO_PCIE_ENCRYPTION,
                FactorState.ABSENT,
                FactorState.PRESENT,
            ),
        ]

    def test_sev_cost_is_the_bounce_pair(self):
        delta = diff_configs(VmConfiguration.VM_SRIOV, VmConfiguration.SEV_SRIOV)
        assert [d[0] for d in delta] == [
            OverheadFactor.BOUNCE_BUFFER_ALLOCATION,
            OverheadFactor.BOUNCE_BUFFER_COPY,
        ]
        assert all(a is FactorState.ABSENT and b is FactorState.PRESENT for _, a, b in delta)

    def test_same_config_rejected(self):
        with pytest.raises(SplitioError, match="cannot diff"):
            diff_configs(VmConfiguration.VM_SRIOV, VmConfiguration.VM_SRIOV)

    def test_row_order_preserved(self):
        delta = diff_configs(VmConfiguration.NON_TEE_VM, VmConfiguration.SNP_SOFTWARE)
        order = [list(OverheadFactor).index(f) for f, _, _ in delta]
        assert order == sorted(order)


class TestStandardize:
    def test_ratios_round_to_two_decimals(self):
        rows = {
            BASELINE_CONFIG: {"mean": 30.0, "median": 30.0, "p95": 30.0, "p99": 30.0},
            VmConfiguration.VM_DPDK: {"mean": 10.0, "median": 11.0, "p95": 37.5, "p99": 90.0},
        }
        out = standardize(rows, BASELINE_CONFIG)
        assert out[BASELINE_CONFIG] == LatencyRow(1.0, 1.0, 1.0, 1.0)
        assert out[VmConfiguration.VM_DPDK] == LatencyRow(0.33, 0.37, 1.25, 3.0)

    def test_missing_baseline(self):
        rows = {VmConfiguration.VM_DPDK: {"mean": 1, "median": 1, "p95": 1, "p99": 1}}
        with pytest.raises(SplitioError, match="no row for baseline"):
            standardize(rows, BASELINE_CONFIG)

    def test_zero_baseline(self):
        rows = {BASELINE_CONFIG: {"mean": 0.0, "median": 1, "p95": 1, "p99": 1}}
        with pytest.raises(SplitioError, match="baseline mean is zero"):
            standardize(rows, BASELINE_CONFIG)

    def test_shipped_table_closes_over_standardize(self):
        """Scaling the baseline row by each table ratio and standardizing
        again must reproduce the table (for the measured, finite rows)."""
        absolute = {}
        for config, row in LATENCY_TABLE.items():
            if row is None or isinstance(row.mean, GreaterThan):
                continue
            absolute[config] = {
                "mean": row.mean * BASELINE_MICROS["mean"],
                "median": row.median * BASELINE_MICROS["median"],
                "p95": row.p95 * BASELINE_MICROS["p95"],
                "p99": row.p99 * BASELINE_MICROS["p99"],
            }
        out = standardize(absolute, BASELINE_CONFIG)
        for config in absolute:
            assert out[config] == LATENCY_TABLE[config]

    def test_open_bounds_render(self):
        assert str(GreaterThan(50.0)) == ">50x"


class TestPrediction:
    def test_reproduces_measured_means(self):
        for config, measured in MEASURED_MEANS.items():
            assert predict_latency(config) == pytest.approx(measured, abs=1e-6)

    def test_reproduces_measured_means_within_criterion(self):
        for config, measured in MEASURED_MEANS.items():
            assert abs(predict_latency(config) - measured) / measured < 0.15

    def test_unmeasured_bounds_respected(self):
        floor = 50.0 * BASELINE_MICROS["mean"]
        assert predict_latency(VmConfiguration.NON_TEE_VM) >= floor - 1e-9
        assert predict_latency(VmConfiguration.SEV_VM) >= floor - 1e-9

    def test_nonnegative_refit_agrees(self):
        """Independent route: refit per-factor costs with scipy's NNLS from
        the matrix and the measured means; the refit must reach an (almost)
        exact fit, proving the pinned profile is not doing hidden work."""
        configs = list(MEASURED_MEANS)
        factors = [f for f in OverheadFactor if f is not OverheadFactor.OTHER_FACTORS]
        design = np.array(
            [[1.0] + [1.0 if is_present(f, c) else 0.0 for f in factors] for c in configs]
        )
        y = np.array([MEASURED_MEANS[c] for c in configs])
        weights, residual = nnls(design, y)
        assert residual < 1e-6
        refit = design @ weights
        assert np.allclose(refit, y, atol=1e-6)

    def test_custom_costs_and_base(self):
        costs = {f: 0.0 for f in OverheadFactor}
        costs[OverheadFactor.BOUNCE_BUFFER_COPY] = 2.5
        assert predict_latency(VmConfiguration.SEV_SRIOV, costs=costs, base=10.0) == 12.5
        assert predict_latency(VmConfiguration.VM_SRIOV, costs=costs, base=10.0) == 10.0

    def test_other_factors_carries_no_cost(self):
        costs = {f: 0.0 for f in OverheadFactor}
        costs[OverheadFactor.OTHER_FACTORS] = 1e9
        assert predict_latency(VmConfiguration.VM_SRIOV, costs=costs, base=1.0) == 1.0

    def test_shipped_profile_is_nonnegative(self):
        assert FITTED_BASE_MICROS >= 0
        assert all(v >= 0 for v in FITTED_FACTOR_COST_MICROS.values())
        assert set(FITTED_FACTOR_COST_MICROS) == set(OverheadFactor)


class TestReport:
    def test_text_report(self):
        text = render_report("text")
        for label in ("VM+SRIOV", "SNP+SW", "SNP+TIO+DPDK"):
            assert label in text
        assert ">50x" in text
        assert "N/A" in text
        assert "0.37x" in text

    def test_json_report(self):
        doc = json.loads(render_report("json"))
        assert set(doc) == {"configurations", "factors", "latency", "baseline"}
        assert len(doc["factors"]) == 13
        assert len(doc["configurations"]) == 10
        states = {s for f in doc["factors"] for s in f["states"]}
        assert states <= {"Y", "N", "N+", "N-", "N*"}

    def test_unknown_format_rejected(self):
        from splitio.errors import ConfigInvalid

        with pytest.raises(ConfigInvalid):
            render_report("yaml")
