"""Tests for the DEFA hardware simulator: config, memories, banking, PE array,
dataflow, energy, area and the top-level simulator."""

import numpy as np
import pytest

from repro.hardware.area import AreaBreakdown, area_model
from repro.hardware.banking import (
    BankingScheme,
    ConflictReport,
    simulate_bank_conflicts,
    throughput_boost,
)
from repro.hardware.cacti import SRAMMacroModel
from repro.hardware.config import HardwareConfig
from repro.hardware.dataflow import LayerWorkload, Phase, build_layer_schedule
from repro.hardware.dram import HBM2Model
from repro.hardware.energy import EnergyBreakdown, EnergyModel
from repro.hardware.mask_units import mask_unit_report
from repro.hardware.pe_array import ReconfigurablePEArray
from repro.hardware.simulator import DEFASimulator, ModelSimulationReport


class TestHardwareConfig:
    def test_defaults_match_paper_design_point(self):
        config = HardwareConfig()
        assert config.technology_nm == 40
        assert config.frequency_mhz == 400.0
        assert config.precision_bits == 12
        assert config.num_banks == 16
        assert config.peak_gops == pytest.approx(204.8)

    def test_bytes_per_element(self):
        assert HardwareConfig().bytes_per_element == 1.5

    def test_scaling_reaches_target(self):
        for target in (13.3, 40.0):
            scaled = HardwareConfig().scaled_to(target)
            assert scaled.peak_gops == pytest.approx(target * 1e3, rel=0.15)

    def test_scaling_invalid(self):
        with pytest.raises(ValueError):
            HardwareConfig().scaled_to(0)

    def test_clock_and_per_cycle_rates(self):
        config = HardwareConfig()
        assert config.clock_period_ns == pytest.approx(2.5)
        assert config.macs_per_cycle == 16 * 16
        assert config.ba_samples_per_cycle == 4 * 16

    def test_scaling_keeps_frequency_and_technology(self):
        base = HardwareConfig()
        scaled = base.scaled_to(40.0)
        assert scaled.frequency_mhz == base.frequency_mhz
        assert scaled.technology_nm == base.technology_nm
        assert scaled.precision_bits == base.precision_bits
        assert scaled.macs_per_cycle > base.macs_per_cycle


class TestMemoryModels:
    def test_cacti_area_monotone_in_capacity(self):
        small = SRAMMacroModel(capacity_bytes=8 * 1024)
        large = SRAMMacroModel(capacity_bytes=64 * 1024)
        assert large.area_mm2() > small.area_mm2()
        assert large.energy_per_access_pj() > small.energy_per_access_pj()

    def test_cacti_invalid(self):
        with pytest.raises(ValueError):
            SRAMMacroModel(capacity_bytes=0)

    def test_dram_access_energy(self):
        dram = HBM2Model()
        assert dram.access_energy_j(1.0) == pytest.approx(8 * 1.2e-12)

    def test_cacti_capacity_and_per_byte_energy(self):
        macro = SRAMMacroModel(capacity_bytes=16 * 1024, word_bits=96)
        assert macro.capacity_kib == 16.0
        # One 96-bit access moves 12 bytes.
        assert macro.energy_per_byte_pj() == pytest.approx(macro.energy_per_access_pj() / 12)

    def test_cacti_technology_scaling(self):
        base = SRAMMacroModel(capacity_bytes=32 * 1024)
        older = SRAMMacroModel(capacity_bytes=32 * 1024, technology_nm=80)
        assert older.area_mm2() == pytest.approx(4 * base.area_mm2())
        assert older.energy_per_access_pj() == pytest.approx(2 * base.energy_per_access_pj())

    def test_cacti_invalid_word_bits(self):
        with pytest.raises(ValueError, match="word_bits"):
            SRAMMacroModel(capacity_bytes=1024, word_bits=0)

    def test_dram_energy_linear_in_bytes(self):
        dram = HBM2Model(energy_pj_per_bit=2.0)
        assert dram.access_energy_j(0) == 0.0
        assert dram.access_energy_j(1000) == pytest.approx(1000 * dram.access_energy_j(1))

    def test_dram_invalid(self):
        with pytest.raises(ValueError, match="energy"):
            HBM2Model(energy_pj_per_bit=-1.0)


class TestBanking:
    def test_inter_level_is_conflict_free(self, tiny_defa_output):
        report = simulate_bank_conflicts(tiny_defa_output.trace, BankingScheme.INTER_LEVEL)
        assert report.conflict_cycles == 0
        assert report.cycles_per_group == pytest.approx(1.0)

    def test_intra_level_has_conflicts(self, tiny_defa_output):
        report = simulate_bank_conflicts(tiny_defa_output.trace, BankingScheme.INTRA_LEVEL)
        assert report.conflict_cycles > 0
        assert report.cycles_per_group > 1.0

    def test_throughput_boost_above_one(self, tiny_defa_output):
        intra = simulate_bank_conflicts(tiny_defa_output.trace, BankingScheme.INTRA_LEVEL)
        inter = simulate_bank_conflicts(tiny_defa_output.trace, BankingScheme.INTER_LEVEL)
        assert throughput_boost(intra, inter) > 1.5

    def test_point_mask_reduces_active_points(self, tiny_defa_output):
        dense = simulate_bank_conflicts(tiny_defa_output.trace, BankingScheme.INTER_LEVEL)
        pruned = simulate_bank_conflicts(
            tiny_defa_output.trace,
            BankingScheme.INTER_LEVEL,
            point_mask=tiny_defa_output.point_mask,
        )
        assert pruned.active_points < dense.active_points

    def test_scheme_accepts_string(self, tiny_defa_output):
        report = simulate_bank_conflicts(tiny_defa_output.trace, "intra_level")
        assert report.scheme is BankingScheme.INTRA_LEVEL

    def test_conflict_report_derived_ratios(self):
        report = ConflictReport(
            BankingScheme.INTRA_LEVEL,
            num_groups=4,
            active_points=32,
            total_cycles=8,
            conflict_cycles=4,
        )
        assert report.cycles_per_group == 2.0
        assert report.throughput_points_per_cycle == 4.0
        assert report.conflict_fraction == 0.5

    def test_empty_conflict_report_ratios_are_zero(self):
        report = ConflictReport(BankingScheme.INTER_LEVEL, 0, 0, 0, 0)
        assert report.cycles_per_group == 0.0
        assert report.throughput_points_per_cycle == 0.0
        assert report.conflict_fraction == 0.0

    def test_inter_level_serves_more_points_per_cycle(self, tiny_defa_output):
        intra = simulate_bank_conflicts(tiny_defa_output.trace, BankingScheme.INTRA_LEVEL)
        inter = simulate_bank_conflicts(tiny_defa_output.trace, BankingScheme.INTER_LEVEL)
        # Both schemes replay the same points; only the cycle count differs.
        assert inter.active_points == intra.active_points
        assert inter.throughput_points_per_cycle > intra.throughput_points_per_cycle
        assert inter.conflict_fraction == 0.0 < intra.conflict_fraction
        assert intra.conflicting_groups > 0

    def test_point_mask_shape_mismatch(self, tiny_defa_output):
        mask = np.ones(tiny_defa_output.point_mask.shape[:-1], dtype=bool)
        with pytest.raises(ValueError, match="point_mask"):
            simulate_bank_conflicts(tiny_defa_output.trace, point_mask=mask)


class TestPEArray:
    def test_mm_cycles(self):
        pe = ReconfigurablePEArray(HardwareConfig())
        assert pe.mm_cycles(256) == 1
        assert pe.mm_cycles(257) == 2
        assert pe.mm_cycles(0) == 0

    def test_ba_cycles_scale_with_conflicts(self):
        pe = ReconfigurablePEArray(HardwareConfig())
        base = pe.ba_cycles(1000, 32, conflict_factor=1.0)
        stalled = pe.ba_cycles(1000, 32, conflict_factor=3.0)
        assert stalled == pytest.approx(3 * base, rel=0.01)

    def test_ba_invalid(self):
        pe = ReconfigurablePEArray(HardwareConfig())
        with pytest.raises(ValueError):
            pe.ba_cycles(10, 32, conflict_factor=0.5)

    def test_mm_cycles_negative(self):
        with pytest.raises(ValueError):
            ReconfigurablePEArray(HardwareConfig()).mm_cycles(-1)

    def test_ba_cycles_ideal_rate(self):
        pe = ReconfigurablePEArray(HardwareConfig())
        # 4 points x 16 channels of interpolated results per cycle.
        assert pe.ba_cycles(4, 16) == 1
        assert pe.ba_cycles(5, 16) == 2
        assert pe.ba_cycles(0, 16) == 0

    def test_ba_invalid_workload(self):
        pe = ReconfigurablePEArray(HardwareConfig())
        with pytest.raises(ValueError):
            pe.ba_cycles(-1, 32)
        with pytest.raises(ValueError):
            pe.ba_cycles(10, 0)


class TestDataflowAndEnergy:
    def _workload(self, point_keep=0.2, pixel_keep=0.6):
        return LayerWorkload.from_ratios(
            num_queries=128,
            num_tokens=128,
            d_model=256,
            num_heads=8,
            num_levels=4,
            num_points=4,
            point_keep_ratio=point_keep,
            pixel_keep_ratio=pixel_keep,
            unique_pixel_ratio=0.6,
        )

    def test_dense_factory(self):
        dense = LayerWorkload.dense(10, 10, 64, 4, 4, 4)
        assert dense.point_keep_ratio == 1.0 and dense.pixel_keep_ratio == 1.0

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            LayerWorkload.from_ratios(10, 10, 64, 4, 4, 4, point_keep_ratio=1.5)

    def test_workload_derived_sizes(self):
        workload = LayerWorkload.dense(10, 20, 64, 4, 3, 2)
        assert workload.d_head == 16
        assert workload.points_per_query == 4 * 3 * 2
        assert workload.points_total == 10 * 24
        assert workload.neighbor_accesses == 4 * workload.points_total

    @pytest.mark.parametrize(
        "overrides",
        [
            {"d_model": 30},
            {"points_kept": 10 * 24 + 1},
            {"pixels_kept": 21},
            {"intra_conflict_factor": 0.5},
        ],
        ids=["indivisible_heads", "points_kept", "pixels_kept", "conflict_factor"],
    )
    def test_workload_validation(self, overrides):
        from dataclasses import replace

        with pytest.raises(ValueError):
            replace(LayerWorkload.dense(10, 20, 64, 4, 3, 2), **overrides)

    def test_schedule_totals_are_phase_sums(self):
        schedule = build_layer_schedule(self._workload(), HardwareConfig())
        phases = schedule.phases
        assert schedule.total_macs == sum(p.macs for p in phases)
        assert schedule.total_bi_ops == sum(p.bi_ops for p in phases)
        assert schedule.sram_bytes == pytest.approx(sum(p.sram_bytes for p in phases))
        assert schedule.dram_bytes == pytest.approx(sum(p.dram_bytes for p in phases))
        for phase in phases:
            assert phase.sram_bytes == phase.sram_read_bytes + phase.sram_write_bytes

    def test_dense_schedule_macs_match_the_projections(self):
        n, d, points_per_query = 128, 256, 8 * 4 * 4
        schedule = build_layer_schedule(LayerWorkload.dense(n, n, d, 8, 4, 4), HardwareConfig())
        assert schedule.phase("attention_weights_mm").macs == n * d * points_per_query
        assert schedule.phase("sampling_offsets_mm").macs == n * d * 2 * points_per_query
        assert schedule.phase("value_proj_mm").macs == n * d * d
        assert schedule.phase("output_proj_mm").macs == n * d * d
        ba = schedule.phase("msgs_aggregation_ba")
        assert ba.macs == ba.bi_ops == n * points_per_query * (d // 8)

    def test_msgs_phases(self):
        fused = build_layer_schedule(self._workload(), HardwareConfig())
        unfused = build_layer_schedule(
            self._workload(), HardwareConfig(), fuse_msgs_aggregation=False
        )
        assert [p.name for p in fused.msgs_phases()] == [
            "msgs_fmap_fetch",
            "msgs_aggregation_ba",
        ]
        assert [p.name for p in unfused.msgs_phases()] == [
            "msgs_fmap_fetch",
            "msgs_aggregation_ba",
            "msgs_sampling_value_spill",
        ]

    def test_schedule_records_ablation_switches(self):
        schedule = build_layer_schedule(
            self._workload(),
            HardwareConfig(),
            fuse_msgs_aggregation=False,
            fmap_reuse=False,
            banking="intra_level",
        )
        assert schedule.fuse_msgs_aggregation is False
        assert schedule.fmap_reuse is False
        assert schedule.banking is BankingScheme.INTRA_LEVEL

    def test_sram_energy_per_byte(self):
        model = EnergyModel(HardwareConfig())
        # 288 KiB over 16 banks, 12-bit x 8 = 96-bit words.
        macro = SRAMMacroModel(capacity_bytes=288 * 1024 / 16, word_bits=96)
        assert model.sram_energy_per_byte_pj == pytest.approx(macro.energy_per_byte_pj())

    def test_phase_energy_components(self):
        config = HardwareConfig()
        model = EnergyModel(config)
        phase = Phase(
            name="probe",
            mode="mm",
            cycles=1,
            macs=1000,
            bi_ops=10,
            dram_read_bytes=100.0,
            dram_write_bytes=28.0,
            sram_read_bytes=50.0,
            sram_write_bytes=14.0,
            extra_energy_j=1e-9,
        )
        energy = model.phase_energy(phase)
        assert energy.dram_j == pytest.approx(128 * 8 * 1.2e-12)
        assert energy.sram_j == pytest.approx(64 * model.sram_energy_per_byte_pj * 1e-12)
        assert energy.logic_j == pytest.approx((1000 * 0.6 + 10 * 1.0) * 1e-12 + 1e-9)

    def test_layer_energy_is_sum_of_phase_energies(self):
        model = EnergyModel(HardwareConfig())
        schedule = build_layer_schedule(self._workload(), HardwareConfig())
        total = model.layer_energy(schedule)
        parts = [model.phase_energy(p) for p in schedule.phases]
        assert total.dram_j == pytest.approx(sum(e.dram_j for e in parts))
        assert total.sram_j == pytest.approx(sum(e.sram_j for e in parts))
        assert total.logic_j == pytest.approx(sum(e.logic_j for e in parts))

    def test_msgs_memory_energy_excludes_logic(self):
        model = EnergyModel(HardwareConfig())
        schedule = build_layer_schedule(self._workload(), HardwareConfig())
        msgs = model.msgs_memory_energy(schedule)
        assert msgs.logic_j == 0.0
        assert 0.0 < msgs.total_j < model.layer_energy(schedule).total_j

    def test_fusion_and_reuse_cut_msgs_memory_energy(self):
        """The Fig. 7(b) savings are measured on the MSGS memory energy."""
        config = HardwareConfig()
        model = EnergyModel(config)
        base = model.msgs_memory_energy(build_layer_schedule(self._workload(), config))
        unfused = model.msgs_memory_energy(
            build_layer_schedule(self._workload(), config, fuse_msgs_aggregation=False)
        )
        no_reuse = model.msgs_memory_energy(
            build_layer_schedule(self._workload(), config, fmap_reuse=False)
        )
        assert base.total_j < unfused.total_j
        assert base.total_j < no_reuse.total_j

    def test_empty_energy_fractions(self):
        assert EnergyBreakdown().fractions() == {"dram": 0.0, "sram": 0.0, "logic": 0.0}

    def test_schedule_has_expected_phases(self):
        schedule = build_layer_schedule(self._workload(), HardwareConfig())
        names = [p.name for p in schedule.phases]
        for expected in (
            "attention_weights_mm",
            "softmax",
            "sampling_offsets_mm",
            "value_proj_mm",
            "msgs_aggregation_ba",
            "output_proj_mm",
        ):
            assert expected in names
        assert schedule.compute_cycles > 0
        with pytest.raises(KeyError):
            schedule.phase("nonexistent")

    def test_pruning_reduces_cycles(self):
        dense = build_layer_schedule(
            LayerWorkload.dense(128, 128, 256, 8, 4, 4), HardwareConfig()
        )
        pruned = build_layer_schedule(self._workload(), HardwareConfig())
        assert pruned.compute_cycles < dense.compute_cycles
        assert pruned.dram_bytes < dense.dram_bytes

    def test_unfused_adds_spill_phase(self):
        fused = build_layer_schedule(self._workload(), HardwareConfig(), fuse_msgs_aggregation=True)
        unfused = build_layer_schedule(
            self._workload(), HardwareConfig(), fuse_msgs_aggregation=False
        )
        assert unfused.dram_bytes > fused.dram_bytes
        assert any(p.name == "msgs_sampling_value_spill" for p in unfused.phases)

    def test_no_reuse_increases_fetch_traffic(self):
        reuse = build_layer_schedule(self._workload(), HardwareConfig(), fmap_reuse=True)
        no_reuse = build_layer_schedule(self._workload(), HardwareConfig(), fmap_reuse=False)
        assert no_reuse.phase("msgs_fmap_fetch").dram_read_bytes > reuse.phase(
            "msgs_fmap_fetch"
        ).dram_read_bytes

    def test_intra_banking_slower(self):
        workload = LayerWorkload.from_ratios(
            128, 128, 256, 8, 4, 4, point_keep_ratio=0.5, pixel_keep_ratio=1.0,
            intra_conflict_factor=3.0,
        )
        inter = build_layer_schedule(workload, HardwareConfig(), banking="inter_level")
        intra = build_layer_schedule(workload, HardwareConfig(), banking="intra_level")
        assert intra.phase("msgs_aggregation_ba").cycles > inter.phase("msgs_aggregation_ba").cycles

    def test_energy_breakdown_positive(self):
        schedule = build_layer_schedule(self._workload(), HardwareConfig())
        energy = EnergyModel(HardwareConfig()).layer_energy(schedule)
        assert energy.dram_j > 0 and energy.sram_j > 0 and energy.logic_j > 0
        fracs = energy.fractions()
        assert sum(fracs.values()) == pytest.approx(1.0)

    def test_energy_merge(self):
        a = EnergyBreakdown(1.0, 2.0, 3.0)
        b = a.merged_with(a)
        assert b.total_j == 12.0

    def test_mask_unit_report(self):
        report = mask_unit_report(1000, 16000, 64000, 1e6, HardwareConfig())
        assert report.cycles == 4000
        assert report.energy_j > 0
        with pytest.raises(ValueError):
            mask_unit_report(-1, 0, 0, 0, HardwareConfig())

    def test_mask_unit_bit_counts(self):
        report = mask_unit_report(1000, 16000, 64000, 1e6, HardwareConfig(), addresses_per_cycle=32)
        assert report.fmap_mask_bits == 1000
        assert report.point_mask_bits == 16000
        assert report.frequency_updates == 64000
        assert report.compression_bytes == 1e6
        assert report.cycles == 2000
        with pytest.raises(ValueError, match="addresses_per_cycle"):
            mask_unit_report(1, 1, 1, 1.0, HardwareConfig(), addresses_per_cycle=0)


class TestAreaModel:
    def test_total_close_to_paper(self):
        area = area_model(HardwareConfig())
        assert 2.0 < area.total_mm2 < 3.5
        fracs = area.fractions()
        assert fracs["sram"] > fracs["pe_softmax"] > fracs["others"]
        assert sum(fracs.values()) == pytest.approx(1.0)

    def test_scaled_config_is_larger(self):
        base = area_model(HardwareConfig()).total_mm2
        scaled = area_model(HardwareConfig().scaled_to(13.3)).total_mm2
        assert scaled > 5 * base

    def test_older_technology_is_larger(self):
        from dataclasses import replace

        base = area_model(HardwareConfig())
        older = area_model(replace(HardwareConfig(), technology_nm=80))
        assert older.total_mm2 == pytest.approx(4 * base.total_mm2)

    def test_empty_breakdown_fractions(self):
        assert AreaBreakdown(0.0, 0.0, 0.0).fractions() == {
            "pe_softmax": 0.0,
            "sram": 0.0,
            "others": 0.0,
        }


class TestSimulator:
    def test_simulate_from_ratios(self, tiny_spec):
        sim = DEFASimulator()
        report = sim.simulate_from_ratios(tiny_spec, point_keep_ratio=0.2, pixel_keep_ratio=0.6)
        assert report.time_s > 0
        assert report.energy.total_j > 0
        assert len(report.layers) == tiny_spec.model.num_encoder_layers
        assert report.effective_tops > 0

    def test_first_layer_is_unmasked(self, tiny_spec):
        sim = DEFASimulator()
        workloads = sim.workloads_from_ratios(tiny_spec, 0.2, 0.6)
        assert workloads[0].pixel_keep_ratio == 1.0
        assert workloads[1].pixel_keep_ratio == pytest.approx(0.6, abs=0.01)

    def test_workload_from_defa_output(self, tiny_defa_output):
        sim = DEFASimulator()
        workload = sim.layer_workload_from_defa(tiny_defa_output)
        assert workload.points_kept == tiny_defa_output.stats.points_kept
        assert workload.intra_conflict_factor >= workload.inter_conflict_factor
        report = sim.simulate_layer(workload)
        assert report.time_s > 0

    def test_pruning_speeds_up_and_saves_energy(self, tiny_spec):
        sim = DEFASimulator()
        dense = sim.simulate_from_ratios(tiny_spec, 1.0, 1.0)
        pruned = sim.simulate_from_ratios(tiny_spec, 0.16, 0.57)
        assert pruned.time_s < dense.time_s
        assert pruned.energy.total_j < dense.energy.total_j

    def test_fusion_and_reuse_save_energy(self, tiny_spec):
        base = DEFASimulator().simulate_from_ratios(tiny_spec, 0.2, 0.6)
        no_fuse = DEFASimulator(fuse_msgs_aggregation=False).simulate_from_ratios(
            tiny_spec, 0.2, 0.6
        )
        no_reuse = DEFASimulator(fmap_reuse=False).simulate_from_ratios(tiny_spec, 0.2, 0.6)
        assert base.energy.total_j < no_fuse.energy.total_j
        assert base.energy.total_j < no_reuse.energy.total_j
        # Both savings come from off-chip traffic: the spill round trip and
        # the per-neighbour fmap re-fetches.
        assert base.dram_bytes < no_fuse.dram_bytes
        assert base.dram_bytes < no_reuse.dram_bytes

    def test_scaled_config_is_faster(self, tiny_spec):
        base = DEFASimulator().simulate_from_ratios(tiny_spec, 0.2, 0.6)
        scaled = DEFASimulator(HardwareConfig().scaled_to(13.3)).simulate_from_ratios(
            tiny_spec, 0.2, 0.6
        )
        assert scaled.time_s < base.time_s

    def test_model_report_aggregates_layers(self, tiny_spec):
        report = DEFASimulator().simulate_from_ratios(tiny_spec, 0.2, 0.6)
        layers = report.layers
        assert report.time_s == pytest.approx(sum(layer.time_s for layer in layers))
        assert report.dense_ops == sum(layer.dense_ops for layer in layers)
        assert report.dram_bytes == pytest.approx(sum(layer.dram_bytes for layer in layers))
        assert report.energy_per_inference_j == report.energy.total_j
        chip_j = report.energy.sram_j + report.energy.logic_j
        assert report.chip_power_w == pytest.approx(chip_j / report.time_s)
        assert report.effective_tops == pytest.approx(report.dense_ops / report.time_s / 1e12)
        for layer in layers:
            assert layer.sram_bytes == layer.schedule.sram_bytes

    def test_empty_model_report(self):
        report = ModelSimulationReport()
        assert report.time_s == 0.0
        assert report.effective_tops == 0.0
        assert report.chip_power_w == 0.0
        assert report.energy_per_inference_j == 0.0

    def test_layer_time_is_the_bottleneck(self, tiny_spec):
        sim = DEFASimulator()
        for layer in sim.simulate_from_ratios(tiny_spec, 0.2, 0.6).layers:
            assert layer.time_s == max(layer.compute_time_s, layer.dram_time_s)
            assert layer.compute_time_s == pytest.approx(layer.compute_cycles * 2.5e-9)
            assert layer.dram_time_s == pytest.approx(layer.dram_bytes / 256e9)

    def test_dense_ops_do_not_depend_on_pruning(self, tiny_spec):
        sim = DEFASimulator()
        dense = sim.simulate_from_ratios(tiny_spec, 1.0, 1.0)
        pruned = sim.simulate_from_ratios(tiny_spec, 0.16, 0.57)
        assert pruned.dense_ops == dense.dense_ops
        assert pruned.effective_tops > dense.effective_tops

    def test_simulate_layers_matches_from_ratios(self, tiny_spec):
        sim = DEFASimulator()
        workloads = sim.workloads_from_ratios(tiny_spec, 0.2, 0.6, num_layers=2)
        via_layers = sim.simulate_layers(workloads)
        via_ratios = sim.simulate_from_ratios(tiny_spec, 0.2, 0.6, num_layers=2)
        assert len(via_layers.layers) == 2
        assert via_layers.time_s == via_ratios.time_s
        assert via_layers.energy.total_j == via_ratios.energy.total_j

    def test_intra_level_banking_is_slower(self, tiny_spec):
        inter = DEFASimulator(banking="inter_level").simulate_from_ratios(tiny_spec, 0.2, 0.6)
        intra = DEFASimulator(banking="intra_level").simulate_from_ratios(tiny_spec, 0.2, 0.6)
        assert intra.time_s > inter.time_s

    def test_encoder_result_requires_details(self, tiny_workload_run):
        from repro.core.config import DEFAConfig
        from repro.core.encoder_runner import DEFAEncoderRunner

        run = tiny_workload_run
        result = DEFAEncoderRunner(run["encoder"], DEFAConfig()).forward(
            run["features"], run["pos"], run["reference_points"], run["spec"].spatial_shapes
        )
        with pytest.raises(ValueError, match="collect_details"):
            DEFASimulator().workloads_from_encoder_result(result)

    def test_workloads_from_detailed_encoder_result(self, tiny_workload_run):
        from repro.core.config import DEFAConfig
        from repro.core.encoder_runner import DEFAEncoderRunner

        run = tiny_workload_run
        result = DEFAEncoderRunner(run["encoder"], DEFAConfig()).forward(
            run["features"],
            run["pos"],
            run["reference_points"],
            run["spec"].spatial_shapes,
            collect_details=True,
        )
        workloads = DEFASimulator().workloads_from_encoder_result(result)
        assert len(workloads) == len(result.layer_stats) == 2
        for workload, stats in zip(workloads, result.layer_stats):
            assert workload.points_kept == stats.points_kept
            assert workload.pixels_kept == stats.pixels_kept
        # Block 1 receives no FWP mask; block 2 runs on the pruned fmap.
        assert workloads[0].pixels_kept == workloads[0].num_tokens
        assert workloads[1].pixels_kept < workloads[1].num_tokens
