"""Tests for the DEFA attention pipeline, encoder runner and weight fitting."""

import numpy as np
import pytest

from repro.core.config import DEFAConfig
from repro.core.encoder_runner import DEFAEncoderResult, DEFAEncoderRunner
from repro.core.pipeline import DEFAAttention
from repro.eval.fidelity import compare_outputs
from repro.nn.weight_fitting import (
    FittingConfig,
    ObjectLayout,
    build_desired_targets,
    ridge_fit,
)


class TestDEFAAttention:
    def test_output_shape_and_masks(self, tiny_defa_output, tiny_spec):
        out = tiny_defa_output
        n_in = tiny_spec.num_tokens
        assert out.output.shape == (n_in, tiny_spec.model.d_model)
        assert out.fmap_mask_next.shape == (n_in,)
        assert out.point_mask.shape[0] == n_in
        assert out.stats.points_kept <= out.stats.points_total

    def test_pap_reduces_points(self, tiny_defa_output):
        assert tiny_defa_output.stats.point_reduction > 0.3

    def test_fwp_mask_generated(self, tiny_defa_output):
        assert 0.0 < tiny_defa_output.fwp.keep_fraction < 1.0

    def test_flops_reduction_positive(self, tiny_defa_output):
        assert tiny_defa_output.stats.flops_reduction > 0.2

    def test_baseline_config_is_lossless(self, tiny_workload_run):
        run = tiny_workload_run
        attn = run["encoder"].layers[0].self_attn
        defa = DEFAAttention(attn, DEFAConfig.baseline())
        query = run["features"] + run["pos"]
        out = defa.forward_detailed(
            query, run["reference_points"], run["features"], run["spec"].spatial_shapes
        )
        reference = attn(
            query, run["reference_points"], run["features"], run["spec"].spatial_shapes
        )
        assert np.allclose(out.output, reference, atol=1e-3)
        assert out.stats.point_reduction == 0.0
        assert out.stats.pixel_reduction == 0.0

    def test_fmap_mask_is_applied(self, tiny_workload_run):
        run = tiny_workload_run
        attn = run["encoder"].layers[0].self_attn
        defa = DEFAAttention(attn, DEFAConfig())
        query = run["features"] + run["pos"]
        shapes = run["spec"].spatial_shapes
        n_in = run["spec"].num_tokens
        mask = np.zeros(n_in, dtype=bool)  # prune everything
        out = defa.forward_detailed(
            query, run["reference_points"], run["features"], shapes, fmap_mask=mask
        )
        assert out.stats.pixels_kept == 0
        assert out.stats.pixel_reduction == 1.0

    def test_first_block_convention(self, tiny_workload_run, tiny_defa_output, tiny_spec):
        """First-block stats convention: with ``fmap_mask=None`` and
        ``enable_fwp=True``, ``pixels_kept`` equals ``pixels_total`` (no mask
        was received to apply — FWP masks always come from the *previous*
        block) while the mask generated for the next block is accounted in
        ``pixels_kept_next``.  ``mask_applied`` makes the convention explicit.
        """
        n_in = tiny_spec.num_tokens
        stats = tiny_defa_output.stats
        # tiny_defa_output runs the default config (enable_fwp=True), no mask.
        assert not stats.mask_applied
        assert stats.pixels_kept == stats.pixels_total == n_in
        assert stats.pixel_reduction == 0.0
        # The block still *generates* a pruning mask for its successor.
        assert stats.pixels_kept_next < n_in
        assert stats.pixel_reduction_next > 0.0
        # Applying any mask (here: the generated one) flips the flag and makes
        # pixels_kept a measurement again.
        run = tiny_workload_run
        defa = DEFAAttention(run["encoder"].layers[0].self_attn, DEFAConfig())
        masked = defa.forward_detailed(
            run["features"] + run["pos"],
            run["reference_points"],
            run["features"],
            run["spec"].spatial_shapes,
            fmap_mask=tiny_defa_output.fmap_mask_next,
        )
        assert masked.stats.mask_applied
        assert masked.stats.pixels_kept == tiny_defa_output.stats.pixels_kept_next

    def test_wrong_mask_length_raises(self, tiny_workload_run):
        run = tiny_workload_run
        defa = DEFAAttention(run["encoder"].layers[0].self_attn, DEFAConfig())
        with pytest.raises(ValueError):
            defa.forward_detailed(
                run["features"] + run["pos"],
                run["reference_points"],
                run["features"],
                run["spec"].spatial_shapes,
                fmap_mask=np.ones(3, dtype=bool),
            )

    def test_defa_output_close_to_baseline(self, tiny_workload_run, tiny_defa_output):
        """The DEFA techniques perturb the block output only mildly."""
        run = tiny_workload_run
        attn = run["encoder"].layers[0].self_attn
        reference = attn(
            run["features"] + run["pos"],
            run["reference_points"],
            run["features"],
            run["spec"].spatial_shapes,
        )
        fidelity = compare_outputs(reference, tiny_defa_output.output)
        assert fidelity.relative_error < 0.5
        assert fidelity.mean_cosine_similarity > 0.8


class TestDEFAEncoderRunner:
    def test_mask_propagation_and_stats(self, tiny_workload_run):
        run = tiny_workload_run
        runner = DEFAEncoderRunner(run["encoder"], DEFAConfig())
        result = runner.forward(
            run["features"],
            run["pos"],
            run["reference_points"],
            run["spec"].spatial_shapes,
            collect_details=True,
        )
        assert len(result.layer_stats) == 2
        # first block receives no mask
        assert result.layer_stats[0].pixel_reduction == 0.0
        # second block receives the mask generated by the first
        assert result.layer_stats[1].pixels_kept == result.layer_outputs[0].fwp.num_kept
        assert 0.0 < result.mean_point_reduction < 1.0

    def test_mean_reductions(self, tiny_workload_run):
        run = tiny_workload_run
        result = DEFAEncoderRunner(run["encoder"], DEFAConfig()).forward(
            run["features"], run["pos"], run["reference_points"], run["spec"].spatial_shapes
        )
        stats = result.layer_stats
        assert result.mean_point_reduction == pytest.approx(
            np.mean([s.point_reduction for s in stats])
        )
        # The first block has no incoming FWP mask and is left out.
        assert result.mean_pixel_reduction == pytest.approx(stats[1].pixel_reduction)
        assert 0.0 < result.mean_pixel_reduction < 1.0
        assert 0.0 < result.mean_flops_reduction < 1.0

    def test_empty_result_reductions_are_zero(self):
        result = DEFAEncoderResult(memory=np.zeros((4, 8), dtype=np.float32))
        assert result.mean_point_reduction == 0.0
        assert result.mean_pixel_reduction == 0.0
        assert result.mean_flops_reduction == 0.0

    def test_batch_result_keeps_per_image_results(self, tiny_workload_run):
        run = tiny_workload_run
        batch = np.stack([run["features"], run["features"][::-1].copy()])
        result = DEFAEncoderRunner(run["encoder"], DEFAConfig()).forward(
            batch, run["pos"], run["reference_points"], run["spec"].spatial_shapes
        )
        assert result.batch_size == 2
        assert result.memory.shape == batch.shape
        for b, image in enumerate(result.images):
            assert np.array_equal(image.memory, result.memory[b])
            assert len(image.layer_stats) == 2

    def test_memory_close_to_baseline(self, tiny_workload_run):
        run = tiny_workload_run
        baseline = run["encoder"].forward(
            run["features"], run["pos"], run["reference_points"], run["spec"].spatial_shapes
        )
        runner = DEFAEncoderRunner(run["encoder"], DEFAConfig())
        result = runner.forward(
            run["features"], run["pos"], run["reference_points"], run["spec"].spatial_shapes
        )
        fidelity = compare_outputs(baseline, result.memory)
        assert fidelity.relative_error < 0.6

    def test_int8_is_much_worse_than_int12(self, tiny_workload_run):
        run = tiny_workload_run
        baseline = run["encoder"].forward(
            run["features"], run["pos"], run["reference_points"], run["spec"].spatial_shapes
        )
        def error(bits):
            config = DEFAConfig.baseline().with_overrides(quant_bits=bits)
            result = DEFAEncoderRunner(run["encoder"], config).forward(
                run["features"], run["pos"], run["reference_points"], run["spec"].spatial_shapes
            )
            return compare_outputs(baseline, result.memory).relative_error

        assert error(8) > 2 * error(12)


class TestWeightFitting:
    def test_object_layout_from_boxes(self):
        boxes = np.array([[0.1, 0.1, 0.3, 0.5]])
        layout = ObjectLayout.from_boxes(boxes)
        assert layout.centers[0] == pytest.approx([0.2, 0.3])
        assert layout.radii[0] == pytest.approx(0.15)

    def test_object_layout_validation(self):
        with pytest.raises(ValueError):
            ObjectLayout(centers=np.zeros((0, 2)), radii=np.zeros(0))
        with pytest.raises(ValueError):
            ObjectLayout(centers=np.zeros((2, 2)), radii=np.zeros(3))

    def test_ridge_fit_recovers_linear_map(self):
        rng = np.random.default_rng(0)
        features = rng.standard_normal((500, 16))
        true_w = rng.standard_normal((16, 3))
        targets = features @ true_w + 2.0
        weight, bias = ridge_fit(features, targets, ridge_lambda=1e-6)
        assert np.allclose(weight, true_w, atol=1e-3)
        assert np.allclose(bias, 2.0, atol=1e-3)

    def test_desired_targets_shapes(self, tiny_workload_run):
        run = tiny_workload_run
        shapes = run["spec"].spatial_shapes
        offsets, logits = build_desired_targets(
            run["reference_points"], shapes, run["layout"], num_heads=8, num_points=4, rng=0
        )
        n_q = run["spec"].num_tokens
        assert offsets.shape == (n_q, 8, len(shapes), 4, 2)
        assert logits.shape == (n_q, 8, len(shapes) * 4)

    def test_desired_logits_peaked(self, tiny_workload_run):
        """Targets must produce peaked attention (what PAP exploits)."""
        run = tiny_workload_run
        config = FittingConfig()
        _, logits = build_desired_targets(
            run["reference_points"],
            run["spec"].spatial_shapes,
            run["layout"],
            num_heads=8,
            num_points=4,
            config=config,
            rng=0,
        )
        spread = logits.max(axis=-1) - logits.min(axis=-1)
        assert np.mean(spread) > 0.5 * (config.logit_high - config.logit_low)

    def test_fitted_attention_is_concentrated(self, tiny_workload_run, tiny_defa_output):
        """After fitting, most attention probabilities are near zero (PAP's premise)."""
        probs = tiny_defa_output.attention_weights
        near_zero = np.mean(tiny_defa_output.pap.attention_weights < 0.035)
        assert near_zero > 0.5
