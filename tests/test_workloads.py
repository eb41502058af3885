"""Tests for workload specs, synthetic scenes and inputs, the backbone and datasets."""

import numpy as np
import pytest

from repro.nn.backbone import SyntheticFPNBackbone
from repro.nn.detection_head import PrototypeDetectionHead
from repro.nn.models import MODEL_NAMES, build_encoder, get_model_config
from repro.workloads.dataset import SyntheticDetectionDataset
from repro.workloads.specs import SCALE_PRESETS, get_workload
from repro.workloads.synthetic_images import NUM_CLASSES, SceneGenerator
from repro.workloads.traces import synthetic_workload_input


class TestModelConfigs:
    def test_three_benchmarks(self):
        assert set(MODEL_NAMES) == {"deformable_detr", "dn_detr", "dino"}

    def test_aliases(self):
        assert get_model_config("De DETR").name == "deformable_detr"
        assert get_model_config("DN-DETR").name == "dn_detr"

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            get_model_config("yolo")

    def test_published_numbers_present(self):
        for name in MODEL_NAMES:
            config = get_model_config(name)
            assert config.published.baseline_ap > config.published.defa_ap
            assert 0.5 < config.published.msgs_latency_fraction < 0.7

    def test_encoder_kwargs_describe_the_architecture(self):
        config = get_model_config("dino")
        kwargs = config.encoder_kwargs()
        assert kwargs == {
            "num_layers": config.num_encoder_layers,
            "d_model": config.d_model,
            "num_heads": config.num_heads,
            "num_levels": config.num_levels,
            "num_points": config.num_points,
            "ffn_dim": config.ffn_dim,
            "activation": config.activation,
        }

    def test_build_encoder_matches_config(self):
        config = get_model_config("deformable_detr")
        encoder = build_encoder(config, rng=0)
        assert len(encoder.layers) == config.num_encoder_layers
        assert encoder.layers[0].self_attn.num_levels == config.num_levels


class TestWorkloadSpecs:
    def test_paper_scale_token_count(self):
        spec = get_workload("deformable_detr", "paper")
        # 100x134 + 50x67 + 25x34 + 13x17 = 17821 tokens
        assert spec.num_tokens == 17821
        assert spec.num_sampling_points_per_query == 128

    def test_all_scales_available(self):
        for scale in SCALE_PRESETS:
            assert get_workload("dino", scale).num_tokens > 0

    def test_unknown_scale(self):
        with pytest.raises(KeyError):
            get_workload("dino", "huge")

    def test_flops_breakdown_consistency(self):
        spec = get_workload("deformable_detr", "tiny")
        breakdown = spec.layer_flops_breakdown()
        assert sum(breakdown.values()) == spec.layer_flops()

    def test_multi_scale_ratio_near_paper(self):
        spec = get_workload("deformable_detr", "paper")
        assert 19.0 < spec.multi_scale_to_single_scale_ratio() < 23.0

    def test_describe_keys(self):
        desc = get_workload("dino", "tiny").describe()
        assert "num_tokens" in desc and "encoder_gflops" in desc

    def test_describe_values_match_the_spec(self):
        spec = get_workload("deformable_detr", "paper")
        desc = spec.describe()
        assert desc["workload"] == "deformable_detr@paper"
        assert desc["image"] == "800x1066"
        assert desc["levels"] == "100x134+50x67+25x34+13x17"
        assert desc["sampling_points_per_layer"] == spec.num_sampling_points_per_layer
        assert desc["layer_gflops"] == spec.layer_flops() / 1e9

    def test_sampling_point_counts(self):
        spec = get_workload("deformable_detr", "paper")
        assert spec.d_head == 32
        assert spec.num_queries == spec.num_tokens
        assert spec.num_sampling_points_per_layer == 17821 * 128

    def test_ffn_and_encoder_flops(self):
        spec = get_workload("deformable_detr", "tiny")
        ffn = spec.ffn_flops_per_layer()
        assert ffn == 2 * spec.num_tokens * 256 * 1024 * 2
        assert spec.encoder_flops() == (spec.layer_flops() + ffn) * 6

    def test_encoder_flops_grow_with_resolution(self):
        tiny = get_workload("dino", "tiny").encoder_flops()
        paper = get_workload("dino", "paper").encoder_flops()
        assert paper > 50 * tiny

    def test_backbone_level_shapes_match_spec(self):
        spec = get_workload("deformable_detr", "tiny")
        backbone = SyntheticFPNBackbone(d_model=8, strides=spec.model.strides, rng=0)
        assert len(backbone.strides) == 4
        assert backbone.level_shapes(spec.image_height, spec.image_width) == spec.spatial_shapes


class TestSyntheticScenes:
    def test_scene_properties(self):
        generator = SceneGenerator(image_height=64, image_width=96, rng=0)
        scene = generator.generate()
        assert scene.image.shape == (64, 96, 3)
        assert scene.image.min() >= 0.0 and scene.image.max() <= 1.0
        assert scene.boxes.shape == (len(scene.labels), 4)
        assert np.all(scene.boxes[:, 2] > scene.boxes[:, 0])
        assert np.all((scene.labels >= 0) & (scene.labels < NUM_CLASSES))

    def test_batch_generation(self):
        generator = SceneGenerator(image_height=32, image_width=32, rng=0)
        scenes = generator.generate_batch(3)
        assert len(scenes) == 3

    def test_objects_change_the_image(self):
        generator = SceneGenerator(image_height=64, image_width=64, rng=0)
        scene = generator.generate()
        box = scene.boxes[0]
        cx = int((box[0] + box[2]) / 2 * 64)
        cy = int((box[1] + box[3]) / 2 * 64)
        background = scene.image[0, 0]
        assert not np.allclose(scene.image[cy, cx], background, atol=0.05)


class TestBackbone:
    def test_pyramid_shapes(self):
        backbone = SyntheticFPNBackbone(d_model=64, strides=(8, 16), rng=0)
        image = np.random.default_rng(0).random((64, 96, 3)).astype(np.float32)
        pyramid = backbone(image)
        assert [s.as_tuple() for s in pyramid.spatial_shapes] == [(8, 12), (4, 6)]
        assert pyramid.flat.shape == (8 * 12 + 4 * 6, 64)
        assert len(pyramid.levels) == 2

    def test_feature_energy_concentrated_on_objects(self):
        generator = SceneGenerator(image_height=64, image_width=64, rng=1)
        scene = generator.generate()
        backbone = SyntheticFPNBackbone(d_model=32, strides=(8,), rng=0)
        level = backbone(scene.image).levels[0]
        energy = np.linalg.norm(level, axis=-1)
        box = scene.boxes[0]
        cx = int((box[0] + box[2]) / 2 * level.shape[1])
        cy = int((box[1] + box[3]) / 2 * level.shape[0])
        assert energy[cy, cx] != pytest.approx(float(np.median(energy)), rel=1e-3)

    def test_invalid_image(self):
        backbone = SyntheticFPNBackbone(d_model=16, rng=0)
        with pytest.raises(ValueError):
            backbone(np.zeros((10, 10)))


class TestTracesAndDataset:
    def test_synthetic_workload_input(self, tiny_spec):
        features, layout = synthetic_workload_input(tiny_spec, rng=0)
        assert features.shape == (tiny_spec.num_tokens, 256)
        assert len(layout.radii) == len(layout.centers) == 8

    def test_dataset_splits(self):
        config = get_model_config("deformable_detr")
        dataset = SyntheticDetectionDataset(
            config, image_height=64, image_width=96, num_calibration=2, num_eval=2, rng=0
        )
        assert len(dataset.calibration) == 2 and len(dataset.evaluation) == 2
        sample = dataset.calibration[0]
        assert sample.features.shape[1] == config.d_model
        assert len(dataset.spatial_shapes) == len(config.strides)

    def test_dataset_invalid_split(self):
        config = get_model_config("deformable_detr")
        with pytest.raises(ValueError):
            SyntheticDetectionDataset(config, 64, 96, num_calibration=0)


class TestDetectionHead:
    def test_calibrate_and_detect_recovers_objects(self):
        rng = np.random.default_rng(0)
        from repro.utils.shapes import LevelShape

        shapes = [LevelShape(16, 16)]
        d_model = 16
        prototype_dir = np.zeros(d_model)
        prototype_dir[0] = 5.0
        memory = rng.normal(0, 0.1, size=(256, d_model))
        # plant an object signature at pixel (4, 4)
        memory[4 * 16 + 4] += prototype_dir
        boxes = np.array([[4 / 16 - 0.05, 4 / 16 - 0.05, 4 / 16 + 0.1, 4 / 16 + 0.1]])
        labels = np.array([0])
        head = PrototypeDetectionHead(num_classes=1, score_threshold=0.3)
        head.calibrate([memory], shapes, [boxes], [labels])
        result = head.detect(memory, shapes)
        assert len(result.scores) >= 1
        best = result.boxes[np.argmax(result.scores)]
        cx = (best[0] + best[2]) / 2
        cy = (best[1] + best[3]) / 2
        assert abs(cx - 4.5 / 16) < 0.15 and abs(cy - 4.5 / 16) < 0.15

    def test_detect_requires_calibration(self):
        from repro.utils.shapes import LevelShape

        head = PrototypeDetectionHead(num_classes=1)
        with pytest.raises(RuntimeError):
            head.detect(np.zeros((4, 8)), [LevelShape(2, 2)])
