"""Tests for configuration dataclasses and their validation."""

import math

import pytest

from repro.config import (
    CompressionConfig,
    InferenceConfig,
    OutputPolicyConfig,
    SpatialIndexConfig,
)
from repro.errors import ConfigurationError


class TestInferenceConfig:
    def test_defaults_valid(self):
        config = InferenceConfig()
        assert config.object_particles == 1000
        assert not config.spatial_index.enabled
        assert not config.compression.enabled

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            InferenceConfig(reader_particles=0)
        with pytest.raises(ConfigurationError):
            InferenceConfig(object_particles=1)
        with pytest.raises(ConfigurationError):
            InferenceConfig(ess_threshold=0.0)
        with pytest.raises(ConfigurationError):
            InferenceConfig(ess_threshold=1.5)
        with pytest.raises(ConfigurationError):
            InferenceConfig(negative_evidence_range_ft=0)
        with pytest.raises(ConfigurationError):
            InferenceConfig(reinit_near_ft=5.0, reinit_far_ft=4.0)
        with pytest.raises(ConfigurationError):
            InferenceConfig(init_cone_half_angle_rad=0.0)
        with pytest.raises(ConfigurationError):
            InferenceConfig(init_cone_range_ft=-1.0)

    def test_with_index_builder(self):
        config = InferenceConfig().with_index(box_padding_ft=0.5)
        assert config.spatial_index.enabled
        assert config.spatial_index.box_padding_ft == 0.5
        # Original untouched (frozen dataclass semantics).
        assert not InferenceConfig().spatial_index.enabled

    def test_with_compression_builder(self):
        config = InferenceConfig().with_compression(unread_epochs=3)
        assert config.compression.enabled
        assert config.compression.unread_epochs == 3

    def test_builders_compose(self):
        config = InferenceConfig().with_index().with_compression()
        assert config.spatial_index.enabled
        assert config.compression.enabled


class TestSpatialIndexConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SpatialIndexConfig(box_padding_ft=-0.1)
        with pytest.raises(ConfigurationError):
            SpatialIndexConfig(record_spacing_ft=-0.1)


class TestOutputPolicyConfig:
    def test_defaults(self):
        policy = OutputPolicyConfig()
        assert policy.delay_s == 60.0
        assert policy.on_scan_complete

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OutputPolicyConfig(delay_s=-1.0)
        with pytest.raises(ConfigurationError):
            OutputPolicyConfig(movement_threshold_ft=0.0)


class TestCompressionConfig:
    def test_defaults(self):
        config = CompressionConfig()
        assert config.decompressed_particles == 10  # the paper's value
