"""Tests for the DianNao-style core timing model."""

import pytest

from repro.accel import AcceleratorConfig, CoreModel, CoreWorkload
from repro.models.spec import LayerSpec


def conv_layer(out_c=32, in_c=16, hw=8, kernel=3):
    return LayerSpec(
        name="c", kind="conv", in_shape=(in_c, hw, hw),
        out_shape=(out_c, hw, hw), kernel=kernel, pad=1,
    )


def dense_layer(in_f=256, out_f=64):
    return LayerSpec(name="d", kind="dense", in_shape=(in_f,), out_shape=(out_f,))


class TestAcceleratorConfig:
    def test_table2_defaults(self):
        cfg = AcceleratorConfig()
        assert cfg.pe_rows == 16 and cfg.pe_cols == 16
        assert cfg.macs_per_cycle == 256
        assert cfg.value_bytes == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(pe_rows=0)
        with pytest.raises(ValueError):
            AcceleratorConfig(mapping="magic")
        with pytest.raises(ValueError):
            AcceleratorConfig(adaptive_efficiency=0.0)


class TestCoreWorkload:
    def test_conv_macs(self):
        w = CoreWorkload(layer=conv_layer(), out_channels=8, in_channels_used=16)
        assert w.macs == 8 * 64 * 16 * 9

    def test_dense_macs(self):
        w = CoreWorkload(layer=dense_layer(), out_channels=4, in_channels_used=256)
        assert w.macs == 1024

    def test_repeats_multiply(self):
        one = CoreWorkload(layer=conv_layer(), out_channels=4, in_channels_used=4)
        two = CoreWorkload(layer=conv_layer(), out_channels=4, in_channels_used=4, repeats=2)
        assert two.macs == 2 * one.macs

    def test_weight_bytes(self):
        w = CoreWorkload(layer=conv_layer(), out_channels=8, in_channels_used=16)
        assert w.weight_bytes == 8 * 16 * 9 * 2

    def test_over_assignment_rejected(self):
        with pytest.raises(ValueError):
            CoreWorkload(layer=conv_layer(out_c=8), out_channels=16, in_channels_used=4)

    def test_repeats_over_assignment_rejected(self):
        with pytest.raises(ValueError):
            CoreWorkload(layer=conv_layer(out_c=8), out_channels=8,
                         in_channels_used=4, repeats=2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CoreWorkload(layer=conv_layer(), out_channels=-1, in_channels_used=4)


class TestRigidMapping:
    def model(self):
        return CoreModel(AcceleratorConfig(mapping="rigid"))

    def test_conv_cycles_formula(self):
        work = CoreWorkload(layer=conv_layer(), out_channels=16, in_channels_used=16)
        # out_h*out_w*k*k*in_tiles*out_tiles = 64*9*1*1
        assert self.model().compute_cycles(work) == 64 * 9

    def test_tiling_quantization(self):
        """17 input channels cost two tiles, same as 32."""
        a = CoreWorkload(layer=conv_layer(in_c=32), out_channels=16, in_channels_used=17)
        b = CoreWorkload(layer=conv_layer(in_c=32), out_channels=16, in_channels_used=32)
        assert self.model().compute_cycles(a) == self.model().compute_cycles(b)

    def test_dense_cycles(self):
        work = CoreWorkload(layer=dense_layer(), out_channels=16, in_channels_used=256)
        assert self.model().compute_cycles(work) == 16 * 1  # 16 in-tiles, 1 out-tile

    def test_zero_work(self):
        work = CoreWorkload(layer=conv_layer(), out_channels=0, in_channels_used=16)
        assert self.model().compute_cycles(work) == 0


class TestAdaptiveMapping:
    def model(self, eff=1.0):
        return CoreModel(AcceleratorConfig(mapping="adaptive", adaptive_efficiency=eff))

    def test_tracks_macs(self):
        work = CoreWorkload(layer=conv_layer(), out_channels=16, in_channels_used=16)
        assert self.model().compute_cycles(work) == -(-work.macs // 256)

    def test_efficiency_slows(self):
        work = CoreWorkload(layer=conv_layer(), out_channels=16, in_channels_used=16)
        assert self.model(0.5).compute_cycles(work) > self.model(1.0).compute_cycles(work)

    def test_shallow_layer_beats_rigid(self):
        """1 input channel wastes 15/16 of the rigid array but not adaptive."""
        layer = conv_layer(in_c=1)
        work = CoreWorkload(layer=layer, out_channels=2, in_channels_used=1)
        rigid = CoreModel(AcceleratorConfig(mapping="rigid")).compute_cycles(work)
        adaptive = self.model().compute_cycles(work)
        assert adaptive < rigid

    def test_writeback_floor(self):
        """A 1-MAC-per-output layer cannot beat the NBout write bandwidth."""
        layer = LayerSpec(
            name="c", kind="conv", in_shape=(1, 32, 32), out_shape=(1, 32, 32),
            kernel=1,
        )
        work = CoreWorkload(layer=layer, out_channels=1, in_channels_used=1)
        # 1024 outputs at 16/cycle -> >= 64 cycles even though MACs/256 = 4.
        assert self.model().compute_cycles(work) >= 64


class TestBufferAndStreams:
    def test_sram_traffic_positive_and_scales(self):
        model = CoreModel()
        small = CoreWorkload(layer=conv_layer(), out_channels=4, in_channels_used=16)
        large = CoreWorkload(layer=conv_layer(), out_channels=16, in_channels_used=16)
        assert 0 < model.sram_traffic_bytes(small) < model.sram_traffic_bytes(large)
