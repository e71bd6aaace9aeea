"""Tests for the reference models and their shape metadata."""

import numpy as np
import pytest

from repro.models import (
    ConvSpec,
    GruReference,
    GruShape,
    LstmReference,
    LstmShape,
    conv2d_reference,
    im2col,
    random_conv_weights,
)


class TestLstmReference:
    def test_deterministic_given_seed(self):
        a = LstmReference(16, 16, seed=5)
        b = LstmReference(16, 16, seed=5)
        assert np.array_equal(a.W["f"], b.W["f"])

    def test_output_in_tanh_range(self, rng):
        model = LstmReference(32, 32, seed=1)
        xs = [rng.uniform(-3, 3, 32).astype(np.float32)
              for _ in range(8)]
        for h in model.run(xs):
            assert np.all(np.abs(h) <= 1.0)

    def test_zero_input_zero_state_is_small(self):
        model = LstmReference(16, 16, seed=2, scale=0.05)
        h = model.run([np.zeros(16, dtype=np.float32)])[0]
        assert np.all(np.abs(h) < 0.1)

    def test_initial_state_honored(self, rng):
        model = LstmReference(16, 16, seed=3)
        x = rng.uniform(-1, 1, 16).astype(np.float32)
        h0 = rng.uniform(-0.5, 0.5, 16).astype(np.float32)
        c0 = rng.uniform(-0.5, 0.5, 16).astype(np.float32)
        default = model.run([x])[0]
        seeded = model.run([x], h0=h0, c0=c0)[0]
        assert not np.allclose(default, seeded)

    def test_step_equals_run(self, rng):
        model = LstmReference(16, 16, seed=4)
        x = rng.uniform(-1, 1, 16).astype(np.float32)
        h, c = model.step(x, np.zeros(16, np.float32),
                          np.zeros(16, np.float32))
        assert np.allclose(model.run([x])[0], h)

    def test_shape_ops_match_paper(self):
        """Table I: 64M ops per timestep at dimension 2000."""
        assert LstmShape(2000, 2000).ops_per_step == pytest.approx(
            64e6, rel=0.01)

    def test_parameter_count(self):
        shape = LstmShape(hidden_dim=10, input_dim=6)
        assert shape.parameter_count == 4 * (10 * 6 + 10 * 10 + 10)

    def test_total_ops_scale_with_steps(self):
        assert LstmShape(64, 64, 10).total_ops == \
            10 * LstmShape(64, 64, 1).ops_per_step


class TestGruReference:
    def test_output_is_convex_mix_bounded(self, rng):
        model = GruReference(24, 24, seed=6)
        xs = [rng.uniform(-3, 3, 24).astype(np.float32)
              for _ in range(6)]
        for h in model.run(xs):
            assert np.all(np.abs(h) <= 1.0)

    def test_shape_ops_match_paper(self):
        """Table I: 94M ops per timestep at dimension 2800."""
        assert GruShape(2800, 2800).ops_per_step == pytest.approx(
            94e6, rel=0.01)

    def test_reset_gate_applied_after_matmul(self, rng):
        """cuDNN variant: h~ depends on r * (U h), not U (r * h)."""
        model = GruReference(8, 8, seed=7)
        h = rng.uniform(-1, 1, 8).astype(np.float32)
        x = rng.uniform(-1, 1, 8).astype(np.float32)
        got = model.step(x, h)
        r = 1 / (1 + np.exp(-(model.W["r"] @ x + model.U["r"] @ h
                              + model.b["r"])))
        z = 1 / (1 + np.exp(-(model.W["z"] @ x + model.U["z"] @ h
                              + model.b["z"])))
        h_tilde = np.tanh(model.W["h"] @ x + r * (model.U["h"] @ h)
                          + model.b["h"])
        want = (1 - z) * h_tilde + z * h
        assert np.allclose(got, want, atol=1e-6)


class TestConv:
    def test_same_padding_preserves_spatial(self):
        spec = ConvSpec(9, 9, 3, kernels=4, kernel_h=3, kernel_w=3)
        assert (spec.out_height, spec.out_width) == (9, 9)

    def test_stride_halves(self):
        spec = ConvSpec(8, 8, 3, kernels=4, kernel_h=3, kernel_w=3,
                        stride=2, padding=1)
        assert (spec.out_height, spec.out_width) == (4, 4)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            ConvSpec(0, 8, 3, 4, 3, 3)

    def test_im2col_shape_and_content(self, rng):
        spec = ConvSpec(4, 4, 2, kernels=1, kernel_h=3, kernel_w=3,
                        padding=0)
        act = rng.uniform(-1, 1, (4, 4, 2)).astype(np.float32)
        patches = im2col(act, spec)
        assert patches.shape == (4, 18)
        assert np.allclose(patches[0], act[0:3, 0:3, :].reshape(-1))

    def test_im2col_shape_mismatch_rejected(self):
        spec = ConvSpec(4, 4, 2, 1, 3, 3)
        with pytest.raises(ValueError):
            im2col(np.zeros((4, 4, 3)), spec)

    def test_conv_matches_naive_loop(self, rng):
        spec = ConvSpec(5, 5, 2, kernels=3, kernel_h=3, kernel_w=3,
                        padding=1)
        w = random_conv_weights(spec, seed=9)
        act = rng.uniform(-1, 1, (5, 5, 2)).astype(np.float32)
        got = conv2d_reference(act, w, spec)
        padded = np.pad(act, ((1, 1), (1, 1), (0, 0)))
        for oy in (0, 2, 4):
            for ox in (1, 3):
                for kk in range(3):
                    window = padded[oy:oy + 3, ox:ox + 3, :]
                    want = float((window * w[kk]).sum())
                    assert got[oy, ox, kk] == pytest.approx(want,
                                                            abs=1e-4)

    def test_weights_shape_checked(self, rng):
        spec = ConvSpec(5, 5, 2, 3, 3, 3)
        with pytest.raises(ValueError):
            conv2d_reference(np.zeros((5, 5, 2)), np.zeros((3, 3, 3)),
                             spec)

    def test_matmul_ops_formula(self):
        spec = ConvSpec(28, 28, 128, kernels=128, kernel_h=3,
                        kernel_w=3)
        assert spec.matmul_ops == 2 * 28 * 28 * 128 * 128 * 9

    def test_as_matrix_shape(self):
        spec = ConvSpec(28, 28, 128, 64, 3, 3)
        assert spec.as_matrix_shape() == (64, 9 * 128)

    def test_describe(self):
        spec = ConvSpec(28, 28, 128, 64, 3, 3, stride=2, padding=1)
        assert "s2" in spec.describe()
