"""Tests for the extension features: batch interleaving, weight
streaming, and the text CNN."""

import numpy as np
import pytest

from repro.compiler import (
    compile_lstm_interleaved,
    compile_lstm_streamed,
    compile_lstm_streamed_shape,
    compile_rnn_shape,
    compile_text_cnn,
)
from repro.config import BW_S10, NpuConfig
from repro.errors import CompileError
from repro.models import LstmReference
from repro.models.textcnn import TextCnnReference
from repro.timing import TimingSimulator


@pytest.fixture
def cfg():
    return NpuConfig(name="x", tile_engines=2, lanes=4, native_dim=16,
                     mrf_size=512, initial_vrf_depth=256,
                     addsub_vrf_depth=256, multiply_vrf_depth=256,
                     mantissa_bits=0)


def _per_step(compiled, config, replay=False):
    a = TimingSimulator(config, replay_loops=replay).run(
        compiled.program, bindings={"steps": 4},
        include_invocation_overhead=False).total_cycles
    b = TimingSimulator(config, replay_loops=replay).run(
        compiled.program, bindings={"steps": 10},
        include_invocation_overhead=False).total_cycles
    return (b - a) / 6


class TestInterleaved:
    def test_matches_independent_references(self, cfg, rng):
        model = LstmReference(24, 24, seed=31)
        compiled = compile_lstm_interleaved(model, cfg, batch=3)
        seqs = [[rng.uniform(-1, 1, 24).astype(np.float32)
                 for _ in range(4)] for _ in range(3)]
        got = compiled.run_batch(seqs, exact=True)
        for b in range(3):
            want = model.run(seqs[b])
            assert np.allclose(got[b][-1], want[-1], atol=1e-5)

    def test_batch1_equals_plain_lowering(self, cfg, rng):
        model = LstmReference(20, 20, seed=32)
        inter = compile_lstm_interleaved(model, cfg, batch=1)
        xs = [rng.uniform(-1, 1, 20).astype(np.float32)
              for _ in range(3)]
        got = inter.run_batch([xs], exact=True)[0]
        from repro.compiler import compile_lstm
        want = compile_lstm(model, cfg).run_sequence(xs, exact=True)
        assert np.allclose(got[-1], want[-1], atol=1e-6)

    def test_chain_count_scales_with_batch(self, cfg):
        model = LstmReference(20, 20, seed=33)
        one = compile_lstm_interleaved(model, cfg, batch=1)
        three = compile_lstm_interleaved(model, cfg, batch=3)
        assert three.program.static_chain_count() == \
            3 * one.program.static_chain_count()

    def test_input_validation(self, cfg, rng):
        model = LstmReference(20, 20, seed=34)
        compiled = compile_lstm_interleaved(model, cfg, batch=2)
        xs = [rng.uniform(-1, 1, 20).astype(np.float32)]
        with pytest.raises(CompileError, match="2 sequences"):
            compiled.run_batch([xs], exact=True)
        with pytest.raises(CompileError, match="one length"):
            compiled.run_batch([xs, xs + xs], exact=True)

    def test_bad_batch_rejected(self, cfg):
        with pytest.raises(CompileError):
            compile_lstm_interleaved(LstmReference(20, 20), cfg, batch=0)

    def test_per_element_latency_flat_with_replay(self):
        """With the caching scheduler, per-element per-step latency is
        batch-independent — utilization holds across batch sizes, the
        behaviour Fig. 8 shows for BW."""
        from repro.compiler.lowering import LstmShapeOnly
        per_element = []
        for batch in (1, 2, 4):
            compiled = compile_lstm_interleaved(
                LstmShapeOnly(512, 512), BW_S10, batch=batch)
            per = _per_step(compiled, BW_S10, replay=True)
            per_element.append(per / batch)
        assert max(per_element) / min(per_element) < 1.1


class TestStreaming:
    def test_functional_matches_reference(self, cfg, rng):
        model = LstmReference(24, 24, seed=35)
        compiled = compile_lstm_streamed(model, cfg)
        xs = [rng.uniform(-1, 1, 24).astype(np.float32)
              for _ in range(4)]
        got = compiled.run_sequence(xs, exact=True)
        want = model.run(xs)
        assert np.allclose(got[-1], want[-1], atol=1e-5)

    def test_pinning_advantage_grows_with_model_size(self):
        """Streaming is bandwidth-bound: the pinned/streamed gap grows
        with weight volume — the paper's core design argument."""
        gaps = {}
        for hidden in (512, 2048):
            pinned = compile_rnn_shape("lstm", hidden, BW_S10)
            streamed = compile_lstm_streamed_shape(hidden, BW_S10)
            gaps[hidden] = (_per_step(streamed, BW_S10)
                            / _per_step(pinned, BW_S10))
        assert gaps[512] > 10
        assert gaps[2048] > 3 * gaps[512]

    def test_streamed_per_step_tracks_dram_bandwidth(self):
        """Per-step cycles ~= padded weight-tile bytes / 64 B per cycle
        (matrix chains move whole native tiles)."""
        hidden = 1024
        streamed = compile_lstm_streamed_shape(hidden, BW_S10)
        per = _per_step(streamed, BW_S10)
        tiles = 8 * BW_S10.native_tiles_for(hidden, hidden)
        tile_bytes = (BW_S10.native_dim ** 2
                      * BW_S10.weight_bits_per_element / 8)
        assert per == pytest.approx(tiles * tile_bytes / 64, rel=0.05)

    def test_shape_only_loader_raises(self):
        compiled = compile_lstm_streamed_shape(256, BW_S10)
        with pytest.raises(CompileError, match="shapes only"):
            compiled.new_simulator()


class TestTextCnn:
    @pytest.fixture
    def model(self):
        return TextCnnReference(vocab_size=60, embed_dim=8,
                                filter_width=3, num_filters=24,
                                num_classes=5, seed=51)

    def test_logits_match_reference(self, cfg, model, rng):
        compiled = compile_text_cnn(model, cfg)
        tokens = rng.integers(0, 60, 15)
        got = compiled.classify(tokens, exact=True)
        assert np.allclose(got, model.forward(tokens), atol=1e-5)

    def test_predictions_match_over_many_sequences(self, cfg, model,
                                                   rng):
        compiled = compile_text_cnn(model, cfg)
        for _ in range(5):
            tokens = rng.integers(0, 60, rng.integers(4, 20))
            assert compiled.predict(tokens, exact=True) == \
                model.predict(tokens)

    def test_max_pool_uses_vv_max(self, cfg, model):
        from repro.isa import Opcode
        compiled = compile_text_cnn(model, cfg)
        ops = [i.opcode
               for c in compiled.program.chains({"positions": 1})
               for i in c]
        assert Opcode.VV_MAX in ops

    def test_reference_validation(self, model):
        with pytest.raises(ValueError):
            model.embed([0, 1])       # shorter than filter width
        with pytest.raises(ValueError):
            model.embed([0, 1, 999])  # out of vocabulary

    def test_shape_metadata(self, model):
        shape = model.shape(sequence_length=15)
        assert shape.conv_positions == 13
        assert shape.patch_length == 24
        assert shape.total_ops > 0
