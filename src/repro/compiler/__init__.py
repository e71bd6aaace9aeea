"""Toolflow: lowering DNN models onto the BW NPU."""

from .allocator import RegisterAllocator, Slot
from .lowering import (
    CompiledConv,
    CompiledModel,
    GruShapeOnly,
    LstmShapeOnly,
    compile_conv,
    compile_gru,
    compile_lstm,
    compile_rnn_shape,
)
from .interleave import CompiledInterleaved, compile_lstm_interleaved
from .streaming import compile_lstm_streamed, compile_lstm_streamed_shape
from .textcnn import CompiledTextCnn, compile_text_cnn

__all__ = [
    "RegisterAllocator", "Slot", "CompiledModel", "CompiledConv",
    "compile_conv", "compile_gru", "compile_lstm",
    "compile_rnn_shape", "LstmShapeOnly", "GruShapeOnly",
    "CompiledInterleaved", "compile_lstm_interleaved",
    "compile_lstm_streamed", "compile_lstm_streamed_shape",
    "CompiledTextCnn", "compile_text_cnn",
]
