"""Reference DNN models: numpy ground truth plus shape/op metadata."""

from .lstm import LstmReference, LstmShape
from .gru import GruReference, GruShape
from .cnn import (
    TABLE1_CNN_1X1,
    TABLE1_CNN_3X3,
    ConvSpec,
    conv2d_reference,
    im2col,
    random_conv_weights,
)
from .resnet import NetworkLayer, resnet50_featurizer, total_ops

__all__ = [
    "LstmReference", "LstmShape", "GruReference", "GruShape",
    "ConvSpec", "conv2d_reference", "im2col", "random_conv_weights",
    "TABLE1_CNN_3X3", "TABLE1_CNN_1X1",
    "NetworkLayer", "resnet50_featurizer", "total_ops",
]
