"""Synthesis specialization: devices, resource model, and specializer."""

from .devices import (
    ARRIA_10_1150,
    DEVICES,
    STRATIX_10_280,
    STRATIX_V_D5,
    FpgaDevice,
    device_by_name,
)
from .resources import (
    FAMILY_COEFFICIENTS,
    FamilyCoefficients,
    ResourceEstimate,
    estimate,
    exponent_groups_per_row,
    mrf_m20ks,
    weight_storage_bits,
)
from .specializer import (
    Candidate,
    ModelRequirements,
    best_config,
    candidate_space,
    rnn_requirements,
    specialize,
)

__all__ = [
    "FpgaDevice", "DEVICES", "STRATIX_V_D5", "ARRIA_10_1150",
    "STRATIX_10_280", "device_by_name", "FamilyCoefficients",
    "FAMILY_COEFFICIENTS", "ResourceEstimate", "estimate",
    "exponent_groups_per_row", "mrf_m20ks", "weight_storage_bits",
    "Candidate", "ModelRequirements", "best_config", "candidate_space",
    "rnn_requirements", "specialize",
]
