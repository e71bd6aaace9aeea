"""repro: a reproduction of the Project Brainwave NPU (ISCA 2018).

"A Configurable Cloud-Scale DNN Processor for Real-Time AI" — the BW NPU
is a single-threaded SIMD soft processor for batch-1 DNN inference. This
package provides:

* :mod:`repro.isa` — the compound matrix-vector/vector-vector ISA with
  instruction chaining and mega-SIMD scaling (Table II);
* :mod:`repro.functional` — an architecturally exact simulator with
  block-floating-point numerics (:mod:`repro.numerics`);
* :mod:`repro.timing` — a calibrated cycle-level performance model
  (hierarchical decode/dispatch, MVM/MFU pipelines, DRAM streaming);
* :mod:`repro.criticalpath` — the UDM/SDM latency methodology
  (Section III);
* :mod:`repro.compiler` — the toolflow: register allocation, model
  lowering, multi-FPGA partitioning;
* :mod:`repro.synthesis` — FPGA devices, the calibrated resource model,
  and the synthesis specializer (Section VI);
* :mod:`repro.baselines` — GPU roofline baselines and the DeepBench
  suite;
* :mod:`repro.system` — the datacenter serving layer (hardware
  microservices, federated runtime);
* :mod:`repro.obs` — simulated-time tracing and metrics (spans,
  counters, histograms, Chrome-trace export) across all layers;
* :mod:`repro.harness` — drivers regenerating every table and figure of
  the paper's evaluation.

Quickstart::

    from repro import BW_S10, compile_lstm, LstmReference
    model = LstmReference(hidden_dim=256)
    compiled = compile_lstm(model, BW_S10)
    outputs = compiled.run_sequence(list_of_input_vectors)
"""

from .config import (
    BW_A10,
    BW_CNN_A10,
    BW_S5,
    BW_S10,
    STANDARD_CONFIGS,
    NpuConfig,
)
from .errors import (
    CapacityError,
    ChainError,
    CompileError,
    ConfigError,
    ExecutionError,
    IsaError,
    PartitionError,
    ReproError,
    SynthesisError,
    UnbatchablePlanError,
)
from .compiler import (
    CompiledModel,
    compile_conv,
    compile_gru,
    compile_lstm,
    compile_lstm_interleaved,
    compile_lstm_streamed,
    compile_rnn_shape,
    compile_text_cnn,
)
from .functional import FunctionalSimulator
from .models import (
    ConvSpec,
    GruReference,
    LstmReference,
)
from .numerics import BfpFormat, quantize
from .timing import LatencyConstants, TimingSimulator
from .isa import MemId, NpuProgram, ProgramBuilder, ScalarReg

__version__ = "1.0.0"

__all__ = [
    "NpuConfig", "BW_S5", "BW_A10", "BW_S10", "BW_CNN_A10",
    "STANDARD_CONFIGS", "ReproError", "IsaError", "ChainError",
    "ExecutionError", "CompileError", "CapacityError", "PartitionError",
    "SynthesisError", "ConfigError", "UnbatchablePlanError",
    "CompiledModel", "compile_lstm", "compile_gru", "compile_conv",
    "compile_rnn_shape", "compile_lstm_interleaved", "compile_lstm_streamed",
    "compile_text_cnn", "FunctionalSimulator", "LstmReference",
    "GruReference", "ConvSpec", "BfpFormat", "quantize",
    "TimingSimulator", "LatencyConstants", "MemId", "ScalarReg",
    "NpuProgram", "ProgramBuilder", "__version__",
]
