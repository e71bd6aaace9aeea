"""Federated CPU+FPGA runtime (Section II-B).

"A federated runtime that orchestrates model execution between CPUs and
distributed hardware microservices": execution plans interleave CPU
stages (arbitrary Python callables standing in for CPU sub-graph
binaries) with FPGA stages (published microservices). Includes the
production bidirectional-RNN pattern: forward and backward halves on two
FPGAs invoked concurrently, outputs concatenated on the CPU.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from ..errors import ReproError
from ..obs import Tracer, or_null
from .microservice import HardwareMicroservice, InvocationResult, \
    MicroserviceRegistry


class RuntimeError_(ReproError):
    """Execution-plan failure."""


#: Modeled latency of completing one FPGA-sized request on a CPU: the
#: cluster simulator's brownout path
#: (:class:`~repro.system.cluster.BrownoutPolicy`) uses this default,
#: deliberately far slower than the accelerator it stands in for.
DEFAULT_CPU_FALLBACK_LATENCY_S = 5e-3


@dataclasses.dataclass(frozen=True)
class CpuStage:
    """A CPU sub-graph: a callable over the inter-stage value."""

    name: str
    fn: Callable
    #: Modeled CPU latency for the stage (seconds).
    latency_s: float = 20e-6


@dataclasses.dataclass(frozen=True)
class FpgaStage:
    """An accelerated sub-graph served by a hardware microservice."""

    name: str
    service: str
    #: Steps per invocation; ``None`` = length of the input sequence.
    steps: Optional[int] = None


Stage = Union[CpuStage, FpgaStage]


@dataclasses.dataclass
class PlanResult:
    """Outcome of one plan execution."""

    value: object
    total_latency_s: float
    stage_latencies: List[float]

    @property
    def total_latency_ms(self) -> float:
        return self.total_latency_s * 1e3


class FederatedRuntime:
    """Executes CPU/FPGA stage plans against a service registry."""

    def __init__(self, registry: MicroserviceRegistry,
                 tracer: Optional[Tracer] = None):
        self.registry = registry
        #: Optional :class:`~repro.obs.Tracer` (simulated-seconds
        #: timebase): one ``plan`` span per execution with a child span
        #: per CPU/FPGA stage.
        self.tracer = or_null(tracer)

    def execute(self, stages: Sequence[Stage],
                inputs: List[np.ndarray],
                functional: bool = False) -> PlanResult:
        """Run ``inputs`` (a vector sequence) through the plan.

        With ``functional=True`` the FPGA stages run the architectural
        simulator and real values flow between stages; otherwise only
        latency is accounted and the value stream carries the inputs
        through unchanged shape-wise.
        """
        value: object = inputs
        latencies: List[float] = []
        tracer = self.tracer
        plan = tracer.begin("plan", 0.0, track="runtime",
                            stages=len(stages))
        for stage in stages:
            t0 = sum(latencies)
            if isinstance(stage, CpuStage):
                value = stage.fn(value)
                latencies.append(stage.latency_s)
                tracer.span(f"cpu:{stage.name}", t0, t0 + stage.latency_s)
            elif isinstance(stage, FpgaStage):
                seq = value if isinstance(value, list) else [value]
                steps = stage.steps if stage.steps is not None else len(seq)
                span = tracer.begin(f"fpga:{stage.name}", t0,
                                    service=stage.service, steps=steps)
                service: HardwareMicroservice = \
                    self.registry.lookup(stage.service)
                result: InvocationResult = service.invoke(
                    steps, functional_inputs=seq if functional else None)
                if functional:
                    value = result.outputs
                latencies.append(result.total_s)
                tracer.end(span, t0 + result.total_s)
            else:  # pragma: no cover - defensive
                raise RuntimeError_(f"unknown stage {stage!r}")
        total = sum(latencies)
        tracer.end(plan, total)
        return PlanResult(value=value, total_latency_s=total,
                          stage_latencies=latencies)


class BidirectionalRnnService:
    """Forward+backward RNN halves on two FPGAs (Section II-A).

    The server invokes both halves concurrently and concatenates their
    outputs; latency is the max of the two invocations plus the CPU
    concatenation.
    """

    def __init__(self, registry: MicroserviceRegistry, forward: str,
                 backward: str, concat_latency_s: float = 15e-6):
        self.registry = registry
        self.forward_name = forward
        self.backward_name = backward
        self.concat_latency_s = concat_latency_s

    def invoke(self, inputs: List[np.ndarray],
               functional: bool = False) -> PlanResult:
        forward = self.registry.lookup(self.forward_name)
        backward = self.registry.lookup(self.backward_name)
        steps = len(inputs)
        fwd = forward.invoke(
            steps, functional_inputs=inputs if functional else None)
        bwd = backward.invoke(
            steps,
            functional_inputs=list(reversed(inputs)) if functional
            else None)
        value = None
        if functional:
            value = [np.concatenate([f, b]) for f, b in
                     zip(fwd.outputs, reversed(bwd.outputs))]
        total = max(fwd.total_s, bwd.total_s) + self.concat_latency_s
        return PlanResult(
            value=value, total_latency_s=total,
            stage_latencies=[fwd.total_s, bwd.total_s,
                             self.concat_latency_s])
