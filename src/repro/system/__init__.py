"""Datacenter-scale serving: network, microservices, faults, runtime,
and the cluster/chaos simulation layer."""

from .network import Locality, NetworkFabric, NetworkModel
from .microservice import (
    BatchedInvocationResult,
    FpgaNode,
    HardwareMicroservice,
    InvocationResult,
    MicroserviceRegistry,
    ServiceError,
)
from .batching import (
    AdaptiveBatchPolicy,
    BatchPolicy,
    BatchServeResult,
    BatchingError,
    DynamicBatcher,
    ServiceTimeCurve,
    SloComparison,
    calibrate_batch_curve,
    compare_under_load,
    record_batch_series,
    render_slo_sweep,
    slo_sweep,
)
from .faults import (
    FaultInjector,
    FaultProfile,
    FaultSample,
    InvocationOutcome,
    ResilientClient,
    RetryPolicy,
)
from .loadgen import (
    FaultEvent,
    FaultScenarioResult,
    ServedRequest,
    bursty_arrivals,
    diurnal_arrivals,
    heavy_tailed_arrivals,
    poisson_arrivals,
    run_fault_scenario,
    uniform_arrivals,
)
from .cluster import (
    AutoscalePolicy,
    BrownoutPolicy,
    ClusterError,
    ClusterEvent,
    ClusterResult,
    ClusterSimulator,
    ClusterSpec,
    NodeBatching,
    PhiAccrualDetector,
    TokenBucket,
)
from .chaos import (
    ChaosScenario,
    CorrelatedFaultInjector,
    RepairDistribution,
    SCENARIOS,
    chaos_suite,
    run_chaos_scenario,
)
from .monitor import (
    FleetMonitor,
    MonitoredRun,
    default_slo,
    detection_scorecards,
    detection_table,
    run_monitored_scenario,
    scenario_fault_intervals,
)
from .runtime import (
    BidirectionalRnnService,
    CpuStage,
    FederatedRuntime,
    FpgaStage,
    PlanResult,
)

__all__ = [
    "Locality", "NetworkFabric", "NetworkModel", "FpgaNode",
    "HardwareMicroservice", "InvocationResult",
    "BatchedInvocationResult", "MicroserviceRegistry",
    "ServiceError",
    "AdaptiveBatchPolicy", "BatchPolicy", "BatchServeResult",
    "BatchingError", "DynamicBatcher", "ServiceTimeCurve",
    "calibrate_batch_curve", "record_batch_series",
    "render_slo_sweep", "slo_sweep",
    "AutoscalePolicy", "NodeBatching",
    "FaultInjector", "FaultProfile", "FaultSample", "InvocationOutcome",
    "ResilientClient", "RetryPolicy",
    "BidirectionalRnnService", "CpuStage", "FederatedRuntime",
    "FpgaStage", "PlanResult",
    "FaultEvent", "FaultScenarioResult", "ServedRequest",
    "SloComparison", "bursty_arrivals", "compare_under_load",
    "diurnal_arrivals", "heavy_tailed_arrivals", "poisson_arrivals",
    "run_fault_scenario", "uniform_arrivals",
    "BrownoutPolicy", "ClusterError", "ClusterEvent", "ClusterResult",
    "ClusterSimulator", "ClusterSpec", "PhiAccrualDetector",
    "TokenBucket",
    "ChaosScenario", "CorrelatedFaultInjector", "RepairDistribution",
    "SCENARIOS", "chaos_suite", "run_chaos_scenario",
    "FleetMonitor", "MonitoredRun", "default_slo",
    "detection_scorecards", "detection_table",
    "run_monitored_scenario", "scenario_fault_intervals",
]
