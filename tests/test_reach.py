"""Reach ratchet: ``src/repro`` grows no definition that only tests reach.

One ``ast`` pass over ``src/repro`` collects every module-level and
class-level function and class (dunder methods excluded). A second
``ast`` pass over the non-``__init__`` files of ``src/``,
``benchmarks/``, ``examples/`` and ``scripts/`` collects every name the
code refers to: bare names, attribute names, imported names, and string
constants that spell a (dotted) identifier, such as the entry points
``benchmarks/e2e/spans.py`` patches by name. An ``import ... as`` alias
in an ``__init__`` counts for the name it aliases. Comments and
docstrings name nothing. A definition whose name no such file refers to
is reached by tests at most.

The check is by name, so a method shares its reach with every other
definition of the same name. ``TEST_ONLY`` lists the definitions the
scan finds, each with the reason it stays. The test fails on a
definition missing from the list (delete it, or give it a reason here)
and on a listed one that is no longer test-only (drop its line), so the
list stays exact.
"""

import ast
import re
from pathlib import Path

import pytest

pytestmark = pytest.mark.tier1

ROOT = Path(__file__).resolve().parents[1]
LIVE_DIRS = ("src", "benchmarks", "examples", "scripts")
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")

_PENDING = "audit pending (ROADMAP item 8): "

#: Test-only definitions, ``module:Owner.name``, and why each stays.
TEST_ONLY = {
    # Kept: checks of reached code, inverses of reached code, and
    # simulator accessors that many tests drive.
    "repro.compiler.interleave:CompiledInterleaved.run_batch":
        "the only functional check of compile_lstm_interleaved, whose "
        "program ablation_interleaving.txt times",
    "repro.obs.export:from_jsonl":
        "inverse of to_jsonl (repro trace --jsonl); checks its round trip",
    "repro.isa.encoding:decode_stream":
        "inverse of encode_stream; checks the binary encoding round trip",
    "repro.isa.encoding:encode_stream":
        "the stream form of encode that decode_stream inverts",
    "repro.system.batching:ServiceTimeCurve.from_json":
        "inverse of to_json (serve-batch --output); checks its round trip",
    "repro.isa.chain:chains_from_instructions":
        "inverse of instruction_stream; checks chain splitting",
    "repro.isa.program:NpuProgram.instruction_stream":
        "the flat dynamic stream chains_from_instructions inverts",
    "repro.functional.executor:FunctionalSimulator.load_vector":
        "simulator accessor: tests seed VRF state through it",
    "repro.functional.executor:FunctionalSimulator.read_vector":
        "simulator accessor: tests read VRF state through it",
    "repro.functional.executor:FunctionalSimulator.pop_outputs_flat":
        "simulator accessor: tests drain the output queue through it",
    "repro.obs.trace:Tracer.find_events":
        "tracer accessor: tests look up instant events through it",
    "repro.memory.regfile:MatrixRegisterFile.read_tile":
        "MRF accessor: tests read decoded tiles through it",
    "repro.memory.regfile:MatrixRegisterFile.write_tile":
        "MRF accessor: tests write tiles through it",
    "repro.compiler.allocator:RegisterAllocator.mrf_elements_used":
        "pins the lowered weight footprint of compile_lstm",
    "repro.timing.timeline:render_trace_timeline":
        "the chain-schedule Gantt renderer; no CLI command prints it, "
        "its tests pin the labels-by-chain-index fix",
    # Not audited yet: each is a deletion candidate.
    "repro.compiler.allocator:RegisterAllocator.alloc_vector":
        _PENDING + "allocation by logical length",
    "repro.config:NpuConfig.cycles_to_ms":
        _PENDING + "cycle-to-time conversion",
    "repro.config:NpuConfig.mrf_capacity_bytes":
        _PENDING + "on-chip weight capacity in bytes",
    "repro.criticalpath.analytic:gru_ops_per_step":
        _PENDING + "closed-form GRU op count",
    "repro.criticalpath.dfg:Dfg.total_pointwise_ops":
        _PENDING + "graph work accounting",
    "repro.criticalpath.sdm:sdm_cycles_scheduled":
        _PENDING + "greedy list schedule checked against the Graham bound",
    "repro.functional.executor:ExecutionStats.total_flops":
        _PENDING + "execution statistics",
    "repro.harness.tables:ExperimentTable.to_markdown":
        _PENDING + "markdown rendering of an experiment table",
    "repro.harness.tables:fmt_ratio":
        _PENDING + "model-vs-paper ratio cell",
    "repro.isa.assembler:roundtrip":
        _PENDING + "format-then-parse helper",
    "repro.isa.chain:InstructionChain.mfus_required":
        _PENDING + "MFU routing requirement of a chain",
    "repro.isa.chain:InstructionChain.operand_reads":
        _PENDING + "chain read set",
    "repro.isa.chain:InstructionChain.operand_writes":
        _PENDING + "chain write set",
    "repro.isa.opcodes:OpcodeInfo.num_operands":
        _PENDING + "opcode metadata",
    "repro.isa.program:NpuProgram.dynamic_instruction_count":
        _PENDING + "program statistics",
    "repro.isa.program:NpuProgram.static_instruction_count":
        _PENDING + "program statistics",
    "repro.isa.program:ProgramBuilder.add_chain":
        _PENDING + "appending a prebuilt chain",
    "repro.memory.dram:Dram.transfer_seconds":
        _PENDING + "DRAM transfer time at peak bandwidth",
    "repro.memory.netq:NetworkQueues.pending_outputs":
        _PENDING + "output-queue depth",
    "repro.memory.regfile:MatrixRegisterFile.bank_of":
        _PENDING + "MRF banking geometry",
    "repro.memory.regfile:MatrixRegisterFile.read_ports":
        _PENDING + "MRF banking geometry",
    "repro.memory.regfile:MatrixRegisterFile.subbank_of":
        _PENDING + "MRF banking geometry",
    "repro.obs.metrics:LatencyHistogram.bucket_counts":
        _PENDING + "histogram buckets",
    "repro.obs.metrics:LatencyHistogram.merge":
        _PENDING + "histogram merge",
    "repro.obs.timeseries:CounterSeries.add_events":
        _PENDING + "bulk counter ingest",
    "repro.obs.timeseries:CounterSeries.cumulative":
        _PENDING + "running counter totals",
    "repro.obs.timeseries:QuantileWindow.merge":
        _PENDING + "quantile-window merge",
    "repro.obs.timeseries:QuantileWindow.window_counts":
        _PENDING + "observations per window",
    "repro.obs.timeseries:RingSeries.last_window":
        _PENDING + "ring-series bookkeeping",
    "repro.obs.timeseries:RingSeries.window_start":
        _PENDING + "ring-series bookkeeping",
    "repro.system.batching:ServiceTimeCurve.best_batch":
        _PENDING + "highest-throughput measured batch",
    "repro.system.batching:record_batch_series":
        _PENDING + "batch dispatch log to time series",
    "repro.system.cluster:ClusterResult.has_latencies":
        _PENDING + "result predicate",
    "repro.system.faults:FaultInjector.down_nodes":
        _PENDING + "crash schedule query",
    "repro.system.faults:FaultInjector.is_down":
        _PENDING + "crash schedule query",
    "repro.system.loadgen:FaultScenarioResult.has_successes":
        _PENDING + "result predicate",
    "repro.system.loadgen:uniform_arrivals":
        _PENDING + "equally spaced arrivals",
    "repro.system.microservice:MicroserviceRegistry.breaker_state":
        _PENDING + "circuit-breaker query",
    "repro.system.microservice:MicroserviceRegistry.unpublish":
        _PENDING + "service withdrawal",
    "repro.system.network:NetworkModel.round_trip_us":
        _PENDING + "request/response round trip",
    "repro.timing.hdd:HddTree.dispatch_sustains":
        _PENDING + "dispatch-rate predicate",
    "repro.timing.latency:LatencyModel.dispatch_cycles":
        _PENDING + "scalar-core dispatch time",
    "repro.timing.report:ChainRecord.first_output":
        _PENDING + "chain record field",
}


def _definitions():
    """``({module:Owner.name: name}, {alias: name})`` over src/repro."""
    defs, aliases = {}, {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("")
                          .parts)
        if path.name == "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    aliases.update((a.asname, a.name) for a in node.names
                                   if a.asname)
        bodies = [(tree.body, "")]
        while bodies:
            body, owner = bodies.pop()
            for node in body:
                if not isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef,
                                         ast.ClassDef)):
                    continue
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                defs[f"{module}:{owner}{node.name}"] = node.name
                if isinstance(node, ast.ClassDef):
                    bodies.append((node.body, f"{owner}{node.name}."))
    return defs, aliases


def _referenced_names():
    """Every name the non-``__init__`` files of LIVE_DIRS refer to."""
    names = set()
    for top in LIVE_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and _DOTTED.fullmatch(node.value)):
                    names.update(node.value.split("."))
    return names


def test_test_only_definitions_match_the_committed_set():
    defs, aliases = _definitions()
    names = _referenced_names()
    names |= {name for alias, name in aliases.items() if alias in names}
    test_only = {q for q, name in defs.items() if name not in names}
    new = sorted(test_only - TEST_ONLY.keys())
    assert not new, ("definitions only tests reach; delete them or add "
                     f"them to TEST_ONLY with a reason: {new}")
    stale = sorted(TEST_ONLY.keys() - test_only)
    assert not stale, ("no longer test-only (reached, renamed or "
                       f"deleted); drop them from TEST_ONLY: {stale}")
