"""Reach ratchet: ``src/repro`` grows no code that no entry point runs.

``TEST_ONLY`` lists every ``src/repro`` function and method (dunders
excluded) that no entry point executes, each with the reason it stays.
The list is kept by execution: ``scripts/reach_trace.py`` runs the CI
entry points (examples, paper tables, CLI commands, fuzz campaigns,
benchmarks) under ``sys.setprofile`` and fails unless the functions
none of them executed are exactly this list. It takes minutes, so it is
a CI step, not a tier-1 test.

The tier-1 tests here are the fast check by name. One ``ast`` pass over
``src/repro`` collects every module-level and class-level function and
class (dunder methods excluded). A second ``ast`` pass over the
non-``__init__`` files of ``src/``, ``benchmarks/``, ``examples/`` and
``scripts/`` collects every name the code refers to: bare names,
attribute names, imported names, and string constants that spell a
(dotted) identifier, such as the entry points ``benchmarks/e2e/spans.py``
patches by name. An ``import ... as`` alias in an ``__init__`` counts
for the name it aliases. Comments and docstrings name nothing. A
definition whose name no such file refers to runs under tests at most,
so it must be on the list; a listed name must still be a definition.
The scan is by name, so a method shares its reach with every other
definition of the same name: only the trace sees a ``find`` that never
runs beside a ``TimeSeriesStore.find`` that does.

A reason must say why the definition stays; "audit pending" is not
one. What stays: failure-only paths, oracles the tests check live code
against, inverses of a forward direction an entry point executes, and
accessors through which tests set up or read the state of live code.
"""

import ast
import re
from pathlib import Path

import pytest

pytestmark = pytest.mark.tier1

ROOT = Path(__file__).resolve().parents[1]
LIVE_DIRS = ("src", "benchmarks", "examples", "scripts")
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")

_SIM_STATE = "simulator accessor: tests {} through it"

#: Definitions no entry point executes, ``module:Owner.name``, and why
#: each stays.
TEST_ONLY = {
    # Failure-only paths: they run when a check fails.
    "repro.compiler.allocator:RegisterAllocator._describe_pressure":
        "names the slots already held in a CapacityError message",
    "repro.obs.trace:Tracer._drop":
        "counts and warns once when a bounded tracer buffer is full",
    "repro.verify.fuzz:FuzzFailure.render":
        "prints a failing fuzz case",
    "repro.verify.fuzz:_handle_failure":
        "shrinks and archives a failing fuzz case",
    "repro.verify.corpus:save_case":
        "archives a shrunk failing case under --corpus-dir",
    "repro.verify.corpus:case_to_json":
        "serializes a case for save_case",
    "repro.verify.corpus:_bits":
        "float32 bit patterns for case_to_json",
    "repro.verify.generator:ProgramCase.instruction_count":
        "the size a shrink reports and minimizes",
    "repro.verify.generator:_walk":
        "walks loop bodies for instruction_count",
    "repro.verify.shrink:shrink_case":
        "minimizes a failing fuzz case",
    "repro.verify.shrink:default_failure_predicate":
        "the shrinker's default 'still fails' check",
    "repro.verify.shrink:_fails":
        "shrink_case's guarded predicate call",
    "repro.verify.shrink:_structural_candidates":
        "shrink_case's program-shrinking moves",
    "repro.verify.shrink:_smaller_items":
        "shrink_case's item deletions",
    "repro.verify.shrink:_smaller_chains":
        "shrink_case's chain trims",
    "repro.verify.shrink:_rebuild":
        "rebuilds a candidate case for the shrinker",
    "repro.verify.shrink:_data_candidates":
        "shrink_case's data-zeroing moves",
    # Oracles that tests check live code against.
    "repro.models.gru:GruReference.run":
        "the float32 GRU oracle that compile_gru outputs are checked "
        "against",
    "repro.models.gru:GruReference.step":
        "one step of the GRU oracle",
    "repro.models.gru:_sigmoid":
        "the GRU oracle's gate nonlinearity",
    "repro.criticalpath.sdm:sdm_cycles_scheduled":
        "the explicit list schedule the live Graham bound "
        "(sdm_cycles_bound) is property-checked against",
    "repro.compiler.interleave:CompiledInterleaved.run_batch":
        "the only functional check of compile_lstm_interleaved, whose "
        "program ablation_interleaving.txt times",
    # Inverses of a forward direction an entry point executes.
    "repro.obs.export:from_jsonl":
        "inverse of to_jsonl (repro trace --jsonl); checks its round trip",
    "repro.system.batching:ServiceTimeCurve.from_json":
        "inverse of to_json (serve-batch --output); checks its round trip",
    # Accessors through which tests set up or read live state.
    "repro.functional.executor:FunctionalSimulator.load_vector":
        _SIM_STATE.format("seed VRF state"),
    "repro.functional.executor:FunctionalSimulator.read_vector":
        _SIM_STATE.format("read VRF state"),
    "repro.functional.executor:FunctionalSimulator.push_input":
        _SIM_STATE.format("queue padded input vectors"),
    "repro.functional.executor:FunctionalSimulator.pop_outputs_flat":
        _SIM_STATE.format("drain the output queue"),
    "repro.memory.regfile:MatrixRegisterFile.read_tile":
        "MRF accessor: tests read decoded tiles through it",
    "repro.memory.regfile:MatrixRegisterFile.write_tile":
        "MRF accessor: tests write tiles through it",
    "repro.obs.trace:Tracer.find_events":
        "tracer accessor: tests look up instant events through it",
    "repro.system.microservice:MicroserviceRegistry.replicas":
        "registry accessor: the fault tests crash and probe replicas "
        "through it",
    "repro.compiler.allocator:RegisterAllocator.mrf_elements_used":
        "pins the lowered weight footprint of compile_lstm",
    "repro.isa.program:NpuProgram.static_chain_count":
        "program accessor: tests count the chains a lowering emits, "
        "and repr() prints it",
    "repro.isa.program:_walk_static":
        "walks loop bodies for static_chain_count",
    # Live code on a branch no entry point configures.
    "repro.functional.executor:FunctionalSimulator._quantized_input_f64":
        "both mv_mul engines' float64 path for BFP formats too wide "
        "for the packed and mantissa GEMVs; no served model or fuzz "
        "configuration uses one",
    "repro.obs.metrics:LatencyHistogram.observe_many":
        "the batched cluster's bulk queue-wait and occupancy metrics; "
        "no entry point runs a batched cluster with metrics on",
    "repro.obs.metrics:_NullHistogram.observe_many":
        "the metrics-off twin of LatencyHistogram.observe_many",
    "repro.models.lstm:LstmShape.ops_per_step":
        "RnnBenchmark.ops_per_step for an LSTM (the GRU twin runs); no "
        "entry point builds an LSTM RnnBenchmark",
    "repro.models.lstm:LstmShape.total_ops":
        "RnnBenchmark.total_ops for an LSTM, as ops_per_step",
    "repro.timing.timeline:render_trace_timeline":
        "the chain-schedule Gantt renderer; no CLI command prints it, "
        "its tests pin the labels-by-chain-index fix",
    "repro.timing.timeline:records_from_trace":
        "rebuilds chain records from a trace for render_trace_timeline",
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


def test_definitions_no_file_names_are_listed():
    defs, aliases = _definitions()
    names = _referenced_names()
    names |= {name for alias, name in aliases.items() if alias in names}
    unnamed = sorted(q for q, name in defs.items() if name not in names)
    missing = [q for q in unnamed if q not in TEST_ONLY]
    assert not missing, ("definitions only tests reach; delete them or add "
                         f"them to TEST_ONLY with a reason: {missing}")


def test_listed_definitions_exist():
    defs, _ = _definitions()
    stale = sorted(TEST_ONLY.keys() - defs.keys())
    assert not stale, ("renamed or deleted; drop them from TEST_ONLY: "
                       f"{stale}")


def test_no_reason_defers_the_audit():
    parked = sorted(q for q, reason in TEST_ONLY.items()
                    if reason.lower().startswith("audit pending"))
    assert not parked, ("a test-only definition needs a reason to stay; "
                        f"delete these or say why they stay: {parked}")
