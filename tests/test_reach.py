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
list stays exact. A reason must say why the definition stays; "audit
pending" is not one.

The scan is by name, not by execution. ``scripts/reach_trace.py`` checks
the same set at run time: it traces the CI entry points (examples,
paper tables, CLI commands, fuzz replay, benchmarks) and reports any
``TEST_ONLY`` entry they execute, and every ``src/repro`` function none
of them execute. It takes minutes, so it is not a tier-1 test.
"""

import ast
import re
from pathlib import Path

import pytest

pytestmark = pytest.mark.tier1

ROOT = Path(__file__).resolve().parents[1]
LIVE_DIRS = ("src", "benchmarks", "examples", "scripts")
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")

#: Test-only definitions, ``module:Owner.name``, and why each stays.
TEST_ONLY = {
    # Kept: checks of reached code, inverses of reached code, and
    # simulator accessors that many tests drive. A definition cannot be
    # parked here without a reason; see test_no_reason_defers_the_audit.
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
    "repro.criticalpath.sdm:sdm_cycles_scheduled":
        "the explicit list schedule the live Graham bound "
        "(sdm_cycles_bound) is property-checked against",
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


def test_no_reason_defers_the_audit():
    parked = sorted(q for q, reason in TEST_ONLY.items()
                    if reason.lower().startswith("audit pending"))
    assert not parked, ("a test-only definition needs a reason to stay; "
                        f"delete these or say why they stay: {parked}")
