"""Conformance fuzzing: random ISA programs vs. a reference interpreter.

The pipeline (ROADMAP item "differential conformance fuzzer"):

1. :mod:`~repro.verify.generator` builds seeded, well-formed random
   programs plus the initial architectural state they run against.
2. :mod:`~repro.verify.reference` defines ground-truth ISA semantics in
   deliberately simple python, independent of the executor fast paths.
3. :mod:`~repro.verify.differential` runs each case on the reference,
   the vectorized simulator, and compiled replay (plus batched replay
   against sequential runs), demanding bit-identical
   state/stats/counters and scheduler timing invariants.
4. :mod:`~repro.verify.shrink` greedily minimizes failing cases, and
   :mod:`~repro.verify.corpus` archives them as replayable JSON files.
5. :mod:`~repro.verify.fuzz` is the campaign driver behind the
   ``repro fuzz`` CLI and the CI fuzz gate.
"""

from .corpus import case_from_json, case_to_json, load_corpus_case, save_case
from .differential import (CaseInvalid, DiffResult, check_timing_invariants,
                           load_reference, load_simulator, run_differential)
from .fuzz import FuzzFailure, FuzzReport, replay_corpus, run_fuzz
from .generator import (FORMAT_POOL, FUZZ_CONFIGS, PROFILES, FuzzProfile,
                        ProgramCase, generate_case)
from .reference import ReferenceInterpreter
from .shrink import shrink_case

__all__ = [
    "CaseInvalid", "DiffResult", "check_timing_invariants",
    "load_reference", "load_simulator", "run_differential",
    "FORMAT_POOL", "FUZZ_CONFIGS", "PROFILES", "FuzzProfile", "ProgramCase",
    "generate_case", "ReferenceInterpreter", "shrink_case",
    "case_from_json", "case_to_json", "load_corpus_case", "save_case",
    "FuzzFailure", "FuzzReport", "replay_corpus", "run_fuzz",
]
