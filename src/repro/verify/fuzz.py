"""Conformance-fuzz campaigns: generate, compare, shrink, archive.

Drives the full pipeline behind the ``repro fuzz`` CLI and the CI fuzz
gate: for each seed in a deterministic sequence, generate a program
case, run it differentially across the reference interpreter, both
functional-simulator paths, and the compiled replay path (plus a
batched-vs-sequential replay check when the plan is batchable), and on
any mismatch greedily shrink the case and archive the minimized
reproducer as a corpus JSON file.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Callable, List, Optional

from ..config import NpuConfig
from ..errors import ReproError
from .corpus import corpus_files, load_corpus_case, save_case
from .differential import CaseInvalid, DiffResult, run_differential
from .generator import FuzzProfile, ProgramCase, generate_case
from .shrink import shrink_case


@dataclasses.dataclass
class FuzzFailure:
    """One mismatching case, after shrinking."""

    seed: Optional[int]
    note: str
    mismatches: List[str]
    case: ProgramCase
    corpus_path: Optional[str] = None

    def render(self) -> str:
        lines = [f"FAIL {self.note} "
                 f"({self.case.instruction_count()} instructions)"]
        lines += [f"  {m}" for m in self.mismatches]
        if self.corpus_path:
            lines.append(f"  archived: {self.corpus_path}")
        return "\n".join(lines)


@dataclasses.dataclass
class FuzzReport:
    """Outcome of one fuzz campaign or corpus replay."""

    cases_run: int
    failures: List[FuzzFailure]
    invalid: int = 0
    label: str = "fuzz"
    #: Cases whose batched replay hoisted at least one ``mv_mul`` group
    #: out of a loop (so the hoisted path was checked too).
    hoisted_plans: int = 0
    #: Cases whose batched replay ran at least one ``mv_mul`` group's
    #: shared pointwise ops fused over its stacked output.
    fused_plans: int = 0
    #: All-zero ``mv_mul`` input rows the cases' batched replays
    #: answered without reading weights, summed over the cases.
    elided_rows: int = 0
    #: Padding lanes and columns the cases' batched replays dropped
    #: from their ``mv_mul`` operand stacks, summed over the cases.
    trimmed_lanes: int = 0
    trimmed_columns: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def count(self, result: DiffResult) -> None:
        """Add one compared case's reach to the tallies."""
        self.hoisted_plans += result.hoisted_groups > 0
        self.fused_plans += result.fused_groups > 0
        self.elided_rows += result.elided_rows
        self.trimmed_lanes += result.trimmed_lanes
        self.trimmed_columns += result.trimmed_columns

    def render(self) -> str:
        head = (f"{self.label}: {self.cases_run} case(s), "
                f"{len(self.failures)} failure(s), "
                f"{self.hoisted_plans} with hoisted mv_mul groups, "
                f"{self.fused_plans} with fused pointwise ops, "
                f"{self.elided_rows} zero mv_mul rows elided, "
                f"{self.trimmed_lanes} padding lanes and "
                f"{self.trimmed_columns} columns trimmed")
        if self.invalid:
            head += f", {self.invalid} invalid"
        if self.ok:
            return head + " — all engines agree"
        return "\n".join([head] + [f.render() for f in self.failures])


def run_fuzz(seed: int = 0, iterations: int = 100,
             profile: Optional[FuzzProfile] = None,
             config: Optional[NpuConfig] = None,
             corpus_dir: Optional[str] = None,
             shrink: bool = True,
             check_timing: bool = True,
             progress: Optional[Callable[[int, int], None]] = None
             ) -> FuzzReport:
    """Run ``iterations`` differential cases for seeds ``seed..seed+n-1``.

    Args:
        seed: First case seed; the campaign is fully determined by
            ``(seed, iterations, profile, config)``.
        iterations: Number of cases to generate and compare.
        profile: Opcode-weight profile (default
            :data:`~repro.verify.generator.PROFILES`\\ ``["default"]``).
        config: Pin a single NPU configuration instead of drawing from
            the fuzz pool per seed.
        corpus_dir: Directory to archive shrunk failing cases into.
        shrink: Minimize failing cases before archiving/reporting.
        check_timing: Also enforce scheduler timing invariants.
        progress: Optional ``(done, total)`` callback per case.
    """
    profile_name = profile.name if profile else "default"
    report = FuzzReport(cases_run=iterations, failures=[],
                        label=f"fuzz(seed={seed}, profile={profile_name})")
    for i in range(iterations):
        case_seed = seed + i
        case = generate_case(case_seed, profile=profile, config=config)
        try:
            result = run_differential(case, check_timing=check_timing)
        except CaseInvalid:
            # A generator regression; surfaced in the report.
            report.invalid += 1
            continue
        report.count(result)
        if not result.ok:
            report.failures.append(_handle_failure(
                case, case_seed, result.mismatches, corpus_dir, shrink,
                check_timing))
        if progress is not None:
            progress(i + 1, iterations)
    return report


def _handle_failure(case: ProgramCase, seed: Optional[int],
                    mismatches: List[str], corpus_dir: Optional[str],
                    shrink: bool, check_timing: bool) -> FuzzFailure:
    if shrink:
        def still_failing(candidate: ProgramCase) -> bool:
            return not run_differential(
                candidate, check_timing=check_timing).ok

        case = shrink_case(case, still_failing)
        try:
            mismatches = run_differential(
                case, check_timing=check_timing).mismatches
        except CaseInvalid:  # pragma: no cover - shrinker guards this
            pass
    path = None
    if corpus_dir is not None:
        path = str(save_case(case, corpus_dir))
    return FuzzFailure(seed=seed, note=case.note or f"seed={seed}",
                       mismatches=mismatches, case=case, corpus_path=path)


def replay_corpus(directory, check_timing: bool = True) -> FuzzReport:
    """Re-run every archived corpus case; failures are not re-shrunk.

    A missing directory is an error (a mistyped path must not pass
    vacuously), but an existing empty one replays cleanly.
    """
    if not pathlib.Path(directory).is_dir():
        raise ReproError(f"corpus directory not found: {directory}")
    files = corpus_files(directory)
    report = FuzzReport(cases_run=len(files), failures=[],
                        label=f"replay({directory})")
    for path in files:
        case = load_corpus_case(path)
        try:
            result = run_differential(case, check_timing=check_timing)
        except CaseInvalid:
            mismatches = [f"corpus case no longer executes: {path}"]
        else:
            report.count(result)
            mismatches = result.mismatches
        if mismatches:
            report.failures.append(FuzzFailure(
                seed=None, note=case.note or path.name,
                mismatches=mismatches, case=case, corpus_path=str(path)))
    return report
