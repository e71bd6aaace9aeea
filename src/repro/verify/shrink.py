"""Greedy minimization of failing fuzz cases.

Given a :class:`~repro.verify.generator.ProgramCase` and a failure
predicate, repeatedly tries structurally smaller variants — dropping
event spans, unrolling loops, deleting in-chain instructions — and keeps
any variant that still fails, iterating to a fixpoint. A final data pass
zeroes initial-state arrays that the failure does not depend on.

Candidates need not be well-formed: deleting a producer chain can starve
a later consumer, and deleting instructions can violate chain structure.
Ill-formed candidates (chain construction errors, or
:class:`~repro.verify.differential.CaseInvalid` from the predicate) are
simply skipped, so the shrinker needs no constraint tracking of its own.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterator, List

import numpy as np

from ..errors import ReproError
from ..isa.chain import InstructionChain
from ..isa.program import Loop, NpuProgram
from .differential import CaseInvalid, run_differential
from .generator import ProgramCase


def default_failure_predicate(case: ProgramCase) -> bool:
    """True iff the differential runner reports a mismatch."""
    try:
        return not run_differential(case).ok
    except CaseInvalid:
        return False


def shrink_case(case: ProgramCase,
                is_failing: Callable[[ProgramCase], bool] = None,
                max_steps: int = 500) -> ProgramCase:
    """Minimize ``case`` while ``is_failing`` stays true.

    ``max_steps`` bounds the number of *accepted* shrinks (each accepted
    shrink strictly reduces the instruction count, so the bound is never
    reached in practice; it guards against a pathological predicate).
    """
    if is_failing is None:
        is_failing = default_failure_predicate
    best = case
    for _ in range(max_steps):
        for candidate in _structural_candidates(best):
            if candidate.instruction_count() >= best.instruction_count():
                continue
            if _fails(candidate, is_failing):
                best = candidate
                break
        else:
            break  # no structural candidate survived: fixpoint
    changed = True
    while changed:  # restart so accepted zeroings compound
        changed = False
        for candidate in _data_candidates(best):
            if _fails(candidate, is_failing):
                best = candidate
                changed = True
                break
    if best is not case:
        best = dataclasses.replace(
            best, note=f"{case.note} shrunk from "
                       f"{case.instruction_count()} to "
                       f"{best.instruction_count()} instructions")
    return best


def _fails(case: ProgramCase,
           is_failing: Callable[[ProgramCase], bool]) -> bool:
    try:
        return bool(is_failing(case))
    except (CaseInvalid, ReproError):
        return False


def _rebuild(case: ProgramCase, items: List[object]) -> ProgramCase:
    program = NpuProgram(tuple(items), name=case.program.name)
    return dataclasses.replace(case, program=program)


def _structural_candidates(case: ProgramCase) -> Iterator[ProgramCase]:
    """Smaller program variants, largest deletions first."""
    items = list(case.program.items)
    n = len(items)
    # Span deletions: halves down to single events.
    length = max(1, n // 2)
    while length >= 1:
        for start in range(0, n - length + 1):
            yield _rebuild(case, items[:start] + items[start + length:])
        length //= 2
    # Loop simplification: unroll to a single iteration, or halve count.
    for i, item in enumerate(items):
        if not isinstance(item, Loop):
            continue
        yield _rebuild(case, items[:i] + list(item.body) + items[i + 1:])
        if isinstance(item.count, int) and item.count > 2:
            smaller = Loop(item.count // 2, item.body)
            yield _rebuild(case, items[:i] + [smaller] + items[i + 1:])
    # In-chain instruction deletions (invalid structures are skipped).
    for i, item in enumerate(items):
        if not isinstance(item, InstructionChain):
            continue  # scalar writes: covered by span deletion above
        instrs = list(item.instructions)
        if len(instrs) <= 2:
            continue  # already minimal (head + terminal)
        for j in range(len(instrs)):
            try:
                chain = InstructionChain(instrs[:j] + instrs[j + 1:])
            except ReproError:
                continue
            yield _rebuild(case, items[:i] + [chain] + items[i + 1:])


def _data_candidates(case: ProgramCase) -> Iterator[ProgramCase]:
    """Same program, simpler initial state (arrays zeroed one at a time)."""
    for mem in sorted(case.vrf_init, key=lambda m: m.name):
        if not case.vrf_init[mem].any():
            continue
        zeroed = {m: (np.zeros_like(a) if m is mem else a)
                  for m, a in case.vrf_init.items()}
        yield dataclasses.replace(case, vrf_init=zeroed)
    for field in ("dram_vectors", "dram_tiles", "netq_vectors",
                  "netq_tiles", "mrf_tiles"):
        data = getattr(case, field)
        if data is None or not data.size or not data.any():
            continue
        yield dataclasses.replace(case, **{field: np.zeros_like(data)})
