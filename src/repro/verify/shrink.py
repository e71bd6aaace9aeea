"""Greedy minimization of failing fuzz cases.

Given a :class:`~repro.verify.generator.ProgramCase` and a failure
predicate, repeatedly tries structurally smaller variants — dropping
event spans and deleting in-chain instructions, inside loop bodies too
— and keeps any variant that still fails, iterating to a fixpoint. A
final data pass zeroes initial-state arrays that the failure does not
depend on.

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
    for items in _smaller_items(list(case.program.items)):
        yield _rebuild(case, items)


def _smaller_items(items: List[object]) -> Iterator[List[object]]:
    """Variants of an event list with something deleted: spans of
    events (halves down to single events), then per item either the
    same deletions inside a loop body (recursively; a loop keeps at
    least one item) or one in-chain instruction."""
    n = len(items)
    length = max(1, n // 2)
    while length >= 1:
        for start in range(0, n - length + 1):
            yield items[:start] + items[start + length:]
        length //= 2
    for i, item in enumerate(items):
        if isinstance(item, Loop):
            smaller = (Loop(item.count, tuple(body))
                       for body in _smaller_items(list(item.body)) if body)
        elif isinstance(item, InstructionChain):
            smaller = _smaller_chains(item)
        else:
            continue  # scalar writes: covered by span deletion above
        for replacement in smaller:
            yield items[:i] + [replacement] + items[i + 1:]


def _smaller_chains(chain: InstructionChain) -> Iterator[InstructionChain]:
    """``chain`` minus one instruction, for every valid deletion."""
    instrs = list(chain.instructions)
    if len(instrs) <= 2:
        return  # already minimal (head + terminal)
    for j in range(len(instrs)):
        try:
            yield InstructionChain(instrs[:j] + instrs[j + 1:])
        except ReproError:
            continue  # invalid structures are skipped


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
