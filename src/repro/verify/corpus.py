"""Replayable corpus files for conformance-fuzz cases.

A corpus entry is one JSON file: the NPU configuration, the program in
assembler text (round-tripped through
:func:`~repro.isa.assembler.parse_program`, loops included), and the
initial architectural state as nested lists of float32 bit patterns.
Bit patterns keep what ``json`` floats lose: ``json`` writes every NaN
as a bare ``NaN``, which reloads as +NaN without its payload. So
replaying a corpus file reproduces the original run bit-for-bit.
Format-1 files, which hold plain float lists, still load.

Shrunk failures land in ``tests/corpus/`` (committed), where the tier-1
suite replays them as regression tests; see docs/TESTING.md.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Dict, List

import numpy as np

from ..config import NpuConfig
from ..errors import ReproError
from ..isa.assembler import format_program, parse_program
from ..isa.memspace import MemId
from .generator import ProgramCase

#: Corpus file schema version: 2 stores float32 bit patterns, 1 floats.
CORPUS_FORMAT = 2

_VRF_ORDER = (MemId.InitialVrf, MemId.AddSubVrf, MemId.MultiplyVrf)


def _bits(array: np.ndarray) -> List:
    return np.ascontiguousarray(array, dtype=np.float32) \
        .view(np.uint32).tolist()


def case_to_json(case: ProgramCase) -> Dict[str, object]:
    """Serialize ``case`` to a JSON-compatible dict (``mrf_tiles`` only
    when the case pins them)."""
    data = {
        "format": CORPUS_FORMAT,
        "note": case.note,
        "config": dataclasses.asdict(case.config),
        "program_name": case.program.name,
        "program": format_program(case.program),
        "state": {
            "vrf": {mem.name: _bits(case.vrf_init[mem])
                    for mem in _VRF_ORDER},
            "dram_vectors": _bits(case.dram_vectors),
            "dram_tiles": _bits(case.dram_tiles),
            "netq_vectors": _bits(case.netq_vectors),
            "netq_tiles": _bits(case.netq_tiles),
        },
    }
    if case.mrf_tiles is not None:
        data["state"]["mrf_tiles"] = _bits(case.mrf_tiles)
    return data


def case_from_json(data: Dict[str, object]) -> ProgramCase:
    """Rebuild a :class:`ProgramCase` from :func:`case_to_json` output."""
    if data.get("format") not in (1, CORPUS_FORMAT):
        raise ReproError(
            f"unsupported corpus format {data.get('format')!r} "
            f"(expected 1 or {CORPUS_FORMAT})")
    config = NpuConfig(**data["config"])
    n = config.native_dim
    state = data["state"]

    def floats(raw: List) -> np.ndarray:
        if data["format"] == 1:
            return np.asarray(raw, dtype=np.float32)
        return np.asarray(raw, dtype=np.uint32).view(np.float32)

    def vectors(raw: List) -> np.ndarray:
        return floats(raw).reshape(-1, n)

    def tiles(raw: List) -> np.ndarray:
        return floats(raw).reshape(-1, n, n)

    return ProgramCase(
        config=config,
        program=parse_program(data["program"],
                              name=data.get("program_name", "corpus")),
        vrf_init={mem: vectors(state["vrf"][mem.name])
                  for mem in _VRF_ORDER},
        dram_vectors=vectors(state["dram_vectors"]),
        dram_tiles=tiles(state["dram_tiles"]),
        netq_vectors=vectors(state["netq_vectors"]),
        netq_tiles=tiles(state["netq_tiles"]),
        note=data.get("note", ""),
        mrf_tiles=(tiles(state["mrf_tiles"]) if "mrf_tiles" in state
                   else None),
    )


def save_case(case: ProgramCase, path) -> pathlib.Path:
    """Write ``case`` to ``path`` (a file, or a directory to name it in)."""
    path = pathlib.Path(path)
    if path.is_dir():
        stem = case.note.split()[0].replace("=", "-") if case.note \
            else "case"
        path = path / f"{stem}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(case_to_json(case), separators=(",", ":"))
    path.write_text(payload + "\n")
    return path


def load_corpus_case(path) -> ProgramCase:
    """Load one corpus JSON file."""
    return case_from_json(json.loads(pathlib.Path(path).read_text()))


def corpus_files(directory) -> List[pathlib.Path]:
    """Sorted ``*.json`` entries under ``directory`` (empty if absent)."""
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob("*.json"))
