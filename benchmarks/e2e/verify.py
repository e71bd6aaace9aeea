"""Output verification for the end-to-end workloads.

Serving workloads: every request's outputs get a shape and finiteness
check inside the loop; a seeded sample of the timed requests plus every
warm-up request is then re-run, outside the timed window, on a *fresh*
simulator through ``CompiledModel.run_sequence`` and must match bit for
bit in either exact mode or the configured BFP format.  A fresh
simulator per reference run catches recurrent state leaking from one
request into the next on a long-lived serving simulator.  The traced
half of a traced run serves the same requests again; its kept outputs
must equal the verified untraced ones bit for bit.

Cluster workloads: every run of a trace must reproduce the first run's
``status`` and ``latency_s`` arrays, event log and detector transitions
(and, for batched clusters, the dispatch and autoscaler logs) exactly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np


def check_outputs(outputs, steps: int, length: int) -> Optional[str]:
    """``None`` when ``outputs`` holds ``steps`` finite vectors of
    ``length`` elements, else what is wrong with it."""
    if outputs is None:
        return "no outputs returned"
    if len(outputs) != steps:
        return f"{len(outputs)} output steps, expected {steps}"
    for t, out in enumerate(outputs):
        out = np.asarray(out)
        if out.shape != (length,):
            return f"step {t}: output shape {out.shape}, expected ({length},)"
        if not np.all(np.isfinite(out)):
            return f"step {t}: non-finite output"
    return None


def _equal(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> bool:
    return len(a) == len(b) and all(
        np.asarray(x).dtype == np.asarray(y).dtype
        and np.array_equal(x, y) for x, y in zip(a, b))


def match_reference(compiled, xs: List[np.ndarray],
                    outputs: List[np.ndarray]) -> Optional[str]:
    """The numerics mode (``"exact"`` or ``"bfp"``) whose fresh-simulator
    run of ``xs`` reproduces ``outputs`` bit for bit, or ``None``."""
    for mode, exact in (("exact", True), ("bfp", False)):
        if _equal(compiled.run_sequence(xs, exact=exact), outputs):
            return mode
    return None


def verify_kept(compiled, kept: List[Tuple[list, list]]) -> List[str]:
    """Check every kept ``(inputs, outputs)`` pair against a fresh
    simulator; returns one message per failed pair."""
    failures = []
    for k, (xs, outputs) in enumerate(kept):
        try:
            mode = match_reference(compiled, xs, outputs)
        except Exception as exc:  # a broken reference run is a failure
            failures.append(f"kept request {k}: reference run raised "
                            f"{type(exc).__name__}: {exc}")
            continue
        if mode is None:
            failures.append(f"kept request {k}: outputs differ from a "
                            "fresh simulator in both exact and BFP mode")
    return failures


def same_kept(reference: List[Tuple[list, list]],
              other: List[Tuple[list, list]]) -> bool:
    """Whether two phases kept the same requests with bit-identical
    inputs and outputs (a traced phase against the verified untraced
    one)."""
    return len(reference) == len(other) and all(
        _equal(xa, xb) and _equal(oa, ob)
        for (xa, oa), (xb, ob) in zip(reference, other))


def cluster_fingerprint(result) -> tuple:
    """Everything a cluster run must reproduce exactly, in comparable
    form (latencies by their bit patterns, so NaNs compare too)."""
    return (result.status.tobytes(),
            np.ascontiguousarray(result.latency_s).view(np.uint64)
            .tobytes(),
            tuple(result.event_log),
            tuple(result.detector_transitions),
            tuple(result.batch_log or ()),
            tuple(result.active_nodes_trace or ()))


_FINGERPRINT_FIELDS = ("status", "latency_s", "event log",
                       "detector transitions", "batch log",
                       "autoscaler trace")


def compare_fingerprints(reference: tuple, other: tuple) -> Optional[str]:
    """``None`` when two cluster runs are bit-identical, else the first
    field that differs."""
    for name, a, b in zip(_FINGERPRINT_FIELDS, reference, other):
        if a != b:
            return f"{name} differs from the first run"
    return None
