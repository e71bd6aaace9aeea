"""Trace which ``src/repro`` functions the CI entry points execute.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/reach_trace.py

In this one process, with ``sys.setprofile`` recording call events
only, it runs:

* every script under ``examples/``;
* the outcome-drift table tests (the ``benchmarks/test_*.py`` files
  that ``.github/workflows/ci.yml`` lists);
* every CLI command through :func:`repro.cli.main`: the arguments
  ``tests/test_cli_smoke.py`` uses, a few commands neither it nor CI
  runs, and every ``python -m repro`` command of ``ci.yml`` (the fuzz
  campaigns, ``fuzz --replay tests/corpus`` and the smoke steps);
* ``benchmarks/perf`` and the ``benchmarks/e2e/run.py --smoke`` child
  of every ``BENCHMARK.json`` workload.

It then compares the ``src/repro`` functions and methods (dunders
excluded) that none of them executed with the ``TEST_ONLY`` list of
``tests/test_reach.py``, where each has the reason it stays. A listed
class counts as executed when one of its methods is.

Exits 0 when the two sets are equal, 1 when they differ (it prints the
definitions executed by none but not listed, and the listed ones an
entry point executed or that no longer exist) and 2 if an entry point
failed. It takes a few minutes. CLI artefacts go to a temporary
directory; the outcome-drift tests rewrite ``benchmarks/results/*.txt``
as CI does.
"""

import ast
import contextlib
import importlib.util
import io
import json
import os
import pathlib
import re
import runpy
import shlex
import sys
import tempfile
import threading

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "tests" / "corpus"


#: Options of CI's ``repro`` commands that name a file they write.
_OUTPUT_FLAGS = {"--out", "--output", "--jsonl", "--html", "--prom",
                 "--corpus-dir"}


def _ci_text():
    return (ROOT / ".github" / "workflows" / "ci.yml").read_text()


def _cli_runs(tmp: pathlib.Path):
    """``repro`` argument lists: test_cli_smoke.py's, the commands
    neither it nor CI runs, then every ``python -m repro`` command of
    ci.yml (the fuzz campaigns and the smoke steps) writing into tmp."""
    runs = [
        ["trace", "lstm", "--hidden", "64", "--steps", "2",
         "--out", str(tmp / "t.json"), "--jsonl", str(tmp / "t.jsonl")],
        ["trace", "gru", "--hidden", "64", "--steps", "2",
         "--out", str(tmp / "t.json"), "--jsonl", str(tmp / "t.jsonl")],
        ["trace", "serve-faults", "--hidden", "64", "--steps", "2",
         "--requests", "60", "--rate", "600", "--out", str(tmp / "s.json")],
        ["serve-faults", "--requests", "120", "--rate", "600",
         "--replicas", "2", "--seed", "3"],
        ["fuzz", "--seed", "5", "--iterations", "4"],
        ["fuzz", "--seed", "6", "--iterations", "3",
         "--corpus-dir", str(tmp / "corpus")],
        ["fuzz", "--seed", "1", "--iterations", "3", "--profile", "mvm",
         "--config", "fuzz8_exact", "--no-timing"],
        ["bench", "quick", "--output", str(tmp / "bench.json")],
        ["bench", "quick", "--json"],
        ["monitor", "rack_loss", "--requests", "8000", "--seed", "0",
         "--html", str(tmp / "dash.html"), "--prom", str(tmp / "m.prom")],
        ["monitor", "rack_loss", "--requests", "8000", "--seed", "0",
         "--min-precision", "1.1"],
        ["monitor", "all", "--requests", "4000", "--seed", "0",
         "--prom", str(tmp / "all.prom")],
        ["serve-batch", "--quick", "--hidden", "64",
         "--min-goodput-ratio", "1.1", "--output", str(tmp / "sweep.json"),
         "--prom", str(tmp / "serving.prom")],
        ["configs"],
        ["experiment", "table1"],
        ["time", "gru", "1536", "25"],
        ["disassemble", "lstm", "256"],
        ["specialize", "gru", "1024", "Stratix 10 280"],
        ["numerics-sweep", "--formats", "mx_int8", "--rows", "8",
         "--width", "64", "--json"],
    ]
    ci = []
    for line in re.findall(r"python -m repro ([^\n|]+)",
                           _ci_text().replace("\\\n", " ")):
        argv = shlex.split(line)
        ci.append([str(tmp / pathlib.Path(arg).name)
                   if flag in _OUTPUT_FLAGS else arg
                   for flag, arg in zip([None] + argv, argv)])
    if not any(argv[0] == "fuzz" for argv in ci):
        raise RuntimeError("no repro fuzz campaign named in ci.yml")
    return runs + ci


def _drift_tests():
    """The benchmark files CI's outcome-drift gate regenerates."""
    files = sorted(set(re.findall(r"benchmarks/test_\w+\.py",
                                  _ci_text())))
    if not files:
        raise RuntimeError("no benchmarks/test_*.py named in ci.yml")
    return files


def _entry_points(tmp: pathlib.Path):
    """``(label, callable)`` pairs; a callable returns 0 on success."""
    import pytest

    import repro.harness.perf as perf
    from repro.cli import main as cli

    # benchmarks/perf and `repro bench quick` share one quick suite run.
    suite = perf.run_suite
    payloads = {}

    def run_suite_once(quick):
        if quick not in payloads:
            payloads[quick] = suite(quick=quick)
        return payloads[quick]

    perf.run_suite = run_suite_once

    def pytest_run(*args):
        return lambda: int(pytest.main(
            ["-q", "-p", "no:cacheprovider", *args]))

    def example(path):
        def run():
            try:
                runpy.run_path(str(path), run_name="__main__")
            except SystemExit as exc:
                return int(exc.code or 0)
            return 0
        return run

    def e2e_smoke():
        sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
        import run as e2e
        names = [w["name"] for w in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["workloads"]]
        failed = 0
        for name in names:
            result = e2e.child(name, 0, 0.0, False, True, None)
            failed += int(result.get("failed", 0))
        return int(failed > 0)

    points = [(f"examples/{p.name}", example(p))
              for p in sorted((ROOT / "examples").glob("*.py"))]
    points.append(("outcome-drift tables", pytest_run(*_drift_tests())))
    # A gate-violation run exits 1 by design; only a crash fails it.
    points += [("repro " + " ".join(argv),
                lambda argv=argv: int(cli(argv) not in (0, 1)))
               for argv in _cli_runs(tmp)]
    points.append(("benchmarks/perf", pytest_run("benchmarks/perf/")))
    points.append(("benchmarks/e2e/run.py --smoke", e2e_smoke))
    return points


def _definitions():
    """``{module:Owner.name: (path, first line, lines, is_class)}``
    over src/repro, in the scope of tests/test_reach.py."""
    defs = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
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
                # A decorated function's code starts at its first
                # decorator.
                first = min([node.lineno] + [d.lineno for d in
                                             node.decorator_list])
                is_class = isinstance(node, ast.ClassDef)
                defs[f"{module}:{owner}{node.name}"] = (
                    str(path), first, node.end_lineno - node.lineno + 1,
                    is_class)
                if is_class:
                    bodies.append((node.body, f"{owner}{node.name}."))
    return defs


def _test_only():
    spec = importlib.util.spec_from_file_location(
        "test_reach", ROOT / "tests" / "test_reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TEST_ONLY


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    failed = []
    # Profile from before the first repro import: some functions run
    # only at import time.
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for label, run in _entry_points(pathlib.Path(tmp)):
                print(f"== {label}", file=sys.stderr, flush=True)
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        status = run()
                except Exception as exc:  # noqa: BLE001 - report, go on
                    status = f"{type(exc).__name__}: {exc}"
                if status:
                    failed.append(f"{label}: {status}")
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    executed = {(code.co_filename, code.co_firstlineno) for code in seen}
    defs = _definitions()
    ran = {q for q, (path, first, _, is_class) in defs.items()
           if not is_class and (path, first) in executed}
    ran |= {q for q, (_, _, _, is_class) in defs.items()
            if is_class and any(r.startswith(q + ".") for r in ran)}
    idle = {q for q, (_, _, _, is_class) in defs.items()
            if not is_class and q not in ran}
    listed = set(_test_only())

    print("entry points that failed:", "none" if not failed else "")
    for line in failed:
        print(f"  {line}")
    lines = sum(defs[q][2] for q in idle)
    print(f"src/repro functions none executed: {len(idle)} "
          f"({lines} lines)")
    mismatches = [
        ("executed by none, not in TEST_ONLY", idle - listed),
        ("in TEST_ONLY, executed", listed & ran),
        ("in TEST_ONLY, not a definition", listed - defs.keys()),
    ]
    for title, names in mismatches:
        print(f"{title}: {len(names) or 'none'}")
        for q in sorted(names):
            print(f"  {q} ({defs[q][2]} lines)" if q in defs
                  else f"  {q}")
    if failed:
        return 2
    return 1 if any(names for _, names in mismatches) else 0

if __name__ == "__main__":
    sys.exit(main())
