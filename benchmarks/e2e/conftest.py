"""Keep the end-to-end self-test out of a collection of ``benchmarks/``.

The self-test runs the benchmark command several times, so it is
collected only when this directory (or a file in it) is named on the
command line: ``python -m pytest benchmarks/e2e``.
"""

import pathlib

HERE = pathlib.Path(__file__).resolve().parent


def pytest_ignore_collect(collection_path, config):
    if collection_path.parent != HERE:
        return None
    base = config.invocation_params.dir
    for arg in config.args:
        named = (base / arg.split("::")[0]).resolve()
        if named == HERE or HERE in named.parents:
            return None
    return True
