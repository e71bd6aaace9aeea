"""The performance headlines quoted in README.md and docs/PERFORMANCE.md
match the committed BENCH_perf.json.

Docs quote BENCH figures as ``~X.Yx``; each quote must equal the BENCH
value rounded to the quoted precision, and each headline must be quoted
in both documents, so a re-run benchmark or an edited sentence that
lets the two drift apart fails here.
"""

import json
import pathlib
import re

import pytest

pytestmark = pytest.mark.tier1

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCS = ("README.md", "docs/PERFORMANCE.md")

#: BENCH_perf.json ``headline`` key -> the phrasing that quotes it.
HEADLINES = {
    "compiled_speedup": r"compiled replay (?:runs the headline h=1024 "
                        r"LSTM )?~(\d+(?:\.\d+)?)x",
    "batch16_speedup": r"batch=16 (?:replay )?sustain(?:s|ing) "
                       r"~(\d+(?:\.\d+)?)x",
    "batching_goodput_ratio": r"(?:headline is|full-suite ratio is) "
                              r"~(\d+(?:\.\d+)?)x",
}


def _text(doc: str) -> str:
    return " ".join((ROOT / doc).read_text().split())


def _headline() -> dict:
    return json.loads((ROOT / "BENCH_perf.json").read_text())["headline"]


@pytest.mark.parametrize("doc", DOCS)
@pytest.mark.parametrize("key", sorted(HEADLINES))
def test_doc_quotes_match_bench(doc, key):
    quotes = re.findall(HEADLINES[key], _text(doc))
    assert quotes, f"{doc} no longer quotes the {key} headline"
    value = _headline()[key]
    for quote in quotes:
        digits = len(quote.partition(".")[2])
        assert float(quote) == round(value, digits), (
            f"{doc} quotes {key} as ~{quote}x; BENCH_perf.json has "
            f"{value:.3f}x")
