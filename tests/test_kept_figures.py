"""Every `Kept:` comment in the package backs its block with a benchmark
figure: the workload it was measured on, named as BENCHMARK.json names it
and in backticks, and a `before -> after` figure.

A perf block stays only while it pays on the benchmark, and its `Kept:`
comment is where the next change that touches it finds what it has to
beat. A figure without a workload, or one that is not a before and after,
cannot be re-measured.
"""

import io
import json
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "lpvi").glob("*.py"))
WORKLOADS = [workload["name"] for workload in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
NAMED = re.compile("|".join(f"`{re.escape(name)}`" for name in WORKLOADS))
FIGURE = re.compile(r"\d\s*->\s*\d")


def prose_blocks(source: str) -> list[str]:
    """Each run of comments on consecutive lines and each string literal
    of a module, as one line of text."""
    blocks, last = [], None
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            if last != tok.start[0] - 1:
                blocks.append([])
            blocks[-1].append(tok.string.lstrip("#"))
            last = tok.start[0]
        elif tok.type == tokenize.STRING:
            blocks.append([tok.string.strip("\"'")])
            last = None
    return [" ".join(" ".join(block).split()) for block in blocks]


def kept_claims(source: str) -> list[str]:
    """The sentence after each `Kept:`, up to a full stop."""
    return [re.split(r"\.(?:\s|$)", claim, maxsplit=1)[0].strip()
            for block in prose_blocks(source)
            for claim in block.split("Kept:")[1:]]


def unbacked(source: str) -> list[str]:
    return [claim for claim in kept_claims(source)
            if not (NAMED.search(claim) and FIGURE.search(claim))]


def test_the_walk_finds_an_unbacked_claim():
    source = ('# A block. Kept: the plain form cuts the benchmark\'s\n'
              '# `solve` ops/s 42.3 -> 34.1. The next sentence says more\n'
              'x = 1  # Kept: the formula ran `oracle` at 272 ops/s, not 510\n'
              'def f():\n'
              '    """Kept: a copy per call moves `verify` p90 2.0 -> 2.9 ms."""\n'
              '# Kept: it cut `bench` ops/s 1 -> 2\n')
    assert kept_claims(source) == [
        "the plain form cuts the benchmark's `solve` ops/s 42.3 -> 34.1",
        "the formula ran `oracle` at 272 ops/s, not 510",
        "a copy per call moves `verify` p90 2.0 -> 2.9 ms",
        "it cut `bench` ops/s 1 -> 2",
    ]
    assert unbacked(source) == ["the formula ran `oracle` at 272 ops/s, not 510",
                                "it cut `bench` ops/s 1 -> 2"]


def test_the_benchmark_names_its_workloads():
    assert set(WORKLOADS) >= {"solve", "oracle", "verify"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_kept_comment_names_a_workload_and_a_figure(path):
    assert unbacked(path.read_text(encoding="utf-8")) == []
