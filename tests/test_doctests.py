"""The ``>>>`` examples in ``src/`` docstrings run and pass.

Every module under ``src/repro`` whose source holds an example is one
test case, so a new example is picked up without editing this file.
"""

from __future__ import annotations

import doctest
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

MODULES = sorted(
    ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(
        ".__init__"
    )
    for path in SRC.rglob("*.py")
    if ">>>" in path.read_text()
)


def test_examples_were_found():
    assert MODULES


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    module = importlib.import_module(name)
    failures, attempted = doctest.testmod(module, verbose=False, report=False)
    assert attempted, f"{name} has no runnable examples"
    assert failures == 0, f"{failures} of {attempted} examples failed in {name}"
