"""The benchmark reaches locnash through the entry points that
``bench/tracing.py`` lists in ``API``; each must resolve, so that removing
or renaming one fails here and not only in the benchmark."""

import ast
import importlib
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


def _api():
    """``API`` read from the file's source, without importing the benchmark."""
    with open(TRACING, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "API" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no API")


@pytest.mark.parametrize("module, name", _api())
def test_bench_entry_point_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"locnash.{module}"), name))
