"""The benchmark reaches locnash through the entry points that
``bench/tracing.py`` lists in ``API``, and traces the evaluator methods it
lists in ``EVAL_METHODS``; each must resolve, so that removing or renaming
one fails here and not only in the benchmark."""

import ast
import importlib
import os

import pytest

from locnash.weierstrass import WeierstrassContext

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


def _tracing_constant(name):
    """The literal bound to ``name`` in the file's source, without importing
    the benchmark."""
    with open(TRACING, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/tracing.py defines no {name}")


@pytest.mark.parametrize("module, name", _tracing_constant("API"))
def test_bench_entry_point_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"locnash.{module}"), name))


@pytest.mark.parametrize("method", sorted(_tracing_constant("EVAL_METHODS")))
def test_traced_eval_method_resolves(method):
    assert callable(getattr(WeierstrassContext, method))
