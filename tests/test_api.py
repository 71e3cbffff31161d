"""The benchmark reaches locnash through the entry points that
``bench/tracing.py`` lists in ``API``, and traces the evaluator methods it
lists in ``EVAL_METHODS``; each must resolve, and each ``api.<name>(...)``
call in ``bench/`` must bind to its signature, so that removing, renaming or
reshaping one fails here and not only in the benchmark."""

import ast
import glob
import importlib
import inspect
import os

import pytest

from locnash.weierstrass import WeierstrassContext

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
TRACING = os.path.join(BENCH, "tracing.py")


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


def _api_calls():
    """(file:line:column, name, positional count, keyword names) of every
    ``api.<name>(...)`` call in the benchmark's sources."""
    calls = []
    for path in sorted(glob.glob(os.path.join(BENCH, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and getattr(node.func.value, "id", None) == "api"):
                site = f"{os.path.basename(path)}:{node.lineno}:{node.col_offset}"
                calls.append(pytest.param(site, node.func.attr, len(node.args),
                                          tuple(k.arg for k in node.keywords),
                                          id=f"{site}-{node.func.attr}"))
    return calls


@pytest.mark.parametrize("site, name, n_args, keywords", _api_calls())
def test_bench_api_call_binds(site, name, n_args, keywords):
    """The call's arguments bind to the entry point's signature: a parameter
    removed or made keyword-only fails here, not in every benchmark task."""
    modules = {n: m for m, n in _tracing_constant("API")}
    assert name in modules, f"{site}: api.{name} is not in bench/tracing.py's API"
    fn = getattr(importlib.import_module(f"locnash.{modules[name]}"), name)
    inspect.signature(fn).bind(*[None] * n_args, **dict.fromkeys(keywords))
