"""The benchmark tracer's name tables still point at the package.

`Tracer.installed` skips a module-level name that no longer resolves, and
that layer's per-layer metric then reads 0 instead of failing, so a rename
in `homorag` has to fail here.
"""

import importlib
import types
from pathlib import Path

import pytest

from homorag.gateway import Gateway

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _load_spans():
    """Execute spans.py from its source, so that nothing is written next to it."""
    module = types.ModuleType("benchmark_spans")
    exec(compile(SPANS_PATH.read_text(encoding="utf-8"), str(SPANS_PATH), "exec"),
         module.__dict__)
    return module


spans = _load_spans()


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in spans.FUNCTIONS])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("module, cls_name, attr",
                         [(m, c, a) for m, c, a, _, _ in spans.CLASS_ATTRS])
def test_traced_class_attribute_resolves(module, cls_name, attr):
    cls = getattr(importlib.import_module(module), cls_name)
    assert attr in cls.__dict__


@pytest.mark.parametrize("attr", [a for a, _ in spans.GATEWAY_ATTRS])
def test_traced_gateway_attribute_resolves(attr):
    assert callable(getattr(Gateway, attr, None))
