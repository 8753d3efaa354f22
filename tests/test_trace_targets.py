"""Every span target of the benchmark's tracer names a live attribute.

perfbench/spans.py wraps the functions and methods it lists by name, so a
rename in the package would otherwise surface only in a traced benchmark
run.  The module is loaded from its file and only read; each entry is
resolved the way Tracer.install resolves it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import knotupsilon.cli  # noqa: F401  (install looks up every module)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SPANS = _spans_module()


@pytest.mark.parametrize("mod, attr, name", _SPANS.TARGETS + _SPANS.LEAVES)
def test_trace_target_resolves(mod, attr, name):
    owner = sys.modules["knotupsilon." + mod]
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner, attr = getattr(owner, cls_name), meth
    assert callable(getattr(owner, attr)), (mod, attr, name)
