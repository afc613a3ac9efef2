"""The benchmark's tracer wraps twistfrac functions by (module, name).

A refactor that renames or moves one of them would make the traced run
(`perfbench/run.py --trace 1`) fail; this test catches that first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


child = _load_child()
TRACED = sorted({(module, attr) for module, attr, *_ in child.SPANS + child.COUNTS}
                | {child.ROOT_SPAN[:2]})


@pytest.mark.parametrize("module, attr", TRACED)
def test_traced_name_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"twistfrac.{module}"), attr))
