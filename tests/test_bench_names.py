"""The benchmark's tracer wraps twistfrac functions by (module, name).

A refactor that renames or moves one of them, or changes how the CLI calls
them, would make the traced run (`perfbench/run.py --trace 1`) fail; these
tests catch that first.
"""

import hashlib
import importlib
import importlib.util
import io
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


def test_traced_enumerate_writes_the_untraced_bytes(monkeypatch):
    import twistfrac

    for module, attr in TRACED:  # the tracer rebinds these; undo it afterwards
        owner = importlib.import_module(f"twistfrac.{module}")
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    argv = ["enumerate", "--genus", "4", "--kind", "both", "--format", "json-lines"]
    plain = io.StringIO()
    assert twistfrac.cli.main(argv, stdout=plain) == 0

    tracer = child.Tracer()
    traced_main = tracer.install(twistfrac)
    sink = child.Sink()
    assert traced_main(argv, stdout=sink) == 0
    assert sink.hash.hexdigest() == hashlib.sha256(plain.getvalue().encode()).hexdigest()
    assert tracer.layers()["cli.render.bytes"] == sink.bytes > 0
