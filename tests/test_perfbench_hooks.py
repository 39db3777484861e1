"""Every function the traced benchmark wraps must still exist under its name."""
import importlib
import importlib.util
from pathlib import Path

import pytest

import unilab.cli

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACER = _layertrace()
TRACED = _TRACER.SPAN_FUNCTIONS + _TRACER.LEAF_FUNCTIONS


@pytest.mark.parametrize("module_name, qualname", TRACED, ids=lambda v: str(v))
def test_traced_name_resolves(module_name, qualname):
    module = importlib.import_module(f"unilab.{module_name}")
    if "." in qualname:
        # The tracer wraps methods found in the class's own namespace.
        cls_name, attr = qualname.split(".")
        assert attr in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, qualname))


def test_task_runners_cover_every_task():
    assert set(unilab.cli._TASK_RUNNERS) == set(unilab.cli.TASKS)
