"""Every function the benchmark trace wraps by name exists in the package.

perfbench/spans.py looks each TRACED "<module>.<function>" up with getattr
when a traced run starts, so a missing name fails every `--trace 1` run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_names() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("qualname", traced_names())
def test_traced_name_is_callable(qualname):
    module_name, func_name = qualname.split(".")
    module = importlib.import_module(f"wickbell.{module_name}")
    assert callable(getattr(module, func_name, None)), qualname
