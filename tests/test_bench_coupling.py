"""The benchmark's trace names only functions the program still defines.

``perfbench/spans.py`` wraps public layer functions by dotted name; a
rename in ``eisencount`` silently drops a layer from ``--trace 1`` until
the slow benchmark tests run.  This loads that file, without changing
it, and checks each name against the package.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names(spans):
    names = set(spans.COUNT_ONLY) | set(spans.WORK)
    for group in spans.GROUPS.values():
        names.update(group)
    return sorted(name for name in names if "." in name)


def test_every_traced_name_is_a_wrapped_layer_function(spans):
    names = _traced_names(spans)
    assert names
    for name in names:
        layer, attr = name.split(".")
        assert layer in spans.LAYERS, name
        module = importlib.import_module(f"eisencount.{layer}")
        fn = getattr(module, attr, None)
        # The filter Tracer.install applies before wrapping a function.
        assert inspect.isfunction(fn), name
        assert fn.__module__ == module.__name__, name


def test_expected_groups_are_defined_groups(spans):
    for workload, groups in spans.EXPECTED_GROUPS.items():
        for group in groups:
            assert group in spans.GROUPS, (workload, group)
