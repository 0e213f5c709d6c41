"""The names the package exports and the names the benchmark tracer wraps."""

import importlib.util
from pathlib import Path

import schulze_wcm

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_exported_name_resolves():
    missing = [name for name in schulze_wcm.__all__ if not hasattr(schulze_wcm, name)]
    assert missing == []


def test_every_traced_attribute_is_bound():
    # The tracer swaps these module attributes in and out by name, so an
    # unbound one would only show up as a failed traced benchmark run.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unbound = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in tracing.TARGETS
        if not callable(getattr(module, attr, None))
    ]
    assert tracing.TARGETS and unbound == []
