"""The names the benchmark's span tracer wraps must exist in omabench.

``perfbench/tracer.py`` is loaded as a plain module (not run): every entry
of its ``TARGETS`` must name a function of ``omabench.<module>``, and every
``REPORT_METHODS`` entry a function or classmethod of ``BenchmarkReport``.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from omabench.harness import BenchmarkReport

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_targets_resolve(tracer):
    for mod_name, names in tracer.TARGETS.items():
        module = importlib.import_module(f"omabench.{mod_name}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"{mod_name}.{name}"


def test_report_methods_resolve(tracer):
    for name in tracer.REPORT_METHODS:
        raw = vars(BenchmarkReport).get(name)
        assert inspect.isfunction(raw) or isinstance(raw, classmethod), name
