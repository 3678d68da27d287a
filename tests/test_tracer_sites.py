"""The benchmark's tracer wraps functions by (module, attribute) name.

A renamed or removed function would make ``perfbench/run.py --trace 1``
fail only when someone runs it; this test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_site_resolves():
    if not TRACER.is_file():
        pytest.skip("perfbench/ is absent")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unresolved = [
        (module, attr)
        for module, attr, _ in tracer.SITES
        if not callable(
            getattr(importlib.import_module(f"kendallcodes.{module}"), attr, None)
        )
    ]
    assert unresolved == []
