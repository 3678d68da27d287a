"""The benchmark's tracer wraps functions by (module, attribute) name.

A renamed or removed function, or a result that no longer carries what
the tracer's observers read, would make ``perfbench/run.py --trace 1``
fail only when someone runs it; these tests fail first.
"""

import importlib.util
from pathlib import Path

import pytest

from kendallcodes import certifier, cli, mahonian, numtheory, oracle

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = {
    "cli": cli,
    "certifier": certifier,
    "mahonian": mahonian,
    "numtheory": numtheory,
    "oracle": oracle,
}


@pytest.fixture(scope="module")
def tracer():
    if not TRACER.is_file():
        pytest.skip("perfbench/ is absent")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves(tracer):
    unresolved = [
        (module, attr)
        for module, attr, _ in tracer.SITES
        if not callable(getattr(MODULES[module], attr, None))
    ]
    assert unresolved == []


def test_traced_verify_feeds_every_observer(tracer, capsys):
    trace = tracer.Tracer()
    trace.install(MODULES)
    try:
        code = cli.main(["verify", "--n", "3"])
    finally:
        trace.uninstall()
    assert code == 0, capsys.readouterr().out
    # what the observers read: search nodes, table rows, the degraded flag
    # and a completed factorization
    assert trace.counters["oracle.search.nodes"] == 2
    assert trace.counters["mahonian.build_table.cells"] == 4
    assert trace.counters["certifier.degraded"] == 0
    assert trace.counters["numtheory.factorize.complete"] == 1
