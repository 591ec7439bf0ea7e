"""The benchmark's span tracer must still find every name it traces.

`bench/spans.py` rebinds each TRACED entry through `owner.__dict__[leaf]`;
a renamed or inherited function makes the traced run fail, and the bench
self-test cannot be relied on to show it.
"""

import importlib.util
from pathlib import Path

import normplane.cli  # noqa: F401  (loads every module, as the bench's set-up does)
from normplane.plane import NormedPlane

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_tracer_installs_every_traced_name_and_restores_them():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    before = dict(vars(NormedPlane))
    tracer = spans.Tracer()
    try:
        tracer.install()  # KeyError if a traced name is gone from its owner
        assert vars(NormedPlane)["circle_d1"] is not before["circle_d1"]
    finally:
        tracer.uninstall()
    assert dict(vars(NormedPlane)) == before
