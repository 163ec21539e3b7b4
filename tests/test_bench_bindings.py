"""The benchmark's per-layer metrics stay observable.

``bench/tracer.py`` wraps ``osicsim`` functions by module and name, and
``bench/run.py`` reports a per-layer metric as null when a span it is
computed from lost a binding. These tests import both files read-only, as
``bench/selftest.py`` does, so that a refactor which renames or removes a
wrapped function fails here instead of silently nulling a metric.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

# bindings of functions the program no longer has; no per-layer metric reads their spans
RETIRED = {"osicsim.batched.pinv_batch", "osicsim.detectors.pinv"}


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        tracer = importlib.import_module("tracer")
        run = importlib.import_module("run")
    finally:
        sys.path.remove(str(BENCH))
    return tracer, run


def unresolved(tracer, spans=None):
    return {f"{module}.{path}" for name, module, path, _ in tracer.WRAPS
            if (spans is None or name in spans) and tracer._resolve(module, path) is None}


def test_every_binding_of_a_metric_span_resolves(bench):
    tracer, run = bench
    spans = {span for _, span_names in run.PER_LAYER.values() for span in span_names}
    assert spans, "no per-layer metric names a span"
    assert unresolved(tracer, spans) == set()


def test_only_retired_bindings_are_missing(bench):
    tracer, run = bench
    assert unresolved(tracer) <= RETIRED
    retired_spans = {name for name, module, path, _ in tracer.WRAPS if f"{module}.{path}" in RETIRED}
    for metric, (_, spans) in run.PER_LAYER.items():
        assert not retired_spans.intersection(spans), metric
