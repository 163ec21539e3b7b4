"""Span tracing from outside the program.

The tracer replaces named functions in the ``osicsim`` module namespaces
that call them with thin wrappers that record one span per call: name,
start, end, parent span and workload, plus the batch size and matrix
order of the call's first argument. Nothing under ``src/`` is modified;
``installed()`` swaps the wrappers in and always restores the originals.

A wrapped attribute that no longer exists is reported as missing. The
metrics that depend on it are then reported as ``null``, never as 0.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from contextlib import contextmanager

import numpy as np


def _leading(args):
    shape = np.shape(args[0])
    return (shape[0] if len(shape) == 3 else 1), (shape[-1] if shape else 0)


def _first_int(args):
    return int(args[0]), 0


def _one(args):
    return 1, 0


# (span name, module, attribute path, size of the call). Each entry wraps the
# binding that the calling module uses, so calls are seen where they happen.
WRAPS = (
    ("channel.gen_channel_batch", "osicsim.harness", "gen_channel_batch", _first_int),
    ("channel.gen_noise_batch", "osicsim.harness", "gen_noise_batch", _first_int),
    ("channel.random_bits", "osicsim.harness", "random_bits", _one),
    ("modem.bits_to_indices", "osicsim.harness", "bits_to_indices", _one),
    ("batched.transmit_batch", "osicsim.harness", "transmit_batch", _leading),
    ("batched.vblast_indices_batch", "osicsim.harness", "vblast_indices_batch", _leading),
    ("batched.count_bit_errors", "osicsim.harness", "count_bit_errors", _one),
    ("batched.nulling_batch", "osicsim.batched", "nulling_batch", _leading),
    ("batched.pinv_batch", "osicsim.batched", "pinv_batch", _leading),
    ("batched.inverse_batch", "osicsim.batched", "inverse_batch", _leading),
    ("batched.slice_indices", "osicsim.batched", "slice_indices", _one),
    ("detectors.vblast_detect", "osicsim.harness", "vblast_detect", _one),
    ("detectors.vblast_detect", "osicsim.policy", "vblast_detect", _one),
    ("detectors.nulling_matrix", "osicsim.detectors", "nulling_matrix", _one),
    ("linalg.inverse", "osicsim.detectors", "inverse", _leading),
    ("linalg.pinv", "osicsim.detectors", "pinv", _one),
    ("linalg.inverse", "osicsim.linalg", "inverse", _leading),
    ("policy.feedback_detect", "osicsim.harness", "feedback_detect", _one),
    ("policy.meets_target", "osicsim.policy", "CalibrationTable.meets_target", _one),
)

LAYERS = ("harness", "channel", "modem", "batched", "linalg", "detectors", "policy")


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for ``module:path``, or None if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """In-memory span recorder for one traced run of one workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # each span: [name id, parent index, start ns, end ns, size, order]
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self.missing = sorted({f"{m}.{p}" for _, m, p, _ in WRAPS if _resolve(m, p) is None})
        for name in self.missing:
            print(f"trace: wrapped function {name} not found; its layer is reported missing",
                  file=sys.stderr)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def missing_spans(self) -> set[str]:
        """Span names with at least one binding that could not be wrapped."""
        return {name for name, m, p, _ in WRAPS if f"{m}.{p}" in self.missing}

    def _wrap(self, name: str, fn, size_of):
        nid = self._name_id(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            size, order = size_of(args)
            span = [nid, stack[-1] if stack else -1, 0, 0, size, order]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Swap every resolvable wrapped function for its tracing wrapper."""
        saved = []
        try:
            for name, module_name, path, size_of in WRAPS:
                found = _resolve(module_name, path)
                if found is None:
                    continue
                owner, attr = found
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, size_of))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str, size: int = 1):
        """A span around a call made by the benchmark itself."""
        span = [self._name_id(name), self._stack[-1] if self._stack else -1, 0, 0, size, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter_ns()
        try:
            yield
        finally:
            span[3] = time.perf_counter_ns()
            self._stack.pop()

    def summary(self) -> dict:
        """Per span name: calls, total ns, self ns, summed size, and n^3 * size."""
        child_ns = [0] * len(self.spans)
        for nid, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0, "size": 0, "cubes": 0} for name in self.names}
        for i, (nid, _, start, end, size, order) in enumerate(self.spans):
            s = out[self.names[nid]]
            s["calls"] += 1
            s["total_ns"] += end - start
            s["self_ns"] += end - start - child_ns[i]
            s["size"] += size
            s["cubes"] += size * order**3
        return out

    def calls_under(self, child: str, parent: str) -> int:
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        cid, pid = self._name_ids.get(child), self._name_ids.get(parent)
        if cid is None or pid is None:
            return 0
        return sum(1 for s in self.spans if s[0] == cid and s[1] >= 0 and self.spans[s[1]][0] == pid)

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """A top-level span for work timed before tracing started."""
        self.spans.append([self._name_id(name), -1, start_ns, end_ns, 1, 0])

    def layer_self_s(self, summary: dict) -> dict:
        """Self time per layer: span self times summed by module prefix."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, s in summary.items():
            out[name.split(".", 1)[0]] += s["self_ns"] / 1e9
        return out

    def write(self, path, header: dict) -> None:
        """Gzipped JSON lines: one header line, then one line per span."""
        t0 = min((s[2] for s in self.spans), default=0)
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (nid, parent, start, end, size, order) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": self.names[nid], "start_ns": start - t0, "end_ns": end - t0,
                    "parent": parent, "workload": self.workload, "size": size, "order": order,
                }) + "\n")
