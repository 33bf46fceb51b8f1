"""In-memory spans around the calls between specgp modules.

The traced run replaces, for its duration, the names that one specgp
module imports from another (``specgp.optimizer.stochastic_gradient``,
``specgp.predict.build_local_gram``, ...) with wrappers that record a span
per call: its name, start, end, parent span and an amount (rows
featurized, bytes written).  Wrapping leaves every argument and result
untouched, so a traced run computes the same numbers bit for bit; the
benchmark checks that through the state digest.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from collections import defaultdict


def _columns(args, out):
    return out.shape[1]


def _file_bytes(args, out):
    return os.path.getsize(args[0])


# (module, imported name, span name, amount).  The first seven are outer
# spans (called from the training loop or from predict_batch); the last
# five are their children.
WRAP_POINTS = (
    ("optimizer", "stochastic_gradient", "gradient.stochastic_gradient", None),
    ("optimizer", "VariationalState", "variational.state_build", None),
    ("optimizer", "elbo_estimate", "gradient.elbo_estimate", None),
    ("optimizer", "save_checkpoint", "optimizer.checkpoint", _file_bytes),
    ("predict", "build_local_gram", "localmodel.build_local_gram", None),
    ("predict", "assign_blocks", "predict.assign_blocks", None),
    ("predict", "transform", "variational.transform", None),
    ("gradient", "feature_matrix", "features.feature_matrix", _columns),
    ("gradient", "transform", "variational.transform", None),
    ("gradient", "kl_term_gradient", "variational.kl_term_gradient", None),
    ("localmodel", "feature_matrix", "features.feature_matrix", _columns),
    ("predict", "feature_matrix", "features.feature_matrix", _columns),
)


class Tracer:
    """Spans kept as ``[name, start, end, parent, amount]`` rows; ``parent``
    is the index of the enclosing span, or -1 for a root."""

    def __init__(self):
        self.spans = []
        self._open = []

    def _begin(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, 0])
        self._open.append(index)
        return index

    def _end(self, index):
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def _wrap(self, fn, name, amount):
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(index)
            if amount is not None:
                self.spans[index][4] = amount(args, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry of :data:`WRAP_POINTS`; restore them on exit."""
        saved = []
        try:
            for module_name, attr, name, amount in WRAP_POINTS:
                module = importlib.import_module(f"specgp.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, amount))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path, meta):
        names = sorted({row[0] for row in self.spans})
        code = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        doc = dict(meta)
        doc["columns"] = ["name", "start_s", "end_s", "parent", "amount"]
        doc["names"] = names
        doc["spans"] = [
            [code[name], round(start - origin, 7), round(end - origin, 7), parent, amount]
            for name, start, end, parent, amount in self.spans
        ]
        with open(path, "w") as handle:
            json.dump(doc, handle)


class SpanStats:
    """Per-name totals over a finished trace."""

    def __init__(self, spans):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.amount = defaultdict(int)
        for i, (name, start, end, _, amount) in enumerate(spans):
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_time[name] += end - start - child_time[i]
            self.amount[name] += amount

    def root_of(self, index):
        while self.spans[index][3] >= 0:
            index = self.spans[index][3]
        return self.spans[index][0]

    def count_under(self, name, root):
        return sum(
            1 for i, row in enumerate(self.spans)
            if row[0] == name and self.root_of(i) == root
        )

    def amount_of_children(self, child, parent):
        """Sum of ``child`` amounts whose direct parent is a ``parent`` span."""
        return sum(
            row[4] for row in self.spans
            if row[0] == child and row[3] >= 0 and self.spans[row[3]][0] == parent
        )
