"""In-memory span tracer that wraps library functions from outside the library.

The library has no trace hooks of its own, so the traced run replaces each
wrapped function under every name it is looked up by (for example
``linalg.bareiss_determinant`` as well as ``intmat.bareiss_determinant``, and
``build_laplacian`` in ``linalg``, ``runner`` and ``forests``), and puts the
originals back afterwards.  A span records its name, start, end, parent span
and report id; self time is the duration minus the time of child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# (span name, module, attribute path) of every wrapped library function
TARGETS = (
    ("groups.from_moduli", "groupforests.groups", "FiniteQuotient.from_moduli"),
    ("groups.injectivity_radius", "groupforests.groups", "injectivity_radius"),
    ("linalg.build_laplacian", "groupforests.linalg", "build_laplacian"),
    ("linalg.spectrum", "groupforests.linalg", "spectrum"),
    ("linalg.free_abelian_spectrum", "groupforests.linalg", "free_abelian_spectrum"),
    ("linalg.spanning_tree_count", "groupforests.linalg", "spanning_tree_count"),
    ("linalg.harmonic_component_group", "groupforests.linalg", "harmonic_component_group"),
    ("intmat.bareiss_determinant", "groupforests.intmat", "bareiss_determinant"),
    ("intmat.smith_normal_form", "groupforests.intmat", "smith_normal_form"),
    ("intmat.smith_with_transform", "groupforests.intmat", "smith_with_transform"),
    ("forests.QuotientMultigraph", "groupforests.forests", "QuotientMultigraph.__init__"),
    ("forests.wilson_sample", "groupforests.forests", "wilson_sample"),
    ("forests.lift_marginals", "groupforests.forests", "lift_marginals"),
    ("walks.return_series", "groupforests.walks", "return_series"),
    ("walks.tree_entropy", "groupforests.walks", "tree_entropy"),
    ("walks.spectral_radius_probe", "groupforests.walks", "spectral_radius_probe"),
)


def _note_dense_entries(args, result):
    return result.size**2


def _note_bits(args, result):
    return abs(result).bit_length()


def _note_graph_n(args, result):
    return args[0].n


# span value recorded from the call: dense Laplacian entries N^2,
# determinant bits, multigraph N for Wilson's sampler
NOTES = {
    "linalg.build_laplacian": _note_dense_entries,
    "intmat.bareiss_determinant": _note_bits,
    "forests.wilson_sample": _note_graph_n,
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "report", "error", "value")

    def __init__(self, id, name, start, parent, report):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.report = report
        self.error = None
        self.value = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in self.__slots__}


class Tracer:
    """Collects spans of the calls made while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.report = None

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self.report)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        except BaseException as err:
            span.error = type(err).__name__
            raise
        finally:
            self.close(span)

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                self.close(span)
            if note is not None:
                span.value = note(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target under every name it is bound to; restore on exit."""
        undo = []
        try:
            for name, module, path in TARGETS:
                _patch(name, sys.modules[module], path, self, undo)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def _patch(name, module, path, tracer, undo) -> None:
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(tracer.wrap(name, raw.__func__))
        else:
            replacement = tracer.wrap(name, raw)
        undo.append((cls, attr, raw))
        setattr(cls, attr, replacement)
        return
    original = getattr(module, path)
    wrapper = tracer.wrap(name, original)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "groupforests" or mod_name.startswith("groupforests.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)


def layer_totals(spans: list) -> dict:
    """Per span name: calls, total and self time, cap hits and their time,
    and the sum of the recorded values."""
    child_time = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    totals = {}
    for span in spans:
        t = totals.setdefault(
            span.name,
            {"calls": 0, "time": 0.0, "self": 0.0, "capped": 0, "capped_time": 0.0, "value": 0},
        )
        t["calls"] += 1
        t["time"] += span.duration
        t["self"] += span.duration - child_time.get(span.id, 0.0)
        if span.error == "ResourceLimitError":
            t["capped"] += 1
            t["capped_time"] += span.duration
        if span.value is not None:
            t["value"] += span.value
    return totals
