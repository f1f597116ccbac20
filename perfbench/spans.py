"""Span tracing from outside the package.

:func:`install` wraps the public callables of each methodagree module by
rebinding every module-level name that refers to them, so a call that
``analyze`` makes to ``linear_fit`` goes through the wrapper and nests as a
child span. Spans stay in memory as ``[name, start, end, parent, op]``
lists (``parent`` is an index into the same list, -1 for a top-level span)
and are written out when the run ends. Standard library only.
"""

from __future__ import annotations

import sys
from time import perf_counter

MODULES = ("methodagree", "methodagree.agreement", "methodagree.numerics",
           "methodagree.synthesis", "methodagree.io", "methodagree.cli")


def _text_len(args, kwargs):
    return len(args[0]) if args else len(next(iter(kwargs.values())))


def _array_bytes(args, kwargs):
    return sum(getattr(a, "nbytes", 0) for a in (*args, *kwargs.values()))


def _mc_trials(args, kwargs):
    return kwargs["trials"] if "trials" in kwargs else args[2]


# (module, attribute, span name, counter, what the counter adds per call;
# None adds the length of the returned text). mean/variance/covariance share
# the span name ``numerics.moments``.
TARGETS = (
    ("io", "parse_replicated", "io.parse_replicated", "io.bytes_in", _text_len),
    ("io", "parse_paired", "io.parse_paired", "io.bytes_in", _text_len),
    ("io", "write_paired", "io.write_paired", "io.bytes_out", None),
    ("io", "emit_report", "io.emit_report", "io.bytes_out", None),
    ("io", "render_plot_svg", "io.render_plot_svg", "io.bytes_out", None),
    ("agreement", "ReplicatedSample", "agreement.ReplicatedSample", None, None),
    ("agreement", "PairedSample", "agreement.PairedSample", None, None),
    ("agreement", "estimate_variances", "agreement.estimate_variances", None, None),
    ("agreement", "paired_from_replicates", "agreement.paired_from_replicates", None, None),
    ("agreement", "analyze", "agreement.analyze", None, None),
    ("synthesis", "generate", "synthesis.generate", None, None),
    ("synthesis", "monte_carlo_covariance", "synthesis.monte_carlo_covariance",
     "synthesis.mc_trials", _mc_trials),
    ("numerics", "student_t_quantile", "numerics.student_t_quantile", None, None),
    ("numerics", "student_t_cdf", "numerics.student_t_cdf", None, None),
    ("numerics", "linear_fit", "numerics.linear_fit", "numerics.bytes_computed", _array_bytes),
    ("numerics", "mean", "numerics.moments", "numerics.bytes_computed", _array_bytes),
    ("numerics", "variance", "numerics.moments", "numerics.bytes_computed", _array_bytes),
    ("numerics", "covariance", "numerics.moments", "numerics.bytes_computed", _array_bytes),
    ("numerics", "orthonormalize", "numerics.orthonormalize", "numerics.bytes_computed",
     _array_bytes),
)


class Recorder:
    """Spans and counters of one process; ``op`` tags the spans it records."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = []

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, fn, name: str, counter: str | None, measure):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                self.count(counter, measure(args, kwargs) if measure else len(result))
            return result

        traced.__wrapped__ = fn
        return traced


def install(recorder: Recorder):
    """Rebind every traced callable in every loaded methodagree module.

    Returns a function that puts the original objects back.
    """
    modules = [sys.modules[m] for m in MODULES if m in sys.modules]
    undo = []
    for owner, attr, name, counter, measure in TARGETS:
        if f"methodagree.{owner}" not in sys.modules:
            continue
        original = getattr(sys.modules[f"methodagree.{owner}"], attr)
        wrapper = recorder.wrap(original, name, counter, measure)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))

    def restore():
        for mod, key, original in undo:
            setattr(mod, key, original)

    return restore


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def top_level_time(spans) -> dict[int, float]:
    """Summed duration of the top-level spans of each op."""
    out: dict[int, float] = {}
    for _, start, end, parent, op in spans:
        if parent < 0:
            out[op] = out.get(op, 0.0) + (end - start)
    return out
