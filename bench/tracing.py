"""Spans recorded from outside the package, around the calls into each layer.

``instrument(tracer)`` swaps the public functions that ``harness``,
``channel`` and ``estimators`` look up in their module namespaces for thin
wrappers, and puts the originals back on exit. Nothing under ``src/`` is
edited: a wrapper times the call, keeps its span in memory and returns the
original's result untouched.

A span is ``[name, trace, parent, start_ns, end_ns]``. Spans of one sweep
trial share a trace id. A trial has no function of its own, so its span
opens at the trial's first draw (the ``STREAM_DELAY`` substream the harness
takes per trial) and closes at the next trial's first draw or when the
sweep point returns. A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
import weakref
from collections import Counter, defaultdict

import numpy as np

from zpsync import channel, estimators, harness, likelihood
from zpsync.channel import STREAM_DELAY

TRIAL = "harness.trial"
POINT = "harness.point"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._trials = 0
        self.counts: Counter = Counter()  # computed work counts, keyed by metric name
        self.class_matrix_mb = 0.0  # largest class matrix handed out
        self._seen_class_keys: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        trace = self.spans[parent][1] if parent >= 0 else -1
        self.spans.append([name, trace, parent, time.perf_counter_ns(), 0])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        """Close span ``idx`` and any span still open inside it (a trial
        is left open until the next trial or the end of its point)."""
        now = time.perf_counter_ns()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][4] = now
            if top == idx:
                return
        raise RuntimeError(f"span {idx} closed but was not open")

    def start_trial(self) -> None:
        if self._stack and self.spans[self._stack[-1]][0] == TRIAL:
            self.close(self._stack[-1])
        idx = self.open(TRIAL)
        self.spans[idx][1] = self._trials
        self._trials += 1

    @property
    def idle(self) -> bool:
        return not self._stack

    def wrap(self, fn, name: str, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    # work counters taken at the layer boundaries

    def _trial_draw(self, entropy) -> None:
        if len(entropy) == 3 and entropy[2] == STREAM_DELAY:
            self.start_trial()

    def _table_cells(self, args, table) -> None:
        y, vp = np.atleast_2d(args[0]), args[1]
        self.counts["likelihood.table_cells"] += vp.class_values.size * y.shape[1] * y.shape[0]

    def _class_matrix(self, args, matrix) -> None:
        vp, key = args[0], tuple(args[1:])
        seen = self._seen_class_keys.setdefault(vp, set())
        if key in seen:
            self.counts["likelihood.window_class_matrix.hits"] += 1
        seen.add(key)
        self.class_matrix_mb = max(self.class_matrix_mb, matrix.nbytes / 1e6)

    def _gather(self, args, result) -> None:
        window, hyp = args[0], args[-1]
        self.counts["estimators.gather_reads"] += hyp.size * window.length


# (module, attribute, span name); a missing attribute is skipped, so the
# benchmark keeps running when a later refactor removes a symbol.
_TARGETS = (
    (harness, "run_sweep", "harness.run_sweep"),
    (harness, "run_moment_validation", "harness.run_moment_validation"),
    (harness, "_run_trials", POINT),
    (harness, "substream", "channel.substream"),
    (harness, "assemble_window", "channel.assemble_window"),
    (harness, "variance_profile_h0", "likelihood.variance_profile_h0"),
    (harness, "b_function", "likelihood.b_function"),
    (harness, "aml_estimate", "estimators.aml"),
    (harness, "wed_estimate", "estimators.wed"),
    (harness, "ed_estimate", "estimators.ed"),
    (channel, "substream", "channel.substream"),
    (channel, "draw_channel", "channel.draw_channel"),
    (channel, "generate_block", "waveform.generate_block"),
    (channel, "convolve_frame", "channel.convolve_frame"),
    (channel, "draw_noise", "channel.draw_noise"),
    (estimators, "loglik_class_table", "likelihood.loglik_class_table"),
    (likelihood.VarianceProfile, "window_class_matrix", "likelihood.window_class_matrix"),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    hooks = {
        (harness, "substream"): dict(before=tracer._trial_draw),
        (estimators, "loglik_class_table"): dict(after=tracer._table_cells),
        (likelihood.VarianceProfile, "window_class_matrix"): dict(after=tracer._class_matrix),
        (harness, "aml_estimate"): dict(after=tracer._gather),
        (harness, "wed_estimate"): dict(after=tracer._gather),
    }
    saved = []
    try:
        for owner, attr, name in _TARGETS:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, **hooks.get((owner, attr), {})))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> tuple[dict[str, int], Counter]:
    """Total self time (ns) and call count per span name."""
    child_ns = [0] * len(spans)
    for name, _, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    for i, (name, _, _, start, end) in enumerate(spans):
        totals[name] += end - start - child_ns[i]
        calls[name] += 1
    return dict(totals), calls


def check_nesting(spans) -> list[str]:
    """Every span closed, inside its parent, and after its earlier sibling."""
    problems = []
    last_end: dict[int, int] = {}
    for i, (name, _, parent, start, end) in enumerate(spans):
        if end < start or end == 0:
            problems.append(f"span {i} ({name}) not closed")
        if parent >= 0:
            p_start, p_end = spans[parent][3], spans[parent][4]
            if start < p_start or end > p_end:
                problems.append(f"span {i} ({name}) outside its parent")
            if start < last_end.get(parent, 0):
                problems.append(f"span {i} ({name}) overlaps a sibling")
            last_end[parent] = end
    return problems[:5]
