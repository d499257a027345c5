"""The next-step classifier contract, its training targets, and the
frequency baseline classifier.

A classifier maps an event trace to a probability distribution over the
possible next steps: a 1-D float array over its ``outcomes``, with the
failure outcome always at index 0. The traversal uses the incremental API
so hypothetical continuations do not require rebuilding trace objects:
``start`` and ``advance`` return cursors, and ``readout`` the
distribution at a cursor. ``check_distribution`` is the one check of such
an array; ``predict`` and each new traversal node run it.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .errors import MissingLabel, UnknownEventType, UntrainedModel, UsageError
from .events import (
    FAIL_STATE,
    Event,
    EventCatalog,
    EventKind,
    EventTrace,
    FieldKind,
    Outcome,
)


def check_distribution(probs: list[float], size: int) -> None:
    """Raise ``ValueError`` unless ``probs`` holds ``size`` non-negative
    floats summing to 1 within 1e-9. A NaN or infinite entry makes the sum
    NaN or infinite, which fails the comparison, so it is rejected too."""
    if len(probs) != size or not (min(probs) >= 0.0 and abs(sum(probs) - 1.0) <= 1e-9):
        raise ValueError("prediction must be a probability distribution")


def prediction_outcomes(catalog: EventCatalog) -> tuple[str, ...]:
    """Output space of any classifier on this catalog: failure first, then
    the intrinsic steps in catalog order."""
    return (FAIL_STATE,) + tuple(t.name for t in catalog.steps)


def training_targets(
    trace: EventTrace, catalog: EventCatalog
) -> list[tuple[int, str]]:
    """(prefix length, next step) of each training pair of a completed
    labeled trace, in trace order; a prefix is ``trace.events[:length]``.

    The first intrinsic event gets no pair (the start of a process is
    given, not predicted). A ``fail``-labeled trace without an explicit
    failure event contributes a terminal pair targeting the failure state.
    """
    if trace.outcome_label is None:
        raise MissingLabel(f"trace {trace.instance_id!r} has no outcome label")
    targets = []
    last_state = None
    for i, event in enumerate(trace.events):
        # ``is_intrinsic`` spelled out: this loop runs once per training event.
        if event.event_type.kind is EventKind.CONTEXT:
            continue
        if catalog.lookup(event.event_type.name) is None:
            raise UnknownEventType(
                f"event type {event.event_type.name!r} not in catalog"
            )
        state = event.state
        if last_state is not None:
            targets.append((i, state))
        last_state = state
    if trace.outcome_label is Outcome.FAIL and last_state != FAIL_STATE:
        targets.append((len(trace.events), FAIL_STATE))
    return targets


class Classifier:
    """Contract every next-step classifier implements.

    A prediction is a 1-D float array over ``outcomes``, which a
    classifier fixes when it is built. ``predict`` is a pure function of
    (classifier state, trace) and, given a fixed seed and training
    sequence, bit-reproducible. The traversal reads the same distribution
    incrementally: ``start(trace)`` returns an opaque cursor at the
    trace's end, ``advance(cursor, state)`` the cursor one hypothetical
    step further, and ``readout(cursor)`` the prediction there, unchecked.
    ``predict(trace)`` is ``readout(start(trace))`` with its one
    ``check_distribution``; the traversal checks a new node's prediction once.

    ``version`` counts the classifier's changes: every mutator
    (``train_online``, ``fit_bins``, and any other method that changes what
    ``start``, ``advance`` or ``readout`` return) increments it.

    Cursor contract: a cursor's key is its bytes if it is a numpy array,
    else the (hashable) cursor itself. ``readout`` is a function of the
    cursor's key at one ``version``, and ``advance`` of key and state. On
    that promise the traversal keeps one node per ``(key, state)`` across
    walks until the version or the process model changes, and the
    evaluation reuses a whole walk per ``(key, state)`` within a fold.
    Neither may change its cursor, which may be a read-only array over
    its key's bytes.
    """

    catalog: EventCatalog
    outcomes: tuple[str, ...]
    version: int = 0

    def predict(self, trace: EventTrace) -> np.ndarray:
        probs = self.readout(self.start(trace))
        check_distribution(probs.tolist(), len(self.outcomes))
        return probs

    def start(self, trace: EventTrace):
        raise NotImplementedError

    def advance(self, cursor, state: str):
        raise NotImplementedError

    def readout(self, cursor) -> np.ndarray:
        raise NotImplementedError

    def fit_bins(self, traces: list[EventTrace]) -> None:
        """Fit what the classifier derives from a log before learning from
        it (the frequency model's payload bins). A no-op by default."""

    def train_online(self, trace: EventTrace) -> None:
        raise NotImplementedError

    def train(self, traces: list[EventTrace]) -> None:
        for trace in traces:
            self.train_online(trace)


class FrequencyModel(Classifier):
    """Laplace-smoothed next-step distribution conditioned on the last
    ``window`` events.

    Conditioning tokens are event-type names; context events with payload
    extend the token with discretized values (equal-width bins for numeric
    fields, verbatim strings for categorical ones), so data-indicated
    anomalies shift the conditioning context. Counting is additive, hence
    online training equals batch training exactly. A cursor is the tuple
    of the last ``window`` tokens; ``readout`` computes its row anew.
    """

    def __init__(self, catalog: EventCatalog, window: int = 3, alpha: float = 1.0,
                 bins: int = 8):
        if not math.isfinite(alpha) or alpha <= 0:
            raise UsageError(f"alpha must be a positive finite number, got {alpha}")
        if bins < 1:
            raise UsageError(f"bins must be at least 1, got {bins}")
        if window < 0:
            raise UsageError(f"window must be non-negative, got {window}")
        self.catalog = catalog
        self.window = window
        self.alpha = alpha
        self.bins = bins
        self.outcomes = prediction_outcomes(catalog)
        self._index = {name: i for i, name in enumerate(self.outcomes)}
        self.counts: dict[tuple, np.ndarray] = {}
        self.trained_traces = 0
        # (type name, field position) -> (low, high) fitted on training data
        self.bin_ranges: dict[tuple[str, int], tuple[float, float]] = {}

    # -- tokenization -----------------------------------------------------

    def _bin(self, type_name: str, position: int, value: float) -> int | None:
        # A NaN reading is a token of its own; readings beyond the fitted
        # range, infinite ones included, fall into the edge bins.
        value = float(value)
        if math.isnan(value):
            return None
        lo, hi = self.bin_ranges.get((type_name, position), (0.0, 0.0))
        if hi <= lo:
            return 0
        width = (hi - lo) / self.bins
        return int(min(max((value - lo) / width, 0.0), self.bins - 1))

    def _token(self, event: Event) -> tuple:
        # Intrinsic steps condition by name only: their payloads are
        # process data (ids, amounts) that would fragment the context and
        # can never be known for hypothetical future steps. Context-event
        # payloads are the carrier of data-indicated anomalies, so those
        # are discretized and appended.
        name = event.event_type.name
        if event.event_type.kind is not EventKind.CONTEXT or not event.payload:
            return (name,)
        parts = [name]
        for i, value in enumerate(event.payload):
            kind = event.event_type.data_schema[i][1]
            if kind is FieldKind.NUMERIC:
                parts.append(self._bin(name, i, value))
            else:
                parts.append(str(value))
        return tuple(parts)

    def _context(self, events) -> tuple:
        tail = events[-self.window:] if self.window > 0 else ()
        return tuple(self._token(e) for e in tail)

    def fit_bins(self, traces: list[EventTrace]) -> None:
        """Fit equal-width bin ranges for numeric payload fields over
        their finite readings.

        Must run before training when payload sensitivity is wanted;
        without it numeric payloads all land in bin 0.
        """
        lows: dict[tuple[str, int], float] = {}
        highs: dict[tuple[str, int], float] = {}
        for trace in traces:
            for event in trace.events:
                for i, value in enumerate(event.payload):
                    if event.event_type.data_schema[i][1] is not FieldKind.NUMERIC:
                        continue
                    v = float(value)
                    if not math.isfinite(v):
                        continue
                    key = (event.event_type.name, i)
                    lows[key] = min(lows.get(key, v), v)
                    highs[key] = max(highs.get(key, v), v)
        self.bin_ranges = {k: (lows[k], highs[k]) for k in lows}
        self.version += 1

    # -- training and prediction ------------------------------------------

    def train_online(self, trace: EventTrace) -> None:
        # One pass: each event inside some pair's window is tokenized once,
        # and ``tail`` slides along holding the last ``window`` tokens
        # before the current cut. Every key is built before any count
        # changes, so a trace that raises leaves the counts as they were.
        targets = training_targets(trace, self.catalog)
        window, token, events = self.window, self._token, trace.events
        tail: deque = deque(maxlen=window)
        seen = 0
        keys = []
        for cut, target in targets:
            tail.extend(map(token, events[max(seen, cut - window):cut]))
            seen = cut
            keys.append((tuple(tail), target))
        for key, target in keys:
            row = self.counts.get(key)
            if row is None:
                row = np.zeros(len(self.outcomes))
                self.counts[key] = row
            row[self._index[target]] += 1.0
        self.trained_traces += 1
        self.version += 1

    def start(self, trace: EventTrace):
        if self.trained_traces == 0:
            raise UntrainedModel("frequency model has seen no training trace")
        return self._context(trace.events)

    def advance(self, cursor, state: str):
        # Hypothetical steps carry no payload, so their token is bare.
        if self.window == 0:
            return cursor
        return (cursor + ((state,),))[-self.window:]

    def readout(self, cursor) -> np.ndarray:
        counts = self.counts.get(cursor)
        if counts is None:
            counts = np.zeros(len(self.outcomes))
        total = float(counts.sum()) + self.alpha * len(self.outcomes)
        return (counts + self.alpha) / total
