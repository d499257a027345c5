"""Trace encodings, the next-step classifier contract, and the frequency
baseline classifier.

A classifier maps an event trace to a probability distribution over the
possible next steps, with the failure outcome always at index 0. The
traversal additionally uses an incremental API (``start``/``advance``) so
hypothetical continuations do not require rebuilding trace objects.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    CheckpointMismatch,
    MissingLabel,
    UnknownEventType,
    UntrainedModel,
)
from .events import (
    FAIL_STATE,
    Event,
    EventCatalog,
    EventKind,
    EventTrace,
    FieldKind,
    Outcome,
)

_CODE_MODULUS = 997


def categorical_code(value: str) -> float:
    """Stable numeric code for a categorical payload value in [0, 1).

    Codes are content-derived (not fitted), so they never drift between
    runs; collisions are possible and accepted.
    """
    digest = hashlib.md5(str(value).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % _CODE_MODULUS / _CODE_MODULUS


@dataclass(frozen=True)
class InputRow:
    """One encoded event: a one-hot over event types plus padded payload."""

    event_onehot: np.ndarray
    data: np.ndarray

    def concat(self) -> np.ndarray:
        return np.concatenate([self.event_onehot, self.data])


@dataclass(frozen=True)
class Prediction:
    """Distribution over next steps: index 0 is the failure outcome, the
    remaining indices follow the catalog's step order."""

    probs: np.ndarray
    outcomes: tuple[str, ...]

    def __post_init__(self):
        if len(self.probs) != len(self.outcomes):
            raise ValueError("probs and outcomes must have equal length")
        if np.any(self.probs < 0) or abs(float(self.probs.sum()) - 1.0) > 1e-9:
            raise ValueError("prediction must be a probability distribution")

    def prob(self, state: str) -> float:
        return float(self.probs[self.outcomes.index(state)])

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.outcomes, map(float, self.probs)))


def prediction_outcomes(catalog: EventCatalog) -> tuple[str, ...]:
    """Output space of any classifier on this catalog: failure first, then
    the intrinsic steps in catalog order."""
    return (FAIL_STATE,) + tuple(t.name for t in catalog.steps)


def encode_event(event: Event, catalog: EventCatalog) -> InputRow:
    # Names are unique within a catalog, so a type is placed by its name;
    # a type whose schema differs from the catalog's still gets that slot.
    index = catalog.position(event.event_type.name)
    if index is None:
        raise UnknownEventType(
            f"event type {event.event_type.name!r} not in catalog"
        )
    onehot = np.zeros(len(catalog.all_types))
    onehot[index] = 1.0
    data = np.zeros(catalog.max_data_arity)
    for i, value in enumerate(event.payload):
        kind = event.event_type.data_schema[i][1]
        data[i] = float(value) if kind is FieldKind.NUMERIC else categorical_code(value)
    return InputRow(onehot, data)


def encode_trace(trace: EventTrace, catalog: EventCatalog) -> list[InputRow]:
    """One row per event, in trace order; payload slots beyond an event's
    schema stay zero."""
    return [encode_event(e, catalog) for e in trace.events]


def training_pairs(
    trace: EventTrace, catalog: EventCatalog
) -> list[tuple[tuple[Event, ...], str]]:
    """(prefix, next step) pairs of a completed labeled trace.

    The first intrinsic event gets no pair (the start of a process is
    given, not predicted). A ``fail``-labeled trace without an explicit
    failure event contributes a terminal pair targeting the failure state.
    """
    if trace.outcome_label is None:
        raise MissingLabel(f"trace {trace.instance_id!r} has no outcome label")
    pairs = []
    seen_intrinsic = False
    for i, event in enumerate(trace.events):
        if not event.is_intrinsic:
            continue
        if catalog.lookup(event.event_type.name) is None:
            raise UnknownEventType(
                f"event type {event.event_type.name!r} not in catalog"
            )
        if seen_intrinsic:
            pairs.append((trace.events[:i], event.state))
        seen_intrinsic = True
    states = trace.states
    if trace.outcome_label is Outcome.FAIL and (
        not states or states[-1] != FAIL_STATE
    ):
        pairs.append((trace.events, FAIL_STATE))
    return pairs


class Classifier:
    """Contract every next-step classifier implements.

    ``predict`` is a pure function of (classifier state, trace) and, given
    a fixed seed and training sequence, bit-reproducible. ``start`` and
    ``advance`` expose the same distribution incrementally for the
    traversal: ``start(trace)`` returns an opaque cursor plus the
    prediction at the trace's end, ``advance(cursor, state)`` appends one
    hypothetical step.
    """

    catalog: EventCatalog

    def predict(self, trace: EventTrace) -> Prediction:
        return self.start(trace)[1]

    def start(self, trace: EventTrace):
        raise NotImplementedError

    def advance(self, cursor, state: str):
        raise NotImplementedError

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
    online training equals batch training exactly.
    """

    def __init__(self, catalog: EventCatalog, window: int = 3, alpha: float = 1.0,
                 bins: int = 8):
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
        # predictions are pure functions of the counts; cache per context
        # and invalidate on training
        self._prediction_cache: dict[tuple, Prediction] = {}

    # -- tokenization -----------------------------------------------------

    def _bin(self, type_name: str, position: int, value: float) -> int:
        lo, hi = self.bin_ranges.get((type_name, position), (0.0, 0.0))
        if hi <= lo:
            return 0
        width = (hi - lo) / self.bins
        b = int((float(value) - lo) / width)
        return min(max(b, 0), self.bins - 1)

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
        """Fit equal-width bin ranges for numeric payload fields.

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
                    key = (event.event_type.name, i)
                    v = float(value)
                    lows[key] = min(lows.get(key, v), v)
                    highs[key] = max(highs.get(key, v), v)
        self.bin_ranges = {k: (lows[k], highs[k]) for k in lows}

    # -- training and prediction ------------------------------------------

    def train_online(self, trace: EventTrace) -> None:
        for prefix, target in training_pairs(trace, self.catalog):
            key = self._context(prefix)
            row = self.counts.get(key)
            if row is None:
                row = np.zeros(len(self.outcomes))
                self.counts[key] = row
            row[self._index[target]] += 1.0
        self.trained_traces += 1
        self._prediction_cache.clear()

    def start(self, trace: EventTrace):
        if self.trained_traces == 0:
            raise UntrainedModel("frequency model has seen no training trace")
        cursor = self._context(trace.events)
        return cursor, self._predict_context(cursor)

    def advance(self, cursor, state: str):
        # Hypothetical steps carry no payload, so their token is bare.
        if self.window <= 0:
            return cursor, self._predict_context(cursor)
        nxt = (cursor + ((state,),))[-self.window:]
        return nxt, self._predict_context(nxt)

    def _predict_context(self, context: tuple) -> Prediction:
        cached = self._prediction_cache.get(context)
        if cached is not None:
            return cached
        counts = self.counts.get(context)
        if counts is None:
            counts = np.zeros(len(self.outcomes))
        total = float(counts.sum()) + self.alpha * len(self.outcomes)
        prediction = Prediction((counts + self.alpha) / total, self.outcomes)
        self._prediction_cache[context] = prediction
        return prediction

    # -- checkpointing -----------------------------------------------------

    def save(self) -> bytes:
        payload = {
            "format": "efp-frequency",
            "version": 1,
            "catalog": _catalog_hash(self.catalog),
            "window": self.window,
            "alpha": self.alpha,
            "bins": self.bins,
            "trained_traces": self.trained_traces,
            "bin_ranges": [
                [name, pos, lo, hi]
                for (name, pos), (lo, hi) in sorted(self.bin_ranges.items())
            ],
            "counts": [
                [list(key), counts.tolist()]
                for key, counts in sorted(
                    self.counts.items(), key=lambda kv: repr(kv[0])
                )
            ],
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    @classmethod
    def load(cls, blob: bytes, catalog: EventCatalog) -> "FrequencyModel":
        payload = json.loads(blob.decode("utf-8"))
        if payload.get("format") != "efp-frequency":
            raise CheckpointMismatch("not a frequency-model checkpoint")
        if payload["catalog"] != _catalog_hash(catalog):
            raise CheckpointMismatch("checkpoint was built for a different catalog")
        model = cls(
            catalog,
            window=payload["window"],
            alpha=payload["alpha"],
            bins=payload["bins"],
        )
        model.trained_traces = payload["trained_traces"]
        model.bin_ranges = {
            (name, pos): (lo, hi)
            for name, pos, lo, hi in payload["bin_ranges"]
        }
        for key, counts in payload["counts"]:
            model.counts[tuple(tuple(t) for t in key)] = np.asarray(
                counts, dtype=float
            )
        return model


def _catalog_hash(catalog: EventCatalog) -> str:
    text = repr(catalog.signature()).encode("utf-8")
    return hashlib.sha256(text).hexdigest()
