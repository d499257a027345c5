"""Reference recurrent classifier and its input encoding: a single tanh
recurrent layer feeding a softmax readout, trained with plain SGD on
cross-entropy.

Each event enters the network as one input row: a one-hot over the
catalog's types, then the event's payload padded to the catalog's widest
schema. Everything is float64 numpy and deterministic under a fixed seed,
which keeps the analytic gradients checkable against finite differences.

Training batches its numpy calls but keeps the float order of a plain
per-step loop, so its bits do not change: the input terms of a prefix
come from a stacked matmul that runs one gemv per row, and the gradient
terms are summed over steps in the loop's reversed order. No gemm is
used; its bits differ from gemv's.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import DimensionMismatch, UnknownEventType
from .events import FAIL_STATE, EventCatalog, EventTrace, FieldKind
from .predictors import Classifier, prediction_outcomes, training_targets

HIDDEN_SIZE = 32
LEARNING_RATE = 0.05
MAX_SEQUENCE = 64

_PARAM_NAMES = ("w_in", "w_rec", "b_rec", "w_out", "b_out")
_CODE_MODULUS = 997


def categorical_code(value: str) -> float:
    """Stable numeric code for a categorical payload value in [0, 1).

    Codes are content-derived (not fitted), so they never drift between
    runs; collisions are possible and accepted.
    """
    digest = hashlib.md5(str(value).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % _CODE_MODULUS / _CODE_MODULUS


def encode_trace(trace: EventTrace, catalog: EventCatalog) -> np.ndarray:
    """One input row per event, in trace order; payload slots beyond an
    event's schema stay zero."""
    n_types = len(catalog.all_types)
    rows = np.zeros((len(trace), n_types + catalog.max_data_arity))
    for row, event in zip(rows, trace.events):
        # Names are unique within a catalog, so a type is placed by its name;
        # a type whose schema differs from the catalog's still gets that slot.
        index = catalog.position(event.event_type.name)
        if index is None:
            raise UnknownEventType(
                f"event type {event.event_type.name!r} not in catalog"
            )
        row[index] = 1.0
        for i, value in enumerate(event.payload):
            kind = event.event_type.data_schema[i][1]
            row[n_types + i] = (
                float(value) if kind is FieldKind.NUMERIC else categorical_code(value)
            )
    return rows


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax of a fresh logits array, computed in place and returned;
    the same operations as ``exp(x - max) / sum``, so the same bits."""
    logits -= np.maximum.reduce(logits)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits)
    return logits


def _sum_steps(terms: np.ndarray) -> np.ndarray:
    """Sum over axis 0 of stacked per-step terms, from a +0.0 start.

    A reduction over the outer axis of a contiguous array adds the terms
    one at a time in stack order, neither pairing nor reordering them, so
    the bits are those of a ``+=`` loop over the steps onto zeros; from
    +0.0 the sign of a zero term never shows."""
    return np.add.reduce(terms, axis=0, initial=0.0)


class RecurrentModel(Classifier):
    """Next-step classifier backed by a small recurrent network; a cursor
    is a hidden state, and ``readout`` runs the softmax layer on it."""

    def __init__(self, catalog: EventCatalog, seed: int = 0,
                 hidden_size: int = HIDDEN_SIZE):
        self.catalog = catalog
        self.hidden_size = hidden_size
        self.outcomes = prediction_outcomes(catalog)
        self.input_size = len(catalog.all_types) + catalog.max_data_arity
        self.output_size = len(self.outcomes)
        # A hypothetical step is a one-hot row with zero payload, so its
        # input term ``w_in @ row`` is exactly one column of ``w_in``.
        self._columns = {t.name: i for i, t in enumerate(catalog.all_types)}
        self._columns[FAIL_STATE] = self._columns[catalog.failure_type.name]
        rng = np.random.default_rng(seed)
        scale_in = 1.0 / np.sqrt(self.input_size)
        scale_rec = 1.0 / np.sqrt(hidden_size)
        self.w_in = rng.normal(0.0, scale_in, (hidden_size, self.input_size))
        self.w_rec = rng.normal(0.0, scale_rec, (hidden_size, hidden_size))
        self.b_rec = np.zeros(hidden_size)
        self.w_out = rng.normal(0.0, scale_rec, (self.output_size, hidden_size))
        self.b_out = np.zeros(self.output_size)

    # -- forward pass -------------------------------------------------------

    def _check(self, trace: EventTrace) -> None:
        for event in trace.events:
            et = self.catalog.lookup(event.event_type.name)
            if et is None or et.arity != event.event_type.arity:
                raise DimensionMismatch(
                    f"event type {event.event_type.name!r} does not match the "
                    "catalog this model was initialized with"
                )

    def start(self, trace: EventTrace):
        self._check(trace)
        rows = encode_trace(trace, self.catalog)
        return self._forward_rows(rows[-MAX_SEQUENCE:])[-1]

    def advance(self, cursor, state: str):
        column = self._columns.get(state)
        if column is None:
            raise UnknownEventType(f"state {state!r} not in catalog")
        # Same operand order as a step of ``_forward_rows``; ``w_in`` is read
        # at call time because training updates it in place.
        return np.tanh(self.w_in[:, column] + self.w_rec @ cursor + self.b_rec)

    def readout(self, cursor) -> np.ndarray:
        return _softmax(self.w_out @ cursor + self.b_out)

    # -- training -------------------------------------------------------------

    def _forward_rows(self, rows: np.ndarray) -> np.ndarray:
        """Hidden states ``h_0 .. h_n`` of a prefix, one per row; ``h_0`` is
        zero.

        Each step is ``tanh(w_in @ row + w_rec @ h + b_rec)``. The input
        terms come from one stacked matmul, which runs the gemv of
        ``w_in @ row`` once per row; ``rows @ w_in.T`` would be a gemm,
        whose bits differ.
        """
        inputs = np.matmul(self.w_in, rows[:, :, None])[:, :, 0]
        hiddens = np.zeros((len(rows) + 1, self.hidden_size))
        for t, x in enumerate(inputs):
            np.tanh(x + self.w_rec @ hiddens[t] + self.b_rec, out=hiddens[t + 1])
        return hiddens

    def loss_and_grads(self, rows: np.ndarray, target: int):
        """Cross-entropy loss of one (prefix, next step) pair and its
        gradients with respect to every parameter; ``rows`` holds the
        prefix's encoded events, one per row.

        Backpropagation through time keeps only ``dz`` and the gemv that
        carries ``d_hidden`` back in its loop, from the last step to the
        first. The steps' outer products are then built at once (an
        ``einsum`` with no summed index: one product per entry) and
        ``_sum_steps`` adds them in that same order, so every gradient has
        the bits of a per-step ``+=``.
        """
        hiddens = self._forward_rows(rows)
        probs = _softmax(self.w_out @ hiddens[-1] + self.b_out)
        loss = -np.log(max(probs[target], 1e-300))

        d_logits = probs.copy()
        d_logits[target] -= 1.0
        gates = 1.0 - hiddens[:0:-1] ** 2  # steps n-1 .. 0
        dzs = np.empty_like(gates)
        d_hidden = self.w_out.T @ d_logits
        w_rec_t = self.w_rec.T
        for gate, dz in zip(gates, dzs):
            np.multiply(gate, d_hidden, out=dz)
            d_hidden = w_rec_t @ dz
        grads = {
            "w_out": np.outer(d_logits, hiddens[-1]),
            "b_out": d_logits.copy(),
            "w_in": _sum_steps(np.einsum("ti,tj->tij", dzs, rows[::-1])),
            "w_rec": _sum_steps(np.einsum("ti,tj->tij", dzs, hiddens[-2::-1])),
            "b_rec": _sum_steps(dzs),
        }
        return loss, grads

    def train_online(self, trace: EventTrace) -> None:
        """One SGD pass over the trace's (prefix, next step) pairs.

        Only the current trace is held in memory; each pair triggers an
        immediate parameter update.
        """
        self._check(trace)
        rows = encode_trace(trace, self.catalog)
        for cut, target in training_targets(trace, self.catalog):
            _, grads = self.loss_and_grads(
                rows[:cut][-MAX_SEQUENCE:], self.outcomes.index(target)
            )
            for name in _PARAM_NAMES:
                param = getattr(self, name)
                param -= LEARNING_RATE * grads[name]
        self.version += 1
