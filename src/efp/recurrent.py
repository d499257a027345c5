"""Reference recurrent classifier: a single tanh recurrent layer feeding a
softmax readout, trained with plain SGD on cross-entropy.

Everything is float64 numpy and deterministic under a fixed seed, which
keeps the analytic gradients checkable against finite differences.
"""

from __future__ import annotations

import io

import numpy as np

from .errors import CheckpointMismatch, DimensionMismatch, UnknownEventType
from .events import FAIL_STATE, EventCatalog, EventTrace
from .predictors import (
    Classifier,
    Prediction,
    _catalog_hash,
    encode_trace,
    prediction_outcomes,
    training_pairs,
)

HIDDEN_SIZE = 32
LEARNING_RATE = 0.05
MAX_SEQUENCE = 64

_PARAM_NAMES = ("w_in", "w_rec", "b_rec", "w_out", "b_out")


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


class RecurrentModel(Classifier):
    """Next-step classifier backed by a small recurrent network."""

    def __init__(self, catalog: EventCatalog, seed: int = 0,
                 hidden_size: int = HIDDEN_SIZE,
                 learning_rate: float = LEARNING_RATE,
                 max_sequence: int = MAX_SEQUENCE):
        self.catalog = catalog
        self.seed = seed
        self.hidden_size = hidden_size
        self.learning_rate = learning_rate
        self.max_sequence = max_sequence
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

    def _step(self, hidden: np.ndarray, row: np.ndarray) -> np.ndarray:
        return np.tanh(self.w_in @ row + self.w_rec @ hidden + self.b_rec)

    def _readout(self, hidden: np.ndarray) -> Prediction:
        probs = _softmax(self.w_out @ hidden + self.b_out)
        return Prediction(probs, self.outcomes)

    def start(self, trace: EventTrace):
        self._check(trace)
        hidden = np.zeros(self.hidden_size)
        rows = encode_trace(trace, self.catalog)[-self.max_sequence:]
        for row in rows:
            hidden = self._step(hidden, row.concat())
        return hidden, self._readout(hidden)

    def advance(self, cursor, state: str):
        column = self._columns.get(state)
        if column is None:
            raise UnknownEventType(f"state {state!r} not in catalog")
        # Same operand order as ``_step``; ``w_in`` is read at call time
        # because training updates it in place and loading rebinds it.
        hidden = np.tanh(self.w_in[:, column] + self.w_rec @ cursor + self.b_rec)
        return hidden, self._readout(hidden)

    # -- training -------------------------------------------------------------

    def _forward_rows(self, rows: list[np.ndarray]):
        hiddens = [np.zeros(self.hidden_size)]
        for row in rows:
            hiddens.append(self._step(hiddens[-1], row))
        return hiddens

    def loss_and_grads(self, rows: list[np.ndarray], target: int):
        """Cross-entropy loss of one (prefix, next step) pair and its
        gradients with respect to every parameter."""
        hiddens = self._forward_rows(rows)
        probs = _softmax(self.w_out @ hiddens[-1] + self.b_out)
        loss = -np.log(max(probs[target], 1e-300))

        d_logits = probs.copy()
        d_logits[target] -= 1.0
        grads = {
            "w_out": np.outer(d_logits, hiddens[-1]),
            "b_out": d_logits.copy(),
            "w_in": np.zeros_like(self.w_in),
            "w_rec": np.zeros_like(self.w_rec),
            "b_rec": np.zeros_like(self.b_rec),
        }
        d_hidden = self.w_out.T @ d_logits
        for t in range(len(rows) - 1, -1, -1):
            dz = (1.0 - hiddens[t + 1] ** 2) * d_hidden
            grads["w_in"] += np.outer(dz, rows[t])
            grads["w_rec"] += np.outer(dz, hiddens[t])
            grads["b_rec"] += dz
            d_hidden = self.w_rec.T @ dz
        return loss, grads

    def train_online(self, trace: EventTrace) -> None:
        """One SGD pass over the trace's (prefix, next step) pairs.

        Only the current trace is held in memory; each pair triggers an
        immediate parameter update.
        """
        all_rows = [r.concat() for r in encode_trace(trace, self.catalog)]
        for prefix, target in training_pairs(trace, self.catalog):
            rows = all_rows[:len(prefix)][-self.max_sequence:]
            _, grads = self.loss_and_grads(rows, self.outcomes.index(target))
            for name in _PARAM_NAMES:
                param = getattr(self, name)
                param -= self.learning_rate * grads[name]

    # -- parameter plumbing (used by the gradient check) ----------------------

    def get_flat_params(self) -> np.ndarray:
        return np.concatenate(
            [getattr(self, n).ravel() for n in _PARAM_NAMES]
        )

    def set_flat_params(self, flat: np.ndarray) -> None:
        offset = 0
        for name in _PARAM_NAMES:
            param = getattr(self, name)
            size = param.size
            chunk = flat[offset:offset + size].reshape(param.shape).copy()
            setattr(self, name, chunk)
            offset += size

    def flatten_grads(self, grads: dict) -> np.ndarray:
        return np.concatenate([grads[n].ravel() for n in _PARAM_NAMES])

    # -- checkpointing ---------------------------------------------------------

    def save(self) -> bytes:
        buf = io.BytesIO()
        np.savez(
            buf,
            format="efp-recurrent",
            version=1,
            catalog=_catalog_hash(self.catalog),
            seed=self.seed,
            hidden_size=self.hidden_size,
            learning_rate=self.learning_rate,
            max_sequence=self.max_sequence,
            w_in=self.w_in,
            w_rec=self.w_rec,
            b_rec=self.b_rec,
            w_out=self.w_out,
            b_out=self.b_out,
        )
        return buf.getvalue()

    @classmethod
    def load(cls, blob: bytes, catalog: EventCatalog) -> "RecurrentModel":
        data = np.load(io.BytesIO(blob))
        if str(data["format"]) != "efp-recurrent":
            raise CheckpointMismatch("not a recurrent-model checkpoint")
        if str(data["catalog"]) != _catalog_hash(catalog):
            raise CheckpointMismatch("checkpoint was built for a different catalog")
        model = cls(
            catalog,
            seed=int(data["seed"]),
            hidden_size=int(data["hidden_size"]),
            learning_rate=float(data["learning_rate"]),
            max_sequence=int(data["max_sequence"]),
        )
        for name in _PARAM_NAMES:
            setattr(model, name, data[name])
        return model
