"""Shared fixtures: a toy order process, stub classifiers, and random
trace generators."""

from __future__ import annotations

import numpy as np
import pytest

from efp.events import (
    FAIL_STATE,
    Event,
    EventCatalog,
    EventKind,
    EventTrace,
    EventType,
    FieldKind,
    Outcome,
    Visibility,
)
from efp.model import ProcessModel
from efp.predictors import Classifier, prediction_outcomes
from efp.recurrent import _PARAM_NAMES, RecurrentModel


def make_catalog(steps, contexts=(), fail_name="failure"):
    intrinsic = [EventType(EventKind.FAILURE, fail_name)]
    for s in steps:
        intrinsic.append(EventType(EventKind.STEP, s))
    context = tuple(
        EventType(EventKind.CONTEXT, name, schema) for name, schema in contexts
    )
    return EventCatalog(intrinsic=tuple(intrinsic), context=context)


def make_trace(catalog, names, instance_id="t0", payloads=None, label=None):
    """Build a trace from event-type names; payloads map name -> tuple."""
    payloads = payloads or {}
    events = []
    for i, name in enumerate(names):
        et = catalog.lookup(name)
        assert et is not None, name
        events.append(
            Event(
                event_type=et,
                timestamp=1_000 * (i + 1),
                global_instance_id=instance_id,
                partner_id="p0",
                payload=payloads.get(name, ()),
            )
        )
    return EventTrace(instance_id, tuple(events), outcome_label=label)


class StubClassifier(Classifier):
    """Returns scripted distributions keyed on the intrinsic state
    sequence; anything off-script gets a uniform distribution."""

    def __init__(self, catalog, table):
        self.catalog = catalog
        self.outcomes = prediction_outcomes(catalog)
        self.table = {tuple(k): v for k, v in table.items()}

    def _prediction(self, states):
        probs = np.zeros(len(self.outcomes))
        row = self.table.get(states)
        if row is None:
            probs[:] = 1.0 / len(self.outcomes)
        else:
            for name, p in row.items():
                probs[self.outcomes.index(name)] = p
        return probs

    def start(self, trace):
        return trace.states

    def advance(self, cursor, state):
        return cursor + (state,)

    def readout(self, cursor):
        return self._prediction(cursor)

    def train_online(self, trace):
        pass  # scripted stubs do not learn


# -- the recurrent classifier: its parameters as one vector, a spied start ---


def get_flat_params(model) -> np.ndarray:
    return np.concatenate([getattr(model, n).ravel() for n in _PARAM_NAMES])


def set_flat_params(model, flat: np.ndarray) -> None:
    """Rebind every parameter of ``model`` to a slice of ``flat``. Like any
    mutator of a classifier it bumps ``model.version``."""
    offset = 0
    for name in _PARAM_NAMES:
        param = getattr(model, name)
        chunk = flat[offset:offset + param.size].reshape(param.shape).copy()
        setattr(model, name, chunk)
        offset += param.size
    model.version += 1


class SpiedStart(RecurrentModel):
    """Records each ``start`` as (instance id, prefix length, version,
    whether it ran the full window from zero)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.starts = []

    def start(self, trace):
        self._full = None
        hidden = super().start(trace)
        self.starts.append(
            (trace.instance_id, len(trace), self.version, self._full))
        return hidden

    def _forward_rows(self, rows, start=None):
        self._full = start is None
        return super()._forward_rows(rows, start)


def flatten_grads(grads: dict) -> np.ndarray:
    return np.concatenate([grads[n].ravel() for n in _PARAM_NAMES])


@pytest.fixture
def order_catalog():
    return make_catalog("ABCDEG", contexts=((
        "temp", (("reading", FieldKind.NUMERIC),)),))


@pytest.fixture
def order_model():
    """A -> B -> C -> {D -> G, E}; E and G final."""
    return ProcessModel(
        states=frozenset("ABCDEG"),
        initial_state="A",
        final_states=frozenset({"E", "G"}),
        allowed=frozenset(
            {("A", "B"), ("B", "C"), ("C", "D"), ("C", "E"), ("D", "G")}
        ),
    )


@pytest.fixture
def table_stub(order_catalog):
    """Classifier scripted with the two-step example distributions used
    throughout the traversal tests."""
    return StubClassifier(
        order_catalog,
        {
            ("A", "B", "C"): {"D": 0.803, "E": 0.010, FAIL_STATE: 0.187},
            ("A", "B", "C", "D"): {"G": 0.005, FAIL_STATE: 0.995},
        },
    )


def random_catalog_and_traces(rng, n_traces=4):
    """Random catalog plus consistent traces, for serialization tests."""
    n_steps = rng.integers(2, 6)
    steps = [f"step_{i}" for i in range(n_steps)]
    contexts = []
    for i in range(rng.integers(0, 3)):
        schema = []
        for j in range(rng.integers(1, 3)):
            kind = FieldKind.NUMERIC if rng.random() < 0.5 else FieldKind.CATEGORICAL
            schema.append((f"f{j}", kind))
        contexts.append((f"ctx_{i}", tuple(schema)))
    catalog = make_catalog(steps, contexts)

    traces = []
    for t in range(n_traces):
        events = []
        ts = 0
        for i in range(rng.integers(1, 8)):
            et = catalog.all_types[rng.integers(0, len(catalog.all_types))]
            payload = []
            for _, kind in et.data_schema:
                if kind is FieldKind.NUMERIC:
                    payload.append(float(np.round(rng.normal(), 6)))
                else:
                    payload.append(f"v{rng.integers(0, 5)}")
            ts += int(rng.integers(1, 5_000))
            events.append(
                Event(
                    event_type=et,
                    timestamp=ts,
                    global_instance_id=f"case-{t}",
                    partner_id=f"partner_{rng.integers(0, 3)}",
                    visibility=list(Visibility)[rng.integers(0, 3)],
                    payload=tuple(payload),
                )
            )
        label = None
        if rng.random() < 0.7:
            label = Outcome.FAIL if rng.random() < 0.4 else Outcome.END
        traces.append(
            EventTrace(f"case-{t}", tuple(events), outcome_label=label)
        )
    return catalog, traces
