import hashlib
import operator
from dataclasses import replace

import numpy as np
import pytest

from efp.errors import DimensionMismatch, UnknownEventType
from efp.events import FAIL_STATE, Event, EventTrace, FieldKind, Outcome
from efp.recurrent import MAX_SEQUENCE, RecurrentModel, _softmax, encode_trace
from efp.synthesis import default_spec, generate

from conftest import (
    SpiedStart,
    flatten_grads,
    get_flat_params,
    make_catalog,
    make_trace,
    set_flat_params,
)


@pytest.fixture
def toy_catalog():
    return make_catalog(["A", "B", "C"])


def test_untrained_model_emits_valid_distribution(toy_catalog):
    model = RecurrentModel(toy_catalog, seed=1)
    pred = model.predict(make_trace(toy_catalog, ["A", "B"]))
    assert np.all(pred >= 0)
    assert abs(pred.sum() - 1.0) < 1e-9


def test_same_seed_same_training_is_bit_identical(toy_catalog):
    corpus = [
        make_trace(toy_catalog, ["A", "B", "C"], instance_id=f"t{i}",
                   label=Outcome.END)
        for i in range(5)
    ]
    probe = make_trace(toy_catalog, ["A", "B"])
    outs = []
    for _ in range(2):
        model = RecurrentModel(toy_catalog, seed=42)
        model.train(corpus)
        outs.append(model.predict(probe))
    assert np.array_equal(outs[0], outs[1])


def test_different_seeds_differ(toy_catalog):
    probe = make_trace(toy_catalog, ["A", "B"])
    a = RecurrentModel(toy_catalog, seed=1).predict(probe)
    b = RecurrentModel(toy_catalog, seed=2).predict(probe)
    assert not np.array_equal(a, b)


def test_converges_on_deterministic_corpus(toy_catalog):
    corpus = [
        make_trace(toy_catalog, ["A", "B", "C"], instance_id=f"t{i}",
                   label=Outcome.END)
        for i in range(20)
    ]
    model = RecurrentModel(toy_catalog, seed=0)
    for _ in range(30):
        model.train(corpus)
    pred = model.predict(make_trace(toy_catalog, ["A", "B"]))
    assert pred[model.outcomes.index("C")] >= 0.9


def test_gradient_check_against_finite_differences(toy_catalog):
    model = RecurrentModel(toy_catalog, seed=3, hidden_size=8)
    trace = make_trace(toy_catalog, ["A", "B", "A"])
    rows = encode_trace(trace, toy_catalog)
    target = model.outcomes.index("C")

    _, grads = model.loss_and_grads(rows, target)
    analytic = flatten_grads(grads)

    params = get_flat_params(model)
    eps = 1e-6
    numeric = np.zeros_like(params)
    for i in range(len(params)):
        bumped = params.copy()
        bumped[i] += eps
        set_flat_params(model, bumped)
        up, _ = model.loss_and_grads(rows, target)
        bumped[i] -= 2 * eps
        set_flat_params(model, bumped)
        down, _ = model.loss_and_grads(rows, target)
        numeric[i] = (up - down) / (2 * eps)
    set_flat_params(model, params)

    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    rel = np.linalg.norm(analytic - numeric) / denom
    assert rel < 1e-4


def test_advance_matches_full_forward(toy_catalog):
    model = RecurrentModel(toy_catalog, seed=5)
    trace = make_trace(toy_catalog, ["A", "B"])
    incremental = model.readout(model.advance(model.start(trace), "C"))
    full = model.predict(make_trace(toy_catalog, ["A", "B", "C"]))
    assert np.allclose(incremental, full, atol=1e-12)


def test_dimension_mismatch_detected(toy_catalog):
    model = RecurrentModel(toy_catalog, seed=0)
    other = make_catalog(["A", "Z"], contexts=(
        ("extra", (("v", FieldKind.NUMERIC),)),))
    trace = make_trace(other, ["Z"])
    with pytest.raises(DimensionMismatch):
        model.predict(trace)


def test_train_online_rejects_a_same_named_type_of_another_arity(toy_catalog):
    model = RecurrentModel(toy_catalog, seed=0)
    other = make_catalog(["B", "C"], contexts=(
        ("A", (("v", FieldKind.NUMERIC),)),))
    trace = make_trace(other, ["B", "A", "C"], payloads={"A": (1.0,)},
                       label=Outcome.END)
    before = get_flat_params(model)
    with pytest.raises(DimensionMismatch):
        model.start(trace)
    with pytest.raises(DimensionMismatch):
        model.train_online(trace)
    assert np.array_equal(get_flat_params(model), before)


def test_fail_slot_learnable(toy_catalog):
    corpus = [
        make_trace(toy_catalog, ["A", "B"], instance_id=f"t{i}",
                   label=Outcome.FAIL)
        for i in range(20)
    ]
    model = RecurrentModel(toy_catalog, seed=0)
    for _ in range(30):
        model.train(corpus)
    pred = model.predict(make_trace(toy_catalog, ["A", "B"]))
    assert pred[model.outcomes.index(FAIL_STATE)] >= 0.9


# -- a hypothetical step is one column of w_in --------------------------------


@pytest.fixture
def payload_catalog():
    return make_catalog(["A", "B", "C"], contexts=(
        ("temp", (("reading", FieldKind.NUMERIC),)),
        ("pair", (("x", FieldKind.NUMERIC), ("y", FieldKind.CATEGORICAL))),
    ))


def _onehot_step(model, state):
    """The full input row of a hypothetical step, built by scanning the
    catalog: one-hot over every type, zero payload."""
    catalog = model.catalog
    name = catalog.failure_type.name if state == FAIL_STATE else state
    row = np.zeros(model.input_size)
    row[[t.name for t in catalog.all_types].index(name)] = 1.0
    return row


def _assert_advance_is_full_step(model):
    cursor = model.start(make_trace(model.catalog, ["A", "B"]))
    for state in model.outcomes:
        hidden = model.advance(cursor, state)
        prediction = model.readout(hidden)
        row = _onehot_step(model, state)
        expected = np.tanh(model.w_in @ row + model.w_rec @ cursor + model.b_rec)
        assert np.array_equal(hidden, expected), state
        assert np.array_equal(
            prediction, _softmax(model.w_out @ expected + model.b_out))


def test_advance_equals_onehot_step_as_weights_change(payload_catalog):
    # One model throughout, so a copy of the weights kept from an earlier
    # call would show after training and after rebinding new parameters.
    model = RecurrentModel(payload_catalog, seed=7)
    assert payload_catalog.max_data_arity == 2
    assert FAIL_STATE in model.outcomes
    _assert_advance_is_full_step(model)

    before = model.w_in.copy()
    model.train_online(make_trace(
        payload_catalog, ["A", "temp", "B", "pair", "C"],
        payloads={"temp": (21.5,), "pair": (3.0, "hi")}, label=Outcome.FAIL))
    assert not np.array_equal(model.w_in, before)  # updated in place
    _assert_advance_is_full_step(model)

    rng = np.random.default_rng(3)
    version = model.version
    set_flat_params(model, rng.normal(size=get_flat_params(model).size))
    assert model.version == version + 1  # rebinding is a change too
    _assert_advance_is_full_step(model)


def test_advance_unknown_state_raises(payload_catalog):
    model = RecurrentModel(payload_catalog, seed=7)
    cursor = model.start(make_trace(payload_catalog, ["A"]))
    with pytest.raises(UnknownEventType):
        model.advance(cursor, "Z")


# -- bit-level pin ------------------------------------------------------------


def _digest_traces(catalog):
    """Labeled traces over ``catalog`` whose context events carry varied
    numeric and categorical payloads; the last is longer than
    ``MAX_SEQUENCE``, so truncation is exercised."""
    rng = np.random.default_rng(17)
    traces = []
    for t, length in enumerate((5, 9, 14, MAX_SEQUENCE + 11)):
        events = []
        for i in range(length):
            name = ["A", "temp", "B", "pair", "C"][int(rng.integers(0, 5))]
            et = catalog.lookup(name)
            payload = ()
            if name == "temp":
                payload = (float(np.round(rng.normal(20.0, 5.0), 3)),)
            elif name == "pair":
                payload = (float(np.round(rng.normal(), 3)),
                           f"v{int(rng.integers(0, 4))}")
            events.append(Event(et, 1_000 * (i + 1), f"d{t}", "p0",
                                payload=payload))
        label = Outcome.FAIL if t % 2 else Outcome.END
        traces.append(EventTrace(f"d{t}", tuple(events), outcome_label=label))
    return traces


def _float_hex(values) -> bytes:
    return "".join(float(x).hex() for x in np.ravel(values)).encode("ascii")


def test_start_and_train_online_are_pinned_bit_for_bit(payload_catalog):
    # Digests written with numpy 2.4.6 on OpenBLAS 0.3.31: any change to
    # the input encoding or the order of the floating-point work shows here.
    traces = _digest_traces(payload_catalog)
    assert len(traces[-1].events) > MAX_SEQUENCE
    model = RecurrentModel(payload_catalog, seed=11)

    def start_digest():
        h = hashlib.sha256()
        for trace in traces:
            hidden = model.start(trace)
            h.update(_float_hex(hidden))
            h.update(_float_hex(model.readout(hidden)))
        return h.hexdigest()

    untrained = start_digest()
    weights = hashlib.sha256()
    for trace in traces:
        model.train_online(trace)
        weights.update(_float_hex(get_flat_params(model)))
    assert (untrained, weights.hexdigest(), start_digest()) == (
        "d6a14ca26dfdf4afe89c74dacd55ff6ba704187787475b32631bf6913a0869ef",
        "2fe95a3eed943562a4e32894a67fcd404b2b04b72f67b06fe28069f7251d3e29",
        "7d005c718f860e6adb2d9d190376df7bb8a3f030cd03e51ac4ec3adf36bf4bbd",
    )


# -- exact oracle: the per-step loops that the batched passes replace ---------


def _reference_softmax(logits):
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def _reference_forward(model, rows):
    hiddens = [np.zeros(model.hidden_size)]
    for row in rows:
        hiddens.append(np.tanh(
            model.w_in @ row + model.w_rec @ hiddens[-1] + model.b_rec))
    return hiddens


def _reference_loss_and_grads(model, rows, target):
    hiddens = _reference_forward(model, rows)
    probs = _reference_softmax(model.w_out @ hiddens[-1] + model.b_out)
    loss = -np.log(max(probs[target], 1e-300))

    d_logits = probs.copy()
    d_logits[target] -= 1.0
    grads = {
        "w_out": np.outer(d_logits, hiddens[-1]),
        "b_out": d_logits.copy(),
        "w_in": np.zeros_like(model.w_in),
        "w_rec": np.zeros_like(model.w_rec),
        "b_rec": np.zeros_like(model.b_rec),
    }
    d_hidden = model.w_out.T @ d_logits
    for t in range(len(rows) - 1, -1, -1):
        dz = (1.0 - hiddens[t + 1] ** 2) * d_hidden
        grads["w_in"] += np.outer(dz, rows[t])
        grads["w_rec"] += np.outer(dz, hiddens[t])
        grads["b_rec"] += dz
        d_hidden = model.w_rec.T @ dz
    return loss, grads


def _assert_same_floats(actual, expected):
    assert np.shape(actual) == np.shape(expected)
    assert np.array_equal(actual, expected)
    assert _float_hex(actual) == _float_hex(expected)  # signs of zero too


def test_batched_passes_equal_the_per_step_loops_bit_for_bit(payload_catalog):
    traces = _digest_traces(payload_catalog)
    rows = encode_trace(traces[-1], payload_catalog)
    cuts = (1, len(rows) // 2, len(rows))
    assert cuts[-1] > MAX_SEQUENCE
    model = RecurrentModel(payload_catalog, seed=11)
    for trained in (False, True):
        if trained:
            for trace in traces:
                model.train_online(trace)
        for cut in cuts:
            prefix = rows[:cut]
            for target in range(model.output_size):
                loss, grads = model.loss_and_grads(prefix, target)
                ref_loss, ref_grads = _reference_loss_and_grads(
                    model, prefix, target)
                _assert_same_floats(loss, ref_loss)
                assert grads.keys() == ref_grads.keys()
                for name, grad in grads.items():
                    _assert_same_floats(grad, ref_grads[name])

            trace = EventTrace(traces[-1].instance_id,
                               traces[-1].events[:cut])
            hidden = model.start(trace)
            probs = model.readout(hidden)
            ref_hidden = _reference_forward(model, prefix[-MAX_SEQUENCE:])[-1]
            _assert_same_floats(hidden, ref_hidden)
            _assert_same_floats(probs, _reference_softmax(
                model.w_out @ ref_hidden + model.b_out))


def test_in_place_softmax_leaves_cursors_and_weights_alone(payload_catalog):
    model = RecurrentModel(payload_catalog, seed=7)
    cursor = model.start(make_trace(
        payload_catalog, ["A", "temp", "B"], payloads={"temp": (21.5,)}))
    probs = model.readout(cursor)
    kept = cursor.copy(), probs.copy()
    weights = get_flat_params(model)

    def step(cursor):
        hidden = model.advance(cursor, "C")
        return hidden, model.readout(hidden)

    first = step(cursor)
    second = step(cursor)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
        assert not np.shares_memory(a, b)
        assert not np.shares_memory(a, cursor)
    # The traversal hands ``advance`` and ``readout`` a read-only view over
    # a cursor's bytes.
    frozen = np.frombuffer(cursor.tobytes())
    assert np.array_equal(model.readout(frozen), probs)
    for a, b in zip(step(frozen), first):
        assert np.array_equal(a, b)

    model.start(make_trace(payload_catalog, ["B", "pair"],
                           payloads={"pair": (3.0, "hi")}))
    assert np.array_equal(cursor, kept[0])
    assert np.array_equal(probs, kept[1])
    assert np.array_equal(get_flat_params(model), weights)


# -- the stepped start ----------------------------------------------------------


def _full_start(model, trace):
    rows = encode_trace(trace, model.catalog)[-MAX_SEQUENCE:]
    return RecurrentModel._forward_rows(model, rows)[-1]


def _long_traces():
    """A ``default_spec`` catalog and its generated traces, the first
    longer than ``MAX_SEQUENCE``."""
    spec = default_spec(1)
    traces = sorted(generate(spec, 6), key=len, reverse=True)
    assert len(traces[0]) > MAX_SEQUENCE
    return spec.catalog(), traces


def _start_matches_full_start(model, trace, n):
    prefix = EventTrace(trace.instance_id, trace.events[:n])
    hidden = model.start(prefix)
    assert hidden.tobytes() == _full_start(model, prefix).tobytes(), n


def test_stepped_start_equals_a_full_start_as_weights_change():
    catalog, traces = _long_traces()
    trace = traces[0]
    model = SpiedStart(catalog, seed=3)
    rng = np.random.default_rng(5)
    for n in range(1, len(trace) + 1):
        if n == 20:
            model.train_online(traces[1])
        elif n == 40:
            set_flat_params(model, get_flat_params(model)
                            + rng.normal(0.0, 0.01, get_flat_params(model).size))
        _start_matches_full_start(model, trace, n)
    full = [n for _, n, _, was_full in model.starts if was_full]
    assert full == [1, 20, 40] + list(range(MAX_SEQUENCE + 1, len(trace) + 1))


def test_equal_but_not_identical_events_start_in_full():
    catalog, traces = _long_traces()
    trace = traces[0]
    model = SpiedStart(catalog, seed=3)
    model.train_online(traces[1])
    for n in range(1, MAX_SEQUENCE + 1):
        events = trace.events[:n]
        if n % 8 == 0:
            copies = tuple(replace(e) for e in events)
            assert copies == events
            assert not any(map(operator.is_, copies, events))
            events = copies
        _start_matches_full_start(model, EventTrace(trace.instance_id, events), n)
    # A stored prefix of equal copies is not the trace's prefix, either way.
    full = [n for _, n, _, was_full in model.starts if was_full]
    assert full == [1] + [n for n in range(8, MAX_SEQUENCE + 1)
                          if n % 8 in (0, 1)]


def test_interleaved_instances_step_from_their_own_states():
    catalog, traces = _long_traces()
    first, second = traces[0], traces[1]
    model = SpiedStart(catalog, seed=3)
    model.train_online(traces[2])
    for n in range(1, len(first) + 1):
        for trace in (first, second):
            if n <= len(trace):
                _start_matches_full_start(model, trace, n)
    for trace in (first, second):
        full = [n for instance_id, n, _, was_full in model.starts
                if instance_id == trace.instance_id and was_full]
        assert full == [1] + list(range(MAX_SEQUENCE + 1, len(trace) + 1))
