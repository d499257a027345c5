import numpy as np
import pytest

from efp.errors import CheckpointMismatch, DimensionMismatch, UnknownEventType
from efp.events import FAIL_STATE, FieldKind, Outcome
from efp.predictors import encode_trace
from efp.recurrent import RecurrentModel

from conftest import make_catalog, make_trace


@pytest.fixture
def toy_catalog():
    return make_catalog(["A", "B", "C"])


def test_untrained_model_emits_valid_distribution(toy_catalog):
    model = RecurrentModel(toy_catalog, seed=1)
    pred = model.predict(make_trace(toy_catalog, ["A", "B"]))
    assert np.all(pred.probs >= 0)
    assert abs(pred.probs.sum() - 1.0) < 1e-9


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
        outs.append(model.predict(probe).probs)
    assert np.array_equal(outs[0], outs[1])


def test_different_seeds_differ(toy_catalog):
    probe = make_trace(toy_catalog, ["A", "B"])
    a = RecurrentModel(toy_catalog, seed=1).predict(probe).probs
    b = RecurrentModel(toy_catalog, seed=2).predict(probe).probs
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
    assert pred.prob("C") >= 0.9


def test_gradient_check_against_finite_differences(toy_catalog):
    model = RecurrentModel(toy_catalog, seed=3, hidden_size=8)
    trace = make_trace(toy_catalog, ["A", "B", "A"])
    rows = [r.concat() for r in encode_trace(trace, toy_catalog)]
    target = model.outcomes.index("C")

    _, grads = model.loss_and_grads(rows, target)
    analytic = model.flatten_grads(grads)

    params = model.get_flat_params()
    eps = 1e-6
    numeric = np.zeros_like(params)
    for i in range(len(params)):
        bumped = params.copy()
        bumped[i] += eps
        model.set_flat_params(bumped)
        up, _ = model.loss_and_grads(rows, target)
        bumped[i] -= 2 * eps
        model.set_flat_params(bumped)
        down, _ = model.loss_and_grads(rows, target)
        numeric[i] = (up - down) / (2 * eps)
    model.set_flat_params(params)

    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    rel = np.linalg.norm(analytic - numeric) / denom
    assert rel < 1e-4


def test_advance_matches_full_forward(toy_catalog):
    model = RecurrentModel(toy_catalog, seed=5)
    trace = make_trace(toy_catalog, ["A", "B"])
    cursor, _ = model.start(trace)
    _, incremental = model.advance(cursor, "C")
    full = model.predict(make_trace(toy_catalog, ["A", "B", "C"]))
    assert np.allclose(incremental.probs, full.probs, atol=1e-12)


def test_dimension_mismatch_detected(toy_catalog):
    model = RecurrentModel(toy_catalog, seed=0)
    other = make_catalog(["A", "Z"], contexts=(
        ("extra", (("v", FieldKind.NUMERIC),)),))
    trace = make_trace(other, ["Z"])
    with pytest.raises(DimensionMismatch):
        model.predict(trace)


def test_checkpoint_round_trip(toy_catalog):
    model = RecurrentModel(toy_catalog, seed=9)
    model.train([make_trace(toy_catalog, ["A", "B", "C"], label=Outcome.END)])
    clone = RecurrentModel.load(model.save(), toy_catalog)
    probe = make_trace(toy_catalog, ["A"])
    assert np.array_equal(clone.predict(probe).probs,
                          model.predict(probe).probs)
    with pytest.raises(CheckpointMismatch):
        RecurrentModel.load(model.save(), make_catalog(["X"]))


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
    assert pred.prob(FAIL_STATE) >= 0.9


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
    cursor, _ = model.start(make_trace(model.catalog, ["A", "B"]))
    for state in model.outcomes:
        hidden, prediction = model.advance(cursor, state)
        row = _onehot_step(model, state)
        expected = np.tanh(model.w_in @ row + model.w_rec @ cursor + model.b_rec)
        assert np.array_equal(hidden, expected), state
        assert np.array_equal(prediction.probs, model._readout(expected).probs)


def test_advance_equals_onehot_step_as_weights_change(payload_catalog):
    # One model throughout, so a copy of the weights kept from an earlier
    # call would show after training and after loading new parameters.
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
    model.set_flat_params(rng.normal(size=model.get_flat_params().size))
    _assert_advance_is_full_step(model)


def test_advance_unknown_state_raises(payload_catalog):
    model = RecurrentModel(payload_catalog, seed=7)
    cursor, _ = model.start(make_trace(payload_catalog, ["A"]))
    with pytest.raises(UnknownEventType):
        model.advance(cursor, "Z")
