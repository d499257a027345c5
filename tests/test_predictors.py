import numpy as np
import pytest

from efp.errors import MissingLabel, UnknownEventType, UntrainedModel
from efp.events import FAIL_STATE, FieldKind, Outcome
from efp.predictors import (
    FrequencyModel,
    encode_trace,
    prediction_outcomes,
    training_pairs,
)

from conftest import make_catalog, make_trace


@pytest.fixture
def small_catalog():
    return make_catalog(["A", "B"], contexts=(
        ("C_temp", (("reading", FieldKind.NUMERIC),)),))


def test_encode_onehot_placement(small_catalog):
    # type order: [failure, A, B, C_temp]
    trace = make_trace(small_catalog, ["A"])
    [row] = encode_trace(trace, small_catalog)
    assert row.event_onehot.tolist() == [0.0, 1.0, 0.0, 0.0]
    assert row.data.tolist() == [0.0]
    assert int(row.event_onehot.sum()) == 1


def test_encode_payload_zero_padding():
    catalog = make_catalog(["A"], contexts=(
        ("C_temp", (("reading", FieldKind.NUMERIC),)),
        ("C_pair", (("x", FieldKind.NUMERIC), ("y", FieldKind.NUMERIC))),
    ))
    assert catalog.max_data_arity == 2
    trace = make_trace(catalog, ["C_temp"], payloads={"C_temp": (31.5,)})
    [row] = encode_trace(trace, catalog)
    assert row.event_onehot.tolist() == [0.0, 0.0, 1.0, 0.0]
    assert row.data.tolist() == [31.5, 0.0]


def test_catalog_cached_lookups_equal_a_fresh_scan():
    catalog = make_catalog(["A", "B"], contexts=(
        ("C_temp", (("reading", FieldKind.NUMERIC),)),
        ("C_pair", (("x", FieldKind.NUMERIC), ("y", FieldKind.CATEGORICAL))),
    ))
    types = catalog.all_types
    assert catalog.max_data_arity == max(t.arity for t in types) == 2
    for i, et in enumerate(types):
        assert catalog.position(et.name) == types.index(et) == i
    assert catalog.position("Z") is None
    assert make_catalog(["A"]).max_data_arity == 0


def test_encode_places_a_same_named_type_by_name(small_catalog):
    # A type equal by name but not by schema still takes the catalog's slot.
    other = make_catalog(["B"], contexts=(
        ("C_temp", (("celsius", FieldKind.NUMERIC),)),))
    trace = make_trace(other, ["C_temp"], payloads={"C_temp": (4.0,)})
    [row] = encode_trace(trace, small_catalog)
    assert row.event_onehot.tolist() == [0.0, 0.0, 0.0, 1.0]
    assert row.data.tolist() == [4.0]


def test_encode_length_preservation(small_catalog):
    trace = make_trace(small_catalog, ["A", "B", "A", "B"])
    assert len(encode_trace(trace, small_catalog)) == 4


def test_encode_unknown_type_raises(small_catalog):
    other = make_catalog(["Z"])
    trace = make_trace(other, ["Z"])
    with pytest.raises(UnknownEventType):
        encode_trace(trace, small_catalog)


def test_encode_injective_on_type_sequences(small_catalog):
    seen = {}
    for names in (["A"], ["B"], ["A", "A"], ["A", "B"], ["B", "A"]):
        trace = make_trace(small_catalog, names)
        key = tuple(tuple(r.concat()) for r in encode_trace(trace, small_catalog))
        assert key not in seen, f"{names} collides with {seen.get(key)}"
        seen[key] = names


def test_training_pairs_end_label(small_catalog):
    trace = make_trace(small_catalog, ["A", "B"], label=Outcome.END)
    pairs = training_pairs(trace, small_catalog)
    assert [(len(p), t) for p, t in pairs] == [(1, "B")]


def test_training_pairs_fail_label_adds_terminal(small_catalog):
    trace = make_trace(small_catalog, ["A", "B"], label=Outcome.FAIL)
    pairs = training_pairs(trace, small_catalog)
    assert [(len(p), t) for p, t in pairs] == [(1, "B"), (2, FAIL_STATE)]


def test_training_pairs_explicit_failure_event(small_catalog):
    trace = make_trace(small_catalog, ["A", "B", "failure"], label=Outcome.FAIL)
    pairs = training_pairs(trace, small_catalog)
    assert [t for _, t in pairs] == ["B", FAIL_STATE]


def test_training_pairs_require_label(small_catalog):
    with pytest.raises(MissingLabel):
        training_pairs(make_trace(small_catalog, ["A", "B"]), small_catalog)


def test_untrained_frequency_model_raises(small_catalog):
    model = FrequencyModel(small_catalog)
    with pytest.raises(UntrainedModel):
        model.predict(make_trace(small_catalog, ["A"]))


def test_frequency_matches_hand_computed_counts():
    catalog = make_catalog(["A", "B", "C", "D"])
    model = FrequencyModel(catalog, window=2, alpha=1.0)
    corpus = [
        make_trace(catalog, ["A", "B", "C"], instance_id=f"e{i}",
                   label=Outcome.END)
        for i in range(6)
    ] + [
        make_trace(catalog, ["A", "B", "D"], instance_id=f"d{i}",
                   label=Outcome.END)
        for i in range(3)
    ] + [
        make_trace(catalog, ["A", "B"], instance_id=f"f{i}", label=Outcome.FAIL)
        for i in range(1)
    ]
    model.train(corpus)
    pred = model.predict(make_trace(catalog, ["A", "B"]))
    # context (A, B): C seen 6x, D seen 3x, fail 1x; outcomes = 5 classes
    total = 10 + 1.0 * 5
    assert pred.prob("C") == pytest.approx(7 / total, abs=1e-12)
    assert pred.prob("D") == pytest.approx(4 / total, abs=1e-12)
    assert pred.prob(FAIL_STATE) == pytest.approx(2 / total, abs=1e-12)
    assert pred.prob("A") == pytest.approx(1 / total, abs=1e-12)


def test_frequency_modal_continuation_wins(small_catalog):
    model = FrequencyModel(small_catalog, window=3)
    corpus = [
        make_trace(small_catalog, ["A", "B", "A", "B"], instance_id=f"t{i}",
                   label=Outcome.END)
        for i in range(10)
    ]
    model.train(corpus)
    pred = model.predict(make_trace(small_catalog, ["A", "B", "A"]))
    assert pred.prob("B") == max(pred.probs)


def test_frequency_window_zero_is_unconditional():
    catalog = make_catalog(["A", "B", "C"])
    model = FrequencyModel(catalog, window=0, alpha=0.5)
    model.train([
        make_trace(catalog, ["A", "B", "C"], label=Outcome.END),
        make_trace(catalog, ["A", "C"], instance_id="t1", label=Outcome.END),
    ])
    # targets: B once, C twice; 4 outcome classes
    pred = model.predict(make_trace(catalog, ["A"]))
    total = 3 + 0.5 * 4
    assert pred.prob("C") == pytest.approx(2.5 / total, abs=1e-12)
    assert pred.prob("B") == pytest.approx(1.5 / total, abs=1e-12)


def test_frequency_online_equals_batch():
    catalog = make_catalog(["A", "B", "C"])
    rng = np.random.default_rng(2)
    corpus = []
    for i in range(500):
        length = int(rng.integers(2, 6))
        names = ["A"] + ["B" if rng.random() < 0.5 else "C"
                         for _ in range(length)]
        label = Outcome.FAIL if rng.random() < 0.3 else Outcome.END
        corpus.append(make_trace(catalog, names, instance_id=f"t{i}",
                                 label=label))
    online = FrequencyModel(catalog)
    for trace in corpus:
        online.train_online(trace)
    batch = FrequencyModel(catalog)
    batch.train(corpus)
    assert set(online.counts) == set(batch.counts)
    for key, counts in online.counts.items():
        assert np.array_equal(counts, batch.counts[key])


def test_frequency_payload_bins_shift_context():
    catalog = make_catalog(["go", "stop"], contexts=(
        ("temp", (("reading", FieldKind.NUMERIC),)),))
    normal = [
        make_trace(catalog, ["go", "temp", "go", "stop"], instance_id=f"n{i}",
                   payloads={"temp": (20.0 + 0.1 * i,)}, label=Outcome.END)
        for i in range(20)
    ]
    hot = [
        make_trace(catalog, ["go", "temp", "failure"], instance_id=f"h{i}",
                   payloads={"temp": (35.0,)}, label=Outcome.FAIL)
        for i in range(20)
    ]
    model = FrequencyModel(catalog, window=3)
    model.fit_bins(normal + hot)
    model.train(normal + hot)
    cool = model.predict(make_trace(catalog, ["go", "temp"],
                                    payloads={"temp": (20.5,)}))
    burning = model.predict(make_trace(catalog, ["go", "temp"],
                                       payloads={"temp": (34.5,)}))
    assert cool.prob("go") > cool.prob(FAIL_STATE)
    assert burning.prob(FAIL_STATE) > burning.prob("go")


def test_frequency_prediction_is_valid_distribution(small_catalog):
    model = FrequencyModel(small_catalog)
    model.train([make_trace(small_catalog, ["A", "B"], label=Outcome.END)])
    pred = model.predict(make_trace(small_catalog, ["A"]))
    assert np.all(pred.probs >= 0)
    assert abs(pred.probs.sum() - 1.0) < 1e-9
    assert pred.outcomes == prediction_outcomes(small_catalog)
    assert pred.outcomes[0] == FAIL_STATE


def test_frequency_checkpoint_round_trip(small_catalog):
    model = FrequencyModel(small_catalog, window=2, alpha=0.5)
    model.fit_bins([make_trace(small_catalog, ["C_temp"],
                               payloads={"C_temp": (1.0,)})])
    model.train([
        make_trace(small_catalog, ["A", "B"], label=Outcome.END),
        make_trace(small_catalog, ["A", "C_temp", "B"], instance_id="t1",
                   payloads={"C_temp": (0.5,)}, label=Outcome.FAIL),
    ])
    clone = FrequencyModel.load(model.save(), small_catalog)
    trace = make_trace(small_catalog, ["A"])
    assert np.array_equal(clone.predict(trace).probs,
                          model.predict(trace).probs)


def test_frequency_checkpoint_rejects_other_catalog(small_catalog):
    from efp.errors import CheckpointMismatch

    model = FrequencyModel(small_catalog)
    model.train([make_trace(small_catalog, ["A", "B"], label=Outcome.END)])
    with pytest.raises(CheckpointMismatch):
        FrequencyModel.load(model.save(), make_catalog(["X", "Y"]))
