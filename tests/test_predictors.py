import numpy as np
import pytest

from efp.errors import MissingLabel, UnknownEventType, UntrainedModel
from efp.events import FAIL_STATE, FieldKind, Outcome, catalog_from_traces
from efp.predictors import (
    FrequencyModel,
    prediction_outcomes,
    training_targets,
)
from efp.recurrent import encode_trace
from efp.synthesis import default_fault_plan, default_spec, generate, inject_faults

from conftest import make_catalog, make_trace, random_catalog_and_traces


@pytest.fixture
def small_catalog():
    return make_catalog(["A", "B"], contexts=(
        ("C_temp", (("reading", FieldKind.NUMERIC),)),))


def test_encode_onehot_placement(small_catalog):
    # type order: [failure, A, B, C_temp]
    trace = make_trace(small_catalog, ["A"])
    [row] = encode_trace(trace, small_catalog)
    assert row[:4].tolist() == [0.0, 1.0, 0.0, 0.0]
    assert row[4:].tolist() == [0.0]
    assert int(row[:4].sum()) == 1


def test_encode_payload_zero_padding():
    catalog = make_catalog(["A"], contexts=(
        ("C_temp", (("reading", FieldKind.NUMERIC),)),
        ("C_pair", (("x", FieldKind.NUMERIC), ("y", FieldKind.NUMERIC))),
    ))
    assert catalog.max_data_arity == 2
    trace = make_trace(catalog, ["C_temp"], payloads={"C_temp": (31.5,)})
    [row] = encode_trace(trace, catalog)
    assert row[:4].tolist() == [0.0, 0.0, 1.0, 0.0]
    assert row[4:].tolist() == [31.5, 0.0]


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
    assert row[:4].tolist() == [0.0, 0.0, 0.0, 1.0]
    assert row[4:].tolist() == [4.0]


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
        key = tuple(tuple(r) for r in encode_trace(trace, small_catalog))
        assert key not in seen, f"{names} collides with {seen.get(key)}"
        seen[key] = names


def test_training_pairs_end_label(small_catalog):
    trace = make_trace(small_catalog, ["A", "B"], label=Outcome.END)
    pairs = training_targets(trace, small_catalog)
    assert pairs == [(1, "B")]


def test_training_pairs_fail_label_adds_terminal(small_catalog):
    trace = make_trace(small_catalog, ["A", "B"], label=Outcome.FAIL)
    pairs = training_targets(trace, small_catalog)
    assert pairs == [(1, "B"), (2, FAIL_STATE)]


def test_training_pairs_explicit_failure_event(small_catalog):
    trace = make_trace(small_catalog, ["A", "B", "failure"], label=Outcome.FAIL)
    pairs = training_targets(trace, small_catalog)
    assert [t for _, t in pairs] == ["B", FAIL_STATE]


def test_training_pairs_require_label(small_catalog):
    with pytest.raises(MissingLabel):
        training_targets(make_trace(small_catalog, ["A", "B"]), small_catalog)


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
    at = model.outcomes.index
    # context (A, B): C seen 6x, D seen 3x, fail 1x; outcomes = 5 classes
    total = 10 + 1.0 * 5
    assert pred[at("C")] == pytest.approx(7 / total, abs=1e-12)
    assert pred[at("D")] == pytest.approx(4 / total, abs=1e-12)
    assert pred[at(FAIL_STATE)] == pytest.approx(2 / total, abs=1e-12)
    assert pred[at("A")] == pytest.approx(1 / total, abs=1e-12)


def test_frequency_modal_continuation_wins(small_catalog):
    model = FrequencyModel(small_catalog, window=3)
    corpus = [
        make_trace(small_catalog, ["A", "B", "A", "B"], instance_id=f"t{i}",
                   label=Outcome.END)
        for i in range(10)
    ]
    model.train(corpus)
    pred = model.predict(make_trace(small_catalog, ["A", "B", "A"]))
    assert pred[model.outcomes.index("B")] == max(pred)


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
    assert pred[model.outcomes.index("C")] == pytest.approx(2.5 / total, abs=1e-12)
    assert pred[model.outcomes.index("B")] == pytest.approx(1.5 / total, abs=1e-12)


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
    go, fail = model.outcomes.index("go"), model.outcomes.index(FAIL_STATE)
    assert cool[go] > cool[fail]
    assert burning[fail] > burning[go]


def test_frequency_prediction_is_valid_distribution(small_catalog):
    model = FrequencyModel(small_catalog)
    model.train([make_trace(small_catalog, ["A", "B"], label=Outcome.END)])
    pred = model.predict(make_trace(small_catalog, ["A"]))
    assert pred.shape == (len(model.outcomes),)
    assert np.all(pred >= 0)
    assert abs(pred.sum() - 1.0) < 1e-9
    assert model.outcomes == prediction_outcomes(small_catalog)
    assert model.outcomes[0] == FAIL_STATE


def test_frequency_predictions_are_equal_distinct_arrays(small_catalog):
    # Each readout computes a fresh row: an in-place edit by one caller
    # must not change what the others read.
    model = FrequencyModel(small_catalog)
    model.train([make_trace(small_catalog, ["A", "B"], label=Outcome.END)])
    trace = make_trace(small_catalog, ["A"])
    first = model.predict(trace)
    again = model.predict(trace)
    assert np.array_equal(first, again)
    assert not np.shares_memory(first, again)
    first *= 2
    assert np.array_equal(model.predict(trace), again)
    assert np.array_equal(model.readout(model.advance(model.start(trace), "B")),
                          model.predict(make_trace(small_catalog, ["A", "B"])))


NAN, INF = float("nan"), float("inf")


def test_non_finite_readings_bin_without_error(small_catalog):
    def trace(reading, i=0):
        return make_trace(small_catalog, ["A", "C_temp", "B"], instance_id=f"t{i}",
                          payloads={"C_temp": (reading,)}, label=Outcome.END)

    # A NaN first among the fit readings must not poison the range.
    corpus = [trace(r, i) for i, r in enumerate([NAN, 1.0, INF, 5.0, -INF])]
    model = FrequencyModel(small_catalog, window=2)
    model.fit_bins(corpus)
    assert model.bin_ranges == {("C_temp", 0): (1.0, 5.0)}
    tokens = [model._token(trace(r).events[1])[1]
              for r in (NAN, -INF, 0.0, 1.0, 4.9, 5.0, 9.0, INF)]
    assert tokens == [None, 0, 0, 0, 7, 7, 7, 7]

    model.train(corpus)
    b = model.outcomes.index("B")
    assert model.counts[(("A",), ("C_temp", None))][b] == 1.0
    assert model.counts[(("A",), ("C_temp", 0))][b] == 2.0
    assert model.counts[(("A",), ("C_temp", 7))][b] == 2.0
    for reading in (NAN, INF, -INF):
        probe = make_trace(small_catalog, ["A", "C_temp"],
                           payloads={"C_temp": (reading,)})
        prediction = model.readout(model.start(probe))
        assert prediction[b] > prediction[model.outcomes.index(FAIL_STATE)]


@pytest.mark.parametrize("kwargs, name", [
    ({"alpha": 0.0}, "alpha"), ({"alpha": -1.0}, "alpha"),
    ({"alpha": NAN}, "alpha"), ({"alpha": INF}, "alpha"), ({"bins": 0}, "bins"),
    ({"window": -1}, "window"),
])
def test_frequency_model_rejects_bad_alpha_and_bins(small_catalog, kwargs, name):
    with pytest.raises(ValueError, match=name):
        FrequencyModel(small_catalog, **kwargs)


def reference_counts(model, traces):
    """Counts as the per-prefix definition gives them: one ``_context`` of
    every ``training_targets`` prefix."""
    counts = {}
    for trace in traces:
        for cut, target in training_targets(trace, model.catalog):
            row = counts.setdefault(model._context(trace.events[:cut]),
                                    np.zeros(len(model.outcomes)))
            row[model.outcomes.index(target)] += 1.0
    return counts


def assert_counts_equal(counts, expected):
    assert list(counts) == list(expected)  # same keys, first seen in the same order
    for key, row in expected.items():
        assert np.array_equal(counts[key], row), key


def one_pass_corpora():
    """Hand-written traces (binned and categorical context payloads, END
    and FAIL labels, FAIL with and without a failure event, context events
    first and last, runs of context events longer than a window), random
    catalogs and traces, and a generated, fault-injected log."""
    catalog = make_catalog(["A", "B", "C"], contexts=(
        ("temp", (("reading", FieldKind.NUMERIC),)),
        ("note", (("level", FieldKind.CATEGORICAL),
                  ("delta", FieldKind.NUMERIC))),
    ))
    shapes = [
        (["A", "B", "C"], Outcome.END),
        (["temp", "A", "temp", "B", "note", "C", "temp"], Outcome.END),
        (["A", "temp", "note", "temp", "note", "temp", "B"], Outcome.END),
        (["A", "temp", "B", "failure"], Outcome.FAIL),
        (["A", "note", "B", "temp"], Outcome.FAIL),
        (["temp", "note"], Outcome.FAIL),
        (["A"], Outcome.END),
        (["A", "B", "A", "B", "A", "C", "note", "temp"], Outcome.FAIL),
    ]
    hand = []
    for i, (names, label) in enumerate(shapes * 3):
        hand.append(make_trace(catalog, names, instance_id=f"h{i}", label=label,
                               payloads={"temp": (10.0 * (i % 5) - 3.5,),
                                         "note": (f"lvl{i % 3}", 0.25 * i)}))
    corpora = [(catalog, hand)]
    rng = np.random.default_rng(5)
    for _ in range(6):
        random_catalog, traces = random_catalog_and_traces(rng, n_traces=12)
        corpora.append((random_catalog, [t for t in traces
                                         if t.outcome_label is not None]))
    spec = default_spec(7)
    generated = inject_faults(generate(spec, 40), default_fault_plan(spec, 0.5),
                              seed=3)
    corpora.append((catalog_from_traces(generated), generated))
    return corpora


@pytest.mark.parametrize("window", [0, 1, 3, 50])
def test_one_pass_training_equals_per_prefix_reference(window):
    for catalog, traces in one_pass_corpora():
        model = FrequencyModel(catalog, window=window)
        model.fit_bins(traces)
        model.train(traces)
        assert model.trained_traces == len(traces)
        assert_counts_equal(model.counts, reference_counts(model, traces))


@pytest.mark.parametrize("window", [0, 3])
def test_rejected_trace_leaves_counts_unchanged(window):
    catalog = make_catalog(["A", "B"], contexts=(
        ("temp", (("reading", FieldKind.NUMERIC),)),))
    wider = make_catalog(["A", "B", "Z"], contexts=(
        ("temp", (("reading", FieldKind.NUMERIC),)),))
    model = FrequencyModel(catalog, window=window)
    model.train([make_trace(catalog, ["A", "temp", "B"], label=Outcome.FAIL,
                            payloads={"temp": (1.0,)})])
    before = {key: row.copy() for key, row in model.counts.items()}
    rejected = [
        (make_trace(catalog, ["A", "B", "A"]), MissingLabel),
        # Pairs before the unknown step would count if training went
        # ahead of the check.
        (make_trace(wider, ["A", "B", "A", "Z"], label=Outcome.END),
         UnknownEventType),
    ]
    for trace, error in rejected:
        with pytest.raises(error):
            model.train_online(trace)
        assert model.trained_traces == 1
        assert_counts_equal(model.counts, before)
