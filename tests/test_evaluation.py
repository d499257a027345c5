from dataclasses import replace

import numpy as np
import pytest

import efp.evaluation
import efp.traversal
from efp.errors import EmptyMatrix, InsufficientData
from efp.evaluation import (
    ConfusionMatrix,
    FoldResult,
    PipelineConfig,
    cross_validate,
    evaluate_split,
    evaluation_prefix,
    metrics,
    plot_data,
    sweep,
    sweep_table,
)
from efp.events import FAIL_STATE, Outcome, Scenario, catalog_from_traces
from efp.model import mine_model
from efp.predictors import Classifier, FrequencyModel, prediction_outcomes
from efp.recurrent import RecurrentModel
from efp.synthesis import default_fault_plan, default_spec, generate, inject_faults
from efp.traversal import failure_probability, traverse

from conftest import make_catalog, make_trace

REPORTED_MATRIX = ConfusionMatrix(tp=1051.14, fn=28.04, fp=153.76, tn=1917.95)


def test_metrics_on_reported_mean_matrix():
    precision, recall, mcc = metrics(REPORTED_MATRIX)
    assert precision == pytest.approx(0.872, abs=1e-3)
    assert recall == pytest.approx(0.974, abs=1e-3)
    assert mcc == pytest.approx(0.879, abs=1e-3)


def test_metrics_perfect_classifier():
    assert metrics(ConfusionMatrix(tp=1, tn=1)) == (1.0, 1.0, 1.0)


def test_metrics_zero_denominator_convention():
    precision, recall, mcc = metrics(ConfusionMatrix(fn=5, tn=5))
    assert (precision, recall, mcc) == (0.0, 0.0, 0.0)


def test_metrics_empty_matrix_raises():
    with pytest.raises(EmptyMatrix):
        metrics(ConfusionMatrix())


def test_mcc_range_and_sign():
    rng = np.random.default_rng(3)
    for _ in range(200):
        cm = ConfusionMatrix(*rng.integers(0, 50, size=4))
        if cm.total == 0:
            continue
        _, _, mcc = metrics(cm)
        assert -1.0 <= mcc <= 1.0
        product = cm.tp * cm.tn - cm.fp * cm.fn
        if mcc != 0.0:
            assert np.sign(mcc) == np.sign(product)


def test_confusion_matrix_accumulation():
    cm = ConfusionMatrix()
    cm = cm.add(True, True).add(True, False).add(False, True).add(False, False)
    assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 1, 1)
    assert cm.total == 4


class MarkerOracle(Classifier):
    """Perfect-information stub: flags failure as soon as any fault marker
    (diverted step, alarm, or out-of-range reading) is visible."""

    MARKERS = {"escalate_order", "manual_sourcing", "emergency_purchase",
               "temperature_alarm"}

    def __init__(self, catalog):
        self.catalog = catalog
        self.outcomes = prediction_outcomes(catalog)

    def _seen(self, event):
        if event.event_type.name in self.MARKERS:
            return True
        return (
            event.event_type.name == "temperature"
            and event.payload
            and float(event.payload[0]) > 30.0
        )

    def _prediction(self, marker):
        probs = np.zeros(len(self.outcomes))
        if marker:
            probs[0] = 1.0
        else:
            probs[1:] = 1.0 / (len(self.outcomes) - 1)
        return probs

    def start(self, trace):
        return any(self._seen(e) for e in trace.events)

    def advance(self, cursor, state):
        return cursor or state in self.MARKERS

    def readout(self, cursor):
        return self._prediction(cursor)

    def train_online(self, trace):
        pass


@pytest.fixture(scope="module")
def injected_corpus():
    spec = default_spec(31)
    traces = generate(spec, 240)
    plan = default_fault_plan(spec, 0.5)
    return inject_faults(traces, plan, seed=8)


def test_fold_sizes_are_balanced():
    catalog = make_catalog(["A", "B"])
    traces = []
    for i in range(3150):
        label = Outcome.FAIL if i % 3 == 0 else Outcome.END
        names = ["A", "B"] if label is Outcome.END else ["A", "failure"]
        traces.append(make_trace(catalog, names, instance_id=f"t{i}",
                                 label=label))
    report = cross_validate(
        traces, k=10, seed=0,
        config=PipelineConfig(),
    )
    assert len(report.per_fold) == 10
    assert all(abs(f.test_size - 315) <= 1 for f in report.per_fold)
    assert sum(f.test_size for f in report.per_fold) == 3150
    assert all(f.matrix.total == f.test_size for f in report.per_fold)


def test_cross_validate_perfect_oracle(injected_corpus):
    config = PipelineConfig(classifier_factory=MarkerOracle)
    report = cross_validate(injected_corpus, k=4, config=config, seed=1)
    assert report.precision == 1.0
    assert report.recall == 1.0
    assert report.mcc == 1.0
    total = sum(f.matrix.total for f in report.per_fold)
    assert total == sum(f.test_size for f in report.per_fold)


def test_cross_validate_deterministic(injected_corpus):
    config = PipelineConfig()
    a = cross_validate(injected_corpus, k=3, config=config, seed=5)
    b = cross_validate(injected_corpus, k=3, config=config, seed=5)
    assert a == b
    c = cross_validate(injected_corpus, k=3, config=config, seed=6)
    assert [f.matrix for f in a.per_fold] != [f.matrix for f in c.per_fold]


def test_cross_validate_frequency_classifier_is_accurate(injected_corpus):
    report = cross_validate(injected_corpus, k=3, seed=2)
    assert report.mcc >= 0.9


def test_cross_validate_requires_enough_data():
    catalog = make_catalog(["A"])
    few = [make_trace(catalog, ["A"], instance_id=f"t{i}", label=Outcome.END)
           for i in range(3)]
    with pytest.raises(InsufficientData):
        cross_validate(few, k=5)
    with pytest.raises(InsufficientData):  # single class overall
        cross_validate(few * 4, k=2)
    for k in (1, 0):  # too few folds is a bad argument, not too few traces
        with pytest.raises(ValueError, match=f"k must be at least 2, got {k}"):
            cross_validate(few * 4, k=k)


def test_single_class_folds_are_skipped_and_recorded():
    catalog = make_catalog(["A", "B"])
    traces = [
        make_trace(catalog, ["A", "B"], instance_id=f"e{i}", label=Outcome.END)
        for i in range(39)
    ] + [
        make_trace(catalog, ["A", "failure"], instance_id="f0",
                   label=Outcome.FAIL)
    ]
    report = cross_validate(traces, k=4, seed=0,
                            config=PipelineConfig())
    # the lone failure lands in one test fold; the rest are single-class
    assert len(report.per_fold) + len(report.skipped_folds) == 4
    assert len(report.skipped_folds) >= 1
    # no fold has both classes in training and test, so none is
    # evaluated and only the fold counts print
    assert report.summary() == "folds evaluated: 0 (skipped: 4)"


def test_evaluation_prefix_rules(order_catalog):
    fail_trace = make_trace(
        order_catalog, ["A", "temp", "B", "C", "failure"],
        payloads={"temp": (1.0,)}, label=Outcome.FAIL)
    fail_trace = type(fail_trace)(
        fail_trace.instance_id, fail_trace.events, Outcome.FAIL, error_index=2
    )
    prefix = evaluation_prefix(fail_trace)
    assert [e.event_type.name for e in prefix.events] == ["A", "temp", "B"]

    unannotated = make_trace(order_catalog, ["A", "B", "failure"],
                             label=Outcome.FAIL)
    prefix = evaluation_prefix(unannotated)
    assert [e.event_type.name for e in prefix.events] == ["A", "B"]

    no_failure_event = make_trace(order_catalog, ["A", "B", "C"],
                                  label=Outcome.FAIL)
    prefix = evaluation_prefix(no_failure_event)
    assert [e.event_type.name for e in prefix.events] == ["A", "B", "C"]

    end_trace = make_trace(order_catalog, ["A", "B", "C", "D", "G"],
                           label=Outcome.END)
    prefix = evaluation_prefix(end_trace)
    assert [e.event_type.name for e in prefix.events] == ["A", "B", "C"]


def test_prefix_without_intrinsic_event_is_a_predicted_negative(order_catalog,
                                                                monkeypatch):
    # With nothing intrinsic observed there is no state to traverse from:
    # the split calls the trace negative without asking the classifier.
    def refuse(*args, **kwargs):
        raise AssertionError("classify_instance called")

    monkeypatch.setattr(efp.evaluation, "classify_instance", refuse)
    train = [
        make_trace(order_catalog, ["A", "B", "C", "E"], instance_id="t0",
                   label=Outcome.END),
        make_trace(order_catalog, ["A", "B", "failure"], instance_id="t1",
                   label=Outcome.FAIL),
    ]
    test = [
        make_trace(order_catalog, ["temp", "temp"], instance_id=f"c{i}",
                   payloads={"temp": (1.0,)}, label=label)
        for i, label in enumerate((Outcome.END, Outcome.FAIL, Outcome.END))
    ]
    result = evaluate_split(train, test, PipelineConfig(), order_catalog)
    assert result.matrix == ConfusionMatrix(tp=0, fn=1, fp=0, tn=2)


def test_report_summary_mentions_both_summaries(injected_corpus):
    report = cross_validate(injected_corpus, k=3, seed=2,
                            config=PipelineConfig())
    text = report.summary()
    assert "per-fold means" in text
    assert "pooled matrix" in text
    assert "differ" in text


def test_sweep_grid_and_outputs():
    spec = default_spec(19)
    rates = [0.25, 0.75]
    scenarios = [Scenario.parse("global"), Scenario.parse("local:carrier")]
    cells = sweep(
        spec,
        lambda rate: default_fault_plan(spec, rate),
        rates,
        scenarios,
        k=2,
        n_instances=80,
        config=PipelineConfig(),
        seed=12,
    )
    assert len(cells) == 4
    assert {(c.rate, str(c.scenario)) for c in cells} == {
        (0.25, "global"), (0.25, "local:carrier"),
        (0.75, "global"), (0.75, "local:carrier"),
    }
    table = sweep_table(cells)
    assert table.startswith("rate\tscenario\tmetric\tmean\tsigma\n")
    assert len(table.strip().splitlines()) == 1 + 4 * 3
    plot = plot_data(cells, "mcc")
    lines = plot.strip().splitlines()
    assert lines[0] == "rate\tglobal\tglobal_sigma\tlocal:carrier\tlocal:carrier_sigma"
    assert len(lines) == 3


def test_mcc_sweet_spot_at_moderate_rates():
    # Extreme fault rates starve one class of training data, so the MCC
    # peaks in the middle of the rate range.
    spec = default_spec(42)
    clean = generate(spec, 400)
    config = PipelineConfig()
    mcc = {}
    for rate in (0.1, 0.5, 0.9):
        injected = inject_faults(clean, default_fault_plan(spec, rate), seed=9)
        mcc[rate] = cross_validate(injected, k=3, config=config, seed=3).mcc
    assert mcc[0.5] >= mcc[0.1] - 0.02
    assert mcc[0.5] >= mcc[0.9] + 0.1


def test_global_beats_local_directionally(injected_corpus):
    config = PipelineConfig()
    from efp.events import filter_visibility

    global_report = cross_validate(injected_corpus, k=3, config=config, seed=4)
    local = filter_visibility(injected_corpus, Scenario.parse("local:carrier"))
    local_report = cross_validate(local, k=3, config=config, seed=4)
    assert global_report.mcc >= local_report.mcc


def reference_split(train, test, config, catalog):
    """``evaluate_split`` without a memo: every snapshot gets a traversal
    of its own. Returns the fold result and every failure estimate, in the
    order they were made."""
    model = mine_model(train)
    classifier = config.classifier_factory(catalog)
    classifier.fit_bins(train)
    classifier.train(train)
    estimates = []

    def flagged(prefix):
        if not any(e.is_intrinsic for e in prefix.events):
            return False
        estimates.append(failure_probability(
            traverse(prefix, classifier, model, config.limits)
        ))
        return estimates[-1].p_fail >= config.threshold

    cm = ConfusionMatrix()
    for trace in test:
        failed = trace.outcome_label is Outcome.FAIL
        cm = cm.add(failed, flagged(evaluation_prefix(trace)))
    return FoldResult(cm, *metrics(cm), len(test)), estimates


@pytest.mark.parametrize("config, n_traces", [
    (PipelineConfig(classifier_factory=lambda catalog: FrequencyModel(catalog, window=0)), 240),
    (PipelineConfig(classifier_factory=lambda catalog: FrequencyModel(catalog, window=3)), 240),
    (PipelineConfig(classifier_factory=lambda catalog: RecurrentModel(catalog)), 30),
], ids=["frequency-window-0", "frequency-window-3", "recurrent"])
def test_memoized_folds_equal_unmemoized_reference(injected_corpus, config,
                                                   n_traces, monkeypatch):
    # Fold results are coarse (a window-0 model flags every trace), so
    # every failure estimate behind them is compared too, bit for bit.
    estimates = []

    def recording(result):
        estimates.append(failure_probability(result))
        return estimates[-1]

    monkeypatch.setattr(efp.traversal, "failure_probability", recording)
    corpus = injected_corpus[:n_traces]
    catalog = catalog_from_traces(corpus)
    for fold in range(3):
        test = corpus[fold::3]
        train = [t for i, t in enumerate(corpus) if i % 3 != fold]
        del estimates[:]
        result = evaluate_split(train, test, config, catalog)
        expected, expected_estimates = reference_split(train, test, config, catalog)
        assert result == expected
        assert estimates == expected_estimates


class ConstantCursor(Classifier):
    """Uniform predictions under the one tuple cursor ``()``, like a
    window-0 frequency model: traversals differ only by their state. Every
    traversal it starts is recorded by its ``(cursor, state)``."""

    def __init__(self, catalog):
        self.catalog = catalog
        self.outcomes = prediction_outcomes(catalog)
        self.prediction = np.full(len(self.outcomes), 1.0 / len(self.outcomes))
        self.requested = []

    def start(self, trace):
        self.requested.append(((), trace.states[-1]))
        return ()

    def advance(self, cursor, state):
        return ()

    def readout(self, cursor):
        return self.prediction

    def train_online(self, trace):
        pass


class RecordingRecurrent(RecurrentModel):
    """A recurrent model that records every traversal it starts by its
    ``(hidden-state bytes, state)``."""

    def __init__(self, catalog):
        super().__init__(catalog)
        self.requested = []

    def start(self, trace):
        hidden = super().start(trace)
        self.requested.append((hidden.tobytes(), trace.states[-1]))
        return hidden


def test_each_traversal_key_is_walked_once_per_split(order_catalog, monkeypatch):
    walked = []
    walk = efp.traversal._Walker.walk

    def counting_walk(self, advance, readout, cursor, state, limits):
        key = cursor.tobytes() if isinstance(cursor, np.ndarray) else cursor
        walked.append((key, state))
        return walk(self, advance, readout, cursor, state, limits)

    monkeypatch.setattr(efp.traversal._Walker, "walk", counting_walk)
    estimates = []

    def recording(result):
        estimates.append(failure_probability(result))
        return estimates[-1]

    monkeypatch.setattr(efp.traversal, "failure_probability", recording)

    def trace(names, i, label, error_index=None):
        return replace(make_trace(order_catalog, names, instance_id=f"t{i}",
                                  label=label), error_index=error_index)

    train = [
        trace(["A", "B", "C", "E"], 0, Outcome.END),
        trace(["A", "B", "C", "D", "G"], 1, Outcome.END),
        trace(["A", "B", "failure"], 2, Outcome.FAIL),
    ]
    # Snapshots at A, B and C, one per held-out trace.
    test = (
        [trace(["A", "B", "C", "E"], 10 + i, Outcome.END) for i in range(3)]
        + [trace(["A", "B", "E"], 20 + i, Outcome.END) for i in range(2)]
        + [trace(["A", "B", "C", "failure"], 30 + i, Outcome.FAIL, error_index=0)
           for i in range(3)]
    )
    # A recurrent classifier's equal prefixes reach equal hidden states,
    # which the memo keys by their bytes.
    for kind in (ConstantCursor, RecordingRecurrent):
        made = []

        def factory(catalog):
            made.append(kind(catalog))
            return made[-1]

        config = PipelineConfig(classifier_factory=factory)
        for call in range(2):
            del walked[:], estimates[:]
            result = evaluate_split(train, test, config, order_catalog)
            requested = made[-1].requested
            distinct = list(dict.fromkeys(requested))
            assert len(requested) == len(test)
            assert len(requested) > len(distinct) > 2
            assert walked == distinct
            assert (result, estimates) == reference_split(
                train, test, config, order_catalog)
