"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS/FAIL
line per criterion including its runtime against the stated budget.
"""

import time

import numpy as np
import pytest

from efp.evaluation import (
    ConfusionMatrix,
    PipelineConfig,
    cross_validate,
    evaluate_split,
    metrics,
)
from efp.events import FAIL_STATE, Outcome, Scenario, filter_visibility
from efp.model import mine_model
from efp.predictors import FrequencyModel, prediction_outcomes
from efp.recurrent import RecurrentModel
from efp.runtime import Bus
from efp.synthesis import (
    DATA_FAULT,
    EVENT_FAULT,
    STEP_FAULT,
    CollaborationSpec,
    FaultPlan,
    StepFaultShape,
    Task,
    default_fault_plan,
    default_spec,
    generate,
    inject_faults,
    minimal_spec,
)
from efp.traversal import (
    UNLIMITED,
    TraversalLimits,
    failure_probability,
    traverse,
)
from efp.xes import read_xes, write_xes

from conftest import (
    flatten_grads,
    get_flat_params,
    make_catalog,
    make_trace,
    random_catalog_and_traces,
    set_flat_params,
)
from test_traversal import (
    enumerate_outcomes,
    random_cyclic_model,
    random_dag_model,
    trained_frequency,
)


def _report(number, name, started, budget):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"
    print(f"criterion {number:02d} {name}: PASS ({elapsed:.1f}s < {budget}s)")


def test_criterion_01_traversal_table(order_catalog, order_model, table_stub):
    started = time.monotonic()
    trace = make_trace(order_catalog, ["A", "B", "C"])
    result = traverse(trace, table_stub, order_model)

    expected = {
        ("D", FAIL_STATE): 0.799,
        (FAIL_STATE,): 0.187,
        ("E",): 0.010,
        ("D", "G"): 0.004,
    }
    got = {p.suffix: p.probability for p in result.paths}
    assert got.keys() == expected.keys()
    for suffix, target in expected.items():
        assert abs(round(got[suffix], 3) - target) <= 5e-4
    assert sum(round(p, 3) for p in got.values()) == pytest.approx(1.000)

    estimate = failure_probability(result)
    assert estimate.p_fail == pytest.approx(0.986, abs=1e-3)
    _report(1, "traversal table reproduction", started, 1.0)


def test_criterion_02_metric_formulas(capsys):
    started = time.monotonic()
    cm = ConfusionMatrix(tp=1051.14, fn=28.04, fp=153.76, tn=1917.95)
    precision, recall, mcc = metrics(cm)
    assert mcc == pytest.approx(0.879, abs=1e-3)
    assert precision == pytest.approx(0.872, abs=1e-3)
    assert recall == pytest.approx(0.974, abs=1e-3)

    from efp.cli import main

    assert main(["evaluate", "--from-matrix",
                 "1051.14,28.04,153.76,1917.95"]) == 0
    out = capsys.readouterr().out
    assert "mcc 0.879" in out
    assert "differ" in out  # per-fold-mean vs pooled discrepancy documented
    with capsys.disabled():
        _report(2, "metric formula reproduction", started, 1.0)


def test_criterion_03_traversal_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        model = random_dag_model(rng, int(rng.integers(4, 9)))
        catalog, classifier = trained_frequency(rng, model, n_traces=60)
        trace = make_trace(catalog, [model.initial_state], instance_id="probe")
        result = traverse(trace, classifier, model, UNLIMITED)
        expected = enumerate_outcomes(trace, classifier, model, catalog)
        got = {p.suffix: p.probability for p in result.paths}
        assert got.keys() == expected.keys()
        for suffix, p in expected.items():
            assert got[suffix] == pytest.approx(p, abs=1e-12)
        assert result.explored_mass == pytest.approx(1.0, abs=1e-9)
    _report(3, "traversal oracle equivalence (100 models)", started, 30.0)


def test_criterion_04_pruning_monotonicity_and_termination():
    started = time.monotonic()
    rng = np.random.default_rng(4096)
    defaults = TraversalLimits()
    for _ in range(50):
        model = random_cyclic_model(rng, int(rng.integers(4, 9)))
        catalog, classifier = trained_frequency(rng, model, n_traces=60)
        trace = make_trace(catalog, [model.initial_state], instance_id="probe")
        base = traverse(trace, classifier, model, defaults)  # must terminate
        loose = {p.suffix: p.probability for p in base.paths}
        tighter = [
            TraversalLimits(max_depth=defaults.max_depth - 8,
                            max_breadth=defaults.max_breadth,
                            min_probability=defaults.min_probability),
            TraversalLimits(max_depth=defaults.max_depth,
                            max_breadth=defaults.max_breadth - 3,
                            min_probability=defaults.min_probability),
            TraversalLimits(max_depth=defaults.max_depth,
                            max_breadth=defaults.max_breadth,
                            min_probability=defaults.min_probability * 100),
        ]
        for limits in tighter:
            result = traverse(trace, classifier, model, limits)
            for path in result.paths:
                assert path.suffix in loose
                assert path.probability == pytest.approx(
                    loose[path.suffix], abs=1e-12
                )
    _report(4, "pruning monotonicity and termination (50 models)",
            started, 30.0)


def test_criterion_05_injection_rate_fidelity():
    spec = minimal_spec(99)
    traces = generate(spec, 10_000)
    for rate in (0.1, 0.5, 0.9):
        started = time.monotonic()
        plan = default_fault_plan(spec, rate, (STEP_FAULT, EVENT_FAULT))
        injected = inject_faults(traces, plan, seed=17)
        realized = sum(
            1 for t in injected if t.outcome_label is Outcome.FAIL
        ) / len(injected)
        assert abs(realized - rate) <= 0.02
        _report(5, f"injection-rate fidelity (rate {rate})", started, 30.0)


def test_criterion_06_detectability_by_fault_type():
    started = time.monotonic()
    spec = default_spec(600)
    clean = generate(spec, 6_000)
    floors = {STEP_FAULT: 0.7, EVENT_FAULT: 0.6, DATA_FAULT: 0.5}
    config = PipelineConfig()
    for fault_type, floor in floors.items():
        plan = default_fault_plan(spec, 0.5, (fault_type,))
        injected = inject_faults(clean, plan, seed=601)
        fold = evaluate_split(injected[:5_000], injected[5_000:], config)
        assert fold.mcc >= floor, (
            f"{fault_type}: mcc {fold.mcc:.3f} below floor {floor}"
        )
    _report(6, "end-to-end detectability by fault type", started, 300.0)


def test_criterion_07_visibility_ordering():
    started = time.monotonic()
    config = PipelineConfig()
    scenarios = {
        "global": Scenario.parse("global"),
        "local": Scenario.parse("local:carrier"),
        "nocontext_local": Scenario.parse("nocontext-local:carrier"),
    }
    mcc = {name: [] for name in scenarios}
    for seed in range(5):
        spec = default_spec(seed)
        injected = inject_faults(
            generate(spec, 600), default_fault_plan(spec, 0.5),
            seed=seed + 100,
        )
        for name, scenario in scenarios.items():
            visible = filter_visibility(injected, scenario)
            report = cross_validate(visible, k=3, config=config, seed=seed)
            mcc[name].append(report.mcc)
    means = {name: float(np.mean(vals)) for name, vals in mcc.items()}
    assert means["global"] >= means["local"]
    assert means["local"] >= means["nocontext_local"] - 0.05
    _report(7, "visibility ordering "
            f"(global {means['global']:.3f} >= local {means['local']:.3f} "
            f">= nocontext-local {means['nocontext_local']:.3f} - 0.05)",
            started, 600.0)


def test_criterion_08_classifier_contracts():
    started = time.monotonic()
    catalog = make_catalog(["A", "B", "C", "D"])
    rng = np.random.default_rng(8)
    corpus = []
    for i in range(60):
        names = ["A"] + ["BCD"[int(rng.integers(0, 3))]
                         for _ in range(int(rng.integers(1, 6)))]
        label = Outcome.FAIL if rng.random() < 0.3 else Outcome.END
        corpus.append(make_trace(catalog, names, instance_id=f"t{i}",
                                 label=label))

    frequency = FrequencyModel(catalog)
    frequency.train(corpus)
    recurrent = RecurrentModel(catalog, seed=8)
    recurrent.train(corpus[:10])
    for classifier in (frequency, recurrent):
        for _ in range(1_000):
            names = ["A"] + ["BCD"[int(rng.integers(0, 3))]
                             for _ in range(int(rng.integers(0, 5)))]
            pred = classifier.predict(make_trace(catalog, names))
            assert np.all(pred >= 0)
            assert abs(float(pred.sum()) - 1.0) <= 1e-9

    # analytic gradients vs central differences on a 3-state toy
    toy = make_catalog(["A", "B", "C"])
    model = RecurrentModel(toy, seed=3, hidden_size=8)
    from efp.recurrent import encode_trace

    rows = encode_trace(make_trace(toy, ["A", "B", "A"]), toy)
    target = model.outcomes.index("C")
    _, grads = model.loss_and_grads(rows, target)
    analytic = flatten_grads(grads)
    params = get_flat_params(model)
    numeric = np.zeros_like(params)
    eps = 1e-6
    for i in range(len(params)):
        bumped = params.copy()
        bumped[i] += eps
        set_flat_params(model, bumped)
        up, _ = model.loss_and_grads(rows, target)
        bumped[i] -= 2 * eps
        set_flat_params(model, bumped)
        down, _ = model.loss_and_grads(rows, target)
        numeric[i] = (up - down) / (2 * eps)
    rel = np.linalg.norm(analytic - numeric) / max(
        np.linalg.norm(analytic), np.linalg.norm(numeric)
    )
    assert rel < 1e-4

    # frequency online training equals batch training exactly
    online = FrequencyModel(catalog)
    for trace in corpus:
        online.train_online(trace)
    batch = FrequencyModel(catalog)
    batch.train(corpus)
    assert set(online.counts) == set(batch.counts)
    for key in online.counts:
        assert np.array_equal(online.counts[key], batch.counts[key])
    _report(8, "classifier contracts", started, 60.0)


def _pipeline_scenario():
    """Linear 20-step process; faults divert at event index 12 into four
    alternative steps with the failure at index 16."""
    tasks = tuple(Task(f"s{i:02d}", "plant") for i in range(20))
    spec = CollaborationSpec(name="pipeline", partners=("plant",),
                             tasks=tasks, seed=1234)
    plan = FaultPlan(
        rate=0.05,
        shapes=(
            StepFaultShape(
                divert_after="s11",
                alt_path=("d12", "d13", "d14", "d15"),
                partner="plant",
            ),
        ),
    )
    return spec, plan


def test_criterion_09_early_warning_replay():
    started = time.monotonic()
    spec, plan = _pipeline_scenario()
    corpus = inject_faults(generate(spec, 2_000), plan, seed=9)

    from efp.events import catalog_from_traces

    catalog = catalog_from_traces(corpus)
    model = mine_model(corpus)
    classifier = FrequencyModel(catalog, window=3, alpha=0.01)
    classifier.train(corpus)

    failing = next(t for t in corpus if t.outcome_label is Outcome.FAIL)
    assert failing.error_index == 12
    failure_index = next(
        i for i, e in enumerate(failing.events) if e.state == FAIL_STATE
    )
    assert failure_index == 16

    bus = Bus()
    bus.start_instance("replay", classifier, model)
    for event in failing.events:
        bus.publish(type(event)(
            event.event_type, event.timestamp, "replay", event.partner_id,
            event.visibility, event.payload,
        ))
    stream = bus.prediction_queue
    assert [p.at_event_index for p in stream] == list(range(17))
    for p in stream:
        if p.at_event_index < 12:
            assert p.p_fail <= 0.1, (
                f"index {p.at_event_index}: p_fail {p.p_fail:.4f}"
            )
        else:
            assert p.p_fail >= 0.9, (
                f"index {p.at_event_index}: p_fail {p.p_fail:.4f}"
            )
    detection = next(p.at_event_index for p in stream if p.p_fail >= 0.5)
    assert failure_index - detection == 4  # lead time
    _report(9, "early-warning replay (lead time 4)", started, 60.0)


def test_criterion_10_determinism_and_round_trips(tmp_path):
    started = time.monotonic()
    rng = np.random.default_rng(1010)
    for _ in range(100):
        _, traces = random_catalog_and_traces(rng)
        blob = write_xes(traces)
        log = read_xes(blob)
        assert list(log.traces) == traces
        assert write_xes(list(log.traces)) == blob

    from efp.cli import main

    def invoke(*args):
        assert main(list(args)) == 0

    outputs = {}
    for attempt in ("x", "y"):
        base = tmp_path / attempt
        base.mkdir()
        clean = base / "clean.xes"
        faulty = base / "faulty.xes"
        model = base / "model.txt"
        stream = base / "stream.tsv"
        evals = base / "evals"
        invoke("simulate", "--n", "25", "--seed", "5", "--out", str(clean))
        invoke("inject", "--in", str(clean), "--out", str(faulty),
               "--rate", "0.4", "--seed", "6")
        invoke("mine", "--in", str(faulty), "--out", str(model))
        invoke("run", "--in", str(faulty), "--model", str(model),
               "--seed", "7", "--out", str(stream))
        invoke("evaluate", "--spec", "default", "--n", "60", "--rate",
               "0.5", "--scenario", "global", "--k", "2", "--seed", "8",
               "--out", str(evals))
        outputs[attempt] = {
            "clean": clean.read_bytes(),
            "faulty": faulty.read_bytes(),
            "model": model.read_bytes(),
            "stream": stream.read_bytes(),
            "results": (evals / "results.tsv").read_bytes(),
            "mcc": (evals / "mcc.tsv").read_bytes(),
        }
    assert outputs["x"] == outputs["y"]
    _report(10, "determinism and round trips", started, 60.0)
