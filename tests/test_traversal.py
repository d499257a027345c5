import numpy as np
import pytest

from efp.errors import NoIntrinsicEvent
from efp.events import FAIL_STATE, Event, EventTrace, Outcome
from efp.model import ProcessModel, current_step
from efp.predictors import FrequencyModel
from efp.traversal import (
    Classification,
    TraversalLimits,
    UNLIMITED,
    classify_instance,
    failure_probability,
    format_report,
    traverse,
)

from conftest import StubClassifier, make_catalog, make_trace


# -- independent oracle: exhaustive enumeration over explicit trace objects --


def enumerate_outcomes(trace, classifier, model, catalog):
    """Brute-force enumeration of every feasible continuation, computing
    chained probabilities from scratch via classifier.predict on explicitly
    extended traces. No sorting, no limits, no incremental cursors."""
    results = {}

    def extend(events, state):
        et = catalog.lookup(state)
        ts = events[-1].timestamp + 1
        return events + (
            Event(et, ts, events[0].global_instance_id, "oracle"),
        )

    def rec(events, state, suffix, p):
        pred = classifier.predict(
            EventTrace(events[0].global_instance_id, events)
        )
        feasible = model.successors(state)
        entries = [
            (name, pred.prob(name))
            for name in sorted(feasible)
            if pred.prob(name) > 0.0
        ]
        total = sum(q for _, q in entries)
        for name, q in entries:
            pp = p * (q / total)
            if name == FAIL_STATE or name in model.final_states:
                results[suffix + (name,)] = pp
            else:
                rec(extend(events, name), name, suffix + (name,), pp)

    rec(trace.events, current_step(trace, model), (), 1.0)
    return results


def random_dag_model(rng, n_states):
    """Connected DAG over a chain backbone with random skip edges; the
    last state is the single final state."""
    names = [f"s{i}" for i in range(n_states)]
    edges = {(names[i], names[i + 1]) for i in range(n_states - 1)}
    for i in range(n_states):
        for j in range(i + 2, n_states):
            if rng.random() < 0.35:
                edges.add((names[i], names[j]))
    return ProcessModel(
        states=frozenset(names),
        initial_state=names[0],
        final_states=frozenset({names[-1]}),
        allowed=frozenset(edges),
    )


def random_cyclic_model(rng, n_states):
    model = random_dag_model(rng, n_states)
    names = sorted(model.states - {FAIL_STATE})
    back = set()
    for _ in range(3):
        i = int(rng.integers(1, n_states - 1))
        j = int(rng.integers(0, i + 1))
        back.add((names[i], names[j]))
    return ProcessModel(
        states=model.states,
        initial_state=model.initial_state,
        final_states=model.final_states,
        allowed=model.allowed | back,
    )


def walk_corpus(rng, model, catalog, n_traces):
    """Random walks through the model, labeled, with occasional failures."""
    traces = []
    for t in range(n_traces):
        states = [model.initial_state]
        while states[-1] not in model.final_states and len(states) < 30:
            succ = sorted(model.successors(states[-1]) - {FAIL_STATE})
            if not succ or rng.random() < 0.08:
                break
            states.append(succ[int(rng.integers(0, len(succ)))])
        if states[-1] in model.final_states:
            label = Outcome.END
        else:
            states.append("failure")
            label = Outcome.FAIL
        traces.append(
            make_trace(catalog, states, instance_id=f"w{t}", label=label)
        )
    return traces


def trained_frequency(rng, model, n_traces=80):
    catalog = make_catalog(sorted(model.states - {FAIL_STATE}))
    classifier = FrequencyModel(catalog, window=3)
    classifier.train(walk_corpus(rng, model, catalog, n_traces))
    return catalog, classifier


# -- scripted example ---------------------------------------------------------


def test_scripted_example_paths(order_catalog, order_model, table_stub):
    trace = make_trace(order_catalog, ["A", "B", "C"])
    result = traverse(trace, table_stub, order_model)
    got = {
        p.suffix: (round(p.probability, 3), p.outcome)
        for p in result.paths
    }
    assert got == {
        ("D", FAIL_STATE): (0.799, Outcome.FAIL),
        (FAIL_STATE,): (0.187, Outcome.FAIL),
        ("E",): (0.010, Outcome.END),
        ("D", "G"): (0.004, Outcome.END),
    }
    assert result.explored_mass == pytest.approx(1.0, abs=1e-9)
    assert [p.suffix for p in result.paths] == [
        ("D", FAIL_STATE), (FAIL_STATE,), ("E",), ("D", "G")
    ]  # sorted by probability descending


def test_scripted_example_failure_probability(order_catalog, order_model,
                                              table_stub):
    trace = make_trace(order_catalog, ["A", "B", "C"])
    est = failure_probability(traverse(trace, table_stub, order_model))
    assert est.p_fail == pytest.approx(0.986, abs=1e-3)
    assert est.lower <= est.p_fail <= est.upper
    assert classify_instance(trace, table_stub, order_model) is \
        Classification.PREDICT_FAIL


def test_outcome_states(order_catalog, order_model, table_stub):
    trace = make_trace(order_catalog, ["A", "B", "C"])
    result = traverse(trace, table_stub, order_model)
    by_suffix = {p.suffix: p for p in result.paths}
    assert by_suffix[("D", FAIL_STATE)].outcome_state == "D"
    assert by_suffix[(FAIL_STATE,)].outcome_state == "C"
    assert by_suffix[("E",)].outcome_state == "E"


def test_already_final_result(order_catalog, order_model, table_stub):
    trace = make_trace(order_catalog, ["A", "B", "C", "E"])
    result = traverse(trace, table_stub, order_model)
    assert result.already_final
    assert result.final_state == "E"
    assert result.paths == ()
    assert result.explored_mass == 0.0
    est = failure_probability(result)
    assert (est.p_fail, est.lower, est.upper) == (0.0, 0.0, 0.0)


def test_already_failed_result(order_catalog, order_model, table_stub):
    trace = make_trace(order_catalog, ["A", "failure"])
    est = failure_probability(traverse(trace, table_stub, order_model))
    assert (est.p_fail, est.lower, est.upper) == (1.0, 1.0, 1.0)


def test_traverse_requires_intrinsic_event(order_catalog, order_model,
                                           table_stub):
    trace = make_trace(order_catalog, ["temp"], payloads={"temp": (1.0,)})
    with pytest.raises(NoIntrinsicEvent):
        traverse(trace, table_stub, order_model)


def test_chain_rule_recomputation(order_catalog, order_model, table_stub):
    trace = make_trace(order_catalog, ["A", "B", "C"])
    for path in traverse(trace, table_stub, order_model).paths:
        assert path.probability == pytest.approx(
            float(np.prod(path.step_probs)), abs=1e-12
        )
        assert len(path.step_probs) == len(path.suffix)


def test_infeasible_successors_filtered_and_renormalized(order_catalog,
                                                         order_model):
    # Classifier insists on C -> G, which the model forbids.
    stub = StubClassifier(order_catalog, {
        ("A", "B", "C"): {"G": 0.6, "E": 0.3, FAIL_STATE: 0.1},
    })
    trace = make_trace(order_catalog, ["A", "B", "C"])
    result = traverse(trace, stub, order_model)
    suffixes = {p.suffix for p in result.paths}
    assert ("G",) not in suffixes
    assert result.explored_mass == pytest.approx(1.0, abs=1e-9)
    by_suffix = {p.suffix: p.probability for p in result.paths}
    assert by_suffix[("E",)] == pytest.approx(0.75, abs=1e-9)
    assert by_suffix[(FAIL_STATE,)] == pytest.approx(0.25, abs=1e-9)


def test_classification_threshold_boundary(order_catalog, order_model):
    stub = StubClassifier(order_catalog, {
        ("A", "B", "C"): {"E": 0.5, FAIL_STATE: 0.5},
    })
    trace = make_trace(order_catalog, ["A", "B", "C"])
    assert classify_instance(trace, stub, order_model) is \
        Classification.PREDICT_FAIL  # boundary inclusive
    assert classify_instance(trace, stub, order_model, threshold=0.51) is \
        Classification.PREDICT_END
    with pytest.raises(ValueError):
        classify_instance(trace, stub, order_model, threshold=0.0)


def test_failure_probability_interval_arithmetic():
    from efp.traversal import OutcomePath, TraversalResult

    result = TraversalResult(
        paths=(
            OutcomePath((FAIL_STATE,), 0.5, Outcome.FAIL, "x", (0.5,)),
            OutcomePath(("z",), 0.2, Outcome.END, "z", (0.2,)),
        ),
        explored_mass=0.7,
        pruned_mass=0.3,
    )
    est = failure_probability(result)
    assert (est.p_fail, est.lower, est.upper) == (0.5, 0.5, 0.8)


def test_single_end_path_probability_one(order_catalog, order_model):
    stub = StubClassifier(order_catalog, {("A", "B", "C", "D"): {"G": 1.0}})
    trace = make_trace(order_catalog, ["A", "B", "C", "D"])
    est = failure_probability(traverse(trace, stub, order_model))
    assert (est.p_fail, est.lower, est.upper) == (0.0, 0.0, 0.0)


def test_format_report(order_catalog, order_model, table_stub):
    trace = make_trace(order_catalog, ["A", "B", "C"])
    report = format_report(traverse(trace, table_stub, order_model))
    lines = report.splitlines()
    assert lines[0] == f"D->{FAIL_STATE} 0.799 fail"
    assert lines[-1] == "D->G 0.004 end"


# -- oracle equivalence and pruning ------------------------------------------


def test_matches_exhaustive_oracle_small_batch():
    rng = np.random.default_rng(77)
    for _ in range(15):
        model = random_dag_model(rng, int(rng.integers(4, 9)))
        catalog, classifier = trained_frequency(rng, model)
        trace = make_trace(catalog, [model.initial_state], instance_id="probe")
        result = traverse(trace, classifier, model, UNLIMITED)
        expected = enumerate_outcomes(trace, classifier, model, catalog)
        got = {p.suffix: p.probability for p in result.paths}
        assert got.keys() == expected.keys()
        for suffix, p in expected.items():
            assert got[suffix] == pytest.approx(p, abs=1e-12)
        assert result.explored_mass == pytest.approx(1.0, abs=1e-9)


def test_pruning_monotone_and_cyclic_termination_small_batch():
    rng = np.random.default_rng(88)
    for _ in range(10):
        model = random_cyclic_model(rng, int(rng.integers(4, 8)))
        catalog, classifier = trained_frequency(rng, model)
        trace = make_trace(catalog, [model.initial_state], instance_id="probe")
        base_limits = TraversalLimits(max_depth=12, max_breadth=4,
                                      min_probability=1e-5)
        base = traverse(trace, classifier, model, base_limits)
        assert base.explored_mass + base.pruned_mass == pytest.approx(
            1.0, abs=1e-9
        )
        tighter = [
            TraversalLimits(max_depth=6, max_breadth=4, min_probability=1e-5),
            TraversalLimits(max_depth=12, max_breadth=2, min_probability=1e-5),
            TraversalLimits(max_depth=12, max_breadth=4, min_probability=1e-2),
        ]
        loose_paths = {p.suffix: p.probability for p in base.paths}
        for limits in tighter:
            result = traverse(trace, classifier, model, limits)
            for path in result.paths:
                assert path.probability == pytest.approx(
                    loose_paths[path.suffix], abs=1e-12
                )
                assert len(path.suffix) <= limits.max_depth


def test_depth_bound_respected(order_catalog):
    # Self-loop model: A -> A forever, so only the depth limit stops it.
    model = ProcessModel(
        states=frozenset({"A"}),
        initial_state="A",
        final_states=frozenset(),
        allowed=frozenset({("A", "A")}),
    )
    stub = StubClassifier(order_catalog, {})  # uniform everywhere
    trace = make_trace(order_catalog, ["A"])
    limits = TraversalLimits(max_depth=4, max_breadth=3, min_probability=0.0)
    result = traverse(trace, stub, model, limits)
    assert result.paths  # failure is always feasible, so fail paths exist
    assert max(len(p.suffix) for p in result.paths) <= 4
    assert result.explored_mass + result.pruned_mass == pytest.approx(
        1.0, abs=1e-9
    )


def test_breadth_bound_respected(order_catalog, order_model):
    stub = StubClassifier(order_catalog, {
        ("A", "B", "C"): {"D": 0.4, "E": 0.35, FAIL_STATE: 0.25},
        ("A", "B", "C", "D"): {"G": 0.9, FAIL_STATE: 0.1},
    })
    trace = make_trace(order_catalog, ["A", "B", "C"])
    limits = TraversalLimits(max_depth=10, max_breadth=1, min_probability=0.0)
    result = traverse(trace, stub, order_model, limits)
    # only the most likely child is expanded at each node: D, then D -> G
    assert [p.suffix for p in result.paths] == [("D", "G")]
    assert result.explored_mass == pytest.approx(0.36, abs=1e-9)
    # root prunes E and fail (0.6); the D node prunes its fail child (0.04)
    assert result.pruned_mass == pytest.approx(0.64, abs=1e-9)


def test_equal_probabilities_tie_break_lexicographic(order_catalog,
                                                     order_model):
    stub = StubClassifier(order_catalog, {
        ("A", "B", "C"): {"E": 0.5, FAIL_STATE: 0.5},
    })
    trace = make_trace(order_catalog, ["A", "B", "C"])
    result = traverse(trace, stub, order_model)
    assert [p.suffix for p in result.paths] == [("E",), (FAIL_STATE,)]


# -- feasible successor slots ---------------------------------------------------


def reference_candidates(prediction, model, state):
    """The candidate rule written out plainly: filter every outcome by the
    model, renormalize, fall back to a uniform split over the feasible set
    when no feasible outcome has mass, sort by (-p, name)."""
    if state in model.states:
        feasible = model.successors(state)
    else:
        feasible = set(prediction.outcomes)
    entries = [
        (name, p)
        for name, p in zip(prediction.outcomes, prediction.probs)
        if name in feasible and p > 0.0
    ]
    total = sum(p for _, p in entries)
    if total <= 0.0:
        entries = [(name, 1.0) for name in sorted(feasible)]
        total = float(len(entries))
    entries = [(name, p / total) for name, p in entries]
    entries.sort(key=lambda item: (-item[1], item[0]))
    return entries


@pytest.fixture
def checked_walker(monkeypatch):
    """Makes every traversal compare each node's candidates with
    ``reference_candidates``; returns the list of checked states."""
    import efp.traversal

    checked = []

    class CheckedWalker(efp.traversal._Walker):
        def candidates(self, prediction, cursor, state):
            got = super().candidates(prediction, cursor, state)
            assert got == reference_candidates(prediction, self.model, state)
            checked.append(state)
            return got

    monkeypatch.setattr(efp.traversal, "_Walker", CheckedWalker)
    return checked


def test_unseen_state_keeps_every_outcome_feasible(order_catalog,
                                                   checked_walker):
    # C is not a state of this model, so nothing constrains its successors:
    # D (which no model edge reaches) and B (final) both stay in play.
    model = ProcessModel(
        states=frozenset({"A", "B"}),
        initial_state="A",
        final_states=frozenset({"B"}),
        allowed=frozenset({("A", "B")}),
    )
    stub = StubClassifier(order_catalog, {
        ("C",): {"D": 0.5, "B": 0.3, FAIL_STATE: 0.2},
        ("C", "D"): {FAIL_STATE: 1.0},
    })
    result = traverse(make_trace(order_catalog, ["C"]), stub, model)
    got = {p.suffix: p.probability for p in result.paths}
    assert got == {("D", FAIL_STATE): 0.5, ("B",): 0.3, (FAIL_STATE,): 0.2}
    assert checked_walker == ["C", "D"]


def test_zero_mass_fallback_splits_over_model_successors(order_catalog,
                                                         checked_walker):
    # X is a successor the model allows but the classifier cannot predict
    # (it is not in the catalog), as with a model read from a file.
    model = ProcessModel(
        states=frozenset("ABCDGX"),
        initial_state="A",
        final_states=frozenset({"G", "X"}),
        allowed=frozenset(
            {("A", "B"), ("B", "C"), ("C", "D"), ("C", "X"), ("D", "G")}
        ),
    )
    stub = StubClassifier(order_catalog, {
        ("A", "B", "C"): {"B": 1.0},  # all mass on an infeasible successor
        ("A", "B", "C", "D"): {"G": 1.0},
    })
    result = traverse(make_trace(order_catalog, ["A", "B", "C"]), stub, model)
    third = 1.0 / 3.0
    assert [(p.suffix, p.probability, p.outcome) for p in result.paths] == [
        (("D", "G"), third, Outcome.END),
        (("X",), third, Outcome.END),
        ((FAIL_STATE,), third, Outcome.FAIL),
    ]
    assert result.pruned_mass == 0.0
    assert checked_walker == ["C", "D"]


def test_candidates_equal_reference_rule(order_catalog, order_model,
                                         table_stub, checked_walker):
    trace = make_trace(order_catalog, ["A", "B", "C"])
    traverse(trace, table_stub, order_model)
    traverse(trace, StubClassifier(order_catalog, {}), order_model)
    rng = np.random.default_rng(99)
    for _ in range(5):
        model = random_cyclic_model(rng, int(rng.integers(4, 8)))
        catalog, classifier = trained_frequency(rng, model)
        probe = make_trace(catalog, [model.initial_state], instance_id="probe")
        traverse(probe, classifier, model, TraversalLimits(max_depth=8))
    assert len(checked_walker) > 100
