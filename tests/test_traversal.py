import copy
import gc
import importlib.util
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import efp.traversal
from efp.errors import NoIntrinsicEvent
from efp.events import (
    FAIL_STATE,
    Event,
    EventTrace,
    Outcome,
    catalog_from_traces,
)
from efp.model import ProcessModel, current_step, mine_model
from efp.predictors import (
    Classifier,
    FrequencyModel,
    prediction_outcomes,
)
from efp.recurrent import RecurrentModel
from efp.runtime import Bus, replay
from efp.synthesis import (
    DATA_FAULT,
    default_fault_plan,
    default_spec,
    generate,
    inject_faults,
)
from efp.traversal import (
    FailureEstimate,
    OutcomePath,
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
        at = classifier.outcomes.index
        entries = [
            (name, pred[at(name)])
            for name in sorted(feasible)
            if pred[at(name)] > 0.0
        ]
        total = sum(q for _, q in entries)
        for name, q in entries:
            pp = p * (q / total)
            if name == FAIL_STATE or name in model.final_states:
                results[suffix + (name,)] = pp
            else:
                rec(extend(events, name), name, suffix + (name,), pp)

    rec(trace.events, current_step(trace), (), 1.0)
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
    assert classify_instance(trace, table_stub, order_model) is True


def test_already_final_result(order_catalog, order_model, table_stub):
    trace = make_trace(order_catalog, ["A", "B", "C", "E"])
    result = traverse(trace, table_stub, order_model)
    assert result.already_final
    assert result.failure_mass == 0.0
    assert result.paths == ()
    assert result.explored_mass == result.pruned_mass == 0.0
    est = failure_probability(result)
    assert (est.p_fail, est.lower, est.upper) == (0.0, 0.0, 0.0)


def test_already_failed_result(order_catalog, order_model, table_stub):
    trace = make_trace(order_catalog, ["A", "failure"])
    result = traverse(trace, table_stub, order_model)
    assert result.already_final
    assert result.failure_mass == 1.0
    assert result.paths == ()
    est = failure_probability(result)
    assert (est.p_fail, est.lower, est.upper) == (1.0, 1.0, 1.0)


def test_traverse_requires_intrinsic_event(order_catalog, order_model,
                                           table_stub):
    trace = make_trace(order_catalog, ["temp"], payloads={"temp": (1.0,)})
    with pytest.raises(NoIntrinsicEvent):
        traverse(trace, table_stub, order_model)


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
    assert classify_instance(trace, stub, order_model) is True  # inclusive
    assert classify_instance(trace, stub, order_model, threshold=0.51) is False
    with pytest.raises(ValueError):
        classify_instance(trace, stub, order_model, threshold=0.0)


def test_failure_probability_interval_arithmetic():
    from efp.traversal import TraversalResult

    result = TraversalResult(
        explored_mass=0.7,
        pruned_mass=0.3,
        failure_mass=0.5,
        leaves=(
            (0.5, (None, FAIL_STATE)),
            (0.2, ((None, "y"), "z")),
        ),
    )
    assert result.paths == (
        OutcomePath((FAIL_STATE,), 0.5, Outcome.FAIL),
        OutcomePath(("y", "z"), 0.2, Outcome.END),
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
    report = format_report(traverse(trace, table_stub, order_model).paths)
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


def reference_candidates(prediction, outcomes, model, state):
    """The candidate rule written out plainly: filter every outcome by the
    model, renormalize, fall back to a uniform split over the feasible set
    when no feasible outcome has mass, sort by (-p, name)."""
    if state in model.states:
        feasible = model.successors(state)
    else:
        feasible = set(outcomes)
    entries = [
        (name, p)
        for name, p in zip(outcomes, prediction)
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
        def __init__(self, *args):
            super().__init__(*args)
            self.seen_links = set()

        def candidates(self, prediction, state, cursor):
            got = super().candidates(prediction, state, cursor)
            assert [(name, p) for p, name, *_ in got] == reference_candidates(
                prediction, self.outcomes, self.model, state)
            assert [(child[2], child[3], child[5]) for child in got] == [
                (name in self.model.final_states, rank, cursor)
                for rank, (_, name, *_) in enumerate(got)]
            links = {child[4] for child in got}
            assert len(links) == len(got) and not links & self.seen_links
            self.seen_links |= links
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
        # Each distinct node is checked once per traversal, so probe from
        # every non-final state for more distinct nodes.
        for start in sorted(model.states - model.final_states - {FAIL_STATE}):
            probe = make_trace(catalog, [start], instance_id="probe")
            traverse(probe, classifier, model, TraversalLimits(max_depth=8))
    assert len(checked_walker) > 100


# -- the distribution check, once per new node ----------------------------------


def _spoiled(n, how):
    """A uniform distribution over ``n`` outcomes, spoiled one way."""
    probs = np.full(n, 1.0 / n)
    if how == "nan":
        probs[0] = np.nan
    elif how == "+inf":
        probs[1] = np.inf
    elif how == "-inf":
        probs[1] = -np.inf
    elif how == "negative":
        probs[1] += probs[0] + 0.25  # still sums to 1
        probs[0] = -0.25
    elif how == "half":
        probs *= 0.5
    elif how == "length":
        probs = np.full(n + 1, 1.0 / (n + 1))
    return probs


class SpoiledAt(StubClassifier):
    """A uniform stub whose prediction after the state sequence ``at`` is
    spoiled; counts the calls that return it."""

    def __init__(self, catalog, at, how):
        super().__init__(catalog, {})
        self.at, self.how, self.served = at, how, 0

    def _prediction(self, states):
        if states != self.at:
            return super()._prediction(states)
        self.served += 1
        return _spoiled(len(self.outcomes), self.how)


@pytest.mark.parametrize("how", ["nan", "+inf", "-inf", "negative", "half", "length"])
@pytest.mark.parametrize("at", [("A", "B"), ("A", "B", "C")],
                         ids=["start", "advance"])
def test_a_bad_distribution_raises_and_its_node_is_not_kept(
        order_catalog, order_model, how, at):
    stub = SpoiledAt(order_catalog, at, how)
    trace = make_trace(order_catalog, ["A", "B"])
    for served in (1, 2):
        with pytest.raises(ValueError,
                           match="prediction must be a probability distribution"):
            traverse(trace, stub, order_model)
        # Raising again shows the node was not kept: a kept node skips the
        # check, and at a hypothetical step the ``advance`` call too.
        assert stub.served == served
    assert (at, at[-1]) not in efp.traversal._walkers[stub].nodes
    if at == ("A", "B"):
        with pytest.raises(ValueError,
                           match="prediction must be a probability distribution"):
            stub.predict(trace)
    else:
        assert stub.predict(trace).sum() == pytest.approx(1.0)


# -- exact equivalence with the recursive walk ----------------------------------


def reference_traverse(trace, classifier, model, limits):
    """The recursive walk written plainly: one ``OutcomePath`` per leaf,
    built by copying the suffix at every node, pruned mass added up in
    visiting order, and the masses summed over the paths sorted by
    (-probability, suffix). Returns (paths, explored mass, pruned mass,
    failure mass)."""
    paths = []
    pruned = 0.0

    def expand(cursor, state, suffix, p_curr):
        nonlocal pruned
        depth = len(suffix) + 1
        ranked = reference_candidates(
            classifier.readout(cursor), classifier.outcomes, model, state)
        for rank, (name, p) in enumerate(ranked):
            p_child = p_curr * p
            if p_child <= 0.0:
                continue
            if rank >= limits.max_breadth or depth > limits.max_depth:
                pruned += p_child
                continue
            child_suffix = suffix + (name,)
            if name == FAIL_STATE:
                paths.append(OutcomePath(child_suffix, p_child, Outcome.FAIL))
            elif name in model.final_states:
                paths.append(OutcomePath(child_suffix, p_child, Outcome.END))
            elif p_child < limits.min_probability:
                pruned += p_child
            else:
                expand(classifier.advance(cursor, name), name, child_suffix,
                       p_child)

    expand(classifier.start(trace), current_step(trace), (), 1.0)
    paths.sort(key=lambda p: (-p.probability, p.suffix))
    # Added left to right, one rounding each: from Python 3.12 on, ``sum``
    # compensates the rounding of floats.
    explored = failing = 0.0
    for path in paths:
        explored += path.probability
        if path.outcome is Outcome.FAIL:
            failing += path.probability
    return tuple(paths), explored, pruned, failing


def assert_walks_agree(trace, classifier, model, limits):
    paths, explored, pruned, failing = reference_traverse(
        trace, classifier, model, limits)
    result = traverse(trace, classifier, model, limits)
    # Top paths first: they must not depend on ``paths`` having been built.
    for k in (1, 5, 10, len(paths) + 1):
        assert result.top_paths(k) == paths[:k]
    assert result.paths == paths
    assert result.explored_mass == explored
    assert result.failure_mass == failing
    assert result.pruned_mass == pruned
    leaf_probabilities = [leaf[0] for leaf in result.leaves]
    assert all(a >= b for a, b in zip(leaf_probabilities, leaf_probabilities[1:]))
    assert failure_probability(result) == FailureEstimate(
        failing, failing, failing + pruned)
    return len(paths)


TIGHTER_LIMITS = (
    TraversalLimits(max_depth=12, max_breadth=4, min_probability=1e-5),
    TraversalLimits(max_depth=6, max_breadth=4, min_probability=1e-5),
    TraversalLimits(max_depth=12, max_breadth=2, min_probability=1e-5),
    TraversalLimits(max_depth=12, max_breadth=4, min_probability=1e-2),
)


def random_model_walks():
    """``(probe, classifier, model, limits)`` over twelve random models,
    alternately acyclic and cyclic, from every non-final state."""
    rng = np.random.default_rng(2024)
    for i in range(12):
        cyclic = i % 2 == 1
        make_model = random_cyclic_model if cyclic else random_dag_model
        model = make_model(rng, int(rng.integers(4, 8)))
        catalog, classifier = trained_frequency(rng, model)
        # UNLIMITED has no probability cutoff, so a cyclic model never ends.
        limits = (TraversalLimits(),) + TIGHTER_LIMITS + (
            () if cyclic else (UNLIMITED,))
        for start in sorted(model.states - model.final_states - {FAIL_STATE}):
            probe = make_trace(catalog, [start], instance_id="probe")
            for lim in limits:
                yield probe, classifier, model, lim


def test_walk_equals_recursive_reference_exactly():
    compared = 0
    for probe, classifier, model, lim in random_model_walks():
        compared += assert_walks_agree(probe, classifier, model, lim)
    assert compared > 1000


class NoFeasibleMassAt(Classifier):
    """``inner``'s predictions, except that at ``state`` all mass goes to
    ``onto``, an outcome the model does not allow there: that state's node
    falls back to a uniform split over its feasible successors. A readout
    sees only the cursor, so the state each cursor was made at is recorded
    by the cursor's key; the inner classifiers here make no key at two
    states."""

    def __init__(self, inner, state, onto):
        self.inner, self.state = inner, state
        self.catalog, self.outcomes = inner.catalog, inner.outcomes
        self.version = inner.version
        self.onto = np.zeros(len(self.outcomes))
        self.onto[self.outcomes.index(onto)] = 1.0
        self.states = {}

    @staticmethod
    def _key(cursor):
        return cursor.tobytes() if isinstance(cursor, np.ndarray) else cursor

    def _at(self, state, cursor):
        assert self.states.setdefault(self._key(cursor), state) == state
        return cursor

    def start(self, trace):
        return self._at(current_step(trace), self.inner.start(trace))

    def advance(self, cursor, state):
        return self._at(state, self.inner.advance(cursor, state))

    def readout(self, cursor):
        if self.states[self._key(cursor)] == self.state:
            return self.onto
        return self.inner.readout(cursor)


def test_cached_nodes_do_not_depend_on_the_limits():
    # Each setting is walked, then every other one, then it again, on one
    # step cache per classifier. A has six feasible children (the failure
    # state included), more than any breadth here; D is a zero-mass node.
    edges = {("A", s) for s in "BCDEF"} | {("B", s) for s in "CDE"}
    edges |= {("C", s) for s in "DEF"} | {("D", s) for s in "EF"}
    model = ProcessModel(states=frozenset("ABCDEF"), initial_state="A",
                         final_states=frozenset("EF"), allowed=frozenset(edges))
    rng = np.random.default_rng(11)
    catalog = make_catalog("ABCDEF")
    corpus = walk_corpus(rng, model, catalog, 60)
    frequency = FrequencyModel(catalog, window=3)
    frequency.train(corpus)
    recurrent = RecurrentModel(catalog, seed=11)
    recurrent.train(corpus[:10])
    probes = [make_trace(catalog, [s], instance_id="probe") for s in "ABCD"]
    settings = [TraversalLimits(max_depth=depth, max_breadth=breadth,
                                min_probability=cutoff)
                for breadth in (1, 2, 5) for depth in (3, 20)
                for cutoff in (0.0, 1e-2)]
    third = 1.0 / 3.0
    for inner in (frequency, recurrent):
        classifier = NoFeasibleMassAt(inner, "D", "A")
        for limits in settings + settings[::-1]:
            for probe in probes:
                assert_walks_agree(probe, classifier, model, limits)
        # Only the breadth cuts at depth 20 in a DAG this shallow.
        narrow = TraversalLimits(max_depth=20, max_breadth=1, min_probability=0.0)
        assert traverse(probes[0], classifier, model, narrow).pruned_mass > 0.1
        fallback = traverse(probes[3], classifier, model, settings[-1])
        assert [(p.suffix, p.probability) for p in fallback.paths] == [
            (("E",), third), (("F",), third), ((FAIL_STATE,), third)]


def test_a_leaf_is_its_probability_and_its_link():
    outcomes = set()
    for probe, classifier, model, lim in random_model_walks():
        result = traverse(probe, classifier, model, lim)
        for probability, link in result.leaves:
            assert type(probability) is float and link[1] in model.final_states
        for path in result.paths:
            assert (path.outcome is Outcome.FAIL) == (
                path.suffix[-1] == FAIL_STATE)
            outcomes.add(path.outcome)
    assert outcomes == {Outcome.FAIL, Outcome.END}


def test_the_walk_stops_at_a_mined_final_state_with_successors():
    # C ends one training trace and continues another: the mined model
    # keeps the edge C -> D, yet a walk that reaches C ends there.
    catalog = make_catalog("ABCD")
    train = [
        make_trace(catalog, ["A", "B", "C"], instance_id="short",
                   label=Outcome.END),
        make_trace(catalog, ["A", "B", "C", "D"], instance_id="long",
                   label=Outcome.END),
        make_trace(catalog, ["A", "B", "failure"], instance_id="failed",
                   label=Outcome.FAIL),
    ]
    model = mine_model(train)
    assert "C" in model.final_states and ("C", "D") in model.allowed
    classifier = FrequencyModel(catalog, window=3)
    classifier.train(train)
    for start in (["A"], ["A", "B"]):
        trace = make_trace(catalog, start, instance_id="probe")
        for limits in (TraversalLimits(), UNLIMITED):
            assert_walks_agree(trace, classifier, model, limits)
        result = traverse(trace, classifier, model)
        assert {p.suffix[-1] for p in result.paths} == {"C", FAIL_STATE}


def test_top_paths_ties_straddling_the_cut(order_catalog):
    # Five final successors and the failure state, uniform: six paths of
    # probability 1/6, so the top five are decided by suffix alone.
    model = ProcessModel(
        states=frozenset("ABCDEG"),
        initial_state="A",
        final_states=frozenset("BCDEG"),
        allowed=frozenset({("A", s) for s in "BCDEG"}),
    )
    stub = StubClassifier(order_catalog, {})
    trace = make_trace(order_catalog, ["A"])
    assert assert_walks_agree(trace, stub, model, UNLIMITED) == 6
    result = traverse(trace, stub, model, UNLIMITED)
    assert [p.suffix for p in result.top_paths(5)] == [
        ("B",), ("C",), ("D",), ("E",), ("G",)
    ]
    # A uniform stub on the order model: ties at every depth.
    order = ProcessModel(
        states=frozenset("ABCDEG"),
        initial_state="A",
        final_states=frozenset({"E", "G"}),
        allowed=frozenset(
            {("A", "B"), ("B", "C"), ("C", "D"), ("C", "E"), ("C", "B"),
             ("D", "G"), ("D", "B")}
        ),
    )
    for limits in (TraversalLimits(),) + TIGHTER_LIMITS:
        assert_walks_agree(trace, stub, order, limits)


# -- deep limits ------------------------------------------------------------------


DEEP = TraversalLimits(max_depth=5000, max_breadth=1, min_probability=0.0)


def looping_frequency_model():
    """A <-> B with an exit to the final C; training loops ten times per
    trace, so the most likely child at every node continues the loop."""
    model = ProcessModel(
        states=frozenset("ABC"),
        initial_state="A",
        final_states=frozenset({"C"}),
        allowed=frozenset({("A", "B"), ("B", "A"), ("B", "C")}),
    )
    catalog = make_catalog("ABC")
    classifier = FrequencyModel(catalog, window=3)
    classifier.train([
        make_trace(catalog, ["A", "B"] * 10 + ["C"], instance_id=f"loop{i}",
                   label=Outcome.END)
        for i in range(5)
    ])
    return catalog, classifier, model


def test_deep_limits_terminate(order_catalog):
    # A -> A forever: the breadth-1 path halves its probability per step
    # and runs about 1,074 steps deep before it underflows to zero.
    self_loop = ProcessModel(
        states=frozenset({"A"}),
        initial_state="A",
        final_states=frozenset(),
        allowed=frozenset({("A", "A")}),
    )
    result = traverse(make_trace(order_catalog, ["A"]),
                      StubClassifier(order_catalog, {}), self_loop, DEEP)
    assert result.explored_mass + result.pruned_mass == pytest.approx(
        1.0, abs=1e-9)

    catalog, classifier, model = looping_frequency_model()
    result = traverse(make_trace(catalog, ["A"]), classifier, model, DEEP)
    assert result.explored_mass + result.pruned_mass == pytest.approx(
        1.0, abs=1e-9)
    # Every node's top child continues the loop, down to the depth limit.
    assert result.paths == ()
    assert result.pruned_mass == pytest.approx(1.0, abs=1e-9)


def test_deep_limits_publish_predictions_on_the_bus():
    catalog, classifier, model = looping_frequency_model()
    bus = Bus()
    bus.start_instance("deep", classifier, model, DEEP)
    trace = make_trace(catalog, ["A", "B", "A"], instance_id="deep")
    for event in trace.events:
        bus.publish(event)
    assert bus.error_queue == []
    assert [p.at_event_index for p in bus.prediction_queue] == [0, 1, 2]


def test_estimates_and_predictions_are_python_floats(order_catalog,
                                                    order_model, table_stub):
    # Classifiers give numpy probabilities; the walk keeps Python floats.
    recurrent = RecurrentModel(order_catalog)
    for classifier in (table_stub, recurrent):
        trace = make_trace(order_catalog, ["A", "B", "C"])
        records = [failure_probability(traverse(trace, classifier, order_model))]
        bus = Bus()
        bus.start_instance("t0", classifier, order_model)
        for event in trace.events:
            bus.publish(event)
        assert bus.error_queue == []
        records += bus.prediction_queue
        assert len(records) == 4
        for record in records:
            for value in (record.p_fail, record.lower, record.upper):
                assert type(value) is float
            assert "np.float64" not in repr(record)


def test_cyclic_walk_leaves_no_reference_cycles(monkeypatch):
    # The looping model's shared nodes reach themselves; when the step cache
    # drops them they must still be freed by reference counting alone.
    catalog, classifier, model = looping_frequency_model()
    other = FrequencyModel(catalog, window=2)
    other.train([make_trace(catalog, ["A", "B", "C"], label=Outcome.END)])
    trace = make_trace(catalog, ["A", "B", "A"])

    def walk(walked_classifier, limits=TraversalLimits()):
        result = traverse(trace, walked_classifier, model, limits)
        assert result.explored_mass + result.pruned_mass == pytest.approx(
            1.0, abs=1e-9)

    gc.collect()
    gc.disable()
    try:
        for limits in (TraversalLimits(), DEEP):
            walk(classifier, limits)
            assert gc.collect() == 0
        classifier.train_online(make_trace(
            catalog, ["A", "B", "A", "B", "C"], instance_id="more",
            label=Outcome.END))
        assert gc.collect() == 0
        walk(classifier)
        assert gc.collect() == 0
        walk(other)
        assert gc.collect() == 0
        # The cache now serves ``other``: nothing keeps the first one alive.
        first = weakref.ref(classifier)
        del classifier
        assert first() is None
        assert gc.collect() == 0
        # At a node cap of 0 each new node empties the cache first; a copy
        # of ``other`` starts from an empty cache, so its walk builds nodes.
        monkeypatch.setattr(efp.traversal, "NODE_CAP", 0)
        fresh = copy.deepcopy(other)
        walk(fresh, DEEP)
        assert len(efp.traversal._walkers[fresh].nodes) <= 1
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- bounded work per walk ------------------------------------------------------


class LastStepStub(Classifier):
    """Predicts from the last step alone. The cursor is that step's name,
    so each state has one shared node, while every path through it is
    walked and counted against the expansion budget."""

    def __init__(self, catalog, rows):
        self.catalog = catalog
        self.outcomes = prediction_outcomes(catalog)
        self.predictions = {
            state: np.array([row.get(name, 0.0) for name in self.outcomes])
            for state, row in rows.items()
        }

    def start(self, trace):
        return current_step(trace)

    def advance(self, cursor, state):
        return state

    def readout(self, cursor):
        return self.predictions[cursor]


def test_expansion_budget_ends_an_exponential_walk_honestly():
    # Under breadth 2, A keeps two looping children (A, B) and B one (A)
    # beside its failure exit: the paths to depth 60 grow as the Fibonacci
    # numbers, to about 1e12, so only the expansion budget ends the walk.
    model = ProcessModel(
        states=frozenset("ABC"),
        initial_state="A",
        final_states=frozenset({"C"}),
        allowed=frozenset({("A", "A"), ("A", "B"), ("B", "A"), ("B", "C")}),
    )
    catalog = make_catalog("ABC")
    stub = LastStepStub(catalog, {
        "A": {"A": 0.5, "B": 0.4, FAIL_STATE: 0.1},
        "B": {"A": 0.5, FAIL_STATE: 0.3, "C": 0.2},
    })
    # Exact probability of ending in failure from A and from B: f = Q f + r.
    q = np.array([[0.5, 0.4], [0.5, 0.0]])
    r = np.array([0.1, 0.3])
    truth = np.linalg.solve(np.eye(2) - q, r)[0]
    limits = TraversalLimits(max_depth=60, max_breadth=2, min_probability=0.0)
    result = traverse(make_trace(catalog, ["A"]), stub, model, limits)
    assert result.explored_mass + result.pruned_mass == pytest.approx(
        1.0, abs=1e-9)
    estimate = failure_probability(result)
    assert estimate.lower <= truth <= estimate.upper


def test_frequency_oracle_lies_in_the_interval_under_the_budget(monkeypatch):
    # A window-1 model mined from a cyclic corpus, walked to depth 20 under
    # the full expansion budget and under one of 40, against the exact
    # failure probability of ``bench/checks.py``. The full budget leaves
    # only the depth limit's small prune, so the large prune of the second
    # walk is the budget's.
    checks = _bench_checks()
    rng = np.random.default_rng(0)
    walked = random_cyclic_model(rng, 6)
    catalog = make_catalog(sorted(walked.states - {FAIL_STATE}))
    corpus = walk_corpus(rng, walked, catalog, 40)
    model = mine_model(corpus)
    skeleton = checks.Skeleton(corpus)
    skeleton.check_model(model)
    counts = checks.Counts(corpus, window=1, bins=1)
    for trace in corpus:
        counts.add(trace.events, trace.outcome_label)
    classifier = FrequencyModel(catalog, window=1)
    classifier.train(corpus)
    probe = make_trace(catalog, [model.initial_state])
    truth = checks.exact_failure_probability(
        counts, skeleton, classifier.outcomes, probe.events, classifier.alpha)
    limits = TraversalLimits(max_depth=20, max_breadth=10_000,
                             min_probability=0.0)
    pruned = []
    for budget in (efp.traversal.MAX_EXPANSIONS, 40):
        monkeypatch.setattr(efp.traversal, "MAX_EXPANSIONS", budget)
        result = traverse(probe, classifier, model, limits)
        assert result.explored_mass + result.pruned_mass == pytest.approx(
            1.0, abs=1e-9)
        estimate = failure_probability(result)
        assert estimate.lower <= truth <= estimate.upper
        pruned.append(result.pruned_mass)
    assert pruned[0] < 1e-3 and pruned[1] > 0.1  # the budget cut


# -- the step cache ---------------------------------------------------------------


def cold_traverse(trace, classifier, model, limits):
    """A traversal with a copy of ``classifier``, whose step cache starts
    empty."""
    return traverse(trace, copy.deepcopy(classifier), model, limits)


@pytest.mark.parametrize("change", ["train_online", "model", "classifier"])
def test_stale_step_cache_is_not_served(change):
    rng = np.random.default_rng(7)
    model = random_cyclic_model(rng, 6)
    catalog = make_catalog(sorted(model.states - {FAIL_STATE}))
    corpus = walk_corpus(rng, model, catalog, 40)
    other_corpus = walk_corpus(rng, model, catalog, 40)
    extra = make_trace(catalog, ["s0", "s1", "failure"], instance_id="extra",
                       label=Outcome.FAIL)

    def trained(traces):
        classifier = FrequencyModel(catalog, window=3)
        classifier.train(traces)
        return classifier

    classifier = trained(corpus)
    walked, walked_model = classifier, model
    if change == "train_online":
        fresh = trained(corpus + [extra])
    elif change == "model":
        fresh = trained(corpus)
        walked_model = ProcessModel(
            states=model.states,
            initial_state=model.initial_state,
            final_states=model.final_states,
            allowed=model.allowed - {("s0", "s1")},
        )
    else:
        # Trained as often as the first, so only its identity tells them apart.
        walked, fresh = trained(other_corpus), trained(other_corpus)
        assert walked.version == classifier.version
    probe = make_trace(catalog, ["s0"], instance_id="probe")
    limits = TraversalLimits(max_depth=8)
    want = cold_traverse(probe, fresh, walked_model, limits)
    before = traverse(probe, classifier, model, limits)
    if change == "train_online":
        classifier.train_online(extra)
    got = traverse(probe, walked, walked_model, limits)
    assert before != want
    assert got == want
    assert got.paths == want.paths


def test_concurrent_traversals_share_the_step_cache_safely():
    # Four threads switch classifier and model on every traversal, so each
    # replaces a cache that another may be walking. Walks are made deep
    # enough that the threads interleave in the middle of them.
    rng = np.random.default_rng(13)
    model = random_cyclic_model(rng, 10)
    catalog, first = trained_frequency(rng, model)
    _, second = trained_frequency(rng, model)
    other_model = ProcessModel(
        states=model.states,
        initial_state=model.initial_state,
        final_states=model.final_states,
        allowed=model.allowed - {("s0", "s1")},
    )
    probes = [make_trace(catalog, [s], instance_id="probe")
              for s in sorted(model.states - model.final_states - {FAIL_STATE})]
    jobs = [(c, m, p) for c in (first, second) for m in (model, other_model)
            for p in probes]
    limits = TraversalLimits(max_depth=12, min_probability=1e-6)
    want = [cold_traverse(p, c, m, limits) for c, m, p in jobs]
    wrong = []

    def work(offset):
        for i in range(8 * len(jobs)):
            j = (offset + i) % len(jobs)
            try:
                got = traverse(jobs[j][2], jobs[j][0], jobs[j][1], limits)
            except Exception as exc:  # a thread's exception would only end it
                wrong.append((j, repr(exc)))
                continue
            if got != want[j] or got.paths != want[j].paths:
                wrong.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def recurrent_and_frequency(seed, n_states=8):
    """A random cyclic model and a frequency and a recurrent classifier
    trained on the same walks through it, with a one-step probe trace for
    every non-final state."""
    rng = np.random.default_rng(seed)
    model = random_cyclic_model(rng, n_states)
    catalog = make_catalog(sorted(model.states - {FAIL_STATE}))
    corpus = walk_corpus(rng, model, catalog, 40)
    frequency = FrequencyModel(catalog, window=3)
    frequency.train(corpus)
    recurrent = RecurrentModel(catalog, seed=seed)
    recurrent.train(corpus[:10])
    probes = [make_trace(catalog, [s], instance_id="probe")
              for s in sorted(model.states - model.final_states - {FAIL_STATE})]
    return model, frequency, recurrent, probes


def test_recurrent_nodes_are_shared_across_walks():
    model, _, recurrent, probes = recurrent_and_frequency(3)
    limits = TraversalLimits(max_depth=8, min_probability=1e-4)
    calls = []
    advance = recurrent.advance

    def counted(cursor, state):
        calls.append(state)
        return advance(cursor, state)

    recurrent.advance = counted
    first = traverse(probes[0], recurrent, model, limits)
    walked = len(calls)
    assert walked > 0
    again = traverse(probes[0], recurrent, model, limits)
    assert len(calls) == walked  # every child is linked already
    assert again == first and again.paths == first.paths
    del recurrent.advance
    assert first == cold_traverse(probes[0], recurrent, model, limits)


def test_concurrent_cold_walks_share_recurrent_and_tuple_nodes_safely():
    # Four threads walk the same two classifiers, starting together on an
    # empty cache, so they create and link the same nodes at once.
    model, frequency, recurrent, probes = recurrent_and_frequency(5, 10)
    limits = TraversalLimits(max_depth=10, min_probability=1e-5)
    jobs = [(c, p) for c in (frequency, recurrent) for p in probes]
    want = [cold_traverse(p, c, model, limits) for c, p in jobs]
    wrong = []

    def work(shared, offset, start):
        start.wait()
        for i in range(len(jobs)):
            j = (offset + i) % len(jobs)
            classifier = shared[jobs[j][0] is recurrent]
            try:
                got = traverse(jobs[j][1], classifier, model, limits)
            except Exception as exc:  # a thread's exception would only end it
                wrong.append((j, repr(exc)))
                continue
            if got != want[j] or got.paths != want[j].paths:
                wrong.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            shared = (copy.deepcopy(frequency), copy.deepcopy(recurrent))
            start = threading.Barrier(4)
            threads = [threading.Thread(target=work, args=(shared, k, start))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_step_cache_holds_no_objects_the_collector_tracks():
    # Nodes and links are tuples of atoms and arrays, which a collection
    # untracks, so a full cache adds nothing to later collections. A
    # collection untracks a tuple only once the tuples in it are untracked,
    # and it may visit a tuple before them, so it takes one collection per
    # level of nesting: a window-3 frequency node nests four, node, child,
    # context and token.
    model, frequency, recurrent, probes = recurrent_and_frequency(7)
    for classifier in (frequency, recurrent):
        for probe in probes:
            traverse(probe, classifier, model)
    for _ in range(4):
        gc.collect()
    for classifier in (frequency, recurrent):
        walker = efp.traversal._walkers[classifier]
        assert len(walker.nodes) > 10 and len(walker.links) > 10
        for table in (walker.nodes, walker.links):
            for key, value in table.items():
                assert not gc.is_tracked(key)
                assert not gc.is_tracked(value)


SMALL_CAP = 50


def test_step_cache_never_holds_more_than_node_cap(monkeypatch):
    # A new node past the cap empties the cache before it is added, also
    # in the middle of a walk, and the walk rebuilds what it needs again.
    model, frequency, recurrent, probes = recurrent_and_frequency(7)
    limits = TraversalLimits(max_depth=10, min_probability=1e-5)
    jobs = [(c, p) for c in (frequency, recurrent) for p in probes]
    want = [cold_traverse(p, c, model, limits) for c, p in jobs]
    sizes = []

    class SizedWalker(efp.traversal._Walker):
        def node(self, *args):
            node = super().node(*args)
            sizes.append(len(self.nodes))
            return node

    monkeypatch.setattr(efp.traversal, "_Walker", SizedWalker)
    monkeypatch.setattr(efp.traversal, "NODE_CAP", SMALL_CAP)
    for _ in range(2):
        for (classifier, probe), expected in zip(jobs, want):
            got = traverse(probe, classifier, model, limits)
            assert got == expected and got.paths == expected.paths
    assert max(sizes) == SMALL_CAP
    assert sizes.count(1) > 2  # more starts from empty than two new walkers


def test_concurrent_walks_empty_a_small_step_cache_safely(monkeypatch):
    # At a small cap the threads empty the cache in the middle of each
    # other's walks.
    monkeypatch.setattr(efp.traversal, "NODE_CAP", SMALL_CAP)
    test_concurrent_cold_walks_share_recurrent_and_tuple_nodes_safely()


# -- the exact oracle over a grid of limits -------------------------------------


def _bench_checks():
    """``bench/checks.py``, loaded from its file: its absorbing-chain
    oracle is computed apart from efp."""
    path = Path(__file__).resolve().parents[1] / "bench" / "checks.py"
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def data_fault_logs():
    """A 30-trace training log and 3 held-out traces of the supply-chain
    spec, each trace given a data fault with probability one half (one
    held-out trace ends, two fail)."""
    spec = default_spec(1)
    traces = inject_faults(generate(spec, 33),
                           default_fault_plan(spec, 0.5, (DATA_FAULT,)), seed=3)
    return traces[:30], traces[30:]


# (max_depth, max_breadth, min_probability): every depth limit 1, 2, 5 and
# 20, every breadth limit 1, 2 and 5, and the cutoffs 0 (at small depth),
# 1e-4 and 1e-2.
ORACLE_GRID = ((1, 5, 0.0), (2, 2, 0.0), (5, 1, 0.0), (5, 2, 1e-2),
               (20, 5, 1e-4), (20, 2, 1e-2))


@pytest.mark.parametrize("window", [1, 2, 3])
def test_every_replayed_prediction_brackets_the_exact_oracle(
        data_fault_logs, window, monkeypatch):
    # Each prediction of an online replay, with the counts as they stood,
    # against the exact failure probability of the absorbing chain, and no
    # reported path longer than the depth limit; the last setting lets
    # only a small expansion budget end the walk. Each grid setting runs
    # again without fitted bins: every finite reading (the logs hold no
    # other) then falls in bin 0, as in the oracle's one-bin counts.
    checks = _bench_checks()
    train, held = data_fault_logs
    catalog = catalog_from_traces(train + held)
    model = mine_model(train)
    runs = [(TraversalLimits(*setting), efp.traversal.MAX_EXPANSIONS, bins)
            for bins in (8, 1) for setting in ORACLE_GRID]
    runs.append((TraversalLimits(20, 5, 0.0), 40, 8))
    checked = 0
    for limits, budget, bins in runs:
        monkeypatch.setattr(efp.traversal, "MAX_EXPANSIONS", budget)
        classifier = FrequencyModel(catalog, window=window, bins=8)
        if bins > 1:
            classifier.fit_bins(train)
        classifier.train(train)
        bus = Bus()
        predictions = replay(held, classifier, model, limits, bus)
        assert bus.error_queue == []
        assert checks.check_stream(held, predictions, [], bus.instances,
                                   model.final_states) == 0
        assert all(len(path.suffix) <= limits.max_depth
                   for p in predictions for path in p.top_paths)
        checked += checks.check_oracle(range(len(predictions)), held, train,
                                       predictions, window, 1.0, bins)
    assert checked > 1000
