import numpy as np
import pytest

from efp.errors import EmptyLog, NoIntrinsicEvent, UnknownState
from efp.events import FAIL_STATE, Outcome
from efp.model import (
    ProcessModel,
    current_step,
    mine_model,
    read_model,
    write_model,
)
from efp.synthesis import default_spec, generate

from conftest import make_catalog, make_trace


def test_current_step_skips_context(order_catalog):
    trace = make_trace(order_catalog, ["A", "temp", "B", "temp", "C"],
                       payloads={"temp": (20.0,)})
    assert current_step(trace) == "C"


def test_current_step_single_event(order_catalog):
    assert current_step(make_trace(order_catalog, ["A"])) == "A"


def test_current_step_requires_intrinsic(order_catalog):
    trace = make_trace(order_catalog, ["temp"], payloads={"temp": (1.0,)})
    with pytest.raises(NoIntrinsicEvent):
        current_step(trace)


def test_mine_recovers_branching_finals(order_catalog):
    traces = [
        make_trace(order_catalog, list("ABCE"), instance_id="t1"),
        make_trace(order_catalog, list("ABCDG"), instance_id="t2"),
    ]
    model = mine_model(traces)
    assert {"A", "B", "C", "D", "E", "G", FAIL_STATE} <= model.states
    assert {("C", "D"), ("C", "E"), ("D", "G")} <= model.allowed
    assert {"E", "G", FAIL_STATE} <= model.final_states
    assert model.initial_state == "A"


def test_mine_single_trace(order_catalog):
    model = mine_model([make_trace(order_catalog, ["A"])])
    assert model.states == {"A", FAIL_STATE}
    assert model.initial_state == "A"
    assert model.final_states == {"A", FAIL_STATE}
    assert model.allowed == frozenset()


def test_mine_matches_generator_ground_truth():
    spec = default_spec(3)
    traces = generate(spec, 1000)
    model = mine_model(traces)
    assert model.allowed == spec.ground_truth_edges()
    assert model.initial_state == spec.tasks[0].name
    assert model.final_states == {spec.tasks[-1].name, FAIL_STATE}


def test_mine_failure_traces_do_not_pollute_finals(order_catalog):
    traces = [
        make_trace(order_catalog, list("ABCE"), instance_id="t1",
                   label=Outcome.END),
        make_trace(order_catalog, ["A", "B", "failure"], instance_id="t2",
                   label=Outcome.FAIL),
    ]
    model = mine_model(traces)
    assert "B" not in model.final_states
    assert model.final_states == {"E", FAIL_STATE}


def test_mine_empty_log_raises():
    with pytest.raises(EmptyLog):
        mine_model([])


def test_mine_initial_state_modal_with_lexicographic_ties(order_catalog):
    traces = [
        make_trace(order_catalog, ["B", "C"], instance_id="t1"),
        make_trace(order_catalog, ["A", "B"], instance_id="t2"),
    ]
    assert mine_model(traces).initial_state == "A"


def test_mining_is_deterministic(order_catalog):
    traces = [
        make_trace(order_catalog, list("ABCE"), instance_id="t1"),
        make_trace(order_catalog, list("ABCDG"), instance_id="t2"),
    ]
    assert mine_model(traces) == mine_model(list(traces))


def test_feasibility(order_model):
    assert "D" in order_model.successors("C")
    assert FAIL_STATE in order_model.successors("C")
    assert "G" not in order_model.successors("C")
    with pytest.raises(UnknownState):
        order_model.successors("Z")


def test_successors(order_model):
    assert order_model.successors("C") == {"D", "E", FAIL_STATE}
    assert order_model.successors("E") == frozenset()
    assert order_model.successors(FAIL_STATE) == frozenset()
    with pytest.raises(UnknownState):
        order_model.successors("Z")


def test_successor_union_identity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        names = [f"s{i}" for i in range(n)]
        edges = {
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        }
        finals = {names[-1]}
        model = ProcessModel(
            states=frozenset(names),
            initial_state=names[0],
            final_states=frozenset(finals),
            allowed=frozenset(edges),
        )
        union = set()
        for s in model.states:
            union |= {(s, t) for t in model.successors(s)}
        expected = {
            (a, b) for a, b in model.allowed if a not in model.final_states
        }
        expected |= {
            (s, FAIL_STATE) for s in model.states if s not in model.final_states
        }
        assert union == expected


def test_every_training_pair_is_feasible(order_catalog):
    traces = [
        make_trace(order_catalog, list("ABCE"), instance_id="t1"),
        make_trace(order_catalog, list("ABCDG"), instance_id="t2"),
    ]
    model = mine_model(traces)
    for trace in traces:
        states = trace.states
        for a, b in zip(states, states[1:]):
            assert b in model.successors(a)


def test_fail_state_has_no_outgoing_edges():
    with pytest.raises(ValueError):
        ProcessModel(
            states=frozenset({"A"}),
            initial_state="A",
            final_states=frozenset(),
            allowed=frozenset({(FAIL_STATE, "A")}),
        )


@pytest.mark.parametrize("initial,allowed,message", [
    ("A", {("A", "Z")}, r"edge \('A', 'Z'\) references unknown state"),
    ("Z", set(), "initial state must be a model state"),
], ids=["edge", "initial"])
def test_model_rejects_unknown_states(initial, allowed, message):
    with pytest.raises(ValueError, match=message):
        ProcessModel(
            states=frozenset({"A", "B"}),
            initial_state=initial,
            final_states=frozenset({"B"}),
            allowed=frozenset(allowed | {("A", "B")}),
        )


def test_model_file_round_trip(order_model):
    text = write_model(order_model)
    model = read_model(text)
    assert model == order_model
    assert write_model(model) == text
    assert FAIL_STATE not in text  # failure edges implicit
