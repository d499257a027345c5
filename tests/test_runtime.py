import hashlib
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import efp.runtime
from efp.errors import DuplicateInstance, QueueFull
from efp.events import FAIL_STATE, Event, EventTrace, Outcome, catalog_from_traces
from efp.model import ProcessModel, mine_model
from efp.predictors import FrequencyModel
from efp.recurrent import MAX_SEQUENCE, RecurrentModel, encode_trace
from efp.runtime import Bus, replay
from efp.synthesis import default_fault_plan, default_spec, generate, inject_faults
from efp.traversal import TraversalLimits

from conftest import (
    SpiedStart,
    StubClassifier,
    get_flat_params,
    make_catalog,
    make_trace,
)


def _event(catalog, name, ts, instance, payload=()):
    return Event(catalog.lookup(name), ts, instance, "p0", payload=payload)


class Recorder(StubClassifier):
    """Uniform predictions; keeps every trace it is trained on."""

    def __init__(self, catalog):
        super().__init__(catalog, {})
        self.trained = []

    def train_online(self, trace):
        self.trained.append(trace)


@pytest.fixture
def chain_setup(order_catalog):
    """A -> B -> C -> E model plus a stub that always continues."""
    traces = [
        make_trace(order_catalog, ["A", "B", "C", "E"], instance_id=f"t{i}",
                   label=Outcome.END)
        for i in range(3)
    ]
    model = mine_model(traces)
    stub = StubClassifier(order_catalog, {
        ("A",): {"B": 0.95, FAIL_STATE: 0.05},
        ("A", "B"): {"C": 0.95, FAIL_STATE: 0.05},
        ("A", "B", "C"): {"E": 0.95, FAIL_STATE: 0.05},
    })
    return model, stub


def test_start_instance_allocates_queue(order_catalog, chain_setup):
    model, stub = chain_setup
    bus = Bus()
    bus.start_instance("i1", stub, model)
    assert len(bus.queues) == 1
    with pytest.raises(DuplicateInstance):
        bus.start_instance("i1", stub, model)


def test_fifo_delivery(order_catalog, chain_setup):
    model, stub = chain_setup
    bus = Bus()
    instance = bus.start_instance("i1", stub, model)
    for i in range(3):
        bus.publish(_event(order_catalog, "A", 1_000 * i, "i1"))
    assert [e.timestamp for e in instance.events] == [0, 1_000, 2_000]
    assert [p.timestamp for p in bus.prediction_queue] == [0, 1_000, 2_000]


def test_publish_before_start_instance_is_delivered_at_start(order_catalog,
                                                             chain_setup):
    model, stub = chain_setup
    bus = Bus()
    bus.publish(_event(order_catalog, "A", 0, "ghost"))
    assert len(bus.queues["ghost"]) == 1  # auto-allocated, event retained
    assert bus.prediction_queue == []
    instance = bus.start_instance("ghost", stub, model)
    # Delivered and predicted by the start itself, with no later publish.
    assert [e.state for e in instance.events] == ["A"]
    assert not bus.queues["ghost"]
    assert [p.at_event_index for p in bus.prediction_queue] == [0]
    bus.publish(_event(order_catalog, "B", 1, "ghost"))
    assert [e.state for e in instance.events] == ["A", "B"]  # exactly once


def test_queue_isolation(order_catalog, chain_setup):
    model, stub = chain_setup
    bus = Bus()
    a = bus.start_instance("ia", stub, model)
    b = bus.start_instance("ib", stub, model)
    bus.publish(_event(order_catalog, "A", 0, "ia"))
    bus.publish(_event(order_catalog, "A", 0, "ib"))
    bus.publish(_event(order_catalog, "B", 1, "ia"))
    assert [e.state for e in a.events] == ["A", "B"]
    assert [e.state for e in b.events] == ["A"]


def test_concurrent_producers_preserve_per_producer_order(order_catalog,
                                                         chain_setup):
    model, stub = chain_setup
    bus = Bus()
    received = {
        f"i{p}": bus.start_instance(f"i{p}", stub, model).events
        for p in range(4)
    }

    def produce(p):
        for i in range(250):
            bus.publish(_event(order_catalog, "A", i, f"i{p}"))

    threads = [threading.Thread(target=produce, args=(p,)) for p in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sum(len(v) for v in received.values()) == 1000
    for p in range(4):
        assert [e.timestamp for e in received[f"i{p}"]] == list(range(250))


def test_context_before_intrinsic_yields_no_prediction(order_catalog,
                                                       chain_setup):
    model, stub = chain_setup
    bus = Bus()
    instance = bus.start_instance("i1", stub, model)
    out = instance.on_event(
        Event(order_catalog.lookup("temp"), 0, "i1", "p0", payload=(1.0,))
    )
    assert out is None
    assert bus.prediction_queue == []


def test_one_prediction_per_event_after_first_intrinsic(order_catalog,
                                                        chain_setup):
    model, stub = chain_setup
    bus = Bus()
    bus.start_instance("i1", stub, model)
    names = ["A", "temp", "B", "C", "E"]
    for i, name in enumerate(names):
        payload = (1.0,) if name == "temp" else ()
        bus.publish(_event(order_catalog, name, 1_000 * i, "i1", payload))
    assert len(bus.prediction_queue) == 5
    assert [p.at_event_index for p in bus.prediction_queue] == [0, 1, 2, 3, 4]


def test_close_trains_exactly_once_with_full_trace(order_catalog, chain_setup):
    model, _ = chain_setup
    recorder = Recorder(order_catalog)
    bus = Bus()
    bus.start_instance("i1", recorder, model)
    for i, name in enumerate(["A", "B", "C", "E"]):
        bus.publish(_event(order_catalog, name, 1_000 * i, "i1"))
    assert len(recorder.trained) == 1
    trained = recorder.trained[0]
    assert trained.outcome_label is Outcome.END
    assert [e.state for e in trained.events] == ["A", "B", "C", "E"]


def test_failure_event_closes_with_fail_label(order_catalog, chain_setup):
    model, _ = chain_setup
    recorder = Recorder(order_catalog)
    bus = Bus()
    instance = bus.start_instance("i1", recorder, model)
    for i, name in enumerate(["A", "B", "failure"]):
        bus.publish(_event(order_catalog, name, 1_000 * i, "i1"))
    assert instance.closed
    assert recorder.trained[0].outcome_label is Outcome.FAIL
    # prediction at the failure event reports certainty
    assert bus.prediction_queue[-1].p_fail == 1.0


def test_events_after_the_close_are_ignored(order_catalog, chain_setup):
    model, _ = chain_setup
    recorder = Recorder(order_catalog)
    bus = Bus()
    instance = bus.start_instance("i1", recorder, model)
    for i, name in enumerate(["A", "B", "C", "E"]):
        bus.publish(_event(order_catalog, name, 1_000 * i, "i1"))
    assert instance.closed and instance.label is Outcome.END
    predictions = list(bus.prediction_queue)
    for i, name in enumerate(["B", "failure"]):
        bus.publish(_event(order_catalog, name, 10_000 + i, "i1"))
    assert bus.prediction_queue == predictions
    assert bus.error_queue == []
    assert [e.state for e in instance.events] == ["A", "B", "C", "E"]
    assert instance.label is Outcome.END
    assert len(recorder.trained) == 1


def test_late_event_is_refused_and_the_instance_carries_on(order_catalog,
                                                           chain_setup):
    model, stub = chain_setup
    bus = Bus()
    instance = bus.start_instance("i1", stub, model)
    bus.publish(_event(order_catalog, "A", 1_000, "i1"))
    bus.publish(_event(order_catalog, "B", 999, "i1"))  # 1 ms late
    bus.publish(_event(order_catalog, "B", 1_000, "i1"))  # equal: accepted
    bus.publish(_event(order_catalog, "C", 2_000, "i1"))
    assert [e.state for e in instance.events] == ["A", "B", "C"]
    [error] = bus.error_queue
    assert (error.at_event_index, error.stage) == (1, "prediction")
    assert "timestamp-ordered" in error.message
    assert [p.at_event_index for p in bus.prediction_queue] == [0, 1, 2]
    assert not instance.closed


def _publish_late(late):
    """Publish ``case-00025`` of a generated faulty log with event ``late``
    moved to 1 ms before the event that precedes it."""
    spec = default_spec(1)
    traces = inject_faults(generate(spec, 30), default_fault_plan(spec, 0.5),
                           seed=2)
    classifier = FrequencyModel(catalog_from_traces(traces))
    classifier.fit_bins(traces[:20])
    classifier.train(traces[:20])
    model = mine_model(traces)
    [trace] = [t for t in traces if t.instance_id == "case-00025"]
    events = list(trace.events)
    events[late] = replace(events[late], timestamp=events[late - 1].timestamp - 1)
    assert len(events) == 68

    bus = Bus()
    instance = bus.start_instance(trace.instance_id, classifier, model)
    for event in events:
        bus.publish(event)
    [error] = bus.error_queue
    assert (error.at_event_index, error.stage) == (late, "prediction")
    assert len(bus.prediction_queue) == 67
    assert instance.closed and instance.label is trace.outcome_label
    assert classifier.trained_traces == 21
    assert instance.events == events[:late] + events[late + 1:]
    return trace, instance


def test_late_event_in_a_generated_instance_costs_one_error():
    # One event 1 ms out of order used to turn every later prediction of
    # its instance into an error, and the instance was never trained on.
    _publish_late(5)


def test_late_closing_event_still_closes_its_instance():
    # The refused ``close_order`` closes, labels and trains the instance.
    trace, instance = _publish_late(67)
    assert trace.events[67].state == "close_order"
    assert instance.label is Outcome.END
    assert instance.closed_at == 67


def test_late_failure_event_closes_as_failed(order_catalog, chain_setup):
    model, _ = chain_setup
    recorder = Recorder(order_catalog)
    bus = Bus()
    instance = bus.start_instance("i1", recorder, model)
    for name, ts in (("A", 0), ("B", 1_000), ("failure", 999)):
        bus.publish(_event(order_catalog, name, ts, "i1"))
    assert instance.closed_at == 2 and instance.label is Outcome.FAIL
    [error] = bus.error_queue
    assert (error.at_event_index, error.stage) == (2, "prediction")
    [trained] = recorder.trained
    assert trained.states == ("A", "B")
    assert trained.outcome_label is Outcome.FAIL


class CountedId(str):
    """An instance id that counts how often it is compared."""

    compared = 0
    __hash__ = str.__hash__

    def __eq__(self, other):
        CountedId.compared += 1
        return str.__eq__(self, other)

    def __ne__(self, other):
        CountedId.compared += 1
        return str.__ne__(self, other)


def test_a_publish_checks_only_the_new_event():
    # Rebuilding the running trace used to check the instance id and the
    # order of every earlier event again, on every event.
    spec = default_spec(1)
    traces = generate(spec, 12)
    classifier = FrequencyModel(catalog_from_traces(traces))
    classifier.fit_bins(traces[:10])
    classifier.train(traces[:10])
    model = mine_model(traces[:10])
    trace = max(traces[10:], key=len)
    assert len(trace) > 40
    instance_id = CountedId(trace.instance_id)
    bus = Bus()
    instance = bus.start_instance(instance_id, classifier, model)
    compared = []
    for event in trace.events:
        CountedId.compared = 0
        bus.publish(replace(event, global_instance_id=instance_id))
        compared.append(CountedId.compared)
    assert bus.error_queue == [] and instance.closed
    assert len(bus.prediction_queue) == len(trace)
    assert compared == [1] * len(trace)  # the new event's id, once
    assert instance.trace == EventTrace(
        trace.instance_id, tuple(instance.events), trace.outcome_label)


def test_an_event_of_another_instance_is_refused(order_catalog, chain_setup):
    model, stub = chain_setup
    bus = Bus()
    instance = bus.start_instance("i1", stub, model)
    instance.on_event(_event(order_catalog, "A", 0, "i1"))
    assert instance.on_event(_event(order_catalog, "E", 1, "i2")) is None
    instance.on_event(_event(order_catalog, "B", 2, "i1"))
    assert [e.state for e in instance.events] == ["A", "B"]
    assert not instance.closed
    [error] = bus.error_queue
    assert (error.at_event_index, error.stage) == (1, "prediction")
    assert "'i2'" in error.message and "share instance_id" in error.message
    assert [p.at_event_index for p in bus.prediction_queue] == [0, 1]


def test_classifier_failure_publishes_error_and_keeps_instance(order_catalog,
                                                               chain_setup):
    model, _ = chain_setup

    class Exploding(StubClassifier):
        def start(self, trace):
            raise RuntimeError("boom")

        def train_online(self, trace):
            pass

    bus = Bus()
    instance = bus.start_instance("i1", Exploding(order_catalog, {}), model)
    bus.publish(_event(order_catalog, "A", 0, "i1"))
    assert len(bus.error_queue) == 1
    assert not instance.closed
    bus.publish(_event(order_catalog, "B", 1, "i1"))
    assert len(bus.error_queue) == 2


def test_training_error_on_close_is_published_not_raised(order_catalog):
    # The classifier's catalog lacks C, the step that closes the instance.
    partial = make_catalog(["A", "B"])
    classifier = FrequencyModel(partial)
    classifier.train([make_trace(partial, ["A", "B"], label=Outcome.END)])
    model = ProcessModel(
        states=frozenset("ABC"),
        initial_state="A",
        final_states=frozenset({"C"}),
        allowed=frozenset({("A", "B"), ("B", "C")}),
    )
    bus = Bus()
    instance = bus.start_instance("i1", classifier, model)
    for i, name in enumerate("ABC"):
        bus.publish(_event(order_catalog, name, 1_000 * i, "i1"))
    assert instance.closed and instance.label is Outcome.END
    assert [e.at_event_index for e in bus.error_queue] == [2]
    assert "'C' not in catalog" in bus.error_queue[0].message


def test_diverged_classifier_publishes_error_not_fallback(order_catalog,
                                                          chain_setup):
    model, _ = chain_setup

    class Diverged(StubClassifier):
        """Every prediction is NaN, as from a model whose weights blew up."""

        def _prediction(self, states):
            return np.full(len(self.outcomes), np.nan)

    bus = Bus()
    bus.start_instance("i1", Diverged(order_catalog, {}), model)
    bus.publish(_event(order_catalog, "A", 0, "i1"))
    assert [e.at_event_index for e in bus.error_queue] == [0]
    assert "probability distribution" in bus.error_queue[0].message
    # Not a prediction from a uniform split over the feasible successors.
    assert not bus.prediction_queue


def test_backpressure_blocks_publisher_until_drained(order_catalog,
                                                     chain_setup):
    model, stub = chain_setup
    bus = Bus(capacity=3)
    for i in range(3):
        bus.publish(_event(order_catalog, "A", i, "i1"))
    unblocked = threading.Event()

    def publish_fourth():
        bus.publish(_event(order_catalog, "A", 3, "i1"))
        unblocked.set()

    t = threading.Thread(target=publish_fourth, daemon=True)
    t.start()
    time.sleep(0.05)
    assert not unblocked.is_set()  # queue full, publisher blocked
    instance = bus.start_instance("i1", stub, model)  # drains the queue
    t.join(timeout=2)
    assert unblocked.is_set()
    assert [e.timestamp for e in instance.events] == [0, 1, 2, 3]


def test_publisher_waits_on_the_full_queue_of_a_started_instance(
        order_catalog, chain_setup):
    # Thread A's first event blocks inside dispatch; thread B fills the
    # queue behind it and then waits, with no bound, until A drains it.
    model, _ = chain_setup
    entered, release = threading.Event(), threading.Event()

    class Gated(StubClassifier):
        def start(self, trace):
            entered.set()
            release.wait(timeout=10)
            return super().start(trace)

    bus = Bus(capacity=2)
    instance = bus.start_instance("i1", Gated(order_catalog, {}), model)
    a = threading.Thread(target=bus.publish, daemon=True,
                         args=(_event(order_catalog, "A", 0, "i1"),))
    a.start()
    assert entered.wait(timeout=5)

    def publish_three():
        for i, name in enumerate("BCD", 1):
            bus.publish(_event(order_catalog, name, i, "i1"))

    b = threading.Thread(target=publish_three, daemon=True)
    b.start()
    time.sleep(0.1)
    assert b.is_alive() and a.is_alive()
    assert len(bus.queues["i1"]) == 2
    release.set()
    a.join(timeout=5)
    b.join(timeout=5)
    assert not a.is_alive() and not b.is_alive()
    assert [e.state for e in instance.events] == ["A", "B", "C", "D"]
    assert [e.timestamp for e in instance.events] == [0, 1, 2, 3]


def test_publisher_on_an_unstarted_full_queue_gets_an_error(
        order_catalog, chain_setup, monkeypatch):
    # One thread fills the queue of an instance that has not started: no
    # other thread can start it, so the wait is bounded and ends in an error.
    model, stub = chain_setup
    monkeypatch.setattr(efp.runtime, "UNSTARTED_WAIT_SECONDS", 0.2)
    bus = Bus(capacity=3)
    raised = []

    def publish_four():
        try:
            for i in range(4):
                bus.publish(_event(order_catalog, "A", i, "i1"))
        except QueueFull as exc:
            raised.append(exc)

    began = time.monotonic()
    t = threading.Thread(target=publish_four, daemon=True)
    t.start()
    t.join(timeout=5)
    assert not t.is_alive()
    assert time.monotonic() - began >= 0.2
    assert len(raised) == 1 and "'i1'" in str(raised[0])
    assert len(bus.queues["i1"]) == 3
    instance = bus.start_instance("i1", stub, model)
    assert [e.timestamp for e in instance.events] == [0, 1, 2]


@pytest.mark.parametrize("capacity", [0, -1])
def test_bus_rejects_capacity_below_one(capacity):
    # A queue of capacity 0 would block every publish forever.
    with pytest.raises(ValueError, match="capacity must be at least 1"):
        Bus(capacity=capacity)


def test_replay_emits_monotone_stream(order_catalog):
    corpus = [
        make_trace(order_catalog, ["A", "B", "C", "E"], instance_id=f"t{i}",
                   label=Outcome.END)
        for i in range(30)
    ]
    model = mine_model(corpus)
    classifier = FrequencyModel(order_catalog, alpha=0.1)
    classifier.train(corpus)
    stream = replay(
        [make_trace(order_catalog, ["A", "B", "C", "E"], instance_id="probe")],
        classifier, model, TraversalLimits(),
    )
    assert len(stream) == 4
    assert all(p.p_fail <= 0.5 for p in stream)
    line = stream[0].line()
    assert line.count("\t") == 4
    assert line.startswith("probe\t0\t")


def test_replay_stream_is_pinned_bit_for_bit():
    # The run goldens print four decimals; this pins every bit of each
    # prediction and its top paths. Digest written with numpy 2.4.6.
    spec = default_spec(1)
    traces = inject_faults(generate(spec, 36), default_fault_plan(spec, 0.5),
                           seed=2)
    classifier = FrequencyModel(catalog_from_traces(traces))
    classifier.fit_bins(traces[:24])
    classifier.train(traces[:24])
    stream = replay(traces[24:], classifier, mine_model(traces[:24]))
    digest = hashlib.sha256()
    for p in stream:
        digest.update(repr((
            p.instance_id, p.at_event_index,
            p.p_fail.hex(), p.lower.hex(), p.upper.hex(),
            [(t.suffix, t.probability.hex(), t.outcome.value)
             for t in p.top_paths],
        )).encode())
    assert len(stream) == 705
    assert digest.hexdigest() == (
        "7fbcedb5afe73a70232a02dfcb84021fac9273a73a339ae3140936cdd0885fcf")


class FullStartRecurrent(RecurrentModel):
    """The recurrent classifier with a ``start`` that runs the full window
    from zero on every call."""

    def start(self, trace):
        self._check(trace.events)
        rows = encode_trace(trace, self.catalog)[-MAX_SEQUENCE:]
        return self._forward_rows(rows)[-1]


def _round_robin(factory):
    """Replay six generated instances through one bus, three live at a
    time and one event of each in turn, the next starting where one
    closes; one event comes late and one instance is handed an event of
    another. Returns the classifier ``factory`` built and the bus."""
    spec = default_spec(1)
    traces = inject_faults(generate(spec, 12), default_fault_plan(spec, 0.5),
                           seed=2)
    classifier = factory(catalog_from_traces(traces), seed=4)
    classifier.train(traces[:2])
    model = mine_model(traces)
    streams = [(t.instance_id, list(t.events)) for t in traces[6:]]
    late = streams[1][1]
    late[12] = replace(late[12], timestamp=late[11].timestamp - 1)
    foreign = streams[0][1][0]

    bus = Bus()
    pending, running = list(streams), []
    published = 0
    while pending or running:
        while pending and len(running) < 3:
            instance_id, events = pending.pop(0)
            bus.start_instance(instance_id, classifier, model)
            running.append((instance_id, iter(events)))
        for item in list(running):
            event = next(item[1], None)
            if event is None:
                running.remove(item)
                continue
            bus.publish(event)
            published += 1
            if published == 30:
                bus.instances[streams[1][0]].on_event(foreign)
    return classifier, bus


def test_stepped_recurrent_start_keeps_the_stream_bit_for_bit():
    spied, bus = _round_robin(SpiedStart)
    full, full_bus = _round_robin(FullStartRecurrent)

    def readings(bus):
        return [(p.instance_id, p.at_event_index, p.p_fail.hex(), p.lower.hex(),
                 p.upper.hex(), [(t.suffix, t.probability.hex(), t.outcome)
                                 for t in p.top_paths])
                for p in bus.prediction_queue]

    assert readings(bus) == readings(full_bus)
    assert bus.error_queue == full_bus.error_queue
    assert [e.stage for e in bus.error_queue] == ["prediction"] * 2
    assert all(instance.closed for instance in bus.instances.values())
    assert get_flat_params(spied).tobytes() == get_flat_params(full).tobytes()

    # A full forward only on an instance's first start, after training
    # and past MAX_SEQUENCE; every other start steps from the last one.
    last, reasons = {}, set()
    for instance_id, n, version, was_full in spied.starts:
        prev = last.get(instance_id)
        reason = ("first" if prev is None else "version" if prev[1] != version
                  else "window" if n > MAX_SEQUENCE else None)
        assert was_full == (reason is not None), (instance_id, n)
        assert reason is not None or prev[0] == n - 1
        reasons.add(reason)
        last[instance_id] = (n, version)
    assert reasons == {"first", "version", "window", None}
    assert spied._started == {}
