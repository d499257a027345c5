"""In-process event bus with one queue per process execution and one
failure-prediction component per live instance.

The bus is a deterministic stand-in for a message broker: publishers
append to per-instance bounded queues, and each queue has one consumer,
the instance's ``EfpInstance``, which sees every event exactly once in
publish order. Events published before ``start_instance`` wait in their
queue and are delivered when the instance starts. A publisher waits on a
full queue until it drains; only ``start_instance`` drains the queue of an
instance that has not started, so that wait is bounded by
``UNSTARTED_WAIT_SECONDS`` and ends in ``QueueFull``. ``PredictionEvent``s
land on a shared outgoing queue. Publishing is thread-safe; each instance's
events are dispatched strictly sequentially.

An instance closes on its first intrinsic event in one of the model's
final states. The failure state is one of them: reaching it labels the
trace ``Outcome.FAIL``, any other final state ``Outcome.END``. An event
older than the instance's last accepted event is refused with an
``ErrorEvent`` and the instance carries on without it; a refused closing
event still closes and labels the instance, on the trace accepted so far.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from .errors import DuplicateInstance, QueueFull, UsageError
from .events import FAIL_STATE, Event, EventTrace, Outcome
from .model import ProcessModel
from .predictors import Classifier
from .traversal import (
    OutcomePath,
    TraversalLimits,
    failure_probability,
    traverse,
)

DEFAULT_QUEUE_CAPACITY = 65536
TOP_PATHS = 5
# Bound on a publish's wait on the full queue of an instance that has not
# started (see ``Bus.publish``).
UNSTARTED_WAIT_SECONDS = 10.0


@dataclass(frozen=True)
class PredictionEvent:
    """Outgoing prediction for one instance after one observed event."""

    instance_id: str
    at_event_index: int
    p_fail: float
    lower: float
    upper: float
    top_paths: tuple[OutcomePath, ...]
    timestamp: int

    def line(self) -> str:
        return (
            f"{self.instance_id}\t{self.at_event_index}\t{self.p_fail:.4f}"
            f"\t{self.lower:.4f}\t{self.upper:.4f}"
        )


@dataclass(frozen=True)
class ErrorEvent:
    """Published when the classifier raised or a late event, or one of
    another instance, was refused: instead of a prediction (``stage``
    ``"prediction"``), or when training on a closed instance's trace
    failed (``stage`` ``"training"``)."""

    instance_id: str
    at_event_index: int
    message: str
    stage: str


class EfpInstance:
    """Failure predictor bound to one process execution.

    Appends every observed event to the running trace, emits one
    prediction per event once an intrinsic event exists, and closes the
    instance (training the classifier on the completed labeled trace)
    when an intrinsic event reaches a final state. A late event is
    refused (but still closes the instance if it is a closing event), so
    is an event of another instance, and events after the close are
    ignored. Each event is checked once, as it arrives, so the running
    trace is rebuilt for each prediction without checking it again.
    """

    def __init__(self, bus, instance_id, classifier, model, limits):
        self.bus = bus
        self.instance_id = instance_id
        self.classifier = classifier
        self.model = model
        self.limits = limits
        self.events: list[Event] = []
        self.seen_intrinsic = False
        # Index of the event that closed the instance: a refused late
        # closing event keeps the index it would have taken.
        self.closed_at: int | None = None
        self.label: Outcome | None = None

    @property
    def closed(self) -> bool:
        return self.closed_at is not None

    @property
    def trace(self) -> EventTrace:
        # ``on_event`` checked each event as it arrived.
        return EventTrace.unchecked(
            self.instance_id, tuple(self.events), self.label
        )

    def on_event(self, event: Event) -> PredictionEvent | None:
        if self.closed_at is not None:
            return None
        index = len(self.events)
        if event.global_instance_id != self.instance_id:
            self.bus.error_queue.append(ErrorEvent(
                self.instance_id, index,
                f"event of instance {event.global_instance_id!r} refused: "
                "all events of a trace must share instance_id", "prediction",
            ))
            return None
        late = index > 0 and event.timestamp < self.events[-1].timestamp
        if late:
            self.bus.error_queue.append(ErrorEvent(
                self.instance_id, index,
                f"event at {event.timestamp} ms precedes the last accepted one "
                f"at {self.events[-1].timestamp} ms: trace events must be "
                "timestamp-ordered", "prediction",
            ))
        else:
            self.events.append(event)
            self.seen_intrinsic = self.seen_intrinsic or event.is_intrinsic

        prediction = None
        if self.seen_intrinsic and not late:
            try:
                result = traverse(
                    self.trace, self.classifier, self.model, self.limits
                )
            except Exception as exc:  # classifier failures keep the instance alive
                self.bus.error_queue.append(
                    ErrorEvent(self.instance_id, index, str(exc), "prediction")
                )
            else:
                estimate = failure_probability(result)
                prediction = PredictionEvent(
                    instance_id=self.instance_id,
                    at_event_index=index,
                    p_fail=estimate.p_fail,
                    lower=estimate.lower,
                    upper=estimate.upper,
                    top_paths=result.top_paths(TOP_PATHS),
                    timestamp=event.timestamp,
                )
                self.bus.prediction_queue.append(prediction)

        if event.is_intrinsic and event.state in self.model.final_states:
            self.closed_at = index
            self.label = Outcome.FAIL if event.state == FAIL_STATE else Outcome.END
            try:
                self.classifier.train_online(self.trace)
            except Exception as exc:  # the instance stays closed with its label
                self.bus.error_queue.append(
                    ErrorEvent(self.instance_id, index, str(exc), "training")
                )
        return prediction


class Bus:
    """Per-instance queues, each consumed by its instance's EFP component,
    and the outgoing prediction and error streams."""

    def __init__(self, capacity: int = DEFAULT_QUEUE_CAPACITY):
        if capacity < 1:
            raise UsageError(f"capacity must be at least 1, got {capacity}")
        self.capacity = capacity
        self.queues: dict[str, deque] = {}
        self.instances: dict[str, EfpInstance] = {}
        self.prediction_queue: list[PredictionEvent] = []
        self.error_queue: list[ErrorEvent] = []
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._dispatching: set[str] = set()

    def start_instance(
        self,
        instance_id: str,
        classifier: Classifier,
        model: ProcessModel,
        limits: TraversalLimits = TraversalLimits(),
    ) -> EfpInstance:
        """Attach a fresh EFP component to the instance queue (allocating
        it if need be) and deliver the events already published to it,
        which also wakes a publisher blocked on that full queue."""
        with self._lock:
            if instance_id in self.instances:
                raise DuplicateInstance(
                    f"instance {instance_id!r} already started on this bus")
            instance = EfpInstance(self, instance_id, classifier, model, limits)
            self.instances[instance_id] = instance
            self.queues.setdefault(instance_id, deque())
            self._drain_locked(instance_id)
        return instance

    def publish(self, event: Event) -> None:
        """Append an event to its instance queue and dispatch it.

        Queues are created on first publish. Dispatch happens inline while
        holding the per-queue dispatch flag, so the instance sees the events
        of its queue sequentially and exactly once, even with concurrent
        publishers. Until the instance starts, its events stay queued.

        On a full queue the publisher waits until it drains. While the
        instance has not started, that wait ends after
        ``UNSTARTED_WAIT_SECONDS`` with ``QueueFull`` and the event is not
        queued; once ``start_instance`` runs, it is unbounded.
        """
        instance_id = event.global_instance_id
        with self._not_full:
            queue = self.queues.setdefault(instance_id, deque())
            if len(queue) >= self.capacity and not self._not_full.wait_for(
                lambda: len(queue) < self.capacity or instance_id in self.instances,
                UNSTARTED_WAIT_SECONDS,
            ):
                raise QueueFull(
                    f"queue of instance {instance_id!r} stayed full for "
                    f"{UNSTARTED_WAIT_SECONDS} s and the instance has not started"
                )
            while len(queue) >= self.capacity:
                self._not_full.wait()
            queue.append(event)
            self._drain_locked(instance_id)

    def _drain_locked(self, instance_id: str) -> None:
        instance = self.instances.get(instance_id)
        if instance is None or instance_id in self._dispatching:
            return  # not started yet, or another thread is delivering
        self._dispatching.add(instance_id)
        queue = self.queues[instance_id]
        try:
            while queue:
                item = queue.popleft()
                self._not_full.notify_all()
                self._lock.release()
                try:
                    instance.on_event(item)
                finally:
                    self._lock.acquire()
        finally:
            self._dispatching.discard(instance_id)


def replay(
    traces: list[EventTrace],
    classifier: Classifier,
    model: ProcessModel,
    limits: TraversalLimits = TraversalLimits(),
    bus: Bus | None = None,
) -> list[PredictionEvent]:
    """Feed recorded traces through the bus event by event.

    Instances are started in trace order; the classifier is trained online
    as instances close, so later traces benefit from earlier ones. Returns
    the full prediction stream.
    """
    bus = bus or Bus()
    for trace in traces:
        bus.start_instance(trace.instance_id, classifier, model, limits)
        for event in trace.events:
            bus.publish(event)
    return list(bus.prediction_queue)
