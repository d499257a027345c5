"""Event model: event types, catalogs, traces, and visibility filtering.

Every other module consumes these types. Instances are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass, replace

from .errors import SchemaError, UnknownPartner, UsageError

#: Canonical identifier of the failure state. Traces never carry this name
#: directly; events of kind FAILURE map onto it.
FAIL_STATE = "q_fail"


class EventKind(enum.Enum):
    STEP = "step"
    FAILURE = "failure"
    CONTEXT = "context"


class FieldKind(enum.Enum):
    NUMERIC = "numeric"
    CATEGORICAL = "categorical"


class Visibility(enum.Enum):
    PRIVATE = "private"
    PUBLIC = "public"
    INTERACTION = "interaction"


class Outcome(enum.Enum):
    """Ground-truth (or predicted) fate of one process execution."""

    END = "end"
    FAIL = "fail"


@dataclass(frozen=True)
class EventType:
    """One kind of observable occurrence.

    ``data_schema`` is an ordered tuple of ``(field name, FieldKind)`` pairs
    describing the payload an event of this type carries.
    """

    kind: EventKind
    name: str
    data_schema: tuple[tuple[str, FieldKind], ...] = ()

    @property
    def arity(self) -> int:
        return len(self.data_schema)


#: The failure type a catalog gets when none is observed or declared.
FAILURE_TYPE = EventType(EventKind.FAILURE, "failure")


@dataclass(frozen=True)
class EventCatalog:
    """Ordered collection of event types known to a deployment.

    Ordering is load-bearing: positions define the one-hot indices used by
    the predictors, with the single failure type always first among the
    intrinsic types. The constructor normalizes the failure type to the
    front and synthesizes :data:`FAILURE_TYPE` when absent.
    """

    intrinsic: tuple[EventType, ...]
    context: tuple[EventType, ...] = ()

    def __post_init__(self):
        failures = [t for t in self.intrinsic if t.kind is EventKind.FAILURE]
        if len(failures) > 1:
            raise ValueError("catalog must contain exactly one failure type")
        fail = failures[0] if failures else FAILURE_TYPE
        steps = tuple(t for t in self.intrinsic if t.kind is EventKind.STEP)
        if any(t.kind is EventKind.CONTEXT for t in self.intrinsic):
            raise ValueError("context types do not belong in the intrinsic list")
        if any(t.kind is not EventKind.CONTEXT for t in self.context):
            raise ValueError("intrinsic types do not belong in the context list")
        names = [t.name for t in (fail,) + steps + tuple(self.context)]
        if len(names) != len(set(names)):
            raise ValueError("event type names must be unique within a catalog")
        object.__setattr__(self, "intrinsic", (fail,) + steps)
        types = self.all_types
        object.__setattr__(self, "_by_name", {t.name: t for t in types})
        object.__setattr__(
            self, "_positions", {t.name: i for i, t in enumerate(types)}
        )
        object.__setattr__(
            self, "_max_data_arity", max((t.arity for t in types), default=0)
        )

    @property
    def failure_type(self) -> EventType:
        return self.intrinsic[0]

    @property
    def steps(self) -> tuple[EventType, ...]:
        return self.intrinsic[1:]

    @property
    def all_types(self) -> tuple[EventType, ...]:
        return self.intrinsic + self.context

    @property
    def max_data_arity(self) -> int:
        return self._max_data_arity

    def lookup(self, name: str) -> EventType | None:
        return self._by_name.get(name)

    def position(self, name: str) -> int | None:
        """Index of the named type in ``all_types`` (its one-hot slot)."""
        return self._positions.get(name)


@dataclass(frozen=True)
class Event:
    """One recorded occurrence within a process execution.

    ``timestamp`` is an instant in integer milliseconds; ``payload`` values
    are floats for numeric fields and strings for categorical ones, in
    ``data_schema`` order.
    """

    event_type: EventType
    timestamp: int
    global_instance_id: str
    partner_id: str
    visibility: Visibility = Visibility.PRIVATE
    payload: tuple = ()

    def __post_init__(self):
        if not self.global_instance_id:
            raise ValueError("global_instance_id must be non-empty")
        if len(self.payload) != self.event_type.arity:
            raise ValueError(
                f"payload length {len(self.payload)} does not match schema "
                f"arity {self.event_type.arity} of {self.event_type.name!r}"
            )

    @property
    def is_intrinsic(self) -> bool:
        return self.event_type.kind is not EventKind.CONTEXT

    @property
    def state(self) -> str:
        """Automaton state this event maps onto (failure events collapse
        onto the canonical failure state)."""
        if self.event_type.kind is EventKind.FAILURE:
            return FAIL_STATE
        return self.event_type.name


@dataclass(frozen=True)
class EventTrace:
    """Timestamp-ordered events of one execution instance.

    ``outcome_label`` is ground truth used by training and evaluation;
    unlabeled traces can be predicted on but not trained on.
    ``error_index`` is evaluation-harness metadata: the position of the
    first event manifesting an injected error, if any.
    """

    instance_id: str
    events: tuple[Event, ...]
    outcome_label: Outcome | None = None
    error_index: int | None = None

    def __post_init__(self):
        last = None
        for e in self.events:
            if e.global_instance_id != self.instance_id:
                raise ValueError("all events of a trace must share instance_id")
            if last is not None and e.timestamp < last:
                raise ValueError("trace events must be timestamp-ordered")
            last = e.timestamp

    @classmethod
    def unchecked(cls, instance_id: str, events: tuple[Event, ...],
                  outcome_label: Outcome | None = None) -> "EventTrace":
        """A trace of events the caller has checked already, one at a
        time as each arrived: all carry ``instance_id`` and none precedes
        the one before it. It skips the constructor's pass over every
        event, which would make a growing trace's rebuilds quadratic."""
        trace = object.__new__(cls)
        trace.__dict__.update(instance_id=instance_id, events=events,
                              outcome_label=outcome_label, error_index=None)
        return trace

    def __len__(self) -> int:
        return len(self.events)

    @property
    def states(self) -> tuple[str, ...]:
        """Intrinsic state sequence of the trace."""
        return tuple(e.state for e in self.events if e.is_intrinsic)


@dataclass(frozen=True)
class Scenario:
    """Visibility scenario applied to a trace set before prediction.

    ``partner`` is required for the local kinds and must emit at least one
    event somewhere in the filtered trace list.
    """

    local: bool = False
    drop_context: bool = False
    partner: str | None = None

    def __post_init__(self):
        if self.local and not self.partner:
            raise UsageError("local scenarios require a partner id")

    @classmethod
    def parse(cls, text: str) -> "Scenario":
        """Parse CLI syntax: ``global``, ``local:<partner>``, ``nocontext``,
        ``nocontext-local:<partner>``."""
        head, _, partner = text.partition(":")
        if head == "global":
            return cls()
        if head == "local":
            return cls(local=True, partner=partner)
        if head == "nocontext":
            return cls(drop_context=True)
        if head == "nocontext-local":
            return cls(local=True, drop_context=True, partner=partner)
        raise UsageError(f"unknown scenario {text!r}")

    def __str__(self) -> str:
        if self.local:
            base = "nocontext-local" if self.drop_context else "local"
            return f"{base}:{self.partner}"
        return "nocontext" if self.drop_context else "global"


def catalog_of(types: Iterable[EventType]) -> EventCatalog:
    """The catalog of observed ``types``: the first type of each name, the
    first failure type first (later failure types are dropped), then step
    and context types in order of first appearance."""
    by_name: dict[str, EventType] = {}
    for et in types:
        by_name.setdefault(et.name, et)

    def of_kind(kind: EventKind) -> tuple[EventType, ...]:
        return tuple(et for et in by_name.values() if et.kind is kind)

    return EventCatalog(
        intrinsic=of_kind(EventKind.FAILURE)[:1] + of_kind(EventKind.STEP),
        context=of_kind(EventKind.CONTEXT),
    )


def catalog_from_traces(traces: list[EventTrace]) -> EventCatalog:
    """The catalog (see :func:`catalog_of`) of every event type observed in
    the traces, deterministic for a fixed trace list."""
    return catalog_of(e.event_type for t in traces for e in t.events)


def merge_catalogs(base: EventCatalog, extra: EventCatalog) -> EventCatalog:
    """``base`` followed by the types only ``extra`` has, so ``base``'s
    one-hot positions are kept; ``base`` itself when ``extra`` adds none.

    A name both catalogs know must denote the same type (kind and payload
    schema), and both must share the failure type; ``SchemaError``
    otherwise.
    """
    if extra.failure_type != base.failure_type:
        raise SchemaError(
            f"failure type {extra.failure_type.name!r} conflicts with "
            f"{base.failure_type.name!r}"
        )
    for et in extra.all_types:
        known = base.lookup(et.name)
        if known is not None and known != et:
            raise SchemaError(
                f"event type {et.name!r} has conflicting definitions"
            )
    if all(base.lookup(et.name) is not None for et in extra.all_types):
        return base
    return catalog_of(base.all_types + extra.all_types)


def _keep(event: Event, scenario: Scenario) -> bool:
    if scenario.drop_context and event.event_type.kind is EventKind.CONTEXT:
        return False
    if scenario.local:
        return event.partner_id == scenario.partner or event.visibility in (
            Visibility.PUBLIC,
            Visibility.INTERACTION,
        )
    return True


def filter_visibility(
    traces: list[EventTrace], scenario: Scenario
) -> list[EventTrace]:
    """Restrict traces to what one observer is allowed to see.

    The global scenario is the identity. Local scenarios keep a partner's
    own events plus everything public or part of an interaction; no-context
    variants additionally drop all context events. Event order, outcome
    labels, and trace count are preserved; ``error_index`` is remapped to
    the filtered positions (the last kept event at or before the original
    error position).
    """
    if scenario.local:
        seen = any(
            e.partner_id == scenario.partner for t in traces for e in t.events
        )
        if not seen:
            raise UnknownPartner(f"partner {scenario.partner!r} emits no event")
    if not scenario.local and not scenario.drop_context:
        return list(traces)

    out = []
    for trace in traces:
        kept = []
        new_error = None
        for i, event in enumerate(trace.events):
            if _keep(event, scenario):
                kept.append(event)
            if trace.error_index is not None and i == trace.error_index:
                new_error = max(len(kept) - 1, 0)
        out.append(
            replace(
                trace,
                events=tuple(kept),
                error_index=new_error if trace.error_index is not None else None,
            )
        )
    return out
