"""Synthetic multi-partner collaboration generator and fault injector.

A collaboration spec describes an ordered backbone of tasks distributed
over partners: plain tasks emit one intrinsic event, interactions emit a
consistent pair of events (one per side, same message payload), and
context sources probabilistically attach sensor readings to steps. Event
types come from the spec's own catalog. The bundled default spec models a
six-partner supply chain with 48 tasks, 15 of which are interactions.

Fault injection rewrites a configurable fraction of generated traces with
one of three fault shapes: a diverted step sequence, an inserted alarm
reading, or a context source's reading shifted out of its normal range.
Both context faults hold a :class:`ContextSource` (the alarm's own, or the
spec's) and build their readings from it, as the spec's catalog builds
its context types. Every injected trace ends in a single failure event
placed at least two steps after the error manifests, so early-warning
behavior is measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DisconnectedSpec, PlanMismatch, SpecFormatError, UsageError
from .events import (
    FAILURE_TYPE,
    Event,
    EventCatalog,
    EventKind,
    EventTrace,
    EventType,
    FieldKind,
    Outcome,
    Visibility,
)

BASE_TIMESTAMP = 1_609_459_200_000  # 2021-01-01T00:00:00Z
INSTANCE_SPACING_MS = 3_600_000

STEP_FAULT = "step"
EVENT_FAULT = "event"
DATA_FAULT = "data"
FAULT_TYPES = (STEP_FAULT, EVENT_FAULT, DATA_FAULT)


@dataclass(frozen=True)
class Dist:
    """Payload value distribution.

    Kinds: ``uniform:a,b`` and ``normal:mu,sigma`` (numeric), ``choice``
    over string options and ``tag`` (per-instance identifier) for
    categorical fields, and ``minus_uniform:ref,a,b`` for a numeric value
    constrained below an earlier field (value = ref - U(a, b)). Parameters
    are finite, a uniform range ``b - a`` is finite and non-negative, and a
    normal sigma is non-negative.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0
    options: tuple[str, ...] = ()
    ref: str = ""

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise SpecFormatError(f"{self.kind} parameters must be finite")
        if self.kind.endswith("uniform") and not 0 <= self.b - self.a < np.inf:
            raise SpecFormatError(f"{self.kind} range {self.a:g},{self.b:g} "
                                  "must be finite and not descend")
        if self.kind == "normal" and self.b < 0:
            raise SpecFormatError("normal sigma must be non-negative")

    @property
    def field_kind(self) -> FieldKind:
        if self.kind in ("choice", "tag"):
            return FieldKind.CATEGORICAL
        return FieldKind.NUMERIC

    def draw(self, rng, instance_index: int, earlier: dict):
        if self.kind == "uniform":
            return float(rng.uniform(self.a, self.b))
        if self.kind == "normal":
            return float(rng.normal(self.a, self.b))
        if self.kind == "choice":
            return str(self.options[rng.integers(0, len(self.options))])
        if self.kind == "tag":
            return f"{self.ref}-{instance_index:05d}"
        if self.kind == "minus_uniform":
            return earlier[self.ref] - float(rng.uniform(self.a, self.b))
        raise SpecFormatError(f"unknown distribution kind {self.kind!r}")

    def render(self) -> str:
        if self.kind == "uniform":
            return f"uniform:{self.a:g},{self.b:g}"
        if self.kind == "normal":
            return f"normal:{self.a:g},{self.b:g}"
        if self.kind == "choice":
            return "choice:" + "|".join(self.options)
        if self.kind == "tag":
            return f"tag:{self.ref}"
        return f"minus_uniform:{self.ref},{self.a:g},{self.b:g}"

    @classmethod
    def parse(cls, text: str) -> "Dist":
        kind, _, rest = text.partition(":")
        if kind in ("uniform", "normal"):
            a, b = rest.split(",")
            return cls(kind, float(a), float(b))
        if kind == "choice":
            return cls(kind, options=tuple(rest.split("|")))
        if kind == "tag":
            return cls(kind, ref=rest)
        if kind == "minus_uniform":
            ref, a, b = rest.split(",")
            return cls(kind, float(a), float(b), ref=ref)
        raise SpecFormatError(f"unknown distribution {text!r}")


@dataclass(frozen=True)
class Task:
    """One backbone element: a plain partner task or an interaction."""

    name: str
    partner: str
    counterparty: str | None = None
    visibility: Visibility = Visibility.PRIVATE
    fields: tuple[tuple[str, Dist], ...] = ()

    @property
    def is_interaction(self) -> bool:
        return self.counterparty is not None


@dataclass(frozen=True)
class ContextSource:
    """Sensor-style source firing after the steps it is attached to.

    One numeric field, drawn from ``normal(mu, sigma)``; a source attached
    to no step (a fault's alarm) fires only where a fault inserts it.
    """

    name: str
    partner: str
    visibility: Visibility
    field_name: str
    mu: float
    sigma: float
    fire_prob: float = 1.0
    attach: tuple[str, ...] = ()

    @property
    def event_type(self) -> EventType:
        return EventType(
            EventKind.CONTEXT, self.name, ((self.field_name, FieldKind.NUMERIC),)
        )

    def reading(self, instance_id: str, timestamp: int, value: float) -> Event:
        """The source's reading ``value`` in one instance."""
        return Event(
            event_type=self.event_type,
            timestamp=timestamp,
            global_instance_id=instance_id,
            partner_id=self.partner,
            visibility=self.visibility,
            payload=(value,),
        )


@dataclass(frozen=True)
class CollaborationSpec:
    name: str
    partners: tuple[str, ...]
    tasks: tuple[Task, ...]
    context_sources: tuple[ContextSource, ...] = ()
    seed: int = 0

    def __post_init__(self):
        names = [t.name for t in self.tasks]
        types = [FAILURE_TYPE.name, *names, *(s.name for s in self.context_sources)]
        if len(types) != len(set(types)):
            raise SpecFormatError("task and context source names must be unique "
                                  f"and other than {FAILURE_TYPE.name!r}")
        for task in self.tasks:
            if task.partner not in self.partners:
                raise SpecFormatError(f"unknown partner {task.partner!r}")
            if task.is_interaction:
                if task.counterparty not in self.partners:
                    raise SpecFormatError(
                        f"unknown counterparty {task.counterparty!r}"
                    )
                if task.counterparty == task.partner:
                    raise SpecFormatError(
                        f"interaction {task.name!r} must involve two partners"
                    )
        task_names = set(names)
        for source in self.context_sources:
            missing = set(source.attach) - task_names
            if missing:
                raise SpecFormatError(
                    f"context source {source.name!r} attaches to unknown "
                    f"tasks {sorted(missing)}"
                )
        # Mirrors ``generate``: an interaction draws only fields not held
        # yet, and writes a held one under its own kind.
        drawn: dict[str, FieldKind] = {}
        for task in self.tasks:
            for fname, dist in task.fields:
                if task.is_interaction and fname in drawn:
                    if drawn[fname] is not dist.field_kind:
                        raise SpecFormatError(
                            f"interaction {task.name!r}: field {fname!r} is "
                            f"{dist.field_kind.value}, but the instance holds "
                            f"it as {drawn[fname].value}"
                        )
                    continue
                if (dist.kind == "minus_uniform"
                        and drawn.get(dist.ref) is not FieldKind.NUMERIC):
                    raise SpecFormatError(
                        f"task {task.name!r}: field {fname!r} refers to "
                        f"{dist.ref!r}, no numeric field drawn before it"
                    )
                drawn[fname] = dist.field_kind

    @property
    def interactions(self) -> tuple[Task, ...]:
        return tuple(t for t in self.tasks if t.is_interaction)

    def catalog(self) -> EventCatalog:
        """Catalog of the clean event types (no fault-plan types)."""
        intrinsic = [FAILURE_TYPE]
        for task in self.tasks:
            schema = tuple((f, d.field_kind) for f, d in task.fields)
            intrinsic.append(EventType(EventKind.STEP, task.name, schema))
        context = tuple(s.event_type for s in self.context_sources)
        return EventCatalog(intrinsic=tuple(intrinsic), context=context)

    def ground_truth_edges(self) -> frozenset[tuple[str, str]]:
        """Directly-follows pairs a clean generated trace can exhibit.

        Interactions emit two same-named events, hence the self-pairs.
        """
        edges = set()
        prev = None
        for task in self.tasks:
            if prev is not None:
                edges.add((prev, task.name))
            if task.is_interaction:
                edges.add((task.name, task.name))
            prev = task.name
        return frozenset(edges)


def generate(spec: CollaborationSpec, n_instances: int) -> list[EventTrace]:
    """Simulate ``n_instances`` clean runs of the collaboration.

    Each instance draws from its own seed stream (derived from the spec
    seed and the instance index), so generation is deterministic and
    order-independent. A plain task draws all its fields anew; an
    interaction draws only those the instance does not hold yet. All
    traces are labeled as orderly ended.
    """
    if not spec.tasks:
        raise DisconnectedSpec("spec has no tasks")
    if n_instances < 1:
        raise UsageError("n_instances must be at least 1")
    catalog = spec.catalog()
    attachments: dict[str, list[ContextSource]] = {}
    for source in spec.context_sources:
        for step in source.attach:
            attachments.setdefault(step, []).append(source)

    traces = []
    for i in range(n_instances):
        rng = np.random.default_rng([spec.seed, i])
        instance_id = f"case-{i:05d}"
        ts = BASE_TIMESTAMP + i * INSTANCE_SPACING_MS
        fields: dict[str, object] = {}
        events = []

        def emit(name, partner, visibility, payload=()):
            nonlocal ts
            ts += int(rng.integers(1_000, 30_000))
            events.append(
                Event(
                    event_type=catalog.lookup(name),
                    timestamp=ts,
                    global_instance_id=instance_id,
                    partner_id=partner,
                    visibility=visibility,
                    payload=tuple(payload),
                )
            )

        for task in spec.tasks:
            payload = []
            for fname, dist in task.fields:
                if not (task.is_interaction and fname in fields):
                    fields[fname] = dist.draw(rng, i, fields)
                payload.append(fields[fname])
            if task.is_interaction:
                for partner in (task.partner, task.counterparty):
                    emit(task.name, partner, Visibility.INTERACTION, payload)
            else:
                emit(task.name, task.partner, task.visibility, payload)
            for source in attachments.get(task.name, ()):
                if rng.random() < source.fire_prob:
                    reading = float(rng.normal(source.mu, source.sigma))
                    emit(source.name, source.partner, source.visibility, (reading,))
        traces.append(
            EventTrace(instance_id, tuple(events), outcome_label=Outcome.END)
        )
    return traces


# -- fault plans ------------------------------------------------------------


@dataclass(frozen=True)
class StepFaultShape:
    """Divert the successor of one step onto an alternative path."""

    divert_after: str
    alt_path: tuple[str, ...]
    partner: str

    #: The step the shape rewrites the trace at.
    anchor = property(lambda self: self.divert_after)

    def apply(self, trace: EventTrace, rng) -> EventTrace:
        cut = _find_state(trace, self.divert_after)
        events = list(trace.events[: cut + 1])
        error_index = len(events)
        ts = events[-1].timestamp
        for name in self.alt_path:
            ts += int(rng.integers(1_000, 30_000))
            events.append(
                Event(
                    event_type=EventType(EventKind.STEP, name),
                    timestamp=ts,
                    global_instance_id=trace.instance_id,
                    partner_id=self.partner,
                    visibility=Visibility.PRIVATE,
                )
            )
        return _fail(trace, events, error_index, self.partner)


@dataclass(frozen=True)
class EventFaultShape:
    """Fire ``alarm`` right after the error step; the failure follows
    ``steps_to_failure`` steps later, reported by the alarm's partner."""

    error_step: str
    alarm: ContextSource
    steps_to_failure: int

    anchor = property(lambda self: self.error_step)

    def apply(self, trace: EventTrace, rng) -> EventTrace:
        alarm = self.alarm
        at = _find_state(trace, self.error_step)
        events = list(trace.events[: at + 1])
        ts = events[-1].timestamp + int(rng.integers(500, 5_000))
        value = float(rng.normal(alarm.mu, alarm.sigma))
        events.append(alarm.reading(trace.instance_id, ts, value))
        error_index = len(events) - 1
        tail = _keep_until(trace, at + 1, self.steps_to_failure)
        shifted = ts - trace.events[at].timestamp
        for event in tail:
            events.append(replace(event, timestamp=event.timestamp + shifted))
        return _fail(trace, events, error_index, alarm.partner)


@dataclass(frozen=True)
class DataFaultShape:
    """Shift the reading ``source`` takes after ``at_step`` to
    ``shift_sigmas`` standard deviations above its mean, inserting the
    reading (from the source's partner, with its visibility) where the
    source did not fire."""

    source: ContextSource
    at_step: str
    shift_sigmas: float
    steps_to_failure: int

    anchor = property(lambda self: self.at_step)

    def apply(self, trace: EventTrace, rng) -> EventTrace:
        source = self.source
        shifted = source.mu + self.shift_sigmas * source.sigma
        at = _find_state(trace, self.at_step)
        target = None
        for i in range(at + 1, len(trace.events)):
            event = trace.events[i]
            if event.event_type.name == source.name:
                target = i
                break
            if event.is_intrinsic:
                break  # the reading belongs right after the step
        events = list(trace.events)
        if target is not None:
            events[target] = replace(events[target], payload=(shifted,))
        else:
            ts = events[at].timestamp + int(rng.integers(500, 2_000))
            if at + 1 < len(events):
                ts = min(ts, events[at + 1].timestamp)
            events.insert(at + 1, source.reading(trace.instance_id, ts, shifted))
            target = at + 1
        kept = events[: target + 1] + _keep_until(
            replace(trace, events=tuple(events)), target + 1, self.steps_to_failure
        )
        return _fail(trace, kept, target, source.partner)


@dataclass(frozen=True)
class FaultPlan:
    """Injection rate and the fault shapes a selected trace draws from,
    each with equal weight."""

    rate: float
    shapes: tuple[StepFaultShape | EventFaultShape | DataFaultShape, ...]

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise UsageError("rate must lie in [0, 1]")
        if not self.shapes:
            raise UsageError("a fault plan needs at least one shape")


def inject_faults(
    traces: list[EventTrace], plan: FaultPlan, seed: int = 0
) -> list[EventTrace]:
    """Independently select traces with probability ``plan.rate`` and apply
    one fault each.

    Selected traces are truncated at the failure point, terminated with a
    single failure event, relabeled as failed, and annotated with the
    index of the first event manifesting the error. Unselected traces are
    returned untouched.
    """
    n_shapes = len(plan.shapes)
    weights = np.full(n_shapes, 1.0 / n_shapes)
    out = []
    for i, trace in enumerate(traces):
        rng = np.random.default_rng([seed, i, 0x5EED])
        if plan.rate <= 0.0 or rng.random() >= plan.rate:
            out.append(trace)
            continue
        shape = plan.shapes[rng.choice(n_shapes, p=weights)]
        out.append(shape.apply(trace, rng))
    return out


def _find_state(trace, state: str) -> int:
    for i, event in enumerate(trace.events):
        if event.is_intrinsic and event.state == state:
            return i
    raise PlanMismatch(f"step {state!r} absent from trace {trace.instance_id!r}")


def _fail(trace, events, error_index, partner: str) -> EventTrace:
    """``trace`` relabeled as failed: ``events`` closed by a failure event
    five seconds after the last of them, the error at ``error_index``."""
    failure = Event(
        event_type=FAILURE_TYPE,
        timestamp=events[-1].timestamp + 5_000,
        global_instance_id=trace.instance_id,
        partner_id=partner,
        visibility=Visibility.PUBLIC,
    )
    return replace(
        trace,
        events=(*events, failure),
        outcome_label=Outcome.FAIL,
        error_index=error_index,
    )


def _keep_until(trace, start: int, intrinsic_count: int) -> list[Event]:
    """Events from ``start`` up to and including the n-th intrinsic event
    after it (context events in between are kept)."""
    kept = []
    remaining = intrinsic_count
    for event in trace.events[start:]:
        if remaining == 0:
            break
        kept.append(event)
        if event.is_intrinsic:
            remaining -= 1
    if remaining > 0:
        raise PlanMismatch(
            f"trace {trace.instance_id!r} too short for the failure point"
        )
    return kept


# -- bundled specs ------------------------------------------------------------


def minimal_spec(seed: int = 0) -> CollaborationSpec:
    """Two partners, three steps each, one interaction; handy for tests."""
    return CollaborationSpec(
        name="minimal",
        partners=("shop", "courier"),
        tasks=(
            Task("take_order", "shop"),
            Task("pack_parcel", "shop"),
            Task("request_pickup", "shop", counterparty="courier",
                 fields=(("parcel_id", Dist("tag", ref="parcel")),)),
            Task("drive_route", "courier"),
            Task("deliver_parcel", "courier"),
            Task("confirm_receipt", "shop", visibility=Visibility.PUBLIC),
        ),
        seed=seed,
    )


def default_spec(seed: int = 0) -> CollaborationSpec:
    """Six-partner supply-chain collaboration: 48 tasks, 15 interactions.

    The backbone is a fixed global sequence; run-to-run variety comes from
    payload draws and probabilistic context readings. Fault plans divert
    or disturb the first half of the chain so that evaluation points on
    clean traces fall after the decision point.
    """
    pub = Visibility.PUBLIC
    order_id = ("order_id", Dist("tag", ref="ord"))
    tasks = (
        Task("forecast_demand", "bulk_buyer"),
        Task("approve_budget", "bulk_buyer"),
        Task("prepare_order", "bulk_buyer", visibility=pub),
        Task("place_order", "bulk_buyer", counterparty="middleman", fields=(
            order_id,
            ("quantity", Dist("uniform", 10, 100)),
            ("deadline", Dist("uniform", 30, 60)),
        )),
        Task("register_order", "middleman"),
        Task("check_catalog", "middleman", visibility=pub),
        Task("request_quote_a", "middleman", counterparty="supplier_a",
             fields=(order_id,)),
        Task("estimate_costs_a", "supplier_a"),
        Task("submit_quote_a", "supplier_a", counterparty="middleman",
             fields=(("quote_a", Dist("uniform", 100, 500)),)),
        Task("request_quote_b", "middleman", counterparty="supplier_b",
             fields=(order_id,)),
        Task("estimate_costs_b", "supplier_b"),
        Task("submit_quote_b", "supplier_b", counterparty="middleman",
             fields=(("quote_b", Dist("uniform", 100, 500)),)),
        Task("compare_quotes", "middleman"),
        Task("select_supplier", "middleman"),
        Task("forward_order", "middleman", counterparty="manufacturer",
             fields=(order_id, ("quantity", Dist("uniform", 10, 100)))),
        Task("plan_production", "manufacturer"),
        Task("reserve_capacity", "manufacturer"),
        Task("order_materials_a", "manufacturer", counterparty="supplier_a",
             fields=(("batch_a", Dist("choice", options=("steel", "alloy", "composite"))),)),
        Task("pick_materials_a", "supplier_a"),
        Task("pack_materials_a", "supplier_a"),
        Task("ship_materials_a", "supplier_a", counterparty="manufacturer",
             fields=(("batch_a", Dist("choice", options=("steel", "alloy", "composite"))),)),
        Task("order_materials_b", "manufacturer", counterparty="supplier_b",
             fields=(("batch_b", Dist("choice", options=("foam", "resin"))),)),
        Task("pick_materials_b", "supplier_b"),
        Task("pack_materials_b", "supplier_b"),
        Task("ship_materials_b", "supplier_b", counterparty="manufacturer",
             fields=(("batch_b", Dist("choice", options=("foam", "resin"))),)),
        Task("inspect_materials", "manufacturer", visibility=pub),
        Task("calibrate_line", "manufacturer"),
        Task("assemble_product", "manufacturer"),
        Task("test_product", "manufacturer"),
        Task("package_product", "manufacturer", visibility=pub),
        Task("book_transport", "manufacturer", counterparty="carrier", fields=(
            order_id,
            ("weight", Dist("uniform", 200, 2000)),
        )),
        Task("plan_route", "carrier"),
        Task("allocate_truck", "carrier"),
        Task("load_cargo", "carrier", visibility=pub),
        Task("confirm_pickup", "carrier", counterparty="middleman",
             fields=(order_id,)),
        Task("transport_leg_1", "carrier"),
        Task("refuel_truck", "carrier"),
        Task("customs_clearance", "carrier", visibility=pub),
        Task("transport_leg_2", "carrier"),
        Task("announce_delivery", "carrier", counterparty="bulk_buyer", fields=(
            order_id,
            ("delivery_date", Dist("minus_uniform", 1, 10, ref="deadline")),
        )),
        Task("unload_cargo", "carrier", visibility=pub),
        Task("hand_over_goods", "carrier", counterparty="bulk_buyer",
             fields=(order_id,)),
        Task("inspect_goods", "bulk_buyer"),
        Task("stock_goods", "bulk_buyer"),
        Task("send_invoice", "middleman", counterparty="bulk_buyer", fields=(
            order_id,
            ("amount", Dist("uniform", 1000, 9000)),
        )),
        Task("update_ledger", "middleman"),
        Task("settle_invoice", "bulk_buyer", visibility=pub),
        Task("close_order", "bulk_buyer"),
    )
    sources = (
        ContextSource("temperature", "carrier", pub, "reading",
                      mu=18.0, sigma=2.5, fire_prob=0.7,
                      attach=("transport_leg_1", "transport_leg_2")),
        ContextSource("traffic_delay", "carrier", pub, "minutes",
                      mu=10.0, sigma=3.0, fire_prob=0.5,
                      attach=("plan_route",)),
        ContextSource("machine_load", "manufacturer", Visibility.PRIVATE, "load",
                      mu=0.6, sigma=0.1, fire_prob=0.5,
                      attach=("assemble_product", "test_product")),
        ContextSource("warehouse_humidity", "supplier_a", Visibility.PRIVATE,
                      "humidity", mu=45.0, sigma=5.0, fire_prob=0.5,
                      attach=("pack_materials_a",)),
    )
    return CollaborationSpec(
        name="supply_chain",
        partners=("bulk_buyer", "middleman", "supplier_a", "supplier_b",
                  "manufacturer", "carrier"),
        tasks=tasks,
        context_sources=sources,
        seed=seed,
    )


def default_fault_plan(
    spec: CollaborationSpec,
    rate: float,
    fault_types: tuple[str, ...] = FAULT_TYPES,
) -> FaultPlan:
    """Plan drawing the requested fault types, in ``fault_types`` order and
    with equal weight, as shapes matched to the bundled specs.

    Raises ``UsageError`` for a name outside :data:`FAULT_TYPES` and, when
    ``rate > 0``, for a shape whose anchor step is not a task of ``spec``.
    """
    for fault_type in fault_types:
        if fault_type not in FAULT_TYPES:
            raise UsageError(f"unknown fault type {fault_type!r}")
    if spec.name == "minimal":
        step = StepFaultShape(
            divert_after="pack_parcel",
            alt_path=("repack_parcel", "relabel_parcel"),
            partner="shop",
        )
        event = EventFaultShape("drive_route", ContextSource(
            "breakdown_alarm", "courier", Visibility.PUBLIC, "severity", 5.0, 1.0,
        ), steps_to_failure=1)
    else:
        step = StepFaultShape(
            divert_after="select_supplier",
            alt_path=("escalate_order", "manual_sourcing", "emergency_purchase"),
            partner="middleman",
        )
        event = EventFaultShape("load_cargo", ContextSource(
            "temperature_alarm", "carrier", Visibility.PUBLIC, "excess", 8.0, 1.0,
        ), steps_to_failure=2)
    shapes = {STEP_FAULT: step, EVENT_FAULT: event}
    if DATA_FAULT in fault_types:
        temperature = next(
            (s for s in spec.context_sources if s.name == "temperature"), None
        )
        if temperature is None:
            raise UsageError(f"spec {spec.name!r} has no 'temperature' "
                             "context source for data faults")
        shapes[DATA_FAULT] = DataFaultShape(
            temperature, at_step="transport_leg_1", shift_sigmas=6.0,
            steps_to_failure=2,
        )
    if rate > 0:
        tasks = {task.name for task in spec.tasks}
        for fault_type in fault_types:
            anchor = shapes[fault_type].anchor
            if anchor not in tasks:
                raise UsageError(f"spec {spec.name!r} has no task {anchor!r} "
                                 f"for {fault_type} faults")
    return FaultPlan(rate, tuple(shapes[t] for t in fault_types))


# -- spec file format ----------------------------------------------------------


def write_spec(spec: CollaborationSpec) -> str:
    """Render a spec in the line-oriented text format (round-trips with
    :func:`read_spec`)."""
    lines = [f"name {spec.name}", f"seed {spec.seed}"]
    for partner in spec.partners:
        lines.append(f"partner {partner}")
    for task in spec.tasks:
        fields = " ".join(f"{f}={d.render()}" for f, d in task.fields)
        if task.is_interaction:
            head = f"interaction {task.name} {task.partner} {task.counterparty}"
        else:
            head = f"task {task.name} {task.partner} {task.visibility.value}"
        lines.append(f"{head} {fields}".rstrip())
    for s in spec.context_sources:
        lines.append(
            f"context {s.name} {s.partner} {s.visibility.value} "
            f"{s.field_name}=normal:{s.mu:g},{s.sigma:g} fire={s.fire_prob:g} "
            f"attach={','.join(s.attach)}"
        )
    return "\n".join(lines) + "\n"


def read_spec(text: str) -> CollaborationSpec:
    name = "unnamed"
    seed = 0
    partners: list[str] = []
    tasks: list[Task] = []
    sources: list[ContextSource] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "name":
                name = parts[1]
            elif kind == "seed":
                seed = int(parts[1])
            elif kind == "partner":
                partners.append(parts[1])
            elif kind == "task":
                fields = tuple(_parse_field(p) for p in parts[4:])
                tasks.append(Task(parts[1], parts[2],
                                  visibility=Visibility(parts[3]),
                                  fields=fields))
            elif kind == "interaction":
                fields = tuple(_parse_field(p) for p in parts[4:])
                tasks.append(Task(parts[1], parts[2], counterparty=parts[3],
                                  fields=fields))
            elif kind == "context":
                fname, dist = _parse_field(parts[4])
                if dist.kind != "normal":
                    raise SpecFormatError("context sources use normal:mu,sigma")
                opts = dict(p.split("=", 1) for p in parts[5:])
                sources.append(ContextSource(
                    parts[1], parts[2], Visibility(parts[3]), fname,
                    mu=dist.a, sigma=dist.b,
                    fire_prob=float(opts.get("fire", "1")),
                    attach=tuple(opts["attach"].split(",")),
                ))
            else:
                raise SpecFormatError(f"unknown directive {kind!r}")
        except (IndexError, ValueError, KeyError) as exc:
            raise SpecFormatError(f"spec line {lineno}: {raw!r} ({exc})") from exc
    return CollaborationSpec(
        name=name,
        partners=tuple(partners),
        tasks=tuple(tasks),
        context_sources=tuple(sources),
        seed=seed,
    )


def _parse_field(text: str) -> tuple[str, Dist]:
    fname, _, dist = text.partition("=")
    if not dist:
        raise SpecFormatError(f"field {text!r} lacks a distribution")
    return fname, Dist.parse(dist)
