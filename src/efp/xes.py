"""XES-subset reading and writing; the catalog is inferred from the log.

The supported subset is deliberately small so that the round trip
``read_xes(write_xes(traces))`` is the identity: per event we emit
``concept:name``, ``lifecycle:transition``, ``time:timestamp``,
``org:resource``, ``efp:instance``, ``efp:visibility`` and ``efp:kind``;
per trace ``concept:name``, ``efp:outcome`` and ``efp:error-index``.
Any other event attribute is treated as a payload field. Output is
deterministic: UTF-8, fixed attribute order, ISO-8601 millisecond
timestamps in UTC.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from datetime import datetime, timezone
from xml.etree import ElementTree

from .errors import ParseError, SchemaError
from .events import (
    Event,
    EventCatalog,
    EventKind,
    EventTrace,
    EventType,
    FieldKind,
    Outcome,
    Visibility,
    catalog_of,
)

_RESERVED_EVENT_KEYS = {
    "concept:name",
    "lifecycle:transition",
    "time:timestamp",
    "org:resource",
    "efp:instance",
    "efp:visibility",
    "efp:kind",
}


@dataclass(frozen=True)
class ParsedLog:
    """Result of reading an XES stream.

    ``catalog`` is the one inferred from the log. ``empty_dropped`` counts
    traces discarded for containing zero events.
    """

    traces: tuple[EventTrace, ...]
    catalog: EventCatalog
    empty_dropped: int = 0

    def __len__(self):
        return len(self.traces)


def _format_ts(ms: int) -> str:
    dt = datetime.fromtimestamp(ms / 1000.0, tz=timezone.utc)
    return dt.isoformat(timespec="milliseconds")


def _parse_ts(text: str) -> int:
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as exc:
        raise ParseError(f"bad timestamp {text!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return round(dt.timestamp() * 1000)


def write_xes(traces: list[EventTrace]) -> bytes:
    """Serialize traces to the canonical XES subset.

    Output bytes are a pure function of the input: traces in given order,
    attributes in fixed order, payload fields in schema order.
    """
    # Imported here: ``xml.sax.saxutils`` loads ``urllib.request``, which
    # ``import efp`` need not pay for.
    from xml.sax.saxutils import quoteattr

    out = io.StringIO()

    def attr(indent: int, tag: str, key: str, value: str) -> None:
        out.write(
            f'{" " * indent}<{tag} key={quoteattr(key)} value={quoteattr(value)}/>\n'
        )

    out.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    out.write('<log xes.version="1.0">\n')
    for trace in traces:
        out.write("  <trace>\n")
        attr(4, "string", "concept:name", trace.instance_id)
        if trace.outcome_label is not None:
            attr(4, "string", "efp:outcome", trace.outcome_label.value)
        if trace.error_index is not None:
            attr(4, "int", "efp:error-index", str(trace.error_index))
        for event in trace.events:
            et = event.event_type
            out.write("    <event>\n")
            attr(6, "string", "concept:name", et.name)
            attr(6, "string", "lifecycle:transition", "complete")
            attr(6, "date", "time:timestamp", _format_ts(event.timestamp))
            attr(6, "string", "org:resource", event.partner_id)
            attr(6, "string", "efp:instance", event.global_instance_id)
            attr(6, "string", "efp:visibility", event.visibility.value)
            attr(6, "string", "efp:kind", et.kind.value)
            for (fname, fkind), value in zip(et.data_schema, event.payload):
                if fkind is FieldKind.NUMERIC:
                    attr(6, "float", fname, repr(float(value)))
                else:
                    attr(6, "string", fname, str(value))
            out.write("    </event>\n")
        out.write("  </trace>\n")
    out.write("</log>\n")
    return out.getvalue().encode("utf-8")


def read_xes(source: bytes) -> ParsedLog:
    """Parse an XES document, given as bytes, into traces.

    The first event of each name gives that name's type (see
    :func:`_infer_type`), later events must conform to it in kind and
    payload fields (``SchemaError`` otherwise), and the catalog is
    :func:`~efp.events.catalog_of` the inferred types; a second failure type
    is a ``SchemaError``. Traces with zero events are dropped and counted in
    ``empty_dropped``.
    """
    try:
        # Parsing a stream peaks lower in memory than ``fromstring`` does.
        root = ElementTree.parse(io.BytesIO(source)).getroot()
    except ElementTree.ParseError as exc:
        raise ParseError(f"malformed XML: {exc}") from exc

    types: dict[str, EventType] = {}
    traces = []
    dropped = 0
    for trace_el in root.iter("trace"):
        raw_events = [_attributes(e) for e in trace_el.iter("event")]
        if not raw_events:
            dropped += 1
            continue
        meta, _ = _attributes(trace_el)
        instance_id = meta.get("concept:name") or raw_events[0][0].get(
            "efp:instance", "unknown"
        )
        events = []
        for attrs, tags in raw_events:
            name = attrs.get("concept:name")
            if name is None:
                raise ParseError("event lacks concept:name")
            et = types.get(name)
            if et is None:
                et = types[name] = _infer_type(attrs, tags)
            events.append(_build_event(attrs, instance_id, et))
        outcome = meta.get("efp:outcome")
        error_index = meta.get("efp:error-index")
        traces.append(
            EventTrace(
                instance_id=instance_id,
                events=tuple(events),
                outcome_label=Outcome(outcome) if outcome else None,
                error_index=int(error_index) if error_index is not None else None,
            )
        )
    failures = [t for t in types.values() if t.kind is EventKind.FAILURE]
    if len(failures) > 1:
        raise SchemaError(f"second failure type {failures[1].name!r}")
    return ParsedLog(tuple(traces), catalog_of(types.values()), dropped)


def _attributes(element) -> tuple[dict[str, str], dict[str, str]]:
    """Value and XML tag of each keyed child of ``element``, by key."""
    attrs, tags = {}, {}
    for child in element:
        key = child.get("key")
        if key is not None:
            attrs[key] = child.get("value", "")
            tags[key] = child.tag
    return attrs, tags


def _payload_keys(attrs: dict[str, str]) -> list[str]:
    return [k for k in attrs if k not in _RESERVED_EVENT_KEYS]


def _infer_type(attrs: dict[str, str], tags: dict[str, str]) -> EventType:
    """The type an event's attributes imply: the kind from ``efp:kind``
    (default ``step``), a payload field per non-reserved attribute, numeric
    when written as ``float`` or ``int``."""
    schema = tuple(
        (key, FieldKind.NUMERIC if tags[key] in ("float", "int")
         else FieldKind.CATEGORICAL)
        for key in _payload_keys(attrs)
    )
    return EventType(
        EventKind(attrs.get("efp:kind", "step")), attrs["concept:name"], schema
    )


def _build_event(attrs: dict[str, str], instance_id: str,
                 et: EventType) -> Event:
    name = et.name
    kind = attrs.get("efp:kind", "step")
    if kind != et.kind.value:
        raise SchemaError(
            f"event {name!r} has kind {kind!r}, but its name was first read "
            f"as {et.kind.value!r}"
        )
    payload = []
    for fname, fkind in et.data_schema:
        if fname not in attrs:
            raise SchemaError(f"event {name!r} lacks payload field {fname!r}")
        value = attrs[fname]
        payload.append(float(value) if fkind is FieldKind.NUMERIC else value)
    extra = set(_payload_keys(attrs)) - {f for f, _ in et.data_schema}
    if extra:
        raise SchemaError(f"event {name!r} carries unknown fields {sorted(extra)}")
    if "time:timestamp" not in attrs:
        raise ParseError(f"event {name!r} lacks time:timestamp")
    return Event(
        event_type=et,
        timestamp=_parse_ts(attrs["time:timestamp"]),
        global_instance_id=attrs.get("efp:instance", instance_id),
        partner_id=attrs.get("org:resource", ""),
        visibility=Visibility(attrs.get("efp:visibility", "private")),
        payload=tuple(payload),
    )

