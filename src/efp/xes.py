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
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
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
    :func:`_infer_type`), and the catalog is :func:`~efp.events.catalog_of`
    the inferred types; a second failure type is a ``SchemaError``. Every
    failure of one event reads ``trace '<id>', event <n> '<name>': ...``
    (``n`` from 0, no name if it has none): a ``SchemaError`` when its kind
    or payload fields differ from its name's type, else a ``ParseError``
    naming the key (a missing name or timestamp, a value that does not
    convert, an event of another instance or earlier than the one before
    it). A bad outcome or error index is a ``ParseError`` naming the trace
    and the key; so is a repeated instance id, naming both traces'
    positions, counted from 0. Traces with zero events are dropped and
    counted in ``empty_dropped``.
    """
    try:
        # Parsing a stream peaks lower in memory than ``fromstring`` does.
        root = ElementTree.parse(io.BytesIO(source)).getroot()
    except ElementTree.ParseError as exc:
        raise ParseError(f"malformed XML: {exc}") from exc

    types: dict[str, EventType] = {}
    traces = []
    dropped = 0
    positions: dict[str, int] = {}
    for position, trace_el in enumerate(root.iter("trace")):
        elements = list(trace_el.iter("event"))
        if not elements:
            dropped += 1
            continue
        meta = _attributes(trace_el)
        instance_id = meta.get("concept:name") or _attributes(elements[0]).get(
            "efp:instance", "unknown"
        )
        first = positions.setdefault(instance_id, position)
        if first != position:
            raise ParseError(f"trace {instance_id!r} at position {position}: "
                             f"the trace at position {first} has this id")
        events = []
        try:
            for element in elements:
                attrs = _attributes(element)
                name = _convert(str, attrs, "concept:name")
                et = types.get(name)
                if et is None:
                    et = types[name] = _infer_type(element, attrs)
                event = _build_event(attrs, instance_id, et)
                if event.global_instance_id != instance_id:
                    raise ValueError(f"key 'efp:instance': "
                                     f"{event.global_instance_id!r} is another trace's")
                if events and event.timestamp < events[-1].timestamp:
                    raise ValueError("key 'time:timestamp': earlier than the "
                                     "event before it")
                events.append(event)
            error_index = (_convert(int, meta, "efp:error-index")
                           if "efp:error-index" in meta else None)
            if error_index is not None and not 0 <= error_index < len(events):
                raise ValueError(f"key 'efp:error-index': {error_index} is outside "
                                 f"[0, {len(events)})")
            traces.append(EventTrace(
                instance_id=instance_id,
                events=tuple(events),
                outcome_label=_convert(Outcome, meta, "efp:outcome")
                if meta.get("efp:outcome") else None,
                error_index=error_index,
            ))
        except (ValueError, SchemaError) as exc:
            where = f"trace {instance_id!r}"
            if len(events) < len(elements):
                name = attrs.get("concept:name")
                where += f", event {len(events)}"
                if name is not None:
                    where += f" {name!r}"
            error = SchemaError if isinstance(exc, SchemaError) else ParseError
            raise error(f"{where}: {exc}") from exc
    failures = [t for t in types.values() if t.kind is EventKind.FAILURE]
    if len(failures) > 1:
        raise SchemaError(f"second failure type {failures[1].name!r}")
    return ParsedLog(tuple(traces), catalog_of(types.values()), dropped)


def _attributes(element) -> dict[str, str]:
    """The value of each keyed child of ``element``, by key."""
    return {key: child.get("value", "") for child in element
            if (key := child.get("key")) is not None}


def _convert(convert, attrs: dict[str, str], key: str, default=None):
    """``convert`` of the value of ``key`` (``default`` when absent); a
    ``ValueError`` naming the key if it is missing or does not convert."""
    try:
        value = attrs.get(key, default)
        if value is None:
            raise ValueError("missing")
        return convert(value)
    except ValueError as exc:
        raise ValueError(f"key {key!r}: {exc}") from None


def _payload_keys(attrs: dict[str, str]) -> list[str]:
    return [k for k in attrs if k not in _RESERVED_EVENT_KEYS]


def _infer_type(element, attrs: dict[str, str]) -> EventType:
    """The type an event's attributes imply: the kind from ``efp:kind``
    (default ``step``), a payload field per non-reserved attribute, numeric
    when its XML tag is ``float`` or ``int``."""
    tags = {child.get("key"): child.tag for child in element}
    schema = tuple(
        (key, FieldKind.NUMERIC if tags[key] in ("float", "int")
         else FieldKind.CATEGORICAL)
        for key in _payload_keys(attrs)
    )
    return EventType(
        _convert(EventKind, attrs, "efp:kind", "step"), attrs["concept:name"], schema
    )


def _build_event(attrs: dict[str, str], instance_id: str,
                 et: EventType) -> Event:
    kind = attrs.get("efp:kind", "step")
    if kind != et.kind.value:
        raise SchemaError(f"kind {kind!r}, but its name was first read as "
                          f"{et.kind.value!r}")
    payload = []
    for fname, fkind in et.data_schema:
        if fname not in attrs:
            raise SchemaError(f"lacks payload field {fname!r}")
        payload.append(_convert(float, attrs, fname)
                       if fkind is FieldKind.NUMERIC else attrs[fname])
    extra = set(_payload_keys(attrs)) - {f for f, _ in et.data_schema}
    if extra:
        raise SchemaError(f"carries unknown fields {sorted(extra)}")
    return Event(
        event_type=et,
        timestamp=_convert(_parse_ts, attrs, "time:timestamp"),
        global_instance_id=attrs.get("efp:instance", instance_id),
        partner_id=attrs.get("org:resource", ""),
        visibility=_convert(Visibility, attrs, "efp:visibility", "private"),
        payload=tuple(payload),
    )
