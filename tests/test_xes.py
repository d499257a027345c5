import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import efp

from efp.errors import ParseError, SchemaError
from efp.events import EventKind, FieldKind, Outcome, catalog_from_traces
from efp.xes import read_xes, write_xes

from conftest import make_catalog, make_trace, random_catalog_and_traces


def test_structure_preserving_read(order_catalog):
    traces = [
        make_trace(order_catalog, ["A", "B", "C"], instance_id="case-0"),
        make_trace(order_catalog, ["A", "temp", "E"], instance_id="case-1",
                   payloads={"temp": (31.5,)}),
    ]
    log = read_xes(write_xes(traces))
    assert len(log) == 2
    assert [len(t.events) for t in log.traces] == [3, 3]


def test_concept_name_becomes_event_type():
    catalog = make_catalog(["order_banana", "ship_banana"])
    trace = make_trace(catalog, ["order_banana", "ship_banana"])
    log = read_xes(write_xes([trace]))
    assert log.traces[0].events[0].event_type.name == "order_banana"


def test_round_trip_is_identity(order_catalog):
    traces = [
        make_trace(order_catalog, ["A", "temp", "B"], instance_id="case-0",
                   payloads={"temp": (20.25,)}, label=Outcome.END),
    ]
    log = read_xes(write_xes(traces))
    assert list(log.traces) == traces


def test_round_trip_normal_form_is_byte_identical(order_catalog):
    traces = [make_trace(order_catalog, ["A", "B", "E"], label=Outcome.END)]
    first = write_xes(traces)
    assert write_xes(list(read_xes(first).traces)) == first


def test_randomized_round_trips():
    rng = np.random.default_rng(1234)
    for _ in range(100):
        _, traces = random_catalog_and_traces(rng)
        blob = write_xes(traces)
        log = read_xes(blob)
        assert list(log.traces) == traces
        assert write_xes(list(log.traces)) == blob
        assert log.catalog == catalog_from_traces(traces)


def test_empty_log_round_trip():
    blob = write_xes([])
    log = read_xes(blob)
    assert len(log) == 0


def test_single_trace_single_event_structure(order_catalog):
    blob = write_xes([make_trace(order_catalog, ["A"])])
    assert blob.count(b"<trace>") == 1
    assert blob.count(b"<event>") == 1


def test_outcome_and_error_index_survive(order_catalog):
    trace = make_trace(order_catalog, ["A", "failure"], label=Outcome.FAIL)
    trace = type(trace)(
        trace.instance_id, trace.events, trace.outcome_label, error_index=1
    )
    [out] = read_xes(write_xes([trace])).traces
    assert out.outcome_label is Outcome.FAIL
    assert out.error_index == 1


@pytest.mark.parametrize("index", [-1, 2])
def test_error_index_outside_the_trace_is_rejected(order_catalog, index):
    # -1 would cut the evaluation snapshot from the end, and 2 (the
    # trace's length) would let it take the failure event too.
    trace = make_trace(order_catalog, ["A", "failure"], label=Outcome.FAIL)
    blob = write_xes([replace(trace, error_index=index)])
    with pytest.raises(ParseError, match=re.escape(
            f"trace {trace.instance_id!r}: key 'efp:error-index': {index} ")):
        read_xes(blob)


def test_repeated_instance_id_is_rejected(order_catalog):
    # Without this check ``efp run`` replays the whole first instance and
    # then fails to start the second under the same id.
    first = make_trace(order_catalog, ["A", "B"], instance_id="case-0")
    other = make_trace(order_catalog, ["A"], instance_id="case-1")
    again = make_trace(order_catalog, ["B"], instance_id="case-0")
    blob = write_xes([first, other, again])
    with pytest.raises(ParseError, match=re.escape(
            "trace 'case-0' at position 2: the trace at position 0 has this id")):
        read_xes(blob)


def test_empty_traces_dropped_with_count():
    xml = b"""<?xml version="1.0" encoding="UTF-8"?>
    <log><trace>
      <string key="concept:name" value="empty"/>
    </trace></log>"""
    log = read_xes(xml)
    assert len(log) == 0
    assert log.empty_dropped == 1


def test_malformed_xml_raises():
    with pytest.raises(ParseError):
        read_xes(b"<log><trace>")


def test_missing_concept_name_raises():
    xml = b"""<log><trace><event>
      <date key="time:timestamp" value="2021-01-01T00:00:00.000+00:00"/>
    </event></trace></log>"""
    with pytest.raises(ParseError):
        read_xes(xml)


def test_missing_timestamp_raises():
    xml = b"""<log><trace><event>
      <string key="concept:name" value="A"/>
    </event></trace></log>"""
    with pytest.raises(ParseError, match=re.escape(
            "trace 'unknown', event 0 'A': key 'time:timestamp': missing")):
        read_xes(xml)


@pytest.mark.parametrize("first, later", [
    ("step", "failure"), ("context", "step"), (None, "context"),
])
def test_later_event_must_match_inferred_kind(first, later):
    # ``efp:kind`` absent reads as ``step``.
    def event(kind, second):
        kind_attr = f'<string key="efp:kind" value="{kind}"/>' if kind else ""
        return (f'<event><string key="concept:name" value="x"/>'
                f'<date key="time:timestamp" value="2021-01-01T00:00:0{second}'
                f'.000+00:00"/>{kind_attr}</event>')

    xml = f"<log><trace>{event(first, 0)}{event(later, 1)}</trace></log>"
    message = (f"trace 'unknown', event 1 'x': kind '{later}', but its name "
               f"was first read as '{first or 'step'}'")
    with pytest.raises(SchemaError, match=re.escape(message)):
        read_xes(xml.encode())


@pytest.mark.parametrize("later_schema, message", [
    ((), "trace 'case-1', event 1 'temp': lacks payload field 'reading'"),
    ((("reading", FieldKind.NUMERIC), ("extra", FieldKind.NUMERIC)),
     "trace 'case-1', event 1 'temp': carries unknown fields ['extra']"),
], ids=["missing-field", "unknown-field"])
def test_later_event_must_match_inferred_schema(order_catalog, later_schema,
                                                message):
    # The first ``temp`` fixes the type; a later one must carry its fields.
    other = make_catalog(["A"], contexts=(("temp", later_schema),))
    first = make_trace(order_catalog, ["A", "temp"], payloads={"temp": (1.0,)})
    later = make_trace(other, ["A", "temp"], instance_id="case-1",
                       payloads={"temp": (2.0,) * len(later_schema)})
    with pytest.raises(SchemaError, match=re.escape(message)):
        read_xes(write_xes([first, later]))


def _events_xml(*events):
    """A one-trace log ``case-0`` of the given ``<event>`` bodies."""
    body = "".join(f"<event>{e}</event>" for e in events)
    return (f'<log><trace><string key="concept:name" value="case-0"/>{body}'
            f"</trace></log>").encode()


_NAME = '<string key="concept:name" value="{}"/>'
_TIME = '<date key="time:timestamp" value="{}"/>'
_AT = "2021-01-01T00:00:00.000+00:00"


# Every failure of one event leaves through the handler that names the
# trace and the event, and keeps its type.
@pytest.mark.parametrize("events, error, message", [
    ((_NAME.format("A") + _TIME.format(_AT), _TIME.format(_AT)), ParseError,
     "trace 'case-0', event 1: key 'concept:name': missing"),
    ((_NAME.format("A"),), ParseError,
     "trace 'case-0', event 0 'A': key 'time:timestamp': missing"),
    ((_NAME.format("A") + _TIME.format("garbage"),), ParseError,
     "trace 'case-0', event 0 'A': key 'time:timestamp': Invalid isoformat "
     "string: 'garbage'"),
    ((_NAME.format("A") + _TIME.format(_AT),
      _NAME.format("A") + _TIME.format(_AT)
      + '<string key="efp:kind" value="context"/>'), SchemaError,
     "trace 'case-0', event 1 'A': kind 'context', but its name was first "
     "read as 'step'"),
    ((_NAME.format("A") + _TIME.format(_AT) + '<float key="v" value="1.0"/>',
      _NAME.format("A") + _TIME.format(_AT)), SchemaError,
     "trace 'case-0', event 1 'A': lacks payload field 'v'"),
    ((_NAME.format("A") + _TIME.format(_AT),
      _NAME.format("A") + _TIME.format(_AT) + '<float key="v" value="1.0"/>'),
     SchemaError, "trace 'case-0', event 1 'A': carries unknown fields ['v']"),
], ids=["no-name", "no-timestamp", "bad-timestamp", "kind", "missing-field",
        "unknown-field"])
def test_every_event_failure_names_its_trace_and_event(events, error, message):
    with pytest.raises(error) as info:
        read_xes(_events_xml(*events))
    assert str(info.value) == message


def test_inferred_catalog_recovers_kinds_and_schemas(order_catalog):
    traces = [make_trace(order_catalog, ["A", "temp", "failure"],
                         payloads={"temp": (7.5,)}, label=Outcome.FAIL)]
    log = read_xes(write_xes(traces))
    cat = log.catalog
    assert cat.lookup("temp").kind is EventKind.CONTEXT
    assert cat.lookup("temp").data_schema == (("reading", FieldKind.NUMERIC),)
    assert cat.failure_type.name == "failure"
    assert cat.lookup("A").kind is EventKind.STEP


def test_second_failure_type_in_one_log_is_rejected():
    crash = make_catalog(["A"], fail_name="crash")
    abort = make_catalog(["A"], fail_name="abort")
    blob = write_xes([make_trace(crash, ["A", "crash"], instance_id="case-0"),
                      make_trace(abort, ["A", "abort"], instance_id="case-1")])
    with pytest.raises(SchemaError, match="second failure type 'abort'"):
        read_xes(blob)



def test_importing_efp_leaves_the_http_stack_unloaded():
    # ``xml.sax.saxutils`` pulls in ``urllib.request``, ``http.client`` and
    # ``email``; only ``write_xes`` needs it, so only a write loads it.
    src = str(Path(efp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, efp; print('urllib.request' in sys.modules)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
