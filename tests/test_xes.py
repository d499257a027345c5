import os
import subprocess
import sys
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
    with pytest.raises(ParseError, match="event 'A' lacks time:timestamp"):
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
    message = (f"event 'x' has kind '{later}', but its name was first read "
               f"as '{first or 'step'}'")
    with pytest.raises(SchemaError, match=message):
        read_xes(xml.encode())


@pytest.mark.parametrize("later_schema, message", [
    ((), "event 'temp' lacks payload field 'reading'"),
    ((("reading", FieldKind.NUMERIC), ("extra", FieldKind.NUMERIC)),
     r"event 'temp' carries unknown fields \['extra'\]"),
], ids=["missing-field", "unknown-field"])
def test_later_event_must_match_inferred_schema(order_catalog, later_schema,
                                                message):
    # The first ``temp`` fixes the type; a later one must carry its fields.
    other = make_catalog(["A"], contexts=(("temp", later_schema),))
    first = make_trace(order_catalog, ["A", "temp"], payloads={"temp": (1.0,)})
    later = make_trace(other, ["A", "temp"], instance_id="case-1",
                       payloads={"temp": (2.0,) * len(later_schema)})
    with pytest.raises(SchemaError, match=message):
        read_xes(write_xes([first, later]))


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
