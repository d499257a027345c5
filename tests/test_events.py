import numpy as np
import pytest

from efp.errors import SchemaError, UnknownPartner, UsageError
from efp.events import (
    FAIL_STATE,
    Event,
    EventCatalog,
    EventKind,
    EventTrace,
    EventType,
    Outcome,
    Scenario,
    FieldKind,
    Visibility,
    catalog_from_traces,
    filter_visibility,
    merge_catalogs,
)

from conftest import make_catalog, make_trace, random_catalog_and_traces


def test_catalog_normalizes_failure_first():
    cat = EventCatalog(
        intrinsic=(
            EventType(EventKind.STEP, "A"),
            EventType(EventKind.FAILURE, "boom"),
            EventType(EventKind.STEP, "B"),
        )
    )
    assert cat.intrinsic[0].name == "boom"
    assert [t.name for t in cat.steps] == ["A", "B"]


def test_catalog_synthesizes_missing_failure_type():
    cat = EventCatalog(intrinsic=(EventType(EventKind.STEP, "A"),))
    assert cat.failure_type.kind is EventKind.FAILURE


def test_catalog_rejects_duplicate_names():
    with pytest.raises(ValueError):
        EventCatalog(
            intrinsic=(
                EventType(EventKind.STEP, "A"),
                EventType(EventKind.STEP, "A"),
            )
        )


def test_catalog_rejects_two_failure_types():
    with pytest.raises(ValueError):
        EventCatalog(
            intrinsic=(
                EventType(EventKind.FAILURE, "f1"),
                EventType(EventKind.FAILURE, "f2"),
            )
        )


def test_event_payload_arity_enforced(order_catalog):
    temp = order_catalog.lookup("temp")
    with pytest.raises(ValueError):
        Event(temp, 0, "x", "p", payload=())


def test_trace_requires_sorted_timestamps(order_catalog):
    a = order_catalog.lookup("A")
    events = (
        Event(a, 2_000, "x", "p"),
        Event(a, 1_000, "x", "p"),
    )
    with pytest.raises(ValueError):
        EventTrace("x", events)


def test_trace_and_event_require_their_instance(order_catalog):
    a = order_catalog.lookup("A")
    with pytest.raises(ValueError, match="share instance_id"):
        EventTrace("x", (Event(a, 0, "x", "p"), Event(a, 1, "y", "p")))
    with pytest.raises(ValueError, match="global_instance_id must be non-empty"):
        Event(a, 0, "", "p")


def test_failure_event_maps_to_fail_state(order_catalog):
    trace = make_trace(order_catalog, ["A", "failure"])
    assert trace.states == ("A", FAIL_STATE)


def test_scenario_parsing_round_trips():
    for text in ("global", "local:carrier", "nocontext",
                 "nocontext-local:carrier"):
        assert str(Scenario.parse(text)) == text
    for text in ("sideways", "sideways:carrier", "global:", "local:",
                 "nocontext-local:"):
        with pytest.raises(UsageError):
            Scenario.parse(text)
    # A local kind requires a partner, and the others take none.
    for fields in (dict(local=True), dict(partner="carrier"),
                   dict(drop_context=True, partner="")):
        with pytest.raises(UsageError):
            Scenario(**fields)


@pytest.mark.parametrize("partner", [None, "carrier"])
@pytest.mark.parametrize("kind", ["global", "local", "nocontext",
                                  "nocontext-local"])
def test_every_scenario_round_trips_and_a_misplaced_partner_is_refused(
        kind, partner):
    text = kind if partner is None else f"{kind}:{partner}"
    if kind.endswith("local") == (partner is not None):
        scenario = Scenario.parse(text)
        assert str(scenario) == text
        assert Scenario.parse(str(scenario)) == scenario
    else:
        with pytest.raises(UsageError, match=f"^scenario '{kind}' "):
            Scenario.parse(text)


def _visibility_trace(catalog):
    temp = catalog.lookup("temp")
    events = []
    specs = [
        ("A", "alice", Visibility.PRIVATE),
        ("temp", "alice", Visibility.PUBLIC),
        ("B", "bob", Visibility.PRIVATE),
        ("temp", "bob", Visibility.PRIVATE),
        ("C", "alice", Visibility.INTERACTION),
    ]
    for i, (name, partner, vis) in enumerate(specs):
        et = catalog.lookup(name)
        payload = (1.5,) if et is temp else ()
        events.append(Event(et, 1_000 * (i + 1), "x", partner, vis, payload))
    return EventTrace("x", tuple(events), outcome_label=Outcome.END,
                      error_index=3)


def test_filter_global_is_identity(order_catalog):
    trace = _visibility_trace(order_catalog)
    assert filter_visibility([trace], Scenario.parse("global")) == [trace]


def test_filter_local_keeps_own_public_and_interaction(order_catalog):
    trace = _visibility_trace(order_catalog)
    [out] = filter_visibility([trace], Scenario.parse("local:alice"))
    names = [(e.event_type.name, e.partner_id) for e in out.events]
    assert names == [("A", "alice"), ("temp", "alice"), ("C", "alice")]
    assert out.outcome_label is Outcome.END


def test_filter_local_on_own_private_trace_is_identity(order_catalog):
    trace = make_trace(order_catalog, ["A", "B", "C"])
    [out] = filter_visibility([trace], Scenario(local=True, partner="p0"))
    assert out == trace


def test_filter_nocontext_drops_context_events(order_catalog):
    trace = make_trace(order_catalog, ["A", "temp", "B", "temp", "C"],
                       payloads={"temp": (20.0,)})
    [out] = filter_visibility([trace], Scenario.parse("nocontext"))
    assert [e.event_type.name for e in out.events] == ["A", "B", "C"]


def test_filter_unknown_partner_raises(order_catalog):
    trace = _visibility_trace(order_catalog)
    with pytest.raises(UnknownPartner):
        filter_visibility([trace], Scenario.parse("local:mallory"))


def test_filter_remaps_error_index(order_catalog):
    trace = _visibility_trace(order_catalog)
    assert trace.error_index == 3  # bob's private temp reading
    [out] = filter_visibility([trace], Scenario.parse("local:alice"))
    # alice keeps events 0, 1, 4; positions <= 3 that survive: 0, 1
    assert out.error_index == 1


def test_filter_properties_random_traces():
    rng = np.random.default_rng(11)
    scenarios = [
        Scenario.parse("global"),
        Scenario.parse("nocontext"),
        Scenario(local=True, partner="partner_0"),
        Scenario(local=True, drop_context=True, partner="partner_0"),
    ]
    for _ in range(25):
        _, traces = random_catalog_and_traces(rng)
        has_p0 = any(
            e.partner_id == "partner_0" for t in traces for e in t.events
        )
        for scenario in scenarios:
            if scenario.local and not has_p0:
                continue
            out = filter_visibility(traces, scenario)
            assert len(out) == len(traces)
            for before, after in zip(traces, out):
                assert len(after.events) <= len(before.events)
                assert after.outcome_label == before.outcome_label
                # order preserved: filtered events appear as a subsequence
                it = iter(before.events)
                assert all(e in it for e in after.events)
            # idempotent per scenario
            assert filter_visibility(out, scenario) == out


def test_catalog_from_traces_covers_all_types():
    rng = np.random.default_rng(5)
    catalog, traces = random_catalog_and_traces(rng)
    inferred = catalog_from_traces(traces)
    seen = {e.event_type.name for t in traces for e in t.events}
    assert {t.name for t in inferred.all_types} >= seen
    assert inferred.failure_type.kind is EventKind.FAILURE


def test_catalog_from_traces_keeps_the_first_failure_type():
    crash = make_catalog(["A"], contexts=(("temp", ()),), fail_name="crash")
    abort = make_catalog(["B", "A"], fail_name="abort")
    traces = [make_trace(abort, ["B", "abort"], instance_id="case-0"),
              make_trace(crash, ["A", "temp", "crash"], instance_id="case-1")]
    catalog = catalog_from_traces(traces)
    assert [t.name for t in catalog.all_types] == ["abort", "B", "A", "temp"]
    assert catalog.lookup("crash") is None


def test_merge_catalogs_appends_types_only_extra_has():
    base = make_catalog(["A", "B"], contexts=(
        ("temp", (("reading", FieldKind.NUMERIC),)),))
    extra = make_catalog(["B", "X", "A"], contexts=(
        ("load", (("kg", FieldKind.NUMERIC),)),
        ("temp", (("reading", FieldKind.NUMERIC),)),
    ))
    merged = merge_catalogs(base, extra)
    assert [t.name for t in merged.all_types] == [
        "failure", "A", "B", "X", "temp", "load"
    ]
    assert merged.all_types[:3] == base.all_types[:3]
    assert merge_catalogs(base, make_catalog(["B"])) is base


def test_merge_catalogs_rejects_conflicting_definitions():
    base = make_catalog(["A"], contexts=(
        ("temp", (("reading", FieldKind.NUMERIC),)),))
    schema = make_catalog(["A"], contexts=(
        ("temp", (("reading", FieldKind.CATEGORICAL),)),))
    with pytest.raises(SchemaError):
        merge_catalogs(base, schema)
    kind = make_catalog(["A", "temp"])
    with pytest.raises(SchemaError):
        merge_catalogs(base, kind)
    with pytest.raises(SchemaError):
        merge_catalogs(base, make_catalog(["A"], fail_name="crash"))
