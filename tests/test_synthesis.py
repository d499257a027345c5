import functools
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from efp.errors import PlanMismatch, SpecFormatError
from efp.events import EventKind, Outcome, Visibility
from efp.synthesis import (
    DATA_FAULT,
    EVENT_FAULT,
    FAULT_TYPES,
    STEP_FAULT,
    CollaborationSpec,
    Dist,
    FaultPlan,
    StepFaultShape,
    Task,
    default_fault_plan,
    default_spec,
    generate,
    inject_faults,
    minimal_spec,
    read_spec,
    write_spec,
)
from efp.xes import write_xes


def _context_names(trace):
    return sorted(
        e.event_type.name for e in trace.events
        if e.event_type.kind is EventKind.CONTEXT
    )


def test_minimal_spec_structure():
    traces = generate(minimal_spec(1), 10)
    assert len(traces) == 10
    for trace in traces:
        partners = {e.partner_id for e in trace.events}
        assert partners == {"shop", "courier"}
        pair = [e for e in trace.events
                if e.event_type.name == "request_pickup"]
        assert len(pair) == 2
        assert pair[0].payload == pair[1].payload
        assert {e.partner_id for e in pair} == {"shop", "courier"}
        assert trace.outcome_label is Outcome.END


def test_default_spec_task_counts():
    spec = default_spec(0)
    assert len(spec.partners) == 6
    assert len(spec.tasks) == 48
    assert len(spec.interactions) == 15
    [trace] = generate(spec, 1)
    names = {e.event_type.name for e in trace.events if e.is_intrinsic}
    assert len(names) == 48
    assert len({e.partner_id for e in trace.events}) == 6


def test_interaction_payloads_consistent_across_messages():
    spec = default_spec(5)
    [trace] = generate(spec, 1)
    by_name = {}
    for e in trace.events:
        if e.visibility is Visibility.INTERACTION:
            by_name.setdefault(e.event_type.name, []).append(e.payload)
    for name, payloads in by_name.items():
        assert len(payloads) == 2
        assert payloads[0] == payloads[1]
    # the same order id flows through every interaction that carries one
    order_ids = set()
    for e in trace.events:
        if e.visibility is not Visibility.INTERACTION:
            continue
        for (fname, _), value in zip(e.event_type.data_schema, e.payload):
            if fname == "order_id":
                order_ids.add(value)
    assert len(order_ids) == 1


def test_delivery_date_respects_deadline():
    spec = default_spec(9)
    for trace in generate(spec, 20):
        place = next(e for e in trace.events
                     if e.event_type.name == "place_order")
        announce = next(e for e in trace.events
                        if e.event_type.name == "announce_delivery")
        deadline = place.payload[2]
        delivery = announce.payload[1]
        assert delivery <= deadline


def test_generation_deterministic_and_independent_of_batching():
    spec = default_spec(21)
    a = generate(spec, 5)
    b = generate(spec, 5)
    assert write_xes(a) == write_xes(b)
    # per-instance seed streams: a smaller batch is a prefix
    assert write_xes(generate(spec, 3)) == write_xes(a[:3])


def test_generate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        generate(minimal_spec(0), 0)


def test_spec_validation():
    with pytest.raises(SpecFormatError):
        CollaborationSpec(
            name="bad", partners=("a",),
            tasks=(Task("t1", "nobody"),),
        )
    with pytest.raises(SpecFormatError):
        CollaborationSpec(
            name="bad", partners=("a", "b"),
            tasks=(Task("t1", "a", counterparty="a"),),
        )


def test_spec_file_round_trip():
    for spec in (minimal_spec(3), default_spec(7)):
        text = write_spec(spec)
        clone = read_spec(text)
        assert clone == spec
        assert write_spec(clone) == text


def test_plain_task_payload_fields():
    # Each plain-task event carries one value per field, drawn in field
    # order from its instance's own stream before the event's time step.
    spec = CollaborationSpec(
        name="weighing",
        partners=("scale", "carrier"),
        tasks=(
            Task("weigh", "scale", fields=(
                ("weight", Dist("normal", 10.0, 2.0)),
                ("grade", Dist("choice", options=("a", "b", "c"))),
            )),
            Task("ship", "carrier"),
        ),
        seed=5,
    )
    traces = generate(spec, 4)
    for i, trace in enumerate(traces):
        rng = np.random.default_rng([spec.seed, i])
        weight = float(rng.normal(10.0, 2.0))
        grade = ("a", "b", "c")[rng.integers(0, 3)]
        weigh, ship = trace.events
        assert weigh.payload == (weight, grade)
        assert ship.payload == ()
    assert write_xes(generate(spec, 4)) == write_xes(traces)
    text = write_spec(spec)
    assert read_spec(text) == spec
    assert write_spec(read_spec(text)) == text
    assert write_xes(generate(read_spec(text), 4)) == write_xes(traces)


def test_injection_rate_zero_and_one():
    spec = default_spec(2)
    traces = generate(spec, 40)
    plan0 = default_fault_plan(spec, 0.0)
    assert all(t.outcome_label is Outcome.END
               for t in inject_faults(traces, plan0, seed=1))
    plan1 = default_fault_plan(spec, 1.0)
    injected = inject_faults(traces, plan1, seed=1)
    for trace in injected:
        assert trace.outcome_label is Outcome.FAIL
        failures = [e for e in trace.events
                    if e.event_type.kind is EventKind.FAILURE]
        assert len(failures) == 1
        assert trace.states[-1] == "q_fail"
        assert trace.error_index is not None


def test_injection_rate_concentration():
    spec = minimal_spec(4)
    traces = generate(spec, 10_000)
    plan = default_fault_plan(spec, 0.5, (STEP_FAULT, EVENT_FAULT))
    injected = inject_faults(traces, plan, seed=7)
    fails = sum(1 for t in injected if t.outcome_label is Outcome.FAIL)
    assert abs(fails / 10_000 - 0.5) <= 0.02


def test_injection_deterministic():
    spec = default_spec(2)
    traces = generate(spec, 50)
    plan = default_fault_plan(spec, 0.5)
    assert write_xes(inject_faults(traces, plan, seed=3)) == \
        write_xes(inject_faults(traces, plan, seed=3))


@functools.cache
def _clean_corpus(spec_name):
    spec = {"default": default_spec, "minimal": minimal_spec}[spec_name](5)
    return spec, generate(spec, 120)


# sha256 of the injected XES at rates 0, 0.3 and 1.0 (seed 7).
INJECTED_DIGESTS = {
    ("default", FAULT_TYPES): (
        "57627196a8c56eac1191e7c77fbafde9c9dc439ca9dc4150224c08e65654f55d",
        "4bddc90aafcb36015140bf319b61d3fb07148b3162fc959a49592fbc0b6cc087",
        "6b82b1257427de7ce5825ea7510ffb4a4baca4e1bfcb73d3b423ed965d962aa8",
    ),
    ("default", (STEP_FAULT,)): (
        "57627196a8c56eac1191e7c77fbafde9c9dc439ca9dc4150224c08e65654f55d",
        "982534b43c39ca2db544700f2335b4a461de05a8126aec367c8b5effe8133161",
        "3973ff5dceff08cc8795803983a3a124a6f7d3483d827544a22dc8c8ef209455",
    ),
    ("default", (EVENT_FAULT,)): (
        "57627196a8c56eac1191e7c77fbafde9c9dc439ca9dc4150224c08e65654f55d",
        "e9e1bea95746e6e5f52520937a4c6417afab377a79c9fb4805a9f92e726620ac",
        "ee1714197a8a86e71999f106806f35dfd851fd15fa550f134131c592baca484e",
    ),
    ("default", (DATA_FAULT,)): (
        "57627196a8c56eac1191e7c77fbafde9c9dc439ca9dc4150224c08e65654f55d",
        "804bb98060cea0706eee9dc5ccb1826b08f13be148e6e802403fe0379d4cf086",
        "f06626c9570ea1260fa1537b0b572cab593bf0f4c130864bb291eaa52797dfd6",
    ),
    ("default", (STEP_FAULT, EVENT_FAULT)): (
        "57627196a8c56eac1191e7c77fbafde9c9dc439ca9dc4150224c08e65654f55d",
        "f1c357177c01dcf53c665d7ef47aa9fc0dd2170fb5a20bd4ad62fefc14338227",
        "91e96772347baaa0c9a437475c52ed6f360d1aefec89d3a13755c5c0114b5149",
    ),
    ("default", (EVENT_FAULT, STEP_FAULT)): (
        "57627196a8c56eac1191e7c77fbafde9c9dc439ca9dc4150224c08e65654f55d",
        "989662b425a72e84c05dbeb4e5dccb4e16a76d2ccb30a670b4972a7756844c66",
        "aa2830aeda2a22b17aa4968b529bf18bfc2799212fc0427383abcc9456fdea48",
    ),
    ("minimal", (STEP_FAULT, EVENT_FAULT)): (
        "7ff4358ee492a192b6e2086cc6cd345cede48a54fe317c24721d4096a7b0c3b9",
        "523202904cdcb391facee8beaa14b8712baade808f4a6cdaed19acddae2e2f51",
        "31044179d5c04e8b3e21ddfdaa5a8eb2518bc768ab5034ae5481e841d5038e7b",
    ),
    ("minimal", (STEP_FAULT,)): (
        "7ff4358ee492a192b6e2086cc6cd345cede48a54fe317c24721d4096a7b0c3b9",
        "7b3db08111eec2a0e2dd56b33559c4429ee9e10862a009658fbd52dced973e48",
        "d1842bf3bb733b297491d8e633dcfbc7a4f9d41d5a4f709a60954b2c54aa2160",
    ),
    ("minimal", (EVENT_FAULT,)): (
        "7ff4358ee492a192b6e2086cc6cd345cede48a54fe317c24721d4096a7b0c3b9",
        "d10170ff762a781981e03b533250e0ac39313b5001aad66a6819f15c184d5f67",
        "08652666f8c974955d0d9bdf9d36116c726274d0cf1ac713792ab3f09c39560b",
    ),
}


@pytest.mark.parametrize(
    "spec_name,fault_types", list(INJECTED_DIGESTS),
    ids=[f"{name}-{'+'.join(types)}" for name, types in INJECTED_DIGESTS],
)
def test_injected_bytes_are_pinned(spec_name, fault_types):
    spec, clean = _clean_corpus(spec_name)
    for rate, digest in zip((0.0, 0.3, 1.0),
                            INJECTED_DIGESTS[spec_name, fault_types]):
        plan = default_fault_plan(spec, rate, fault_types)
        data = write_xes(inject_faults(clean, plan, seed=7))
        assert hashlib.sha256(data).hexdigest() == digest, rate


def test_error_precedes_failure_by_at_least_two_steps():
    spec = default_spec(11)
    traces = generate(spec, 60)
    plan = default_fault_plan(spec, 1.0)
    for trace in inject_faults(traces, plan, seed=5):
        fail_at = next(i for i, e in enumerate(trace.events)
                       if e.event_type.kind is EventKind.FAILURE)
        intrinsic_between = sum(
            1 for e in trace.events[trace.error_index + 1:fail_at]
            if e.is_intrinsic
        )
        assert intrinsic_between >= 2


def _split_by_type(spec, traces, seed=13):
    out = {}
    for ftype in (STEP_FAULT, EVENT_FAULT, DATA_FAULT):
        plan = default_fault_plan(spec, 1.0, (ftype,))
        out[ftype] = inject_faults(traces, plan, seed=seed)
    return out


def test_fault_type_conservation():
    spec = default_spec(17)
    traces = generate(spec, 25)
    injected = _split_by_type(spec, traces)

    for clean, stepped in zip(traces, injected[STEP_FAULT]):
        # the intrinsic sequence diverges before the failure event
        assert stepped.states[:-1] != clean.states[: len(stepped.states) - 1]
        assert "escalate_order" in stepped.states
        # no new context event types appear
        assert set(_context_names(stepped)) <= set(_context_names(clean))

    for clean, alarmed in zip(traces, injected[EVENT_FAULT]):
        # intrinsic steps stay a prefix of the clean ones
        assert alarmed.states[:-1] == clean.states[: len(alarmed.states) - 1]
        extra = set(_context_names(alarmed)) - set(_context_names(clean))
        assert extra == {"temperature_alarm"}
        # untouched events keep their identity and payloads
        kept = [e for e in alarmed.events
                if e.event_type.name not in ("temperature_alarm", "failure")]
        for mine, original in zip(kept, clean.events):
            assert mine.event_type.name == original.event_type.name
            assert mine.payload == original.payload

    for clean, shifted in zip(traces, injected[DATA_FAULT]):
        assert shifted.states[:-1] == clean.states[: len(shifted.states) - 1]
        err = shifted.events[shifted.error_index]
        assert err.event_type.name == "temperature"
        assert err.payload[0] == pytest.approx(18.0 + 6 * 2.5)


def test_data_fault_shifts_in_place_or_inserts():
    spec = default_spec(23)
    traces = generate(spec, 30)
    plan = default_fault_plan(spec, 1.0, (DATA_FAULT,))
    [temperature] = [s for s in spec.context_sources if s.name == "temperature"]
    assert plan.shapes[0].source is temperature
    injected = inject_faults(traces, plan, seed=2)
    shifted_in_place = inserted = 0
    for clean, out in zip(traces, injected):
        leg1 = next(i for i, e in enumerate(clean.events)
                    if e.event_type.name == "transport_leg_1")
        had_reading = (
            leg1 + 1 < len(clean.events)
            and clean.events[leg1 + 1].event_type.name == "temperature"
        )
        err = out.events[out.error_index]
        assert err.event_type.name == "temperature"
        assert err.payload == (temperature.mu + 6.0 * temperature.sigma,)
        assert (err.partner_id, out.events[-1].partner_id) == ("carrier",) * 2
        if had_reading:
            shifted_in_place += 1
            assert err.timestamp == clean.events[leg1 + 1].timestamp
        else:
            inserted += 1
    assert shifted_in_place > inserted  # fire probability 0.7 dominates


def test_plan_mismatch_raises():
    spec = minimal_spec(1)
    traces = generate(spec, 3)
    plan = FaultPlan(
        rate=1.0,
        shapes=(StepFaultShape("no_such_step", ("x",), "shop"),),
    )
    with pytest.raises(PlanMismatch):
        inject_faults(traces, plan, seed=0)


@pytest.mark.parametrize("fault_type", [DATA_FAULT, EVENT_FAULT])
def test_trace_too_short_for_the_failure_point(fault_type):
    spec = default_spec(3)
    [shape] = default_fault_plan(spec, 1.0, (fault_type,)).shapes
    [clean] = generate(spec, 1)
    at = next(i for i, e in enumerate(clean.events) if e.state == shape.anchor)
    cut = replace(clean, events=clean.events[: at + 1])
    with pytest.raises(PlanMismatch, match="too short for the failure point"):
        shape.apply(cut, np.random.default_rng(0))


def test_fault_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(rate=1.5, shapes=(StepFaultShape("a", ("b",), "p"),))
    with pytest.raises(ValueError):
        FaultPlan(rate=0.5, shapes=())


def test_dist_round_trip():
    for dist in (Dist("uniform", 1, 5), Dist("normal", 0, 2),
                 Dist("choice", options=("x", "y")), Dist("tag", ref="ord"),
                 Dist("minus_uniform", 1, 3, ref="deadline")):
        assert Dist.parse(dist.render()) == dist


@pytest.mark.parametrize("dist", [
    ("uniform", 10.0, float("inf")),
    ("uniform", float("nan"), 1.0),
    ("uniform", 100.0, -2.5),
    ("uniform", -1e308, 1e308),
    ("minus_uniform", 1.0, float("inf")),
    ("normal", 18.0, -2.5),
    ("normal", float("-inf"), 1.0),
], ids=["inf-bound", "nan-bound", "descending", "overflowing-range",
        "minus-inf", "negative-sigma", "normal-inf"])
def test_dist_rejects_parameters_it_cannot_draw_from(dist):
    kind, a, b = dist
    with pytest.raises(SpecFormatError):
        Dist(kind, a, b, ref="x")


def _spec_with_fields(*tasks):
    return CollaborationSpec(name="fields", partners=("a", "b"), tasks=tasks)


def test_spec_checks_minus_uniform_references_in_task_order():
    below = ("late", Dist("minus_uniform", 1, 2, ref="due"))
    due = ("due", Dist("uniform", 10, 20))
    # Drawn earlier, in an earlier task or earlier in the same task: fine.
    _spec_with_fields(Task("t1", "a", fields=(due,)),
                      Task("t2", "a", fields=(below,)))
    _spec_with_fields(Task("t1", "a", fields=(due, below)))
    for tasks in (
        (Task("t1", "a", fields=(below,)), Task("t2", "a", fields=(due,))),
        (Task("t1", "a", fields=(("due", Dist("choice", options=("1", "2"))),
                                 below)),),
        (Task("t1", "a", fields=(below,)),),
    ):
        with pytest.raises(SpecFormatError, match="no numeric field drawn"):
            _spec_with_fields(*tasks)


def test_spec_refuses_an_interaction_field_of_another_kind():
    numeric = ("x", Dist("uniform", 1, 2))
    categorical = ("x", Dist("choice", options=("p", "q")))
    # The same kind, or a plain task drawing the field anew: fine.
    _spec_with_fields(Task("t1", "a", fields=(numeric,)),
                      Task("t2", "a", "b", fields=(numeric,)))
    _spec_with_fields(Task("t1", "a", fields=(numeric,)),
                      Task("t2", "a", fields=(categorical,)))
    for first in (Task("t1", "a", fields=(numeric,)),
                  Task("t1", "a", "b", fields=(numeric,))):
        with pytest.raises(SpecFormatError, match=(
                "interaction 't2': field 'x' is categorical, but the "
                "instance holds it as numeric")):
            _spec_with_fields(first, Task("t2", "a", "b", fields=(categorical,)))


def test_spec_keeps_event_names_apart():
    from efp.synthesis import ContextSource

    temp = ContextSource("t1", "a", Visibility.PUBLIC, "v", 0.0, 1.0)
    for tasks, sources in (((Task("failure", "a"),), ()),
                           ((Task("t1", "a"),), (temp,))):
        with pytest.raises(SpecFormatError, match="must be unique"):
            CollaborationSpec("names", ("a",), tasks, sources)
