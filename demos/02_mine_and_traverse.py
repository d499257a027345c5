"""Mine a directly-follows model and walk the probability tree.

A small order process with a branch: after C the run either goes through
D to G or finishes directly at E. We train the frequency classifier on a
skewed corpus, then traverse all probable continuations of the running
trace A -> B -> C and aggregate the failure mass.
"""

from efp import (
    EventCatalog,
    EventKind,
    EventType,
    FrequencyModel,
    Outcome,
    TraversalLimits,
    failure_probability,
    mine_model,
    traverse,
)
from efp.events import Event, EventTrace
from efp.traversal import format_report

catalog = EventCatalog(
    intrinsic=tuple(
        [EventType(EventKind.FAILURE, "failure")]
        + [EventType(EventKind.STEP, s) for s in "ABCDEG"]
    )
)


def trace_of(names, label=None, tid="t"):
    events = tuple(
        Event(catalog.lookup(n), (i + 1) * 1000, tid, "demo")
        for i, n in enumerate(names)
    )
    return EventTrace(tid, events, outcome_label=label)


# corpus: the D-branch usually ends in failure, E is the safe exit
corpus = (
    [trace_of("ABCE", Outcome.END, f"e{i}") for i in range(20)]
    + [trace_of("ABCDG", Outcome.END, f"g{i}") for i in range(5)]
    + [trace_of(list("ABCD") + ["failure"], Outcome.FAIL, f"f{i}")
       for i in range(45)]
    + [trace_of(list("ABC") + ["failure"], Outcome.FAIL, f"c{i}")
       for i in range(5)]
)

model = mine_model(corpus)
print(f"mined model: {len(model.states)} states, initial "
      f"{model.initial_state!r}, finals {sorted(model.final_states)}")
print("allowed successions:", sorted(model.allowed))

classifier = FrequencyModel(catalog, window=3, alpha=0.1)
classifier.train(corpus)

running = trace_of("ABC")
result = traverse(running, classifier, model, TraversalLimits())
print("\ncontinuations of A->B->C, most likely first:")
print(format_report(result.paths))

estimate = failure_probability(result)
print(f"\nexplored mass {result.explored_mass:.4f}, "
      f"pruned mass {result.pruned_mass:.4f}")
print(f"failure probability {estimate.p_fail:.4f} "
      f"(bounds [{estimate.lower:.4f}, {estimate.upper:.4f}])")

# tightening the limits only removes paths, never invents them
tight = traverse(running, classifier, model,
                 TraversalLimits(max_depth=1, max_breadth=2,
                                 min_probability=0.05))
print(f"\nwith depth 1 / breadth 2: {len(tight.paths)} paths, "
      f"pruned mass {tight.pruned_mass:.4f}")
