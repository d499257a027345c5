"""Replay a failing execution through the event bus and watch the
prediction timeline.

The classifier is trained on 2000 runs of a 20-step pipeline in which 5%
divert at step 12 onto a doomed alternative path. Replaying one failing
run event by event, the failure probability stays near the base rate
until the first divergent step arrives, then jumps to near certainty --
four steps before the failure actually happens.
"""

from efp import FrequencyModel, mine_model, replay
from efp.events import Outcome, catalog_from_traces
from efp.synthesis import (
    CollaborationSpec,
    FaultPlan,
    StepFaultShape,
    Task,
    generate,
    inject_faults,
)

spec = CollaborationSpec(
    name="pipeline",
    partners=("plant",),
    tasks=tuple(Task(f"s{i:02d}", "plant") for i in range(20)),
    seed=1234,
)
plan = FaultPlan(
    rate=0.05,
    shapes=(
        StepFaultShape(
            divert_after="s11",
            alt_path=("d12", "d13", "d14", "d15"),
            partner="plant",
        ),
    ),
)

corpus = inject_faults(generate(spec, 2000), plan, seed=9)
catalog = catalog_from_traces(corpus)
model = mine_model(corpus)
classifier = FrequencyModel(catalog, window=3, alpha=0.01)
classifier.train(corpus)
print(f"trained on {len(corpus)} runs "
      f"({sum(t.outcome_label is Outcome.FAIL for t in corpus)} failed)")

failing = next(t for t in corpus if t.outcome_label is Outcome.FAIL)
print(f"replaying {failing.instance_id!r}: error at event "
      f"{failing.error_index}, failure at event {len(failing.events) - 1}")

stream = replay([failing], classifier, model)

print("\nindex  event               p_fail  bounds")
for prediction in stream:
    event = failing.events[prediction.at_event_index]
    bar = "#" * int(prediction.p_fail * 30)
    print(f"  {prediction.at_event_index:03d}  "
          f"{event.event_type.name:<18} {prediction.p_fail:.4f}  "
          f"[{prediction.lower:.4f}, {prediction.upper:.4f}] {bar}")

threshold = 0.5
detection = next(p.at_event_index for p in stream
                 if p.p_fail >= threshold)
failure_at = len(failing.events) - 1
print(f"\ndetected at event {detection}, failure at event {failure_at}: "
      f"lead time {failure_at - detection} steps")
