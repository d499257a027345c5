"""Generate a synthetic six-partner supply-chain log and look inside.

The bundled collaboration has 48 tasks spread over six partners; 15 of
the tasks are interactions that emit one event on each side with a shared
message payload. Context sources (temperature, traffic, machine load,
humidity) attach probabilistic sensor readings to specific steps.
"""

import tempfile
from collections import Counter
from pathlib import Path

from efp import default_spec, generate, write_spec, write_xes

spec = default_spec(seed=42)
print(f"spec '{spec.name}': {len(spec.tasks)} tasks, "
      f"{len(spec.interactions)} interactions, "
      f"{len(spec.partners)} partners, "
      f"{len(spec.context_sources)} context sources")

traces = generate(spec, 25)
trace = traces[0]
print(f"\ngenerated {len(traces)} instances; "
      f"first instance {trace.instance_id!r} has {len(trace.events)} events")

per_partner = Counter(e.partner_id for e in trace.events)
print("events per partner:", dict(sorted(per_partner.items())))

print("\nfirst ten events:")
for event in trace.events[:10]:
    payload = f" payload={event.payload}" if event.payload else ""
    print(f"  {event.timestamp} {event.partner_id:<12} "
          f"{event.event_type.name:<18} [{event.visibility.value}]{payload}")

# interactions carry the same message data on both sides
pair = [e for e in trace.events if e.event_type.name == "place_order"]
print(f"\ninteraction 'place_order' emitted by {pair[0].partner_id} "
      f"and {pair[1].partner_id}, payload identical: "
      f"{pair[0].payload == pair[1].payload}")

# everything serializes deterministically
xes = write_xes(traces)
print(f"\nXES size for {len(traces)} traces: {len(xes)} bytes "
      f"(byte-identical across reruns with the same seed)")

with tempfile.TemporaryDirectory() as out:
    (Path(out) / "supply_chain.spec").write_text(write_spec(spec))
    (Path(out) / "supply_chain.xes").write_bytes(xes)
    print("wrote supply_chain.spec and supply_chain.xes to a temporary "
          "directory")
