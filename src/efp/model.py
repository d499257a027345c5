"""Probabilistic-automaton skeleton and directly-follows mining.

The model stores which direct step successions are possible; the actual
transition probabilities are produced on demand by a classifier. The
failure state is implicit: it is reachable from every non-final state and
has no outgoing edges.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import EmptyLog, NoIntrinsicEvent, SpecFormatError, UnknownState
from .events import FAIL_STATE, EventTrace


@dataclass(frozen=True)
class ProcessModel:
    """States, initial/final states, and allowed direct successions.

    ``allowed`` never lists failure edges: the failure state is feasible
    from any non-final state by construction.
    """

    states: frozenset[str]
    initial_state: str
    final_states: frozenset[str]
    allowed: frozenset[tuple[str, str]]

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states) | {FAIL_STATE})
        object.__setattr__(
            self, "final_states", frozenset(self.final_states) | {FAIL_STATE}
        )
        for a, b in self.allowed:
            if a not in self.states or b not in self.states:
                raise ValueError(f"edge ({a!r}, {b!r}) references unknown state")
        if self.initial_state not in self.states:
            raise ValueError("initial state must be a model state")
        if any(a == FAIL_STATE for a, _ in self.allowed):
            raise ValueError("failure state cannot have outgoing edges")
        object.__setattr__(self, "_successors", _successor_map(self))

    def successors(self, source: str) -> frozenset[str]:
        """Feasible next states. Final states (including the failure state)
        have none: the run terminates there."""
        if source not in self.states:
            raise UnknownState(f"state {source!r} not in model")
        if source in self.final_states:
            return frozenset()
        return self._successors[source]


def _successor_map(model: ProcessModel) -> dict[str, frozenset[str]]:
    out: dict[str, set[str]] = {s: set() for s in model.states}
    for a, b in model.allowed:
        out[a].add(b)
    for s in model.states:
        if s not in model.final_states:
            out[s].add(FAIL_STATE)
    return {s: frozenset(v) for s, v in out.items()}


def current_step(trace: EventTrace) -> str:
    """State of the last intrinsic event in the trace.

    Context events never move the automaton, so they are skipped. Raises
    ``NoIntrinsicEvent`` when the trace carries only context events.
    """
    for event in reversed(trace.events):
        if event.is_intrinsic:
            return event.state
    raise NoIntrinsicEvent(f"trace {trace.instance_id!r} has no intrinsic event")


def mine_model(traces: list[EventTrace]) -> ProcessModel:
    """Mine a directly-follows model from intrinsic step sequences.

    States are the observed step names plus the failure state. The initial
    state is the most frequent first step (ties broken lexicographically),
    final states are the observed last steps, and ``allowed`` holds every
    observed adjacent pair. Failure events collapse onto the failure state,
    so a trace ending in a failure contributes no spurious final step.
    """
    sequences = [seq for seq in (t.states for t in traces) if seq]
    if not sequences:
        raise EmptyLog("mining requires at least one trace with an intrinsic event")

    states: set[str] = set()
    edges: set[tuple[str, str]] = set()
    firsts: Counter = Counter()
    finals: set[str] = set()
    for seq in sequences:
        states.update(seq)
        firsts[seq[0]] += 1
        finals.add(seq[-1])
        for a, b in zip(seq, seq[1:]):
            # Failure edges are implicit: ``allowed`` holds step successions.
            if a != FAIL_STATE and b != FAIL_STATE:
                edges.add((a, b))

    top = max(firsts.values())
    initial = min(s for s, c in firsts.items() if c == top)
    return ProcessModel(
        states=frozenset(states),
        initial_state=initial,
        final_states=frozenset(finals),
        allowed=frozenset(edges),
    )


def write_model(model: ProcessModel) -> str:
    """Line-oriented model file: ``initial``/``final`` headers then edges.

    Failure edges are implicit and never listed; output is sorted so the
    rendering is canonical.
    """
    lines = [f"initial {model.initial_state}"]
    for s in sorted(model.final_states - {FAIL_STATE}):
        lines.append(f"final {s}")
    for a, b in sorted(model.allowed):
        lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"


def read_model(text: str) -> ProcessModel:
    initial = None
    finals: set[str] = set()
    states: set[str] = set()
    edges: set[tuple[str, str]] = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "initial" and len(parts) == 2:
            initial = parts[1]
            states.add(parts[1])
        elif parts[0] == "final" and len(parts) == 2:
            finals.add(parts[1])
            states.add(parts[1])
        elif len(parts) == 2:
            edges.add((parts[0], parts[1]))
            states.update(parts)
        else:
            raise SpecFormatError(f"model line {lineno}: cannot parse {line!r}")
    if initial is None:
        raise SpecFormatError("model file lacks an 'initial' line")
    return ProcessModel(
        states=frozenset(states),
        initial_state=initial,
        final_states=frozenset(finals),
        allowed=frozenset(edges),
    )
