"""Bounded traversal of possible continuations of a running trace.

Starting from the current step, the classifier is queried for a next-step
distribution, infeasible successors (per the process model) are zeroed
out and the rest renormalized, and the most likely candidates are expanded
recursively until a final state or the failure state is reached. Branches
cut by the depth, breadth, or probability limits are tallied into
``pruned_mass`` so the failure probability can be reported with honest
interval bounds.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

from .events import FAIL_STATE, EventTrace, Outcome
from .model import ProcessModel, current_step
from .predictors import Classifier


@dataclass(frozen=True)
class TraversalLimits:
    """Search-space bounds: maximum suffix length, children expanded per
    node, and minimum partial path probability."""

    max_depth: int = 20
    max_breadth: int = 5
    min_probability: float = 1e-4

    def __post_init__(self):
        if self.max_depth < 1 or self.max_breadth < 1:
            raise ValueError("depth and breadth limits must be at least 1")
        if not 0.0 <= self.min_probability <= 1.0:
            raise ValueError("min_probability must lie in [0, 1]")


UNLIMITED = TraversalLimits(max_depth=100, max_breadth=10_000, min_probability=0.0)


@dataclass(frozen=True)
class OutcomePath:
    """One predicted continuation with its chained probability.

    ``step_probs`` holds the per-step factors whose product (times the
    certain probability 1 of the recorded history) is ``probability``.
    ``outcome_state`` is the final state reached, or the state at which
    failure was predicted.
    """

    suffix: tuple[str, ...]
    probability: float
    outcome: Outcome
    outcome_state: str
    step_probs: tuple[float, ...]


@dataclass(frozen=True)
class TraversalResult:
    paths: tuple[OutcomePath, ...]
    explored_mass: float
    pruned_mass: float
    already_final: bool = False
    final_state: str | None = None


class _Walker:
    """Single-traversal state: classifier cursors advance one hypothetical
    step at a time, so each prefix is evaluated at most once, and the
    filtered candidate lists are memoized for repeated (cursor, state)
    combinations."""

    def __init__(self, classifier, model, limits):
        self.classifier = classifier
        self.model = model
        self.limits = limits
        self.paths: list[OutcomePath] = []
        self.pruned = 0.0
        self._candidate_cache: dict = {}
        self._slot_cache: dict = {}

    def slots(self, outcomes, state: str):
        """The state's feasible successors as ``(index, name)`` slots of
        the classifier's outcomes, in outcome order, plus the feasible set
        itself for the zero-mass fallback. A classifier's outcomes are
        fixed, so this is computed once per state."""
        cached = self._slot_cache.get(state)
        if cached is None:
            if state in self.model.states:
                feasible = self.model.successors(state)
            else:
                # State never seen during mining: the model cannot constrain
                # the continuation, so every predicted outcome stays in play.
                feasible = set(outcomes)
            slots = [(i, name) for i, name in enumerate(outcomes) if name in feasible]
            cached = slots, feasible
            self._slot_cache[state] = cached
        return cached

    def candidates(self, prediction, cursor, state: str):
        """Feasible successors with renormalized probabilities, most likely
        first; ties broken by state identifier."""
        key = (cursor, state) if isinstance(cursor, tuple) else None
        if key is not None:
            cached = self._candidate_cache.get(key)
            if cached is not None:
                return cached
        slots, feasible = self.slots(prediction.outcomes, state)
        probs = prediction.probs
        entries = [(name, p) for i, name in slots if (p := probs[i]) > 0.0]
        total = sum(p for _, p in entries)
        if total <= 0.0:
            # Classifier assigns no mass to any feasible successor; fall
            # back to a uniform split so probability mass is conserved.
            # The model may allow successors the classifier does not
            # predict (a model read from a file).
            entries = [(name, 1.0) for name in sorted(feasible)]
            total = float(len(entries))
        entries = [(name, p / total) for name, p in entries]
        entries.sort(key=lambda item: (-item[1], item[0]))
        if key is not None:
            self._candidate_cache[key] = entries
        return entries

    def expand(self, cursor, prediction, state: str, suffix, probs, p_curr):
        depth = len(suffix) + 1
        for rank, (name, p) in enumerate(
            self.candidates(prediction, cursor, state)
        ):
            p_child = p_curr * p
            if p_child <= 0.0:
                continue
            if rank >= self.limits.max_breadth or depth > self.limits.max_depth:
                self.pruned += p_child
                continue
            child_suffix = suffix + (name,)
            child_probs = probs + (p,)
            if name == FAIL_STATE:
                self.paths.append(
                    OutcomePath(child_suffix, p_child, Outcome.FAIL, state, child_probs)
                )
            elif name in self.model.final_states:
                self.paths.append(
                    OutcomePath(child_suffix, p_child, Outcome.END, name, child_probs)
                )
            elif p_child < self.limits.min_probability:
                self.pruned += p_child
            else:
                next_cursor, next_pred = self.classifier.advance(cursor, name)
                self.expand(
                    next_cursor, next_pred, name, child_suffix, child_probs, p_child
                )


def traverse(
    trace: EventTrace,
    classifier: Classifier,
    model: ProcessModel,
    limits: TraversalLimits = TraversalLimits(),
) -> TraversalResult:
    """Enumerate probable continuations of ``trace`` within the limits.

    When the trace already sits in a final state there is nothing to
    predict: the result carries the ``already_final`` flag and the state.
    Otherwise ``explored_mass + pruned_mass == 1`` up to rounding.
    """
    state = current_step(trace, model)
    if state in model.final_states:
        return TraversalResult(
            paths=(),
            explored_mass=0.0,
            pruned_mass=0.0,
            already_final=True,
            final_state=state,
        )
    walker = _Walker(classifier, model, limits)
    cursor, prediction = classifier.start(trace)
    walker.expand(cursor, prediction, state, (), (), 1.0)
    paths = tuple(
        sorted(walker.paths, key=lambda p: (-p.probability, p.suffix))
    )
    explored = sum(p.probability for p in paths)
    return TraversalResult(
        paths=paths, explored_mass=explored, pruned_mass=walker.pruned
    )


@dataclass(frozen=True)
class FailureEstimate:
    """Point estimate plus interval bounds accounting for pruned mass."""

    p_fail: float
    lower: float
    upper: float


def failure_probability(result: TraversalResult) -> FailureEstimate:
    """Aggregate failure mass of a traversal.

    The point estimate sums the probabilities of all failing paths; the
    upper bound adds the pruned mass, which could hide further failures.
    A trace that already terminated is certain: probability 1 if it ended
    in the failure state, 0 otherwise.
    """
    if result.already_final:
        p = 1.0 if result.final_state == FAIL_STATE else 0.0
        return FailureEstimate(p, p, p)
    fail_mass = sum(
        p.probability for p in result.paths if p.outcome is Outcome.FAIL
    )
    return FailureEstimate(fail_mass, fail_mass, fail_mass + result.pruned_mass)


class Classification(enum.Enum):
    PREDICT_FAIL = "fail"
    PREDICT_END = "end"


def classify_instance(
    trace: EventTrace,
    classifier: Classifier,
    model: ProcessModel,
    limits: TraversalLimits = TraversalLimits(),
    threshold: float = 0.5,
) -> Classification:
    """Binarize the failure probability at ``threshold`` (inclusive)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    estimate = failure_probability(traverse(trace, classifier, model, limits))
    if estimate.p_fail >= threshold:
        return Classification.PREDICT_FAIL
    return Classification.PREDICT_END


def format_report(paths: Sequence[OutcomePath]) -> str:
    """Text report: one line per path, probability with three decimals."""
    lines = []
    for path in paths:
        lines.append(
            f"{'->'.join(path.suffix)} {path.probability:.3f} {path.outcome.value}"
        )
    return "\n".join(lines)
