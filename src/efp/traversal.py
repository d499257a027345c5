"""Bounded traversal of possible continuations of a running trace.

Starting from the current step, the classifier is queried for a next-step
distribution, infeasible successors (per the process model) are zeroed
out and the rest renormalized, and the most likely candidates are expanded
depth first until a final state is reached; the failure state is one of
the model's final states. Branches cut by the depth, breadth, or
probability limits are tallied into ``pruned_mass`` so the failure
probability can be reported with honest interval bounds. A walk's leaves
are sorted once, most likely first: the explored and failure masses are
added in that order, and the top paths are read off the head of that
list. A path ends in failure exactly when its last step is the failure
state.
"""

from __future__ import annotations

import itertools
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter, itemgetter

import numpy as np

from .errors import UsageError
from .events import FAIL_STATE, EventTrace, Outcome
from .model import ProcessModel, current_step
from .predictors import Classifier, check_distribution


@dataclass(frozen=True)
class TraversalLimits:
    """Search-space bounds: maximum suffix length, children expanded per
    node, and minimum partial path probability."""

    max_depth: int = 20
    max_breadth: int = 5
    min_probability: float = 1e-4

    def __post_init__(self):
        if self.max_depth < 1 or self.max_breadth < 1:
            raise UsageError("depth and breadth limits must be at least 1")
        if not 0.0 <= self.min_probability <= 1.0:
            raise UsageError("min_probability must lie in [0, 1]")


UNLIMITED = TraversalLimits(max_depth=100, max_breadth=10_000, min_probability=0.0)

# Path-node expansions one walk may make. Expanded nodes at one depth are
# disjoint and each has probability at least ``min_probability``, so a walk
# at the default limits expands at most max_depth / min_probability = 2e5
# and never reaches this; at a zero cutoff it bounds an exponential walk.
MAX_EXPANSIONS = 200_000

# Shared nodes the step cache may keep after a walk; past it the cache is
# dropped. A node takes about 0.55 KB for a window-3 frequency model and
# 0.86 KB for a 32-unit recurrent model (tracemalloc, links included).
NODE_CAP = 10_000


@dataclass(frozen=True)
class OutcomePath:
    """One predicted continuation with its chained probability."""

    suffix: tuple[str, ...]
    probability: float
    outcome: Outcome


def _outcome_path(leaf) -> OutcomePath:
    """The path of a leaf ``(probability, link)``: its suffix is read off
    the parent links, and its outcome off the last step, a final state."""
    probability, link = leaf
    outcome = Outcome.FAIL if link[1] == FAIL_STATE else Outcome.END
    suffix = []
    while link is not None:
        link, name = link
        suffix.append(name)
    suffix.reverse()
    return OutcomePath(tuple(suffix), probability, outcome)


@dataclass(frozen=True)
class TraversalResult:
    """Masses and outcome paths of one traversal.

    ``explored_mass`` sums the probabilities of every outcome path,
    ``failure_mass`` those of the failing ones and ``pruned_mass`` the
    branches the limits cut. The walk records each path as a leaf
    ``(probability, link)``, where ``link`` is ``(parent_link, state)``,
    the root's link is ``None`` and a leaf's own state is final. The leaves
    are kept most likely first, leaves of equal probability in walk order.
    Paths are ordered most likely first, ties broken by suffix:
    ``top_paths(k)`` builds the first ``k`` from the leading leaves, and
    ``paths``, every path, is built on its first read. The masses, and so
    ``failure_probability``, never build a path. The leaves take no part
    in equality or ``repr``: a deep walk's links nest thousands deep. A
    trace already in a final state is ``already_final``: it has no leaves,
    and ``failure_mass`` carries the certain outcome, 1.0 in the failure
    state and 0.0 in any other.
    """

    explored_mass: float
    pruned_mass: float
    failure_mass: float = 0.0
    already_final: bool = False
    leaves: tuple = field(default=(), repr=False, compare=False)

    @cached_property
    def paths(self) -> tuple[OutcomePath, ...]:
        return self.top_paths(len(self.leaves))

    def top_paths(self, k: int) -> tuple[OutcomePath, ...]:
        """``paths[:k]``, built from the leading leaves down to the
        ``k``-th probability, ties at the cut included."""
        leaves = self.leaves
        if len(leaves) > k >= 1:
            cut = leaves[k - 1][0]
            leaves = itertools.takewhile(lambda leaf: leaf[0] >= cut, leaves)
        paths = []
        for _, tied in itertools.groupby(
                map(_outcome_path, leaves), key=attrgetter("probability")):
            paths += sorted(tied, key=attrgetter("suffix"))
        return tuple(paths[:k])


def _key(cursor, state: str):
    """The step cache's key of a context: an array cursor by its bytes."""
    return (cursor.tobytes() if isinstance(cursor, np.ndarray) else cursor), state


class _Walker:
    """Nodes of one classifier version on one model, kept across walks:
    every path and every walk that reaches a context ``(cursor, state)``
    shares its node, so while the classifier's ``version`` holds, each
    node's children are ranked, and each of them advanced, once.

    ``nodes`` maps a context's ``_key`` to a flat tuple ``(cursor, state,
    names, probs, slot)``: the ranked children's names and probabilities,
    and an id from an atomic counter; an array cursor is a view of its
    key's bytes. ``links`` maps the int ``rank << 40 | slot`` to the
    child's node, one key per ``(slot, rank)`` while fewer than 2**40
    slots are drawn. The collector never tracks ints and untracks tuples
    of atoms once it has seen them, and they form no reference cycle: a
    dropped walker is freed by reference counting, and a walk may go on in
    a walker that another thread has just replaced. Threads agree on a
    node by ``dict.setdefault``. With its links, a node takes about
    0.55 KB for a window-3 frequency model and 0.86 KB for a 32-unit
    recurrent model. The walker holds no reference to its classifier: it
    keeps the ``version`` and the fixed ``outcomes`` it was built for."""

    def __init__(self, classifier: Classifier, model: ProcessModel):
        self.version = classifier.version
        self.outcomes = classifier.outcomes
        self.model = model
        self.nodes: dict = {}
        self.links: dict = {}
        self._slots = itertools.count()
        self._slot_cache: dict = {}

    def slots(self, state: str):
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
                feasible = set(self.outcomes)
            slots = [(i, name) for i, name in enumerate(self.outcomes)
                     if name in feasible]
            cached = slots, feasible
            self._slot_cache[state] = cached
        return cached

    def candidates(self, probs, state: str):
        """Feasible successors with renormalized probabilities as Python
        floats, most likely first; ties broken by state identifier. Each
        node's prediction is checked here, once, before the node is kept."""
        probs = probs.tolist()
        check_distribution(probs, len(self.outcomes))
        slots, feasible = self.slots(state)
        entries = [(name, p) for i, name in slots if (p := probs[i]) > 0.0]
        total = 0.0  # added in order, one rounding each, as in ``traverse``
        for _, p in entries:
            total += p
        if total <= 0.0:
            # Classifier assigns no mass to any feasible successor; fall
            # back to a uniform split so probability mass is conserved.
            # The model may allow successors the classifier does not
            # predict (a model read from a file).
            entries = [(name, 1.0) for name in sorted(feasible)]
            total = float(len(entries))
        entries = [(name, p / total) for name, p in entries]
        entries.sort(key=lambda item: (-item[1], item[0]))
        return entries

    def node(self, cursor, probs, state: str):
        key = _key(cursor, state)
        node = self.nodes.get(key)
        if node is None:
            entries = self.candidates(probs, state)
            if isinstance(cursor, np.ndarray):
                cursor = np.ndarray(cursor.shape, cursor.dtype, key[0])
            names, probs = zip(*entries) if entries else ((), ())
            node = self.nodes.setdefault(
                key, (cursor, state, names, probs, next(self._slots))
            )
        return node

    def walk(self, advance, cursor, probs, state: str,
             limits: TraversalLimits):
        """Depth first from the current state on an explicit stack of
        ``(ranked children left, node, probability, link, depth)`` frames:
        children are visited in rank order and pruned mass is added up in
        visiting order. ``advance`` is the classifier's. Returns the leaves
        and the pruned mass. Once ``MAX_EXPANSIONS`` path-nodes are
        expanded, every further child that is no leaf is pruned."""
        max_depth = limits.max_depth
        max_breadth = limits.max_breadth
        min_probability = limits.min_probability
        finals = self.model.final_states
        links = self.links
        leaves = []
        pruned = 0.0
        budget = MAX_EXPANSIONS
        root = self.node(cursor, probs, state)
        stack = [(zip(itertools.count(), root[2], root[3]), root, 1.0, None, 1)]
        while stack:
            ranked, node, p_curr, link, depth = stack[-1]
            for rank, name, p in ranked:
                p_child = p_curr * p
                if p_child <= 0.0:
                    continue
                if rank >= max_breadth or depth > max_depth:
                    pruned += p_child
                elif name in finals:
                    leaves.append((p_child, (link, name)))
                elif p_child < min_probability or budget == 0:
                    pruned += p_child
                else:
                    budget -= 1
                    at = rank << 40 | node[4]
                    child = links.get(at)
                    if child is None:
                        child = links[at] = self.node(*advance(node[0], name), name)
                    stack.append((
                        zip(itertools.count(), child[2], child[3]), child, p_child,
                        (link, name), depth + 1,
                    ))
                    break
            else:
                stack.pop()
        return leaves, pruned


# The step cache: for each live classifier, the walker of its current
# version on the model it was last traversed with. Classifiers are keys by
# identity (none defines ``==``) and held weakly, so a classifier's nodes
# go with it.
_walkers: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _walker(classifier, model) -> _Walker:
    """The cached walker when it serves ``classifier`` at its version and
    ``model``, else a new one that replaces it."""
    walker = _walkers.get(classifier)
    if (walker is None or walker.version != classifier.version
            or walker.model is not model):
        walker = _walkers[classifier] = _Walker(classifier, model)
    return walker


def traverse(
    trace: EventTrace,
    classifier: Classifier,
    model: ProcessModel,
    limits: TraversalLimits = TraversalLimits(),
    memo: dict | None = None,
) -> TraversalResult:
    """Enumerate probable continuations of ``trace`` within the limits.

    When the trace already sits in a final state there is nothing to
    predict: the result is ``already_final``, its ``failure_mass`` certain.
    Otherwise ``explored_mass + pruned_mass == 1`` up to rounding.

    The nodes are kept between calls, in a step cache of each classifier
    for its current ``version`` on one model (see the cursor contract of
    ``Classifier``). A call at another version or with another model
    replaces that classifier's cache, a walk that leaves it with more than
    ``NODE_CAP`` nodes drops it, and it is freed with the classifier: the
    cache holds classifiers weakly. A node takes about 0.55 KB for a
    window-3 frequency model and 0.86 KB for a 32-unit recurrent model.
    A prediction that fails ``check_distribution`` raises ``ValueError``
    when its node would be made, and that node is not kept.

    ``memo`` is a dict the caller owns for a run of traversals with one
    model, one set of limits and one classifier that is not trained in
    between. Each walk is stored there under the step cache's key of its
    ``(cursor, state)`` and returned again for an equal key.
    """
    state = current_step(trace)
    if state in model.final_states:
        return TraversalResult(
            0.0, 0.0, 1.0 if state == FAIL_STATE else 0.0, already_final=True
        )
    cursor, probs = classifier.start(trace)
    key = _key(cursor, state)
    if memo is not None and key in memo:
        return memo[key]
    walker = _walker(classifier, model)
    try:
        leaves, pruned = walker.walk(
            classifier.advance, cursor, probs, state, limits
        )
    finally:
        # Past the cap the classifier's cache is dropped; if another thread
        # has just put a newer walker there, that one goes too and is rebuilt.
        if len(walker.nodes) > NODE_CAP:
            _walkers.pop(classifier, None)
    leaves.sort(key=itemgetter(0), reverse=True)
    # Both masses are added most likely first, one rounding per addition
    # (from Python 3.12 on, ``sum`` compensates the rounding of floats).
    # The failing leaves of a descending list are descending too.
    explored = failing = 0.0
    for probability, (_, name) in leaves:
        explored += probability
        if name == FAIL_STATE:
            failing += probability
    result = TraversalResult(explored, pruned, failing, leaves=tuple(leaves))
    if memo is not None:
        memo[key] = result
    return result


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
    """
    fail_mass = result.failure_mass
    return FailureEstimate(fail_mass, fail_mass, fail_mass + result.pruned_mass)


def classify_instance(
    trace: EventTrace,
    classifier: Classifier,
    model: ProcessModel,
    limits: TraversalLimits = TraversalLimits(),
    threshold: float = 0.5,
    memo: dict | None = None,
) -> bool:
    """Whether the failure probability reaches ``threshold`` (inclusive),
    that is, a failure is predicted; ``memo`` is passed on to
    ``traverse``."""
    if not 0.0 < threshold < 1.0:
        raise UsageError("threshold must lie in (0, 1)")
    estimate = failure_probability(
        traverse(trace, classifier, model, limits, memo=memo)
    )
    return estimate.p_fail >= threshold


def format_report(paths: Sequence[OutcomePath]) -> str:
    """Text report: one line per path, probability with three decimals."""
    lines = []
    for path in paths:
        lines.append(
            f"{'->'.join(path.suffix)} {path.probability:.3f} {path.outcome.value}"
        )
    return "\n".join(lines)
