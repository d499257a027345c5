"""Output checks for the benchmark workloads, computed apart from efp.

The frequency oracle re-derives the directly-follows skeleton, the context
tokens and the next-step counts from the logs, then solves the absorbing
Markov chain over the finite ``(context, state)`` space for the exact,
unpruned failure probability. Every check raises ``CheckFailed`` naming
the first violation.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

import numpy as np

from efp.events import FAIL_STATE, EventKind, FieldKind, Outcome

TOLERANCE = 1e-9


class CheckFailed(AssertionError):
    pass


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _state(event) -> str:
    return FAIL_STATE if event.event_type.kind is EventKind.FAILURE else event.event_type.name


def _intrinsic(event) -> bool:
    return event.event_type.kind is not EventKind.CONTEXT


def _states(events) -> list[str]:
    return [_state(e) for e in events if _intrinsic(e)]


# -- the skeleton, tokens and counts, derived from the logs ---------------


class Skeleton:
    """Directly-follows structure of the training log: observed states,
    last states as finals, adjacent pairs as allowed successions."""

    def __init__(self, traces):
        self.states = {FAIL_STATE}
        self.finals = {FAIL_STATE}
        self.succ: dict[str, set] = defaultdict(set)
        for trace in traces:
            seq = _states(trace.events)
            if not seq:
                continue
            self.states.update(seq)
            self.finals.add(seq[-1])
            for a, b in zip(seq, seq[1:]):
                if a != FAIL_STATE and b != FAIL_STATE:
                    self.succ[a].add(b)

    def feasible(self, state: str, outcomes) -> set:
        if state not in self.states:
            return set(outcomes)
        return self.succ[state] | {FAIL_STATE}

    def check_model(self, model) -> None:
        """The program's mined model has exactly this structure."""
        _require(model.states == self.states, "mined states differ from the log's")
        _require(model.final_states == self.finals, "mined final states differ")
        allowed = {(a, b) for a, bs in self.succ.items() for b in bs}
        _require(model.allowed == allowed, "mined successions differ")


class Counts:
    """Next-step counts per context of the last ``window`` event tokens.
    Context events with a payload carry their equal-width bins (fitted on
    the training log) or categorical values in the token."""

    def __init__(self, train_traces, window: int, bins: int):
        self.window = window
        self.bins = bins
        self.ranges: dict = {}
        for trace in train_traces:
            for event in trace.events:
                for i, value in enumerate(event.payload):
                    if event.event_type.data_schema[i][1] is FieldKind.NUMERIC:
                        key = (event.event_type.name, i)
                        lo, hi = self.ranges.get(key, (float(value), float(value)))
                        self.ranges[key] = (min(lo, float(value)), max(hi, float(value)))
        self.rows: dict[tuple, Counter] = defaultdict(Counter)

    def token(self, event) -> tuple:
        name = event.event_type.name
        if _intrinsic(event) or not event.payload:
            return (name,)
        parts = [name]
        for i, value in enumerate(event.payload):
            if event.event_type.data_schema[i][1] is FieldKind.NUMERIC:
                lo, hi = self.ranges.get((name, i), (0.0, 0.0))
                if hi <= lo:
                    parts.append(0)
                else:
                    b = int((float(value) - lo) / ((hi - lo) / self.bins))
                    parts.append(min(max(b, 0), self.bins - 1))
            else:
                parts.append(str(value))
        return tuple(parts)

    def context(self, events) -> tuple:
        return tuple(self.token(e) for e in events[-self.window:])

    def add(self, events, label: Outcome) -> None:
        seen = False
        for i, event in enumerate(events):
            if not _intrinsic(event):
                continue
            if seen:
                self.rows[self.context(events[:i])][_state(event)] += 1
            seen = True
        states = _states(events)
        if label is Outcome.FAIL and (not states or states[-1] != FAIL_STATE):
            self.rows[self.context(events)][FAIL_STATE] += 1


def exact_failure_probability(counts: Counts, skeleton: Skeleton, outcomes,
                              events, alpha: float) -> float:
    """Absorption probability in the failure state, from the state after
    ``events``, of the chain whose transitions are the Laplace-smoothed
    counts restricted to the feasible successors and renormalized."""
    root = (counts.context(events), _states(events)[-1])
    index = {root: 0}
    order = [root]
    fail_prob: list[float] = []
    moves: list[dict] = []
    k = len(outcomes)
    while len(fail_prob) < len(order):
        ctx, state = order[len(fail_prob)]
        row = counts.rows.get(ctx, Counter())
        total = sum(row.values()) + alpha * k
        feasible = skeleton.feasible(state, outcomes)
        probs = {o: (row[o] + alpha) / total for o in feasible}
        norm = sum(probs.values())
        to_fail = 0.0
        move: dict[int, float] = {}
        for o, p in probs.items():
            p /= norm
            if o == FAIL_STATE:
                to_fail += p
            elif o not in skeleton.finals:
                nxt = ((ctx + ((o,),))[-counts.window:], o)
                j = index.setdefault(nxt, len(order))
                if j == len(order):
                    order.append(nxt)
                move[j] = move.get(j, 0.0) + p
        fail_prob.append(to_fail)
        moves.append(move)
    n = len(order)
    system = np.eye(n)
    for i, move in enumerate(moves):
        for j, p in move.items():
            system[i, j] -= p
    return float(np.linalg.solve(system, np.array(fail_prob))[0])


# -- online workloads -------------------------------------------------------


def closing_index(trace, finals) -> int | None:
    for i, event in enumerate(trace.events):
        if event.event_type.kind is EventKind.FAILURE:
            return i
        if _intrinsic(event) and _state(event) in finals:
            return i
    return None


def check_stream(held, predictions, errors, instances, finals) -> int:
    """Properties of one replay round. Returns the number of failed
    operations: events that got an error or no prediction."""
    by_instance = defaultdict(list)
    for p in predictions:
        by_instance[p.instance_id].append(p)
    errored = {(e.instance_id, e.at_event_index) for e in errors}
    failed = 0
    for trace in held:
        iid = trace.instance_id
        close = closing_index(trace, finals)
        _require(close is not None, f"{iid}: the log trace never closes")
        first = next(i for i, e in enumerate(trace.events) if _intrinsic(e))
        indices = [p.at_event_index for p in by_instance[iid]]
        got = set(indices)
        _require(len(indices) == len(got), f"{iid}: an event has two predictions")
        _require(got <= set(range(first, close + 1)),
                 f"{iid}: prediction outside the first intrinsic event..close")
        for i in range(len(trace.events)):
            if (iid, i) in errored or (first <= i <= close and i not in got):
                failed += 1
        for p in by_instance[iid]:
            _require(0.0 <= p.lower == p.p_fail <= p.upper <= 1.0 + TOLERANCE,
                     f"{iid}@{p.at_event_index}: bounds out of order "
                     f"({p.lower}, {p.p_fail}, {p.upper})")
            if p.at_event_index == close:
                want = 1.0 if trace.events[close].event_type.kind is EventKind.FAILURE else 0.0
                _require(p.p_fail == want and p.upper == want,
                         f"{iid}@{close}: closing prediction {p.p_fail} is not {want}")
        instance = instances.get(iid)
        _require(instance is not None and instance.closed,
                 f"{iid}: instance not closed")
        _require(instance.label is trace.outcome_label,
                 f"{iid}: closed as {instance.label}, log says {trace.outcome_label}")
    return failed


def check_batch_equivalence(online, batch) -> None:
    """Online training ended with exactly the counts of batch training."""
    _require(online.trained_traces == batch.trained_traces,
             f"trained traces {online.trained_traces} != {batch.trained_traces}")
    _require(online.counts.keys() == batch.counts.keys(), "count contexts differ")
    for key, row in batch.counts.items():
        _require(np.array_equal(online.counts[key], row), f"counts differ at {key}")


def check_oracle(samples, held, train, predictions, window, alpha, bins) -> int:
    """Exact failure probability of sampled predictions of a sequential
    replay lies in their ``[lower, upper]``. Counts are rebuilt as they
    stood: training log plus the held-out traces closed before."""
    skeleton = Skeleton(train)
    counts = Counts(train, window, bins)
    for trace in train:
        counts.add(trace.events, trace.outcome_label)
    outcomes = {FAIL_STATE} | {
        _state(e) for t in list(train) + list(held) for e in t.events if _intrinsic(e)
    }
    position = {t.instance_id: n for n, t in enumerate(held)}
    chosen = sorted((position[predictions[i].instance_id], i) for i in samples)
    closed = 0
    checked = 0
    for n, i in chosen:
        while closed < n:
            trace = held[closed]
            counts.add(trace.events[:closing_index(trace, skeleton.finals) + 1],
                       trace.outcome_label)
            closed += 1
        p = predictions[i]
        events = held[n].events[:p.at_event_index + 1]
        if _states(events)[-1] in skeleton.finals:
            continue
        exact = exact_failure_probability(counts, skeleton, outcomes, events, alpha)
        _require(p.lower - TOLERANCE <= exact <= p.upper + TOLERANCE,
                 f"{p.instance_id}@{p.at_event_index}: exact {exact!r} outside "
                 f"[{p.lower!r}, {p.upper!r}]")
        checked += 1
    return checked


# -- evaluation sweep ---------------------------------------------------------


def rates_from_matrix(tp, tn, fp, fn):
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    d = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = (tp * tn - fp * fn) / math.sqrt(d) if d > 0 else 0.0
    return precision, recall, mcc


def check_sweep(cells, folds, n_instances) -> int:
    """``folds[c]`` lists the ``(train_ids, test_ids)`` of every
    ``evaluate_split`` call of cell ``c``. Returns the held-out traces that
    were never classified (in a skipped fold)."""
    _require(len(cells) == len(folds), "one fold list per cell expected")
    unclassified = 0
    for cell, splits in zip(cells, folds):
        name = f"rate {cell.rate:g} {cell.scenario}"
        population = set(splits[0][0]) | set(splits[0][1])
        _require(len(population) == n_instances, f"{name}: population size")
        seen: set = set()
        for train_ids, test_ids in splits:
            _require(set(train_ids) | set(test_ids) == population,
                     f"{name}: a fold does not cover the population")
            _require(not set(train_ids) & set(test_ids), f"{name}: train meets test")
            _require(not seen & set(test_ids), f"{name}: a trace is in two folds")
            seen |= set(test_ids)
        report = cell.report
        _require(len(report.per_fold) == len(splits), f"{name}: fold count")
        for fold, (_, test_ids) in zip(report.per_fold, splits):
            m = fold.matrix
            _require(m.total == fold.test_size == len(test_ids),
                     f"{name}: matrix total {m.total} != held-out {len(test_ids)}")
            want = rates_from_matrix(m.tp, m.tn, m.fp, m.fn)
            got = (fold.precision, fold.recall, fold.mcc)
            _require(all(abs(a - b) <= TOLERANCE for a, b in zip(want, got)),
                     f"{name}: metrics {got} != {want} from the matrix")
        _require(abs(report.mcc - float(np.mean([f.mcc for f in report.per_fold])))
                 <= TOLERANCE, f"{name}: reported mcc is not the fold mean")
        unclassified += n_instances - int(report.pooled.total)
    by_rate = defaultdict(dict)
    for cell in cells:
        by_rate[cell.rate][str(cell.scenario)] = cell.report.mcc
    for rate, mcc in by_rate.items():
        _require(mcc["global"] >= mcc["local:carrier"],
                 f"rate {rate:g}: global mcc {mcc['global']:.3f} < "
                 f"local:carrier {mcc['local:carrier']:.3f}")
    return unclassified
