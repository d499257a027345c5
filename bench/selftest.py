"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

1. The absorbing-chain oracle agrees with ``traverse`` under ``UNLIMITED``
   (depth 100, no breadth or probability cut) on the small two-partner
   spec, whose interaction self-loop makes the model cyclic.
2. Every check accepts a true output and rejects a deliberately
   corrupted copy of it.

Exits non-zero on the first disagreement.
"""

from __future__ import annotations

import copy
import sys
from dataclasses import replace

import numpy as np

import run  # first: it puts efp's sources on the import path
import checks
from efp.evaluation import ConfusionMatrix, PipelineConfig
from efp.events import Outcome
from efp.model import mine_model
from efp.predictors import FrequencyModel
from efp.synthesis import (
    EVENT_FAULT,
    STEP_FAULT,
    default_fault_plan,
    generate,
    inject_faults,
    minimal_spec,
)
from efp.traversal import UNLIMITED, failure_probability, traverse


def oracle_agrees_with_unlimited_traversal() -> int:
    spec = minimal_spec(5)
    traces = inject_faults(generate(spec, 80),
                           default_fault_plan(spec, 0.5, (STEP_FAULT, EVENT_FAULT)),
                           seed=6)
    train, probe = traces[:60], traces[60:]
    model = mine_model(train)
    classifier = FrequencyModel(run.catalog_from_traces(traces), window=run.WINDOW,
                                alpha=run.ALPHA, bins=run.BINS)
    classifier.fit_bins(train)
    classifier.train(train)
    skeleton = checks.Skeleton(train)
    skeleton.check_model(model)
    counts = checks.Counts(train, run.WINDOW, run.BINS)
    for trace in train:
        counts.add(trace.events, trace.outcome_label)
    outcomes = set(classifier.outcomes)
    compared = 0
    for trace in probe:
        for cut in range(1, len(trace.events) + 1):
            prefix = replace(trace, events=trace.events[:cut], error_index=None)
            result = traverse(prefix, classifier, model, UNLIMITED)
            if result.already_final:
                continue
            estimate = failure_probability(result)
            exact = checks.exact_failure_probability(
                counts, skeleton, outcomes, prefix.events, run.ALPHA)
            if not (result.pruned_mass < 1e-9
                    and abs(exact - estimate.p_fail) <= 1e-9 + result.pruned_mass):
                raise checks.CheckFailed(
                    f"{trace.instance_id}[:{cut}]: oracle {exact!r}, traversal "
                    f"{estimate.p_fail!r} (pruned {result.pruned_mass!r})")
            compared += 1
    return compared


def rejects(what, check, *args) -> None:
    try:
        check(*args)
    except checks.CheckFailed:
        return
    raise SystemExit(f"selftest: the check accepted a corrupted output: {what}")


def online_checks_reject_corruption() -> None:
    cfg = dict(run.ONLINE["replay-frequency"], n_train=80, n_held=6)
    train_xes, held_xes = run.make_logs(3, cfg["n_train"], cfg["n_held"])
    train, held, model, pristine = run.set_up(cfg, train_xes, held_xes)
    classifier = copy.deepcopy(pristine)
    bus, _ = run.replay_round(held, classifier, model, 1, run.array("q"))
    predictions = list(bus.prediction_queue)
    closed = {i: run.Closed(x.closed, x.label, x.trace) for i, x in bus.instances.items()}
    skeleton = checks.Skeleton(train)
    finals = skeleton.finals
    batch = FrequencyModel(classifier.catalog, window=run.WINDOW, alpha=run.ALPHA,
                           bins=run.BINS)
    batch.fit_bins(train)
    batch.train(train + [closed[t.instance_id].trace for t in held])
    samples = np.arange(len(predictions))

    # The true outputs pass.
    skeleton.check_model(model)
    if checks.check_stream(held, predictions, [], closed, finals) != 0:
        raise SystemExit("selftest: the true replay has failed operations")
    checks.check_batch_equivalence(classifier, batch)
    checks.check_oracle(samples, held, train, predictions, run.WINDOW, run.ALPHA, run.BINS)

    def with_prediction(i, **changes):
        out = list(predictions)
        out[i] = replace(out[i], **changes)
        return out

    mid = next(i for i, p in enumerate(predictions) if 0.0 < p.p_fail < 1.0)
    p = predictions[mid]
    last = max(i for i, q in enumerate(predictions) if q.instance_id == p.instance_id)
    rejects("mined model lost an edge", skeleton.check_model,
            replace(model, allowed=model.allowed - {next(iter(model.allowed))}))
    rejects("upper below p_fail", checks.check_stream, held,
            with_prediction(mid, upper=p.p_fail / 2), [], closed, finals)
    rejects("lower differs from p_fail", checks.check_stream, held,
            with_prediction(mid, lower=p.p_fail / 2), [], closed, finals)
    rejects("a second prediction for one event", checks.check_stream, held,
            predictions + [p], [], closed, finals)
    rejects("closing prediction not certain", checks.check_stream, held,
            with_prediction(last, p_fail=0.5, lower=0.5, upper=0.5), [], closed, finals)
    flipped = dict(closed)
    flipped[p.instance_id] = closed[p.instance_id]._replace(
        label=Outcome.END if closed[p.instance_id].label is Outcome.FAIL else Outcome.FAIL)
    rejects("instance closed with the wrong label", checks.check_stream, held,
            predictions, [], flipped, finals)
    if checks.check_stream(held, predictions[:-1], [], closed, finals) != 1:
        raise SystemExit("selftest: a missing prediction is not counted as failed")

    bumped = copy.deepcopy(classifier)
    next(iter(bumped.counts.values()))[0] += 1.0
    rejects("online counts differ from batch", checks.check_batch_equivalence, bumped, batch)

    shifted = with_prediction(mid, p_fail=p.upper + 0.05, lower=p.upper + 0.05,
                              upper=min(1.0, p.upper + 0.1))
    rejects("bounds exclude the exact probability", checks.check_oracle,
            [mid], held, train, shifted, run.WINDOW, run.ALPHA, run.BINS)


def sweep_checks_reject_corruption() -> None:
    probe = run.SweepProbe()
    restore = probe.install()
    try:
        cells, _ = run.sweep_round(11, PipelineConfig())
    finally:
        restore()
    folds = [[([t.instance_id for t in a], [t.instance_id for t in b]) for a, b in cell]
             for cell in probe.cells]
    n = run.SWEEP["n_instances"]
    if checks.check_sweep(cells, folds, n) != 0:
        raise SystemExit("selftest: the true sweep has unclassified traces")

    def with_fold(changes):
        """The cells with the first fold of the first cell changed."""
        report = cells[0].report
        per_fold = (replace(report.per_fold[0], **changes),) + report.per_fold[1:]
        return [replace(cells[0], report=replace(report, per_fold=per_fold))] + cells[1:]

    fold = cells[0].report.per_fold[0]
    m = fold.matrix
    rejects("matrix total off by one", checks.check_sweep,
            with_fold(dict(matrix=replace(m, tp=m.tp + 1))), folds, n)
    rejects("mcc not from the matrix", checks.check_sweep,
            with_fold(dict(mcc=fold.mcc - 0.1)), folds, n)
    rejects("precision not from the matrix", checks.check_sweep,
            with_fold(dict(precision=fold.precision / 2 + 0.01)), folds, n)
    moved = copy.deepcopy(folds)
    train_ids, test_ids = moved[0][1]
    moved[0][1] = (train_ids, test_ids + [moved[0][0][1][0]])
    rejects("a trace held out in two folds", checks.check_sweep, cells, moved, n)
    local = next(i for i, c in enumerate(cells)
                 if str(c.scenario) == "local:carrier" and c.rate == cells[0].rate)
    swapped = list(cells)
    swapped[0], swapped[local] = (replace(cells[0], report=cells[local].report),
                                  replace(cells[local], report=cells[0].report))
    if cells[0].report.mcc != cells[local].report.mcc:
        rejects("global mcc below local:carrier", checks.check_sweep, swapped, folds, n)
    empty = ConfusionMatrix()
    rejects("an unclassified fold", checks.check_sweep,
            with_fold(dict(matrix=empty, precision=0.0, recall=0.0, mcc=0.0)), folds, n)


def main() -> int:
    compared = oracle_agrees_with_unlimited_traversal()
    print(f"oracle agrees with the UNLIMITED traversal on {compared} prefixes")
    online_checks_reject_corruption()
    print("online checks reject every corrupted output")
    sweep_checks_reject_corruption()
    print("sweep checks reject every corrupted output")
    return 0


if __name__ == "__main__":
    sys.exit(main())
