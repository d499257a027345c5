"""Evaluation protocol: confusion matrices, precision/recall/MCC, k-fold
cross validation, and fault-rate/visibility sweeps.

Each held-out trace is classified from a single prediction snapshot: for
failed traces the snapshot is taken right after the injected error
manifests, for ended traces at the median intrinsic event. Lead time is
not measured here: it belongs to the online prediction stream, and
``efp run`` reports it.

Within one ``evaluate_split`` call the classifier is frozen, so the call
keeps one traversal memo: snapshots that reach the same
``(cursor, state)`` share one walk.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyMatrix, InsufficientData
from .events import (
    EventCatalog,
    EventKind,
    EventTrace,
    Outcome,
    Scenario,
    catalog_from_traces,
    filter_visibility,
)
from .model import mine_model
from .predictors import Classifier, FrequencyModel
from .synthesis import CollaborationSpec, generate, inject_faults
from .traversal import (
    TraversalLimits,
    classify_instance,
    traverse,  # unused here, but bench/run.py's traced sweep patches it
)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary confusion counts; positive means a failure is present.

    Cells are reals because cross-fold mean matrices are reported too.
    """

    tp: float = 0.0
    tn: float = 0.0
    fp: float = 0.0
    fn: float = 0.0

    @property
    def total(self) -> float:
        return self.tp + self.tn + self.fp + self.fn

    def add(self, actual_fail: bool, predicted_fail: bool) -> "ConfusionMatrix":
        if actual_fail and predicted_fail:
            return replace(self, tp=self.tp + 1)
        if actual_fail:
            return replace(self, fn=self.fn + 1)
        if predicted_fail:
            return replace(self, fp=self.fp + 1)
        return replace(self, tn=self.tn + 1)

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(
            self.tp + other.tp,
            self.tn + other.tn,
            self.fp + other.fp,
            self.fn + other.fn,
        )


def metrics(cm: ConfusionMatrix) -> tuple[float, float, float]:
    """Precision, recall, and Matthews correlation of a confusion matrix.

    Zero denominators yield 0 for the affected metric, the usual
    degenerate-case convention.
    """
    if cm.total <= 0:
        raise EmptyMatrix("confusion matrix has no entries")
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp > 0 else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn > 0 else 0.0
    denom = (
        (cm.tp + cm.fp)
        * (cm.tp + cm.fn)
        * (cm.tn + cm.fp)
        * (cm.tn + cm.fn)
    )
    if denom <= 0:
        mcc = 0.0
    else:
        mcc = (cm.tp * cm.tn - cm.fp * cm.fn) / math.sqrt(denom)
    return precision, recall, mcc


@dataclass(frozen=True)
class FoldResult:
    matrix: ConfusionMatrix
    precision: float
    recall: float
    mcc: float
    test_size: int


@dataclass(frozen=True)
class MetricReport:
    """Per-fold metrics plus their means and standard deviations.

    ``precision``/``recall``/``mcc`` are means over folds; the pooled
    matrix and its metrics are reported alongside because averaging
    per-fold ratios and taking ratios of the mean matrix are different
    summaries and can disagree slightly.
    """

    per_fold: tuple[FoldResult, ...]
    skipped_folds: tuple[int, ...] = ()

    @property
    def pooled(self) -> ConfusionMatrix:
        total = ConfusionMatrix()
        for fold in self.per_fold:
            total = total + fold.matrix
        return total

    def _mean_sigma(self, attr: str) -> tuple[float, float]:
        values = [getattr(f, attr) for f in self.per_fold]
        if not values:
            return 0.0, 0.0
        mean = float(np.mean(values))
        sigma = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        return mean, sigma

    @property
    def precision(self) -> float:
        return self._mean_sigma("precision")[0]

    @property
    def recall(self) -> float:
        return self._mean_sigma("recall")[0]

    @property
    def mcc(self) -> float:
        return self._mean_sigma("mcc")[0]

    def sigma(self, metric: str) -> float:
        return self._mean_sigma(metric)[1]

    def summary(self) -> str:
        folds = f"folds evaluated: {len(self.per_fold)}" + (
            f" (skipped: {len(self.skipped_folds)})" if self.skipped_folds else ""
        )
        if not self.per_fold:
            return folds
        pooled_p, pooled_r, pooled_m = metrics(self.pooled)
        lines = [
            folds,
            f"per-fold means: precision {self.precision:.3f} "
            f"(sigma {self.sigma('precision'):.3f}), recall {self.recall:.3f} "
            f"(sigma {self.sigma('recall'):.3f}), mcc {self.mcc:.3f} "
            f"(sigma {self.sigma('mcc'):.3f})",
            f"pooled matrix: precision {pooled_p:.3f}, recall {pooled_r:.3f}, "
            f"mcc {pooled_m:.3f}",
            "note: per-fold metric means and pooled-matrix metrics are "
            "different summaries and may differ slightly",
        ]
        return "\n".join(lines)


def evaluation_prefix(trace: EventTrace) -> EventTrace:
    """Prefix at which a held-out trace is classified.

    Failed traces are cut right after the error manifestation; without
    that annotation, right before the failure event. Ended traces are cut
    at their median intrinsic event.
    """
    events = trace.events
    if trace.outcome_label is Outcome.FAIL:
        if trace.error_index is not None:
            cut = trace.error_index + 1
        else:
            fail_at = _failure_index(trace)
            cut = len(events) if fail_at is None else fail_at
    else:
        intrinsic_positions = [i for i, e in enumerate(events) if e.is_intrinsic]
        if not intrinsic_positions:
            cut = len(events)
        else:
            cut = intrinsic_positions[len(intrinsic_positions) // 2] + 1
    return replace(trace, events=events[:cut], error_index=None)


def _failure_index(trace: EventTrace) -> int | None:
    for i, e in enumerate(trace.events):
        if e.event_type.kind is EventKind.FAILURE:
            return i
    return None


@dataclass(frozen=True)
class PipelineConfig:
    """Classifier/traversal settings shared by the evaluation entry points.

    ``classifier_factory(catalog)`` builds a fresh, untrained classifier;
    the default is the frequency baseline with its default settings.
    """

    limits: TraversalLimits = TraversalLimits()
    threshold: float = 0.5
    classifier_factory: Callable[[EventCatalog], Classifier] = FrequencyModel

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")


def evaluate_split(
    train: list[EventTrace],
    test: list[EventTrace],
    config: PipelineConfig = PipelineConfig(),
    catalog=None,
) -> FoldResult:
    """Train on one trace set, classify another, return fold metrics."""
    catalog = catalog or catalog_from_traces(list(train) + list(test))
    model = mine_model(train)
    classifier = config.classifier_factory(catalog)
    classifier.fit_bins(train)
    classifier.train(train)

    cm = ConfusionMatrix()
    memo: dict = {}
    for trace in test:
        prefix = evaluation_prefix(trace)
        if any(e.is_intrinsic for e in prefix.events):
            predicted_fail = classify_instance(
                prefix, classifier, model, config.limits, config.threshold,
                memo=memo,
            )
        else:
            # Nothing observable yet (e.g. fully filtered away): the only
            # defensible call is the negative class.
            predicted_fail = False
        cm = cm.add(trace.outcome_label is Outcome.FAIL, predicted_fail)
    precision, recall, mcc = metrics(cm)
    return FoldResult(cm, precision, recall, mcc, len(test))


def cross_validate(
    traces: list[EventTrace],
    k: int,
    config: PipelineConfig = PipelineConfig(),
    seed: int = 0,
) -> MetricReport:
    """Shuffled k-fold cross validation with a fixed seed.

    Folds whose train or test part contains a single class are skipped
    and recorded in the report. Raises ``ValueError`` when ``k < 2`` and
    ``InsufficientData`` when fewer than ``k`` labeled traces or only one
    class is present overall.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    labeled = [t for t in traces if t.outcome_label is not None]
    if len(labeled) < k:
        raise InsufficientData(f"need at least k={k} labeled traces")
    classes = {t.outcome_label for t in labeled}
    if len(classes) < 2:
        raise InsufficientData("both outcome classes must be present")

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(labeled))
    shuffled = [labeled[i] for i in order]
    catalog = catalog_from_traces(shuffled)

    folds = []
    skipped = []
    for fold_index in range(k):
        test = shuffled[fold_index::k]
        train = [t for i, t in enumerate(shuffled) if i % k != fold_index]
        if (
            len({t.outcome_label for t in train}) < 2
            or len({t.outcome_label for t in test}) < 2
        ):
            skipped.append(fold_index)
            continue
        folds.append(evaluate_split(train, test, config, catalog))
    return MetricReport(tuple(folds), tuple(skipped))


@dataclass(frozen=True)
class SweepCell:
    rate: float
    scenario: Scenario
    report: MetricReport


def sweep(
    spec: CollaborationSpec,
    plan_factory,
    fault_rates: list[float],
    scenarios: list[Scenario],
    k: int,
    n_instances: int,
    config: PipelineConfig = PipelineConfig(),
    seed: int = 0,
) -> list[SweepCell]:
    """Generate, inject, filter, and cross-validate over a rate/scenario
    grid. ``plan_factory(rate)`` supplies the fault plan per rate."""
    cells = []
    clean = generate(replace(spec, seed=seed), n_instances)
    for rate in fault_rates:
        injected = inject_faults(clean, plan_factory(rate), seed=seed + 1)
        for scenario in scenarios:
            visible = filter_visibility(injected, scenario)
            report = cross_validate(visible, k, config, seed=seed + 2)
            cells.append(SweepCell(rate, scenario, report))
    return cells


def sweep_table(cells: list[SweepCell]) -> str:
    """Tab-separated summary: one row per (rate, scenario, metric)."""
    lines = ["rate\tscenario\tmetric\tmean\tsigma"]
    for cell in cells:
        for metric in ("precision", "recall", "mcc"):
            mean = getattr(cell.report, metric)
            lines.append(
                f"{cell.rate:g}\t{cell.scenario}\t{metric}"
                f"\t{mean:.4f}\t{cell.report.sigma(metric):.4f}"
            )
    return "\n".join(lines) + "\n"


def plot_data(cells: list[SweepCell], metric: str) -> str:
    """Plot-ready table for one metric: fault rate on the x axis, one
    mean/sigma column pair per scenario."""
    scenarios = []
    for cell in cells:
        if cell.scenario not in scenarios:
            scenarios.append(cell.scenario)
    rates = sorted({cell.rate for cell in cells})
    by_key = {(c.rate, str(c.scenario)): c.report for c in cells}
    header = ["rate"]
    for s in scenarios:
        header.extend([str(s), f"{s}_sigma"])
    lines = ["\t".join(header)]
    for rate in rates:
        row = [f"{rate:g}"]
        for s in scenarios:
            report = by_key.get((rate, str(s)))
            if report is None:
                row.extend(["", ""])
            else:
                row.append(f"{getattr(report, metric):.4f}")
                row.append(f"{report.sigma(metric):.4f}")
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"
