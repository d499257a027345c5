"""Command-line entry point wiring the modules into file-based pipelines.

Subcommands: ``simulate`` (spec -> XES), ``inject`` (XES -> XES with
faults), ``mine`` (XES -> model file), ``run`` (replay a log through the
event bus, emitting a prediction stream), and ``evaluate`` (rate/scenario
sweep, or metrics straight from confusion counts via ``--from-matrix``).
Every randomized subcommand takes an explicit ``--seed`` (falling back to
the ``EFP_SEED`` environment variable, then 0) and echoes the effective
seed; outputs are byte-identical across reruns with the same seed.
Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .errors import DisconnectedSpec, EfpError, EmptyLog, SpecFormatError
from .evaluation import (
    ConfusionMatrix,
    PipelineConfig,
    metrics,
    plot_data,
    sweep,
    sweep_table,
)
from .events import Outcome, Scenario, merge_catalogs
from .model import mine_model, read_model, write_model
from .predictors import FrequencyModel
from .recurrent import RecurrentModel
from .runtime import Bus, replay
from .synthesis import (
    default_fault_plan,
    default_spec,
    generate,
    inject_faults,
    read_spec,
)
from .traversal import TraversalLimits, format_report
from .xes import read_xes, write_xes

USAGE_ERROR = 2
RUNTIME_ERROR = 1


def _effective_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("EFP_SEED")
    return int(env) if env else 0


def _load_spec(value: str):
    if value == "default":
        return default_spec()
    return read_spec(Path(value).read_text(encoding="utf-8"))


def _check_rate(rate: float) -> float:
    if not 0.0 <= rate <= 1.0:
        raise UsageError("--rate must lie in [0, 1]")
    return rate


def _config(args, seed: int) -> PipelineConfig:
    """Classifier and traversal settings of ``run`` and ``evaluate``."""
    factory = partial(FrequencyModel, window=args.window, alpha=args.alpha)
    if args.classifier == "recurrent":
        factory = partial(RecurrentModel, seed=seed)
    return PipelineConfig(
        limits=TraversalLimits(
            max_depth=args.max_depth,
            max_breadth=args.max_breadth,
            min_probability=args.min_probability,
        ),
        threshold=args.threshold,
        classifier_factory=factory,
    )


def _add_pipeline_flags(parser) -> None:
    parser.add_argument("--classifier", choices=("frequency", "recurrent"),
                        default="frequency")
    parser.add_argument("--window", type=int, default=3,
                        help="frequency classifier history window (default 3)")
    parser.add_argument("--alpha", type=float, default=1.0,
                        help="frequency classifier smoothing (default 1.0)")
    parser.add_argument("--threshold", type=float, default=0.5,
                        help="failure classification threshold (default 0.5)")
    parser.add_argument("--max-depth", type=int, default=20,
                        help="traversal depth limit (default 20)")
    parser.add_argument("--max-breadth", type=int, default=5,
                        help="children expanded per node (default 5)")
    parser.add_argument("--min-probability", type=float, default=1e-4,
                        help="partial-path probability cutoff (default 1e-4)")


def cmd_simulate(args) -> int:
    seed = _effective_seed(args)
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    spec = replace(_load_spec(args.spec), seed=seed)
    traces = generate(spec, args.n)
    Path(args.out).write_bytes(write_xes(traces))
    print(f"seed {seed}")
    print(f"wrote {len(traces)} traces to {args.out}")
    return 0


def cmd_inject(args) -> int:
    seed = _effective_seed(args)
    _check_rate(args.rate)
    fault_types = tuple(args.fault_types.split(","))
    spec = _load_spec(args.spec)
    plan = default_fault_plan(spec, args.rate, fault_types)
    log = read_xes(Path(args.infile).read_bytes())
    injected = inject_faults(list(log.traces), plan, seed=seed)
    Path(args.out).write_bytes(write_xes(injected))
    failed = sum(1 for t in injected if t.outcome_label is Outcome.FAIL)
    print(f"seed {seed}")
    print(f"injected {failed}/{len(injected)} traces "
          f"(rate {args.rate:g}, types {','.join(fault_types)})")
    return 0


def cmd_mine(args) -> int:
    log = read_xes(Path(args.infile).read_bytes())
    model = mine_model(list(log.traces))
    Path(args.out).write_text(write_model(model), encoding="utf-8")
    print(f"mined {len(model.states)} states, {len(model.allowed)} edges "
          f"from {len(log.traces)} traces")
    return 0


def cmd_run(args) -> int:
    seed = _effective_seed(args)
    log = read_xes(Path(args.infile).read_bytes())
    traces = list(log.traces)
    catalog = log.catalog

    if args.model:
        model = read_model(Path(args.model).read_text(encoding="utf-8"))
    else:
        model = mine_model(traces)

    # Bins are fitted on the training log when one is given, else on the input.
    fit_traces = traces
    if args.train:
        # The training log may hold steps the input log never shows: the
        # classifier's catalog is the input log's, extended by those.
        train_log = read_xes(Path(args.train).read_bytes())
        fit_traces = list(train_log.traces)
        catalog = merge_catalogs(catalog, train_log.catalog)

    config = _config(args, seed)
    classifier = config.classifier_factory(catalog)
    classifier.fit_bins(fit_traces)
    if args.train:
        classifier.train(fit_traces)

    bus = Bus()
    streams: dict[str, list] = {}
    for prediction in replay(traces, classifier, model, config.limits, bus):
        streams.setdefault(prediction.instance_id, []).append(prediction)
    lines = []
    lead_times = []
    failures = 0
    for trace in traces:
        instance = bus.instances[trace.instance_id]
        stream = streams.get(trace.instance_id, [])
        lines.extend(p.line() for p in stream)
        # The closing event's prediction is certain and has no paths: the
        # path report and the detection only look at predictions before it.
        closing = instance.closed_at
        open_stream = [p for p in stream if p.at_event_index != closing]
        if args.report_paths and open_stream:
            lines.append("# paths at last event:")
            report = format_report(open_stream[-1].top_paths)
            lines.extend("# " + line for line in report.splitlines())
        if instance.label is Outcome.FAIL:
            failures += 1
            detection = next(
                (p.at_event_index for p in open_stream
                 if p.p_fail >= config.threshold),
                None,
            )
            if detection is not None:
                lead_times.append(closing - detection)

    out_text = "\n".join(lines) + ("\n" if lines else "")
    summary = [f"# seed {seed}",
               f"# instances {len(traces)}, failures {failures}"]
    if lead_times:
        arr = np.array(lead_times)
        summary.append(
            f"# lead time: mean {arr.mean():.1f}, min {arr.min()}, "
            f"max {arr.max()}, detected {len(arr)}/{failures}"
        )
    out_text += "\n".join(summary) + "\n"
    if args.out:
        Path(args.out).write_text(out_text, encoding="utf-8")
    else:
        sys.stdout.write(out_text)
    for stage in ("prediction", "training"):
        errors = [e for e in bus.error_queue if e.stage == stage]
        if errors:
            first = errors[0]
            print(f"warning: {len(errors)} {stage} errors (first: "
                  f"{first.instance_id} event {first.at_event_index}: "
                  f"{first.message})", file=sys.stderr)
    return 0


def cmd_evaluate(args) -> int:
    seed = _effective_seed(args)
    if args.from_matrix:
        parts = []
        for token in args.from_matrix.split(","):
            try:
                parts.append(float(token))
            except ValueError:
                raise UsageError("--from-matrix expects tp,fn,fp,tn numbers, "
                                 f"got {token!r}") from None
        if len(parts) != 4:
            raise UsageError("--from-matrix expects tp,fn,fp,tn")
        if not all(math.isfinite(x) and x >= 0 for x in parts):
            raise UsageError("--from-matrix counts must be finite and "
                             "non-negative")
        if not any(parts):
            raise UsageError("--from-matrix counts must not all be zero")
        tp, fn, fp, tn = parts
        cm = ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn)
        precision, recall, mcc = metrics(cm)
        print(f"precision {precision:.3f}")
        print(f"recall {recall:.3f}")
        print(f"mcc {mcc:.3f}")
        print("note: metrics of a mean matrix can differ slightly from "
              "means of per-fold metrics; both summaries are valid")
        return 0

    if args.k < 2:
        raise UsageError(f"--k must be at least 2, got {args.k}")
    spec = _load_spec(args.spec)
    rates = [_check_rate(float(r)) for r in args.rate.split(",")]
    scenarios = [Scenario.parse(s) for s in args.scenario.split(",")]
    fault_types = tuple(args.fault_types.split(","))
    # Every plan is checked before the corpus is generated.
    plans = {rate: default_fault_plan(spec, rate, fault_types) for rate in rates}
    config = _config(args, seed)
    # Built once so that a bad classifier setting fails before generation.
    config.classifier_factory(spec.catalog())
    cells = sweep(
        spec,
        plans.__getitem__,
        rates,
        scenarios,
        k=args.k,
        n_instances=args.n,
        config=config,
        seed=seed,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "results.tsv").write_text(sweep_table(cells), encoding="utf-8")
    for metric in ("precision", "recall", "mcc"):
        (out_dir / f"{metric}.tsv").write_text(
            plot_data(cells, metric), encoding="utf-8"
        )
    print(f"seed {seed}")
    print(f"wrote {len(cells)} reports to {out_dir}")
    for cell in cells:
        print(f"rate {cell.rate:g} scenario {cell.scenario}: "
              f"mcc {cell.report.mcc:.3f}")
    return 0


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="efp",
        description="Event-based failure prediction for distributed "
        "business processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic collaboration log")
    p.add_argument("--spec", default="default",
                   help="spec file path or 'default' (bundled 6-partner chain)")
    p.add_argument("--n", type=int, required=True, help="number of instances")
    p.add_argument("--seed", type=int, default=None,
                   help="generation seed (default: EFP_SEED or 0)")
    p.add_argument("--out", required=True, help="output XES path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("inject", help="inject faults into a log")
    p.add_argument("--in", dest="infile", required=True, help="input XES path")
    p.add_argument("--out", required=True, help="output XES path")
    p.add_argument("--rate", type=float, required=True,
                   help="per-trace fault injection probability")
    p.add_argument("--spec", default="default",
                   help="spec the log was generated from (for fault plans)")
    p.add_argument("--fault-types", default="step,event,data",
                   help="comma list from {step,event,data} (default all)")
    p.add_argument("--seed", type=int, default=None,
                   help="injection seed (default: EFP_SEED or 0)")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("mine", help="mine a directly-follows model")
    p.add_argument("--in", dest="infile", required=True, help="input XES path")
    p.add_argument("--out", required=True, help="output model path")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("run", help="replay a log and emit predictions")
    p.add_argument("--in", dest="infile", required=True, help="input XES path")
    p.add_argument("--model", default=None,
                   help="model file (default: mine from the input log)")
    p.add_argument("--train", default=None,
                   help="XES log to pre-train the classifier on")
    _add_pipeline_flags(p)
    p.add_argument("--report-paths", action="store_true",
                   help="append the final traversal path report per instance")
    p.add_argument("--seed", type=int, default=None,
                   help="classifier init seed (default: EFP_SEED or 0)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("evaluate",
                       help="rate/scenario sweep or --from-matrix metrics")
    p.add_argument("--from-matrix", default=None, metavar="TP,FN,FP,TN",
                   help="compute metrics from confusion counts and exit")
    p.add_argument("--spec", default="default",
                   help="spec file path or 'default'")
    p.add_argument("--n", type=int, default=600,
                   help="instances generated per rate (default 600)")
    p.add_argument("--rate", default="0.5",
                   help="comma list of fault rates (default 0.5)")
    p.add_argument("--scenario", default="global",
                   help="comma list: global,local:<partner>,nocontext,"
                   "nocontext-local:<partner>")
    p.add_argument("--fault-types", default="step,event,data",
                   help="comma list from {step,event,data}")
    p.add_argument("--k", type=int, default=3, help="folds (default 3)")
    _add_pipeline_flags(p)
    p.add_argument("--seed", type=int, default=None,
                   help="pipeline seed (default: EFP_SEED or 0)")
    p.add_argument("--out", default="eval-out", help="output directory")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, SpecFormatError, EmptyLog, DisconnectedSpec,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (EfpError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
