"""Benchmark of efp's online failure predictor and its evaluation sweep.

    python3 bench/run.py --workload replay-frequency --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Workloads (see bench/README.md for why each exists):

* ``replay-frequency``: the frequency classifier, pre-trained on a training
  log, predicts on a held-out log replayed through the ``Bus`` one
  instance at a time, training online as each instance closes.
* ``stream-recurrent``: the recurrent classifier, pre-trained, predicts on
  16 live instances whose events are published round-robin.
* ``evaluate-sweep``: ``evaluation.sweep`` over two fault rates and the
  scenarios ``global`` and ``local:carrier`` with 3-fold cross validation.

A run generates its inputs from ``--seed``, then repeats whole rounds of
the workload until ``--seconds`` have been measured. Every round of a run
does the same work and must give the same outputs; the first round is
checked against oracles and properties computed apart from efp (see
checks.py). With ``--trace 1`` the first half of the run is untraced and
the second half records spans around every call into efp's layers, from
which the per-layer metrics are derived. The last line of output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import os

# One thread per workload: keep numpy's BLAS from starting a thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import copy
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import namedtuple
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(SRC))

try:
    if not (SRC / "efp").is_dir():
        raise ImportError("no efp sources")  # never fall back to an installed copy
    import numpy as np

    import efp.evaluation
    import efp.runtime
    import efp.traversal
    from efp.evaluation import PipelineConfig, sweep
    from efp.events import Scenario, catalog_from_traces
    from efp.model import mine_model
    from efp.predictors import FrequencyModel
    from efp.recurrent import RecurrentModel
    from efp.runtime import Bus
    from efp.synthesis import (
        FAULT_TYPES,
        default_fault_plan,
        default_spec,
        generate,
        inject_faults,
    )
    from efp.xes import read_xes, write_xes
except ImportError as exc:
    sys.stderr.write(f"bench: cannot import efp from {SRC}: {exc}\n")
    sys.exit(2)

import checks
from tracing import Tracer

WINDOW, ALPHA, BINS = 3, 1.0, 8
FAULT_RATE = 0.5
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
ORACLE_SAMPLES = 40
# The recurrent weights start from one fixed draw (efp run's default seed),
# so that only the generated logs vary with --seed.
RECURRENT_INIT_SEED = 0
TRAINING_SEED = 0

ONLINE = {
    "replay-frequency": dict(classifier="frequency", layer="predictors",
                             n_train=200, n_held=96, live=1),
    "stream-recurrent": dict(classifier="recurrent", layer="recurrent",
                             n_train=60, n_held=12, live=8),
}
SWEEP = dict(n_instances=300, rates=(0.2, 0.5),
             scenarios=("global", "local:carrier"), k=3)
WORKLOADS = tuple(ONLINE) + ("evaluate-sweep",)

# Metric names and units, as the benchmark declares them.
_DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}

Closed = namedtuple("Closed", "closed label trace")
FirstRound = namedtuple("FirstRound", "predictions errors closed classifier digest")
clock = time.perf_counter_ns
# Latencies are the publishing thread's CPU time: with one thread, inline
# dispatch and no waits that equals wall time on an idle host, but it
# leaves out the time a shared host gives the CPU to other work. With two
# busy processes beside a replay, the wall-clock p99 went from 3.3 to
# 8.0 ms while this stayed at 3.3-3.4 ms.
cpu_clock = time.thread_time_ns


def _call(tracer, name, fn, *args, note=None, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, note=note, **kwargs)


def _patched(module, **functions):
    """Replace module globals; returns a function restoring them."""
    saved = {name: getattr(module, name) for name in functions}
    for name, fn in functions.items():
        setattr(module, name, fn)

    def restore():
        for name, fn in saved.items():
            setattr(module, name, fn)

    return restore


def import_seconds() -> float:
    """Median time for a fresh interpreter to start and import efp."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        start = clock()
        subprocess.run([sys.executable, "-c", "import efp"], env=env, check=True)
        times.append((clock() - start) / 1e9)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentiles_ms(latencies_ns) -> tuple[float, float]:
    p50, p99 = np.percentile(np.frombuffer(latencies_ns, dtype=np.int64), [50, 99])
    return float(p50) / 1e6, float(p99) / 1e6


# -- online workloads ---------------------------------------------------------


def make_logs(seed, n_train, n_held, tracer=None):
    """Training and held-out XES logs from the default six-partner spec
    with all three fault types.

    The training log is drawn from a fixed seed and injected at the fault
    rate, so the pre-trained classifier is the same in every run: how
    sharp its predictions are sets the traversal's size, and with seeded
    training logs the recurrent workload's per-event cost moved threefold
    between seeds. ``seed`` draws the held-out instances, which follow
    the training instances in their generator stream. Their fault mix is
    fixed: of every six, three stay clean and one gets each fault type,
    since a round holds too few instances for a drawn mix to average out.
    """
    def instances(s):
        spec = default_spec(s)
        return spec, _call(tracer, "synthesis.generate", generate, spec,
                           n_train + n_held)

    spec, clean = instances(TRAINING_SEED)
    train = _call(tracer, "synthesis.inject_faults", inject_faults, clean[:n_train],
                  default_fault_plan(spec, FAULT_RATE), seed=TRAINING_SEED + 1)
    spec, clean = instances(seed)
    held = clean[n_train:]
    for slot, fault_type in zip((1, 3, 5), FAULT_TYPES):
        picked = held[slot::6]
        faulted = _call(tracer, "synthesis.inject_faults", inject_faults, picked,
                        default_fault_plan(spec, 1.0, (fault_type,)), seed=seed + 1)
        held[slot::6] = faulted
    return write_xes(train), write_xes(held)


def set_up(cfg, train_xes, held_xes, tracer=None):
    """Read both logs, mine the model from the training log, train the
    classifier on it."""
    def events(log):
        return sum(len(t) for t in log.traces)

    train = list(_call(tracer, "xes.read_xes", read_xes, train_xes, note=events).traces)
    held = list(_call(tracer, "xes.read_xes", read_xes, held_xes, note=events).traces)
    catalog = catalog_from_traces(train + held)
    model = _call(tracer, "model.mine_model", mine_model, train)
    if cfg["classifier"] == "frequency":
        classifier = FrequencyModel(catalog, window=WINDOW, alpha=ALPHA, bins=BINS)
    else:
        classifier = RecurrentModel(catalog, seed=RECURRENT_INIT_SEED)
    remove = tracer.instrument(classifier, cfg["layer"]) if tracer else None
    if cfg["classifier"] == "frequency":
        classifier.fit_bins(train)
    classifier.train(train)
    if remove:
        remove()
    return train, held, model, classifier


def replay_round(held, classifier, model, live, latencies, tracer=None):
    """Publish every held-out event, keeping ``live`` instances open and
    cycling through them one event at a time (``live=1`` replays one
    instance after another, as ``efp run`` does). Returns the bus and the
    round's wall time in ns."""
    bus = Bus()
    publish = bus.publish
    restore = None
    if tracer is not None:
        publish = tracer.wrap("runtime.publish", publish)
        restore = _patched(efp.runtime, traverse=tracer.wrap(
            "traversal.traverse", efp.runtime.traverse, note=lambda r: len(r.paths)))
    pending = iter(held)

    def admit():
        trace = next(pending, None)
        if trace is None:
            return None
        bus.start_instance(trace.instance_id, classifier, model)
        return [trace.events, 0]

    try:
        start = clock()
        slots = [s for s in (admit() for _ in range(live)) if s]
        while slots:
            kept = []
            for slot in slots:
                events, pos = slot
                before = cpu_clock()
                publish(events[pos])
                latencies.append(cpu_clock() - before)
                slot[1] = pos + 1
                if slot[1] == len(events):
                    slot = admit()
                if slot:
                    kept.append(slot)
            slots = kept
        wall = clock() - start
    finally:
        if restore:
            restore()
    return bus, wall


def digest(bus):
    stream = [(p.instance_id, p.at_event_index, p.p_fail, p.lower, p.upper)
              for p in bus.prediction_queue]
    errors = [(e.instance_id, e.at_event_index, e.message) for e in bus.error_queue]
    return stream, errors


def run_online(name, seed, seconds, trace):
    cfg = ONLINE[name]
    import_s = import_seconds()
    tracer = Tracer() if trace else None
    train_xes, held_xes = make_logs(seed, cfg["n_train"], cfg["n_held"], tracer)
    setup_times = []
    for r in range(SETUP_REPEATS):
        start = clock()
        train, held, model, pristine = set_up(
            cfg, train_xes, held_xes,
            tracer if r == SETUP_REPEATS - 1 else None)
        setup_times.append((clock() - start) / 1e9)
    n_events = sum(len(t) for t in held)

    def measure(budget_ns, traced):
        """Whole rounds until the budget is spent: (rounds, wall ns,
        latencies, first round, instances the last bus retained)."""
        latencies = array("q")
        rounds, wall, first, retained = 0, 0, None, 0
        while rounds == 0 or wall < budget_ns:
            classifier = copy.deepcopy(pristine)
            remove = tracer.instrument(classifier, cfg["layer"]) if traced else None
            bus, elapsed = replay_round(held, classifier, model, cfg["live"],
                                        latencies, tracer if traced else None)
            if remove:
                remove()
            rounds += 1
            wall += elapsed
            retained = len(bus.instances)
            if first is None:
                closed = {i: Closed(x.closed, x.label, x.trace)
                          for i, x in bus.instances.items()}
                first = FirstRound(list(bus.prediction_queue), list(bus.error_queue),
                                   closed, classifier, digest(bus))
            elif digest(bus) != first.digest:
                raise checks.CheckFailed("a later round's predictions differ")
            del bus, classifier
            gc.collect()
        return rounds, wall, latencies, first, retained

    budget = int(seconds * 1e9)
    rounds, wall, latencies, first, _ = measure(budget // 2 if trace else budget, False)
    rss = peak_rss_mb()
    predictions, errors, closed, classifier, stream = first

    skeleton = checks.Skeleton(train)
    skeleton.check_model(model)
    failed_per_round = checks.check_stream(held, predictions, errors, closed,
                                           skeleton.finals)
    if cfg["classifier"] == "frequency":
        batch = FrequencyModel(classifier.catalog, window=WINDOW, alpha=ALPHA, bins=BINS)
        batch.fit_bins(train)
        batch.train(train + [closed[t.instance_id].trace for t in held])
        checks.check_batch_equivalence(classifier, batch)
        rng = np.random.default_rng(seed)
        samples = rng.choice(len(predictions), size=ORACLE_SAMPLES, replace=False)
        checks.check_oracle(samples, held, train, predictions, WINDOW, ALPHA, BINS)

    result = dict(attempted=rounds * n_events, failed=rounds * failed_per_round)
    events_per_s = rounds * n_events / (wall / 1e9)
    if not trace:
        p50, p99 = percentiles_ms(latencies)
        result["metrics"] = dict(
            setup_s=import_s + statistics.median(setup_times),
            events_per_s=events_per_s,
            latency_p50_ms=p50,
            latency_p99_ms=p99,
            traces_per_s=rounds * len(held) / (wall / 1e9),
            peak_rss_mb=rss,
        )
        return result

    t_rounds, t_wall, _, t_first, t_retained = measure(budget // 2, True)
    if t_first.digest != stream:
        raise checks.CheckFailed("the traced round's predictions differ")
    summary = tracer.summary()
    layer = cfg["layer"]
    traverse = summary["traversal.traverse"]
    bus_training = tracer.children_of("runtime.publish", f"{layer}.train_online")
    metrics = layer_metrics(summary)
    metrics.update({
        f"{layer}.advance_us": traverse["adv_ns"] / traverse["adv_calls"] / 1e3,
        f"{layer}.advance_calls_per_event": traverse["adv_calls"] / traverse["calls"],
        "runtime.publish_self_us": _mean(summary, "runtime.publish", "self_ns") / 1e3,
        "runtime.retained_instances": t_retained,
        "trace.overhead_ratio": events_per_s / (t_rounds * n_events / (t_wall / 1e9)),
    })
    train_online = sum(bus_training) / len(bus_training)
    if layer == "predictors":
        metrics["predictors.train_online_us"] = train_online / 1e3
    else:
        metrics["recurrent.train_online_ms"] = train_online / 1e6
    result["metrics"] = metrics
    _write_spans(tracer, name, seed)
    return result


# -- evaluation sweep ---------------------------------------------------------


class SweepProbe:
    """CPU timestamps at the start of each held-out trace's classification
    and, negated, at the end of each fold, and (when ``keep``) each fold's
    train and test traces, grouped per cross-validated cell."""

    def __init__(self):
        self.stamps = array("q")
        self.cells: list[list] = []
        self.keep = True

    def install(self):
        """Wrap ``evaluation``'s module globals; returns the restorer."""
        stamps = self.stamps
        classify_instance = efp.evaluation.classify_instance
        evaluate_split = efp.evaluation.evaluate_split
        cross_validate = efp.evaluation.cross_validate

        def classify(*args, **kwargs):
            stamps.append(cpu_clock())
            return classify_instance(*args, **kwargs)

        def split(train, test, *args, **kwargs):
            if self.keep:
                self.cells[-1].append((train, test))
            try:
                return evaluate_split(train, test, *args, **kwargs)
            finally:
                stamps.append(-cpu_clock())

        def cell(*args, **kwargs):
            if self.keep:
                self.cells.append([])
            return cross_validate(*args, **kwargs)

        return _patched(efp.evaluation, classify_instance=classify,
                        evaluate_split=split, cross_validate=cell)

    def latencies(self):
        """Per held-out trace: from its classification to the next one's,
        or to the end of its fold (which covers the lead-time scan)."""
        out = array("q")
        for a, b in zip(self.stamps, self.stamps[1:]):
            if a > 0:
                out.append(abs(b) - a)
        return out


def sweep_inputs():
    spec = default_spec()
    scenarios = [Scenario.parse(s) for s in SWEEP["scenarios"]]
    return spec, (lambda rate: default_fault_plan(spec, rate)), scenarios


def sweep_round(seed, config, tracer=None):
    spec, plans, scenarios = sweep_inputs()
    start = clock()
    cells = _call(tracer, "evaluation.sweep", sweep, spec, plans,
                  list(SWEEP["rates"]), scenarios, k=SWEEP["k"],
                  n_instances=SWEEP["n_instances"], config=config, seed=seed)
    return cells, clock() - start


def sweep_results(cells):
    return [(c.rate, str(c.scenario), c.report.per_fold, c.report.skipped_folds)
            for c in cells]


def run_sweep(seed, seconds, trace):
    import_s = import_seconds()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        sweep_inputs()
        PipelineConfig()
        setup_times.append((clock() - start) / 1e9)

    def measure(budget_ns):
        probe = SweepProbe()
        restore = probe.install()
        rounds, wall, first = 0, 0, None
        try:
            while rounds == 0 or wall < budget_ns:
                cells, elapsed = sweep_round(seed, PipelineConfig())
                probe.keep = False
                rounds += 1
                wall += elapsed
                if first is None:
                    first = cells
                elif sweep_results(cells) != sweep_results(first):
                    raise checks.CheckFailed("a later round's sweep results differ")
        finally:
            restore()
        return rounds, wall, probe, first

    budget = int(seconds * 1e9)
    rounds, wall, probe, cells = measure(budget // 2 if trace else budget)
    rss = peak_rss_mb()
    folds = [[([t.instance_id for t in train], [t.instance_id for t in test])
              for train, test in cell] for cell in probe.cells]
    unclassified = checks.check_sweep(cells, folds, SWEEP["n_instances"])
    held_out = SWEEP["n_instances"] * len(cells)
    held_events = sum(len(t) for cell in probe.cells for _, test in cell for t in test)
    classified = held_out - unclassified
    result = dict(attempted=rounds * held_out, failed=rounds * unclassified)
    traces_per_s = rounds * classified / (wall / 1e9)
    if not trace:
        p50, p99 = percentiles_ms(probe.latencies())
        result["metrics"] = dict(
            setup_s=import_s + statistics.median(setup_times),
            events_per_s=rounds * held_events / (wall / 1e9),
            latency_p50_ms=p50,
            latency_p99_ms=p99,
            traces_per_s=traces_per_s,
            peak_rss_mb=rss,
        )
        return result

    tracer = Tracer()
    traverse = tracer.wrap("traversal.traverse", efp.traversal.traverse,
                           note=lambda r: len(r.paths))
    restore_traversal = _patched(efp.traversal, traverse=traverse)
    evaluation = efp.evaluation
    restore_evaluation = _patched(
        evaluation,
        traverse=traverse,
        generate=tracer.wrap("synthesis.generate", evaluation.generate),
        inject_faults=tracer.wrap("synthesis.inject_faults", evaluation.inject_faults),
        filter_visibility=tracer.wrap("events.filter_visibility",
                                      evaluation.filter_visibility),
        mine_model=tracer.wrap("model.mine_model", evaluation.mine_model),
        cross_validate=tracer.wrap("evaluation.cross_validate",
                                   evaluation.cross_validate),
        evaluate_split=tracer.wrap("evaluation.evaluate_split",
                                   evaluation.evaluate_split),
        classify_instance=tracer.wrap("traversal.classify_instance",
                                      evaluation.classify_instance),
    )

    def classifier(catalog):
        model = FrequencyModel(catalog, window=WINDOW, alpha=ALPHA, bins=BINS)
        tracer.instrument(model, "predictors")
        return model

    t_rounds, t_wall = 0, 0
    try:
        while t_rounds == 0 or t_wall < budget // 2:
            t_cells, elapsed = sweep_round(
                seed, PipelineConfig(classifier_factory=classifier), tracer)
            t_rounds += 1
            t_wall += elapsed
            if sweep_results(t_cells) != sweep_results(cells):
                raise checks.CheckFailed("the traced sweep's results differ")
    finally:
        restore_evaluation()
        restore_traversal()
    summary = tracer.summary()
    traverse = summary["traversal.traverse"]
    metrics = layer_metrics(summary)
    train_online = summary["predictors.train_online"]
    metrics.update({
        "predictors.advance_us": traverse["adv_ns"] / traverse["adv_calls"] / 1e3,
        "predictors.advance_calls_per_event": traverse["adv_calls"] / traverse["calls"],
        "predictors.train_online_us": train_online["ns"] / train_online["calls"] / 1e3,
        "evaluation.traversals_per_trace": traverse["calls"] / (t_rounds * held_out),
        "evaluation.cross_validate_s": _mean(summary, "evaluation.cross_validate") / 1e9,
        "events.filter_visibility_s": _mean(summary, "events.filter_visibility") / 1e9,
        "trace.overhead_ratio": traces_per_s / (t_rounds * classified / (t_wall / 1e9)),
    })
    result["metrics"] = metrics
    _write_spans(tracer, "evaluate-sweep", seed)
    return result


# -- per-layer metrics --------------------------------------------------------


def _mean(summary, name, field="ns"):
    agg = summary.get(name)
    return agg[field] / agg["calls"] if agg else 0.0


def layer_metrics(summary) -> dict:
    """Per-layer metrics shared by the workloads; 0 where the workload
    never calls the layer. Workload-specific ones are filled in after."""
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    read = summary.get("xes.read_xes")
    if read:
        metrics["xes.read_us_per_event"] = read["ns"] / read["note"] / 1e3
    for layer in ("predictors", "recurrent"):
        train = summary.get(f"{layer}.train")
        if train:
            fit = summary.get(f"{layer}.fit_bins", {"ns": 0})["ns"]
            metrics[f"{layer}.train_s"] = (fit + train["ns"]) / train["calls"] / 1e9
            metrics[f"{layer}.start_us"] = _mean(summary, f"{layer}.start") / 1e3
    traverse = summary["traversal.traverse"]
    metrics.update({
        "model.mine_s": _mean(summary, "model.mine_model") / 1e9,
        "traversal.self_us": traverse["self_ns"] / traverse["calls"] / 1e3,
        "traversal.paths_per_call": traverse["note"] / traverse["calls"],
        "traversal.distinct_context_ratio": traverse["adv_distinct"] / traverse["adv_calls"],
        "synthesis.generate_s": _mean(summary, "synthesis.generate") / 1e9,
        "synthesis.inject_s": _mean(summary, "synthesis.inject_faults") / 1e9,
    })
    return metrics


def _write_spans(tracer, name, seed) -> None:
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{name}-seed{seed}.tsv")


# -- entry point ----------------------------------------------------------------


def run_workload(name, seed, seconds, trace) -> dict:
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    try:
        if name in ONLINE:
            result = run_online(name, seed, seconds, trace)
        else:
            result = run_sweep(seed, seconds, trace)
    except checks.CheckFailed as exc:
        sys.stderr.write(f"bench: {name}: check failed: {exc}\n")
        return dict(correct=False, attempted=1, failed=0, metrics={})
    metrics = {k: dict(value=float(result["metrics"][k]), unit=u) for k, u in units.items()}
    return dict(correct=True, attempted=result["attempted"], failed=result["failed"],
                metrics=metrics)


def run_all(args) -> int:
    """Every workload in its own process; one line per metric."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exit {proc.returncode}, no result")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
