import hashlib
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import efp
from efp.cli import main
from efp.model import read_model
from efp.xes import read_xes

from efp.events import FAIL_STATE, FieldKind, Outcome, merge_catalogs
from efp.model import mine_model
from efp.predictors import FrequencyModel
from efp.runtime import Bus, replay
from efp.traversal import format_report
from efp.errors import (
    DisconnectedSpec,
    EmptyLog,
    ParseError,
    SpecFormatError,
    UsageError,
)
from efp.evaluation import PipelineConfig, cross_validate
from efp.events import Scenario
from efp.model import ProcessModel
from efp.synthesis import (
    FaultPlan,
    StepFaultShape,
    default_fault_plan,
    generate,
)
from efp.traversal import TraversalLimits, classify_instance


def run_cli(*args):
    return main(list(args))


def no_sweep(*args, **kwargs):
    raise AssertionError("the corpus was generated")


def test_simulate_writes_log(tmp_path):
    out = tmp_path / "log.xes"
    assert run_cli("simulate", "--spec", "default", "--n", "20",
                   "--seed", "7", "--out", str(out)) == 0
    log = read_xes(out.read_bytes())
    assert len(log) == 20


def test_simulate_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.xes", tmp_path / "b.xes"
    for out in (a, b):
        assert run_cli("simulate", "--n", "10", "--seed", "7",
                       "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_rejects_zero_instances(tmp_path):
    code = run_cli("simulate", "--n", "0", "--seed", "1",
                   "--out", str(tmp_path / "x.xes"))
    assert code == 2


def test_missing_required_flag_is_usage_error(tmp_path, capsys):
    assert run_cli("simulate", "--out", str(tmp_path / "x.xes")) == 2


@pytest.fixture(scope="module")
def small_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("logs") / "clean.xes"
    assert run_cli("simulate", "--n", "60", "--seed", "3",
                   "--out", str(path)) == 0
    return path


def test_inject_rates(tmp_path, small_log):
    out0 = tmp_path / "r0.xes"
    assert run_cli("inject", "--in", str(small_log), "--out", str(out0),
                   "--rate", "0", "--seed", "5") == 0
    labels = [t.outcome_label for t in read_xes(out0.read_bytes()).traces]
    assert all(l is Outcome.END for l in labels)

    out1 = tmp_path / "r1.xes"
    assert run_cli("inject", "--in", str(small_log), "--out", str(out1),
                   "--rate", "1", "--seed", "5") == 0
    labels = [t.outcome_label for t in read_xes(out1.read_bytes()).traces]
    assert all(l is Outcome.FAIL for l in labels)


def test_inject_deterministic(tmp_path, small_log):
    outs = []
    for name in ("a.xes", "b.xes"):
        out = tmp_path / name
        assert run_cli("inject", "--in", str(small_log), "--out", str(out),
                       "--rate", "0.5", "--seed", "11") == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_inject_bad_rate(tmp_path, small_log):
    assert run_cli("inject", "--in", str(small_log),
                   "--out", str(tmp_path / "x.xes"),
                   "--rate", "1.5", "--seed", "1") == 2


def test_evaluate_checks_every_rate_before_generating(tmp_path, small_log,
                                                      monkeypatch, capsys):
    monkeypatch.setattr("efp.cli.sweep", no_sweep)
    for args in (("inject", "--in", str(small_log),
                  "--out", str(tmp_path / "x.xes"), "--rate", "1.5"),
                 ("evaluate", "--rate", "0.5,1.5"),
                 ("evaluate", "--rate=-0.1,0.5")):
        assert run_cli(*args, "--seed", "1") == 2
        assert capsys.readouterr().err == "error: --rate must lie in [0, 1]\n"


def test_mine_writes_model(tmp_path, small_log):
    out = tmp_path / "model.txt"
    assert run_cli("mine", "--in", str(small_log), "--out", str(out)) == 0
    model = read_model(out.read_text())
    assert model.initial_state == "forecast_demand"
    assert "close_order" in model.final_states


def test_mine_recovers_branching_finals(tmp_path):
    from efp.xes import write_xes
    from conftest import make_catalog, make_trace

    catalog = make_catalog(list("ABCDEG"))
    corpus = [
        make_trace(catalog, list("ABCE"), instance_id="t1"),
        make_trace(catalog, list("ABCDG"), instance_id="t2"),
    ]
    log = tmp_path / "branching.xes"
    log.write_bytes(write_xes(corpus))
    out = tmp_path / "model.txt"
    assert run_cli("mine", "--in", str(log), "--out", str(out)) == 0
    model = read_model(out.read_text())
    assert {"E", "G", FAIL_STATE} <= model.final_states


def test_mine_empty_log_is_config_error(tmp_path):
    empty = tmp_path / "empty.xes"
    empty.write_bytes(b'<?xml version="1.0" encoding="UTF-8"?>\n<log/>\n')
    assert run_cli("mine", "--in", str(empty),
                   "--out", str(tmp_path / "m.txt")) == 2


def test_run_emits_prediction_stream(tmp_path, small_log):
    out = tmp_path / "pred.tsv"
    assert run_cli("run", "--in", str(small_log), "--out", str(out),
                   "--seed", "1") == 0
    lines = out.read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data, "expected prediction lines"
    parts = data[0].split("\t")
    assert len(parts) == 5
    float(parts[2]), float(parts[3]), float(parts[4])
    assert any(l.startswith("# instances 60") for l in lines)


def test_run_deterministic(tmp_path, small_log):
    outs = []
    for name in ("p1.tsv", "p2.tsv"):
        out = tmp_path / name
        assert run_cli("run", "--in", str(small_log), "--out", str(out),
                       "--seed", "1") == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def test_efp_seed_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EFP_SEED", "99")
    out = tmp_path / "env.xes"
    assert run_cli("simulate", "--n", "3", "--out", str(out)) == 0
    assert "seed 99" in capsys.readouterr().out
    explicit = tmp_path / "explicit.xes"
    assert run_cli("simulate", "--n", "3", "--seed", "99",
                   "--out", str(explicit)) == 0
    assert out.read_bytes() == explicit.read_bytes()


def test_evaluate_from_matrix(capsys):
    assert run_cli("evaluate", "--from-matrix",
                   "1051.14,28.04,153.76,1917.95") == 0
    out = capsys.readouterr().out
    assert "mcc 0.879" in out
    assert "precision 0.872" in out
    assert "recall 0.974" in out
    assert "differ" in out  # the two-summaries caveat is documented


@pytest.mark.parametrize("counts", ["nan,0,0,1", "inf,0,0,1", "1,0,0,-3",
                                    "-1,0,0,1", "1,-inf,0,1"])
def test_evaluate_from_matrix_rejects_non_finite_or_negative_counts(counts,
                                                                    capsys):
    assert run_cli("evaluate", f"--from-matrix={counts}") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --from-matrix counts must be finite and non-negative\n"
    )


@pytest.mark.parametrize("counts,token", [("1,x,0,1", "x"), ("1,0,,1", ""),
                                          ("1,0,0,1,two", "two")])
def test_evaluate_from_matrix_names_a_non_numeric_count(counts, token, capsys):
    assert run_cli("evaluate", f"--from-matrix={counts}") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --from-matrix expects tp,fn,fp,tn numbers, got {token!r}\n"
    )


def test_evaluate_from_matrix_rejects_an_empty_matrix(monkeypatch, capsys):
    def no_metrics(cm):
        raise AssertionError("metrics ran")

    monkeypatch.setattr("efp.cli.metrics", no_metrics)
    assert run_cli("evaluate", "--from-matrix", "0,0,0,0") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --from-matrix counts must not all be zero\n"


def test_evaluate_from_matrix_reads_no_seed(monkeypatch, capsys):
    monkeypatch.setenv("EFP_SEED", "abc")
    assert run_cli("evaluate", "--from-matrix", "1,0,0,1") == 0
    assert capsys.readouterr().out.startswith("precision 1.000\n")
    # The sweep still refuses the seed, before it generates.
    monkeypatch.setattr("efp.cli.sweep", no_sweep)
    assert run_cli("evaluate", "--n", "10") == 2
    assert capsys.readouterr().err == (
        "error: EFP_SEED must be a non-negative integer, got 'abc'\n")


def test_evaluate_sweep_outputs(tmp_path, capsys):
    out_dir = tmp_path / "eval"
    assert run_cli("evaluate", "--spec", "default", "--n", "80",
                   "--rate", "0.5", "--scenario", "global,local:carrier",
                   "--k", "2", "--seed", "4", "--out", str(out_dir)) == 0
    assert (out_dir / "results.tsv").exists()
    for metric in ("precision", "recall", "mcc"):
        assert (out_dir / f"{metric}.tsv").exists()
    text = capsys.readouterr().out
    assert "seed 4" in text
    results = (out_dir / "results.tsv").read_text()
    assert len(results.strip().splitlines()) == 1 + 2 * 3


def test_evaluate_sweep_deterministic(tmp_path):
    texts = []
    for name in ("e1", "e2"):
        out_dir = tmp_path / name
        assert run_cli("evaluate", "--spec", "default", "--n", "60",
                       "--rate", "0.5", "--scenario", "global",
                       "--k", "2", "--seed", "4", "--out", str(out_dir)) == 0
        texts.append((out_dir / "results.tsv").read_text())
    assert texts[0] == texts[1]


def test_help_documents_flags_and_defaults(capsys):
    # run and evaluate share the classifier and traversal flags
    for command in ("run", "evaluate"):
        assert run_cli(command, "--help") == 0
        text = capsys.readouterr().out
        for flag in ("--max-depth", "--max-breadth", "--min-probability",
                     "--classifier", "--threshold", "--window", "--alpha"):
            assert flag in text
        assert "default 20" in text
        assert "default 5" in text
        assert "1e-4" in text
        assert "threshold (default 0.5)" in text
        assert "smoothing (default 1.0)" in text
        assert "window (default 3)" in text
    for command in ("simulate", "inject", "mine", "evaluate"):
        assert run_cli(command, "--help") == 0
        assert "--" in capsys.readouterr().out


def test_console_entry_point():
    # The child interpreter imports the same efp as this one, installed or
    # not (pytest's ``pythonpath`` setting does not reach subprocesses).
    src = str(Path(efp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "efp.cli", "evaluate", "--from-matrix",
         "1,0,0,1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "mcc 1.000" in proc.stdout


# Every stage of a small pipeline, run in one interpreter through ``main``.
HASH_SEED_PIPELINE = """
from efp.cli import main
for args in (
    "simulate --n 6 --seed 1 --out clean.xes",
    "inject --in clean.xes --out log.xes --rate 0.5 --seed 2",
    "mine --in log.xes --out model.txt",
    "run --in log.xes --model model.txt --report-paths",
    "run --in log.xes --classifier recurrent --report-paths",
    "evaluate --n 40 --k 2 --seed 1 --scenario global,local:carrier --out eval",
):
    assert main(args.split()) == 0, args
"""


def test_pipeline_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # Set iteration order follows PYTHONHASHSEED; one interpreter per seed,
    # each in its own directory, since ``simulate`` echoes its output path.
    src = str(Path(efp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    digests = []
    for hash_seed in ("0", "1"):
        cwd = tmp_path / hash_seed
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", HASH_SEED_PIPELINE], cwd=cwd,
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed),
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs = {"stdout": proc.stdout, "stderr": proc.stderr}
        for file in sorted(cwd.rglob("*")):
            if file.is_file():
                outputs[str(file.relative_to(cwd))] = file.read_bytes()
        digests.append({name: hashlib.sha256(data).hexdigest()
                        for name, data in outputs.items()})
    assert len(digests[0]) > 7  # both logs, the model and the evaluation files
    assert digests[0] == digests[1]


@pytest.fixture(scope="module")
def training_and_input_logs(tmp_path_factory):
    """A 40-instance training log with faults (it has steps, such as
    ``escalate_order``, that a clean log never shows) and a clean
    5-instance input log."""
    d = tmp_path_factory.mktemp("train")
    steps = [
        ("simulate", "--n", "40", "--seed", "1", "--out", d / "train0.xes"),
        ("inject", "--in", d / "train0.xes", "--out", d / "train.xes",
         "--rate", "0.5", "--seed", "2"),
        ("simulate", "--n", "5", "--seed", "3", "--out", d / "input0.xes"),
        ("inject", "--in", d / "input0.xes", "--out", d / "input.xes",
         "--rate", "0", "--seed", "4"),
    ]
    for args in steps:
        assert run_cli(*map(str, args)) == 0
    return d / "train.xes", d / "input.xes"


def test_run_trains_on_steps_the_input_log_lacks(tmp_path,
                                                 training_and_input_logs):
    train, infile = training_and_input_logs
    train_types = {t.name for t in read_xes(train.read_bytes()).catalog.all_types}
    in_types = {t.name for t in read_xes(infile.read_bytes()).catalog.all_types}
    assert "escalate_order" in train_types - in_types
    out = tmp_path / "pred.tsv"
    assert run_cli("run", "--in", str(infile), "--train", str(train),
                   "--out", str(out)) == 0
    assert "# instances 5, failures 0" in out.read_text()


@pytest.mark.parametrize("classifier", ["frequency", "recurrent"])
def test_run_default_output_matches_golden(training_and_input_logs, classifier,
                                           monkeypatch, capsys):
    train, infile = training_and_input_logs
    monkeypatch.delenv("EFP_SEED", raising=False)
    assert run_cli("run", "--in", str(infile), "--train", str(train),
                   "--classifier", classifier) == 0
    golden = Path(__file__).parent / "data" / f"run_train_{classifier}.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_evaluate_output_matches_golden(tmp_path, monkeypatch, capsys):
    # Pins every byte ``efp evaluate`` writes for a two-rate, two-scenario
    # sweep.
    monkeypatch.chdir(tmp_path)
    assert run_cli("evaluate", "--spec", "default", "--n", "240",
                   "--rate", "0.2,0.5", "--scenario", "global,local:carrier",
                   "--k", "3", "--seed", "9", "--out", "out") == 0
    golden = Path(__file__).parent / "data" / "evaluate_default"
    assert capsys.readouterr().out == (golden / "stdout.txt").read_text(
        encoding="utf-8")
    for name in ("results.tsv", "precision.tsv", "recall.tsv", "mcc.tsv"):
        assert (tmp_path / "out" / name).read_bytes() == (golden / name).read_bytes()


def test_run_report_paths_flag(tmp_path, training_and_input_logs):
    train, infile = training_and_input_logs
    out = tmp_path / "paths.tsv"
    assert run_cli("run", "--in", str(infile), "--train", str(train),
                   "--out", str(out), "--report-paths") == 0

    # The same replay through the library: each instance's report is its
    # last prediction before the closing event.
    log, train_log = read_xes(infile.read_bytes()), read_xes(train.read_bytes())
    classifier = FrequencyModel(merge_catalogs(log.catalog, train_log.catalog))
    classifier.fit_bins(list(train_log.traces))
    classifier.train(list(train_log.traces))
    traces = list(log.traces)
    bus = Bus()
    stream = replay(traces, classifier, mine_model(traces), bus=bus)
    expected = []
    for trace in traces:
        instance = bus.instances[trace.instance_id]
        assert instance.closed
        own = [p for p in stream if p.instance_id == trace.instance_id]
        expected.extend(p.line() for p in own)
        reported = [p for p in own
                    if p.at_event_index < len(instance.events) - 1][-1]
        report = format_report(reported.top_paths).splitlines()
        assert report, "every header needs at least one path line"
        expected.append("# paths at last event:")
        expected.extend("# " + line for line in report)
    lines = out.read_text().splitlines()
    assert lines[:len(expected)] == expected
    assert lines[len(expected)].startswith("# seed")


def test_run_rejects_conflicting_training_schema(tmp_path):
    from efp.xes import write_xes
    from conftest import make_catalog, make_trace

    def log(catalog, name):
        trace = make_trace(catalog, ["A", "temp", "B"], label=Outcome.END,
                           payloads={"temp": (1.0,)})
        path = tmp_path / name
        path.write_bytes(write_xes([trace]))
        return path

    numeric = make_catalog("AB", contexts=(("temp", (("v", FieldKind.NUMERIC),)),))
    other = make_catalog("AB", contexts=(("temp", (("w", FieldKind.NUMERIC),)),))
    assert run_cli("run", "--in", str(log(numeric, "in.xes")),
                   "--train", str(log(other, "train.xes"))) == 1


def test_run_reports_prediction_errors_on_stderr(training_and_input_logs,
                                                 capsys):
    train, _ = training_and_input_logs
    assert run_cli("run", "--in", str(train)) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "warning: 22 prediction errors (first: case-00000 event 0: "
        "frequency model has seen no training trace)\n"
    )
    assert "warning" not in captured.out
    # case-00000 is predicted only at its failure event, which is no
    # detection.
    assert captured.out.endswith("detected 18/19\n")


def test_run_reports_training_errors_apart(training_and_input_logs,
                                           monkeypatch, capsys):
    def fail(self, trace):
        raise ValueError("training broke")

    monkeypatch.setattr(FrequencyModel, "train_online", fail)
    train, _ = training_and_input_logs
    assert run_cli("run", "--in", str(train)) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: 2196 prediction errors (first: case-00000 event 0: "
        "frequency model has seen no training trace)",
        "warning: 40 training errors (first: case-00000 event 22: "
        "training broke)",
    ]


def test_run_counts_a_failure_whose_failure_event_is_late(
        tmp_path, training_and_input_logs, monkeypatch):
    # The bus refuses the late failure event but still closes the instance
    # as failed; its lead time is measured to the index the event would
    # have taken.
    train, _ = training_and_input_logs
    traces = list(read_xes(train.read_bytes()).traces)
    late = [t for t in traces if t.outcome_label is Outcome.FAIL][-1]
    closing = len(late.events) - 1

    def replay_with_late_failure(traces, classifier, model, limits, bus):
        for trace in traces:
            bus.start_instance(trace.instance_id, classifier, model, limits)
            events = list(trace.events)
            if trace.instance_id == late.instance_id:
                events[-1] = replace(events[-1],
                                     timestamp=events[-2].timestamp - 1)
            for event in events:
                bus.publish(event)
        return list(bus.prediction_queue)

    on_time, delayed = tmp_path / "on_time.tsv", tmp_path / "late.tsv"
    assert run_cli("run", "--in", str(train), "--out", str(on_time)) == 0
    monkeypatch.setattr("efp.cli.replay", replay_with_late_failure)
    assert run_cli("run", "--in", str(train), "--out", str(delayed)) == 0
    # The one line missing is the certain prediction at the failure event.
    expected = on_time.read_text().splitlines()
    expected.remove(f"{late.instance_id}\t{closing}\t1.0000\t1.0000\t1.0000")
    assert delayed.read_text().splitlines() == expected
    assert "# instances 40, failures 19" in expected


@pytest.mark.parametrize("flags,model,message", [
    (("--max-depth", "0"), None, "depth and breadth limits must be at least 1"),
    (("--min-probability", "1.5"), None, "min_probability must lie in [0, 1]"),
    ((), "A B C\n", "model line 1: cannot parse 'A B C'"),
    ((), "final B\nA B\n", "model file lacks an 'initial' line"),
], ids=["max-depth", "min-probability", "model-line", "model-initial"])
def test_run_rejects_bad_limits_and_models(tmp_path, training_and_input_logs,
                                           capsys, flags, model, message):
    _, infile = training_and_input_logs
    if model is not None:
        (tmp_path / "model.txt").write_text(model, encoding="utf-8")
        flags = ("--model", str(tmp_path / "model.txt"))
    assert run_cli("run", "--in", str(infile), "--out", str(tmp_path / "p.tsv"),
                   *flags) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _with_last_close_order_as_failure(xes: bytes) -> bytes:
    head, name, tail = xes.rpartition(b'value="close_order"/>')
    return head + name + tail.replace(b'value="step"', b'value="failure"', 1)


def _set_nth(key: bytes, n: int, value: bytes):
    """An edit that sets the value of the ``n``-th attribute named ``key``."""
    def edit(xes):
        found = list(re.finditer(rb'key="' + key + rb'" value="([^"]*)"', xes))[n]
        return xes[:found.start(1)] + value + xes[found.end(1):]
    return edit


def _with_events_3_and_4_swapped(xes: bytes) -> bytes:
    """The first trace's events 3 and 4 (the two sides of ``place_order``)
    with their timestamps swapped."""
    a, b = list(re.finditer(rb'key="time:timestamp" value="([^"]*)"', xes))[3:5]
    return (xes[:a.start(1)] + b.group(1) + xes[a.end(1):b.start(1)]
            + a.group(1) + xes[b.end(1):])


@pytest.mark.parametrize("edit,message", [
    (lambda xes: re.sub(rb'(key="time:timestamp" value=")[^"]*', rb"\1garbage",
                        xes, count=1),
     "trace 'case-00000', event 0 'forecast_demand': key 'time:timestamp': "
     "Invalid isoformat string: 'garbage'"),
    (_with_last_close_order_as_failure,
     "trace 'case-00004', event 66 'close_order': kind 'failure', but its "
     "name was first read as 'step'"),
    (_set_nth(b"quantity", 0, b"abc"),
     "trace 'case-00000', event 3 'place_order': key 'quantity': "
     "could not convert string to float: 'abc'"),
    (_set_nth(b"efp:visibility", 2, b"secret"),
     "trace 'case-00000', event 2 'prepare_order': key 'efp:visibility': "
     "'secret' is not a valid Visibility"),
    (_set_nth(b"efp:kind", 0, b"bogus"),
     "trace 'case-00000', event 0 'forecast_demand': key 'efp:kind': "
     "'bogus' is not a valid EventKind"),
    (_set_nth(b"efp:outcome", 0, b"maybe"),
     "trace 'case-00000': key 'efp:outcome': 'maybe' is not a valid Outcome"),
    (_set_nth(b"efp:instance", 2, b"case-00001"),
     "trace 'case-00000', event 2 'prepare_order': key 'efp:instance': "
     "'case-00001' is another trace's"),
    (_with_events_3_and_4_swapped,
     "trace 'case-00000', event 4 'place_order': key 'time:timestamp': "
     "earlier than the event before it"),
], ids=["timestamp", "kind", "float-value", "visibility-value", "kind-value",
        "outcome-value", "instance", "timestamp-order"])
def test_run_rejects_malformed_events(tmp_path, training_and_input_logs,
                                      capsys, edit, message):
    _, infile = training_and_input_logs
    bad = tmp_path / "bad.xes"
    bad.write_bytes(edit(infile.read_bytes()))
    assert run_cli("run", "--in", str(bad)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_run_reads_a_timestamp_without_zone_as_utc(tmp_path,
                                                   training_and_input_logs,
                                                   capsys):
    _, infile = training_and_input_logs
    xes = infile.read_bytes()
    assert xes.count(b'+00:00"') > 0
    zoneless = tmp_path / "zoneless.xes"
    zoneless.write_bytes(xes.replace(b'+00:00"', b'"'))
    outputs = []
    for log in (infile, zoneless):
        assert run_cli("run", "--in", str(log)) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("line,message", [
    ("bogus y", "spec line 4: 'bogus y' (unknown directive 'bogus')"),
    ("context temp shop public v=uniform:1,2 attach=a",
     "spec line 4: 'context temp shop public v=uniform:1,2 attach=a' "
     "(context sources use normal:mu,sigma)"),
], ids=["directive", "context-dist"])
def test_simulate_rejects_bad_spec_lines(tmp_path, capsys, line, message):
    spec = tmp_path / "bad.spec"
    spec.write_text(f"name bad\npartner shop\ntask a shop private\n{line}\n",
                    encoding="utf-8")
    assert run_cli("simulate", "--spec", str(spec), "--n", "2",
                   "--out", str(tmp_path / "x.xes")) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.xes").exists()


@pytest.mark.parametrize("command", ["run", "evaluate"])
@pytest.mark.parametrize("threshold", ["0", "1.5"])
def test_threshold_outside_unit_interval_is_usage_error(tmp_path, small_log,
                                                       capsys, command, threshold):
    if command == "run":
        args = ("run", "--in", str(small_log), "--out", str(tmp_path / "p.tsv"))
    else:
        args = ("evaluate", "--n", "30", "--out", str(tmp_path / "eval"))
    assert run_cli(*args, "--threshold", threshold) == 2
    assert capsys.readouterr().err == "error: threshold must lie in (0, 1)\n"


@pytest.mark.parametrize("command", ["run", "evaluate"])
def test_non_positive_alpha_is_usage_error(tmp_path, training_and_input_logs,
                                           capsys, command):
    train, _ = training_and_input_logs
    if command == "run":
        args = ("run", "--in", str(train), "--out", str(tmp_path / "p.tsv"))
    else:
        args = ("evaluate", "--n", "30", "--out", str(tmp_path / "eval"))
    assert run_cli(*args, "--alpha", "0") == 2
    assert capsys.readouterr().err.startswith("error: alpha must be")


def test_negative_window_is_usage_error(tmp_path, small_log, capsys):
    assert run_cli("run", "--in", str(small_log), "--out", str(tmp_path / "p.tsv"),
                   "--window", "-1") == 2
    assert capsys.readouterr().err == "error: window must be non-negative, got -1\n"


@pytest.mark.parametrize("flag,value,message", [
    ("--window", "-1", "window must be non-negative, got -1"),
    ("--alpha", "0", "alpha must be a positive finite number, got 0.0"),
])
def test_evaluate_checks_classifier_settings_before_generating(
        tmp_path, monkeypatch, capsys, flag, value, message):
    monkeypatch.setattr("efp.cli.sweep", no_sweep)
    assert run_cli("evaluate", "--out", str(tmp_path / "eval"), flag, value) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("k", ["1", "0"])
def test_evaluate_rejects_fewer_than_two_folds_before_generating(
        tmp_path, monkeypatch, capsys, k):
    monkeypatch.setattr("efp.cli.sweep", no_sweep)
    assert run_cli("evaluate", "--out", str(tmp_path / "eval"), "--k", k) == 2
    assert capsys.readouterr().err == f"error: --k must be at least 2, got {k}\n"


@pytest.mark.parametrize("args,message", [
    (("--rate", "0.5,0.5"), "--rate: '0.5' repeats an earlier entry"),
    (("--rate", "0.2,0.5,0.50"), "--rate: '0.50' repeats an earlier entry"),
    (("--scenario", "global,local:carrier,global"),
     "--scenario: 'global' repeats an earlier entry"),
    (("--fault-types", "step,data,step"),
     "--fault-types: 'step' repeats an earlier entry"),
    (("--k", "5", "--n", "4"), "--k 5 exceeds --n 4"),
    (("--scenario", "nocontext:carrier"),
     "scenario 'nocontext' takes no partner, got 'carrier'"),
    (("--scenario", "global:x"), "scenario 'global' takes no partner, got 'x'"),
    (("--scenario", "local"), "scenario 'local' requires a partner id"),
    (("--scenario", "nocontext-local"),
     "scenario 'nocontext-local' requires a partner id"),
], ids=["rate", "rate-equal-value", "scenario", "fault-types", "k-above-n",
        "nocontext-partner", "global-partner", "local-alone",
        "nocontext-local-alone"])
def test_evaluate_refuses_bad_lists_and_folds_before_generating(
        tmp_path, monkeypatch, capsys, args, message):
    monkeypatch.setattr("efp.cli.sweep", no_sweep)
    assert run_cli("evaluate", *args, "--out", str(tmp_path / "eval")) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "eval").exists()


def test_inject_refuses_a_repeated_fault_type(tmp_path, small_log, capsys):
    out = tmp_path / "x.xes"
    assert run_cli("inject", "--in", str(small_log), "--out", str(out),
                   "--rate", "0.5", "--fault-types", "data,data") == 2
    assert capsys.readouterr().err == (
        "error: --fault-types: 'data' repeats an earlier entry\n")
    assert not out.exists()


@pytest.fixture
def three_task_log(tmp_path, capsys):
    """A spec of three tasks (``a``, ``b``, ``c``) and a 5-trace log of it."""
    spec = tmp_path / "three.spec"
    spec.write_text("name three\nseed 0\npartner shop\ntask a shop private\n"
                    "task b shop private\ntask c shop private\n", encoding="utf-8")
    log = tmp_path / "three.xes"
    assert run_cli("simulate", "--spec", str(spec), "--n", "5",
                   "--out", str(log)) == 0
    capsys.readouterr()
    return spec, log


def test_fault_plans_on_a_spec_without_temperature(tmp_path, three_task_log,
                                                   capsys):
    spec, log = three_task_log
    out = tmp_path / "out.xes"
    # Data faults need the spec's temperature source.
    for args in (("inject", "--in", str(log), "--out", str(out), "--rate", "0.5"),
                 ("evaluate", "--n", "30", "--out", str(tmp_path / "eval"))):
        assert run_cli(*args, "--spec", str(spec)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'temperature'" in err
        assert err.count("\n") == 1
    # Other fault types do not.
    assert run_cli("inject", "--in", str(log), "--out", str(out), "--rate", "0",
                   "--spec", str(spec), "--fault-types", "step,event") == 0
    assert len(read_xes(out.read_bytes())) == 5


def test_fault_plans_need_their_anchor_steps(tmp_path, three_task_log,
                                             monkeypatch, capsys):
    spec, log = three_task_log
    out = tmp_path / "out.xes"
    monkeypatch.setattr("efp.cli.sweep", no_sweep)
    for args in (("inject", "--in", str(log), "--out", str(out), "--rate", "0.5"),
                 ("evaluate", "--rate", "0,0.5")):
        assert run_cli(*args, "--spec", str(spec), "--fault-types", "step") == 2
        assert capsys.readouterr().err == (
            "error: spec 'three' has no task 'select_supplier' for step faults\n"
        )
    assert not out.exists()
    # A plan that injects nothing needs no anchor.
    assert run_cli("inject", "--in", str(log), "--out", str(out), "--rate", "0",
                   "--spec", str(spec), "--fault-types", "step") == 0
    assert out.read_bytes() == log.read_bytes()


def test_unknown_fault_type_is_usage_error(tmp_path, small_log, capsys):
    for args in (("inject", "--in", str(small_log), "--out", str(tmp_path / "x.xes"),
                  "--rate", "0.5"),
                 ("evaluate", "--n", "30", "--out", str(tmp_path / "eval"))):
        assert run_cli(*args, "--fault-types", "step,bogus") == 2
        assert capsys.readouterr().err == "error: unknown fault type 'bogus'\n"


# -- the error's type decides the exit code -----------------------------------


def _three_task_spec():
    from efp.synthesis import CollaborationSpec, Task

    return CollaborationSpec("three", ("shop",), tuple(
        Task(name, "shop") for name in "abc"))


SETTING_CHECKS = {
    "limits-depth": lambda: TraversalLimits(max_depth=0),
    "limits-breadth": lambda: TraversalLimits(max_breadth=0),
    "limits-probability": lambda: TraversalLimits(min_probability=1.5),
    "classify-threshold": lambda: classify_instance(None, None, None,
                                                    threshold=1.0),
    "config-threshold": lambda: PipelineConfig(threshold=0.0),
    "folds": lambda: cross_validate([], k=1),
    "alpha": lambda: FrequencyModel(None, alpha=0.0),
    "bins": lambda: FrequencyModel(None, bins=0),
    "window": lambda: FrequencyModel(None, window=-1),
    "capacity": lambda: Bus(capacity=0),
    "instances": lambda: generate(_three_task_spec(), 0),
    "plan-rate": lambda: FaultPlan(1.5, (StepFaultShape("a", ("b",), "p"),)),
    "plan-shapes": lambda: FaultPlan(0.5, ()),
    "fault-type": lambda: default_fault_plan(_three_task_spec(), 0.5, ("bogus",)),
    "temperature": lambda: default_fault_plan(_three_task_spec(), 0.5),
    "anchor": lambda: default_fault_plan(_three_task_spec(), 0.5, ("step",)),
    "scenario-partner": lambda: Scenario(local=True),
    "scenario-name": lambda: Scenario.parse("bogus"),
    "model-edge": lambda: ProcessModel({"a"}, "a", set(), {("a", "z")}),
    "model-initial": lambda: ProcessModel({"a"}, "z", set(), set()),
    "model-failure": lambda: ProcessModel({"a"}, "a", set(), {(FAIL_STATE, "a")}),
}


@pytest.mark.parametrize("check", SETTING_CHECKS.values(), ids=SETTING_CHECKS)
def test_setting_checks_raise_usage_errors(check):
    # A ``UsageError`` is still a ``ValueError`` to every caller.
    with pytest.raises(UsageError) as info:
        check()
    assert isinstance(info.value, ValueError)


def test_spec_model_and_log_config_errors_are_usage_errors():
    for error in (SpecFormatError, DisconnectedSpec, EmptyLog):
        assert issubclass(error, UsageError)
    assert not issubclass(ParseError, UsageError)


def test_a_bare_value_error_leaves_main(monkeypatch):
    # Only a ``UsageError`` means exit 2: any other ``ValueError`` is a bug.
    def boom(args):
        raise ValueError("boom")

    monkeypatch.setattr("efp.cli.cmd_mine", boom)
    with pytest.raises(ValueError, match="boom"):
        run_cli("mine", "--in", "x.xes", "--out", "model.txt")


@pytest.mark.parametrize("args", [
    ("run", "--in", "{dir}"),
    ("run", "--in", "{log}", "--out", "{dir}"),
    ("mine", "--in", "{log}", "--out", "{dir}"),
    ("simulate", "--n", "2", "--out", "{file}/x.xes"),
    ("evaluate", "--n", "30", "--out", "{file}"),
], ids=["run-in-dir", "run-out-dir", "mine-out-dir", "simulate-out-under-file",
        "evaluate-out-file"])
def test_os_errors_end_in_one_error_line(tmp_path, training_and_input_logs,
                                         monkeypatch, capsys, args):
    _, infile = training_and_input_logs
    afile = tmp_path / "file"
    afile.write_text("", encoding="utf-8")
    # ``evaluate`` makes its output directory before it generates.
    monkeypatch.setattr("efp.cli.sweep", no_sweep)
    places = {"dir": tmp_path, "file": afile, "log": infile}
    assert run_cli(*(a.format(**places) for a in args)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.count("\n") == 1


@pytest.mark.parametrize("args,env,message", [
    (("--seed", "-1"), None, "--seed must be a non-negative integer, got -1"),
    ((), "-1", "EFP_SEED must be a non-negative integer, got '-1'"),
    ((), "abc", "EFP_SEED must be a non-negative integer, got 'abc'"),
], ids=["flag-negative", "env-negative", "env-non-integer"])
def test_seeds_are_checked_where_they_enter(tmp_path, monkeypatch, capsys,
                                            args, env, message):
    if env is None:
        monkeypatch.delenv("EFP_SEED", raising=False)
    else:
        monkeypatch.setenv("EFP_SEED", env)
    out = tmp_path / "x.xes"
    assert run_cli("simulate", "--n", "2", "--out", str(out), *args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_run_rejects_a_negative_seed_with_either_classifier(
        tmp_path, training_and_input_logs, capsys):
    _, infile = training_and_input_logs
    for classifier in ("frequency", "recurrent"):
        assert run_cli("run", "--in", str(infile), "--classifier", classifier,
                       "--seed", "-1", "--out", str(tmp_path / "p.tsv")) == 2
        assert capsys.readouterr().err == (
            "error: --seed must be a non-negative integer, got -1\n")


def test_evaluate_names_a_rate_that_is_no_number(monkeypatch, capsys):
    monkeypatch.setattr("efp.cli.sweep", no_sweep)
    assert run_cli("evaluate", "--rate", "0.5,x") == 2
    assert capsys.readouterr().err == "error: --rate expects numbers, got 'x'\n"


def test_files_that_are_not_utf8_name_their_flag(tmp_path,
                                                 training_and_input_logs,
                                                 capsys):
    _, infile = training_and_input_logs
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("name caf\xe9\n".encode("latin-1"))
    for args, flag in ((("simulate", "--n", "2", "--out", tmp_path / "x.xes",
                         "--spec", bad), "--spec"),
                       (("run", "--in", infile, "--model", bad), "--model")):
        assert run_cli(*map(str, args)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} {bad}: not UTF-8 (")
        assert err.count("\n") == 1


@pytest.mark.parametrize("old,new,reason", [
    ("reading=normal:18,2.5", "reading=normal:18,-2.5",
     "normal sigma must be non-negative"),
    ("quantity=uniform:10,100", "quantity=uniform:10,inf",
     "uniform parameters must be finite"),
    ("deadline=uniform:30,60", "deadline=uniform:30,-1e308",
     "uniform range 30,-1e+308 must be finite and not descend"),
], ids=["negative-sigma", "infinite-bound", "descending-range"])
def test_spec_values_are_checked_on_their_line(tmp_path, capsys, old, new,
                                               reason):
    from efp.synthesis import default_spec, write_spec

    lines = write_spec(default_spec()).splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if old in line)
    lines[lineno - 1] = lines[lineno - 1].replace(old, new, 1)
    spec = tmp_path / "bad.spec"
    spec.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run_cli("simulate", "--spec", str(spec), "--n", "2",
                   "--out", str(tmp_path / "x.xes")) == 2
    assert capsys.readouterr().err == (
        f"error: spec line {lineno}: {lines[lineno - 1]!r} ({reason})\n")


def test_spec_refuses_a_minus_uniform_over_a_categorical_field(tmp_path,
                                                               capsys):
    from efp.synthesis import default_spec, write_spec

    text = write_spec(default_spec()).replace("deadline=uniform:30,60",
                                              "deadline=choice:a|b")
    spec = tmp_path / "bad.spec"
    spec.write_text(text, encoding="utf-8")
    assert run_cli("simulate", "--spec", str(spec), "--n", "2",
                   "--out", str(tmp_path / "x.xes")) == 2
    assert capsys.readouterr().err == (
        "error: task 'announce_delivery': field 'delivery_date' refers to "
        "'deadline', no numeric field drawn before it\n")


def test_spec_refuses_an_interaction_field_of_another_kind(tmp_path, capsys):
    spec = tmp_path / "clash.spec"
    spec.write_text("name clash\npartner a\npartner b\n"
                    "task t1 a private x=uniform:1,2\n"
                    "interaction t2 a b x=choice:p|q\n", encoding="utf-8")
    out = tmp_path / "x.xes"
    assert run_cli("simulate", "--spec", str(spec), "--n", "2",
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: interaction 't2': field 'x' is categorical, but the instance "
        "holds it as numeric\n")
    assert not out.exists()


def test_evaluate_rejects_an_unknown_local_partner_before_generating(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("efp.cli.sweep", no_sweep)
    for scenario in ("local:nobody", "global,nocontext-local:nobody"):
        assert run_cli("evaluate", "--scenario", scenario,
                       "--out", str(tmp_path / "eval")) == 2
        assert capsys.readouterr().err == (
            f"error: --scenario {scenario.split(',')[-1]}: spec "
            "'supply_chain' has no partner 'nobody'\n")
    assert not (tmp_path / "eval").exists()


def test_model_file_names_the_line_of_an_edge_out_of_the_failure_state(
        tmp_path, training_and_input_logs, capsys):
    _, infile = training_and_input_logs
    model = tmp_path / "model.txt"
    model.write_text(f"initial a\na b\n{FAIL_STATE} b\n", encoding="utf-8")
    assert run_cli("run", "--in", str(infile), "--model", str(model)) == 2
    assert capsys.readouterr().err == (
        "error: model line 3: failure state cannot have outgoing edges\n")
