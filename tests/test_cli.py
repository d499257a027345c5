import os
import subprocess
import sys
from pathlib import Path

import pytest

import efp
from efp.cli import main
from efp.model import read_model
from efp.xes import read_xes

from efp.events import FAIL_STATE, FieldKind, Outcome


def run_cli(*args):
    return main(list(args))


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


def test_run_report_paths_flag(tmp_path, small_log):
    out = tmp_path / "paths.tsv"
    assert run_cli("run", "--in", str(small_log), "--out", str(out),
                   "--seed", "1", "--report-paths") == 0
    assert "# paths at last event:" in out.read_text()


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
    assert run_cli("run", "--help") == 0
    text = capsys.readouterr().out
    for flag in ("--max-depth", "--max-breadth", "--min-probability",
                 "--classifier", "--threshold"):
        assert flag in text
    assert "default 20" in text
    assert "default 5" in text
    assert "1e-4" in text
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
    assert captured.out.endswith("detected 19/19\n")
