"""Seeded mutation test of the command line.

Generated logs, a written default spec and the values of every flag are
mutated one defect at a time and fed to ``efp.cli.main`` in-process.
Every run must return 0, or return 1 or 2 with exactly one ``error:``
line on stderr; none may raise, since an exception leaving ``main`` is a
bug (a traceback for the user).
"""

import re

import numpy as np
import pytest

from efp.cli import main
from efp.synthesis import default_spec, write_spec

SEED = 20260101

#: One keyed attribute element of a written log.
ATTRIBUTE = re.compile(rb'<(\w+) key="([^"]*)" value="([^"]*)"/>')


def check_run(args, capsys, what):
    """Run ``efp`` on ``args`` and check how it ends; returns the exit code."""
    try:
        code = main([str(a) for a in args])
    except Exception as exc:
        pytest.fail(f"{what}: {args} raised {exc!r}")
    err = capsys.readouterr().err
    if code != 0:
        errors = [line for line in err.splitlines() if "error:" in line]
        assert code in (1, 2) and len(errors) == 1, (what, args, code, err)
    assert "Traceback" not in err, (what, args, err)
    return code


@pytest.fixture(scope="module")
def faulty_log(tmp_path_factory):
    """A 3-instance log with injected faults: it carries failure events,
    outcomes, error indices and context readings."""
    d = tmp_path_factory.mktemp("mutation")
    assert main(["simulate", "--n", "3", "--seed", "1",
                 "--out", str(d / "clean.xes")]) == 0
    assert main(["inject", "--in", str(d / "clean.xes"), "--out",
                 str(d / "log.xes"), "--rate", "1", "--seed", "2"]) == 0
    return (d / "log.xes").read_bytes()


def _set(xes, match, group, value):
    """``xes`` with ``group`` of ``match`` (the whole element for 0) set to
    ``value``."""
    return xes[:match.start(group)] + value + xes[match.end(group):]


def log_mutations(xes, rng, rounds):
    """``(description, mutated log)`` pairs, ``rounds`` per kind of defect."""
    found = list(ATTRIBUTE.finditer(xes))
    by_key = {}
    for m in found:
        by_key.setdefault(m.group(2), []).append(m)
    numeric = [m for m in found if m.group(1) in (b"float", b"int")]
    timestamps = [m.group(3) for m in by_key[b"time:timestamp"]]
    names = [m.group(3) for m in by_key[b"concept:name"]]
    instances = [m.group(3) for m in by_key[b"efp:instance"]]

    def pick(matches):
        return matches[rng.integers(len(matches))]

    def choose(values):
        return values[rng.integers(len(values))]

    kinds = {
        "drop": lambda: _set(xes, pick(found), 0, b""),
        "non-number": lambda: _set(xes, pick(numeric), 3,
                                   choose([b"x", b"", b"1,5", b"0x1"])),
        "tag": lambda: _set(xes, pick(found), 1,
                            choose([b"string", b"float", b"int", b"date", b"list"])),
        "kind": lambda: _set(xes, pick(by_key[b"efp:kind"]), 3,
                             choose([b"step", b"failure", b"context", b"bogus"])),
        "visibility": lambda: _set(xes, pick(by_key[b"efp:visibility"]), 3,
                                   choose([b"private", b"public", b"secret", b""])),
        "outcome": lambda: _set(xes, pick(by_key[b"efp:outcome"]), 3,
                                choose([b"end", b"fail", b"maybe", b""])),
        "error-index": lambda: _set(xes, pick(by_key[b"efp:error-index"]), 3,
                                    choose([b"-1", b"999", b"x", b"2.5"])),
        "timestamp": lambda: _set(xes, pick(by_key[b"time:timestamp"]), 3,
                                  choose(timestamps + [b"garbage",
                                                       b"9999-12-31T23:59:59",
                                                       b"0001-01-01"])),
        "instance": lambda: _set(xes, pick(by_key[b"efp:instance"]), 3,
                                 choose(instances + [b""])),
        "name": lambda: _set(xes, pick(by_key[b"concept:name"]), 3,
                             choose(names + [b"", b"failure"])),
    }
    for _ in range(rounds):
        for kind, mutate in kinds.items():
            yield kind, mutate()


def test_mutated_logs_end_in_one_error_line(tmp_path, faulty_log, capsys):
    rng = np.random.default_rng(SEED)
    mutations = list(log_mutations(faulty_log, rng, rounds=6))
    assert len({data for _, data in mutations}) > 40
    log, out = tmp_path / "log.xes", tmp_path / "out"
    for i, (kind, data) in enumerate(mutations):
        log.write_bytes(data)
        # Mostly ``mine``; every eighth mutation also replays the log.
        check_run(["mine", "--in", log, "--out", out], capsys, kind)
        if i % 8 == 0:
            check_run(["run", "--in", log, "--out", out], capsys, kind)


def spec_mutations(text, rng, rounds):
    """``(description, spec text)`` pairs: one whitespace-separated field of
    one directive dropped or replaced, or one number of a distribution or
    option (``uniform:10,100``, ``fire=0.7``) changed."""
    lines = text.splitlines()
    numbers = re.compile(r"(?<=[:,=])-?\d+(?:\.\d+)?")
    numbered = [i for i, line in enumerate(lines) if numbers.search(line)]

    def edit(index, change):
        fields = lines[index].split()
        at = int(rng.integers(len(fields)))
        if change == "number":
            at = next(j for j in rng.permutation(len(fields))
                      if numbers.search(fields[j]))
            spots = list(numbers.finditer(fields[at]))
            spot = spots[rng.integers(len(spots))]
            value = ["inf", "-2.5", "nan", "x", "", "1e309", "-1e308"][
                rng.integers(7)]
            fields[at] = fields[at][:spot.start()] + value + fields[at][spot.end():]
        elif change == "drop":
            del fields[at]
        else:
            other = lines[rng.integers(len(lines))].split()
            fields[at] = other[at] if at < len(other) else "x"
        out = list(lines)
        out[index] = " ".join(fields)
        return f"{change} in line {index + 1}: {out[index]!r}", "\n".join(out) + "\n"

    for _ in range(rounds):
        yield edit(int(rng.integers(len(lines))), "drop")
        yield edit(int(rng.integers(len(lines))), "replace")
        for _ in range(3):
            yield edit(numbered[rng.integers(len(numbered))], "number")


def test_mutated_specs_end_in_one_error_line(tmp_path, capsys):
    rng = np.random.default_rng(SEED)
    text = write_spec(default_spec())
    spec, out = tmp_path / "spec.txt", tmp_path / "out.xes"
    codes = set()
    for what, mutated in spec_mutations(text, rng, rounds=10):
        spec.write_text(mutated, encoding="utf-8")
        codes.add(check_run(["simulate", "--spec", spec, "--n", "2",
                             "--seed", "1", "--out", out], capsys, what))
    assert codes == {0, 2}


BAD_FLAG_VALUES = {
    "--classifier": ["bogus", ""],
    "--window": ["-1", "-7", "x", "1.5", ""],
    "--alpha": ["0", "-1", "nan", "inf", "x"],
    "--threshold": ["0", "1", "1.5", "-0.1", "nan", "x"],
    "--max-depth": ["0", "-3", "x", "2.5"],
    "--max-breadth": ["0", "-1", "x"],
    "--min-probability": ["-0.1", "1.5", "nan", "x"],
    "--seed": ["-1", "-100", "x", "1.5", str(2**70)],
    "--rate": ["x", "0.5,", "", "nan", "-1", "2", "0.5,,0.2", "inf", "0.5,x"],
    "--scenario": ["bogus", "local:", "local:nobody", "nocontext-local:",
                   "", ",", "global,", "LOCAL:carrier", "local:carrier,nobody"],
    "--fault-types": ["bogus", "", "step,", ",", "step,bogus"],
}


def test_bad_flag_values_end_in_one_error_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("efp.cli.sweep", lambda *args, **kwargs: [])
    monkeypatch.delenv("EFP_SEED", raising=False)
    rng = np.random.default_rng(SEED)
    out = tmp_path / "eval"
    codes = set()
    for flag, values in BAD_FLAG_VALUES.items():
        for value in values:
            codes.add(check_run(["evaluate", "--out", out, f"{flag}={value}"],
                                capsys, flag))
    for value in ["-1", "abc", "1.5", " ", "2**3", "-0"]:
        monkeypatch.setenv("EFP_SEED", value)
        codes.add(check_run(["evaluate", "--out", out], capsys, "EFP_SEED"))
    monkeypatch.delenv("EFP_SEED")
    # Pairs of bad values: the first check to fail names its own setting.
    flags = list(BAD_FLAG_VALUES)
    for _ in range(20):
        args = []
        for i in rng.choice(len(flags), size=2, replace=False):
            values = BAD_FLAG_VALUES[flags[i]]
            args.append(f"{flags[i]}={values[rng.integers(len(values))]}")
        codes.add(check_run(["evaluate", "--out", out, *args], capsys, "pair"))
    assert codes == {0, 2}
