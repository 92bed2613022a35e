"""Smoke tests for the scripts under scripts/, which call the package's
public API the way a user would."""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).parent.parent / "scripts"
DATA = Path(__file__).parent / "data"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_covering_table_csv(capsys):
    assert _load("covering_table").main(["--eps", "0.3,0.2", "--cap", "1e4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    csv = lines[lines.index("eps,L") :]
    assert [row.split(",")[0] for row in csv[1:]] == ["0.3", "0.2"]
    for row in csv[1:]:
        assert float(row.split(",")[1]) > 0
    assert any(line.startswith("fitted growth exponent p") for line in lines)


def test_convergence_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["--t", "1,2", "--grid", "16", "--csv", str(out)]
    assert _load("convergence_sweep").main(argv) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    header, *rows = out.read_text(encoding="utf-8").splitlines()
    assert header == "t,upper,certified_lower"
    assert [row.split(",")[0] for row in rows] == ["1", "2"]
    for row in rows:
        _, upper, lower = (float(x) for x in row.split(","))
        assert lower <= upper <= 2**-0.5


def test_pool_digest_matches_the_recorded_one(tmp_path, capsys):
    # the solve artifacts of pool sets 0 and 1 are byte-identical to the
    # recorded ones; only a declared artifact change may re-record them
    recorded = json.loads((DATA / "pool_digest.json").read_text(encoding="utf-8"))
    argv = ["--sets", recorded["sets"], "--workdir", str(tmp_path), "--expect", recorded["sha256"]]
    assert _load("pool_digest").main(argv) == 0
    count, digest = capsys.readouterr().out.splitlines()
    # per set, readme-solve writes a report and a curve, planted-solve 8
    # reports and block-solve 10
    assert count == f"{recorded['files']} files" == "40 files"
    assert digest == f"sha256 {recorded['sha256']}"
    assert (tmp_path / "readme-solve" / "0" / "curve.svg").is_file()


def test_pool_digest_mismatch_prints_both_and_exits_1(monkeypatch, capsys):
    module = _load("pool_digest")
    monkeypatch.setattr(module, "digest", lambda workdir, sets: (2, "ab" * 32))
    assert module.main(["--sets", "0", "--expect", "cd" * 32]) == 1
    out = capsys.readouterr()
    assert out.out.splitlines() == ["2 files", f"sha256 {'ab' * 32}"]
    assert out.err == f"digest mismatch: expected sha256 {'cd' * 32}\n"
