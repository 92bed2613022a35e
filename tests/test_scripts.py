"""Smoke tests for the scripts under scripts/, which call the package's
public API the way a user would."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).parent.parent / "scripts"


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


def test_pool_digest_of_one_input_set(tmp_path, capsys):
    assert _load("pool_digest").main(["--sets", "0", "--workdir", str(tmp_path)]) == 0
    count, digest = capsys.readouterr().out.splitlines()
    # readme-solve writes a report and a curve, planted-solve 8 reports
    # and block-solve 10
    assert count == "20 files"
    assert digest.startswith("sha256 ") and len(digest.split()[1]) == 64
    assert (tmp_path / "readme-solve" / "0" / "curve.svg").is_file()
