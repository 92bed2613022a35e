import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

import lattice_rotor.cli as cli
from lattice_rotor import oracle, solver
from lattice_rotor.cli import (
    SpecError,
    emit_plot,
    main,
    parse_problem_spec,
)
from lattice_rotor.corelattice import Rotation
from lattice_rotor.precision import parse_decimal, working_precision
from lattice_rotor.products import project_planes, solve_even_dim
from lattice_rotor.reporting import RunReport, canonical_json, to_json_data
from lattice_rotor.solver import SolverConfig, solve_general


def _solve_spec(**overrides):
    data = {
        "mode": "solve",
        "points": [["1", "0"]],
        "epsilon": "0.1",
        "t": "1e4",
    }
    data.update(overrides)
    return data


def _write_spec(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


# a valid spec for each mode, and a value for every spec key any mode
# reads plus one that no mode reads
_VALID_SPECS = {
    "solve": _solve_spec(),
    "tau": {"mode": "tau", "points": [["0", "0"], ["0.5", "0"]], "t": "1"},
    "prop_sep": {"mode": "prop_sep", "t": "2", "seed": 4},
    "covering": {"mode": "covering"},
}
_KEY_VALUES = {
    "points": [["1", "0"]],
    "epsilon": "0.3",
    "t": "1",
    "t_range": {"from": "1", "to": "2"},
    "seed": 5,
    "precision_bits": 128,
    "height_bound": 3,
    "L_cap": "5",
    "extra": 1,
}
# the flags that complete a spec-file run, for the modes that take --input
_INPUT_ARGS = {
    "solve": ["--output", "report.json"],
    "tau": ["--grid-theta", "4", "--grid-trans", "4"],
}


_FAULT_MESSAGES = {"unread": "does not read spec keys", "missing": "requires"}


def _schema_faults():
    """(mode, key, fault) for every key a mode does not read and every key
    it requires, walked from the schema."""
    faults = []
    for mode, (required, optional) in cli.SPEC_SCHEMA.items():
        reads = {"mode", *required, *optional, *(("t_range",) if "t" in required else ())}
        faults += [(mode, k, "unread") for k in _KEY_VALUES if k not in reads]
        faults += [(mode, k, "missing") for k in required]
    return faults


class TestSpecValidation:
    def test_accepts_minimal_solve_spec(self):
        spec = parse_problem_spec(_solve_spec(), "solve")
        assert spec.mode == "solve"
        assert spec.t_values == ["1e4"]
        assert spec.values["precision_bits"] == 128
        assert spec.values["seed"] == 0

    def test_rejects_json_numbers_for_decimals(self):
        with pytest.raises(SpecError, match="decimal string"):
            parse_problem_spec(_solve_spec(epsilon=0.1), "solve")
        with pytest.raises(SpecError, match="decimal string"):
            parse_problem_spec(_solve_spec(t=10000), "solve")
        with pytest.raises(SpecError, match="decimal string"):
            parse_problem_spec(_solve_spec(points=[["1", 0.0]]), "solve")

    def test_rejects_unknown_keys(self):
        with pytest.raises(SpecError, match="does not read spec keys \\['extra'\\]"):
            parse_problem_spec(_solve_spec(extra=1), "solve")

    def test_rejects_odd_dimension(self):
        with pytest.raises(SpecError, match="even dimension"):
            parse_problem_spec(_solve_spec(points=[["1", "0", "2"]]), "solve")

    def test_rejects_ragged_points(self):
        with pytest.raises(SpecError):
            parse_problem_spec(
                _solve_spec(points=[["1", "0"], ["1", "0", "2", "3"]]), "solve"
            )

    @pytest.mark.parametrize(
        "points, match",
        [
            ([], "at least one point"),
            ([[]], "even dimension"),
            ([["1", "0", "2"]], "even dimension"),
            ([["1", "0"], ["1", "0", "2", "3"]], "mixed dimensions"),
            ([["1", "inf"]], "not a valid decimal"),
            ("1,0", "points must be a list"),
            ([["1", "0"], "2"], "points\\[1\\] must be a list"),
        ],
        ids=["no-points", "empty-point", "odd", "ragged", "not-a-decimal", "not-a-list", "not-a-row"],
    )
    def test_point_set_faults_exit_2(self, tmp_path, capsys, points, match):
        # the point-set rules are project_planes'; the spec maps them to
        # SpecError, and main to exit code 2
        data = _solve_spec(points=points)
        with pytest.raises(SpecError, match=match):
            parse_problem_spec(data, "solve")
        spec_path = _write_spec(tmp_path, data)
        assert main(["solve", "--input", spec_path, "--output", str(tmp_path / "r.json")]) == 2
        assert json.loads(capsys.readouterr().out)["exit_code"] == 2

    @pytest.mark.parametrize(
        "mode, data, seed",
        [
            ("solve", _solve_spec(seed=4), 4),
            ("prop_sep", {"mode": "prop_sep", "t": "2", "seed": 4}, 4),
            ("tau", {"mode": "tau", "points": [["0", "0"]], "t": "1"}, None),
            ("covering", {"mode": "covering"}, None),
        ],
    )
    def test_only_seeded_modes_echo_a_seed(self, mode, data, seed):
        spec = parse_problem_spec(data, mode)
        assert spec.values.get("seed") == seed
        assert ("seed" in spec.echo()) == (seed is not None)
        assert spec.echo().get("seed") == seed

    @pytest.mark.parametrize("mode, key, fault", _schema_faults())
    def test_schema_faults_exit_2(self, tmp_path, capsys, monkeypatch, mode, key, fault):
        # a valid spec with one key the mode does not read added, or one
        # key it requires taken out
        data = dict(_VALID_SPECS[mode])
        if fault == "missing":
            del data[key]
        else:
            data[key] = _KEY_VALUES[key]
        with pytest.raises(SpecError, match=f"mode {mode} {_FAULT_MESSAGES[fault]}"):
            parse_problem_spec(data, mode)
        if mode in _INPUT_ARGS:
            monkeypatch.chdir(tmp_path)
            spec_path = _write_spec(tmp_path, data)
            assert main([mode, "--input", spec_path] + _INPUT_ARGS[mode]) == 2
            assert json.loads(capsys.readouterr().out)["exit_code"] == 2
            assert not (tmp_path / "report.json").exists()

    def test_prop_sep_checks_one_t(self, capsys, monkeypatch):
        # a check runs at one t, so a t_range of several values is refused
        # rather than checked at its first value and echoed whole
        data = {"mode": "prop_sep", "t_range": {"from": "1", "to": "2", "count": 3}, "seed": 1}
        checks = []
        monkeypatch.setattr(cli, "check_prop_sep", lambda *args, **kw: checks.append(args))
        with pytest.raises(SpecError, match="mode prop_sep checks one t, got 3 values"):
            cli.run(parse_problem_spec(data, "prop_sep"), {"samples": 4})
        # the prop-sep command takes --t; the t_range reaches main's parse
        real_parse = cli.parse_problem_spec
        monkeypatch.setattr(
            cli, "parse_problem_spec", lambda raw, mode: real_parse({**data, "seed": raw["seed"]}, mode)
        )
        assert main(["prop-sep", "--t", "1", "--samples", "4", "--seed", "1"]) == 2
        assert json.loads(capsys.readouterr().out)["exit_code"] == 2
        assert checks == []
        one = {**data, "t_range": {"from": "1", "to": "2", "count": 1}}
        assert len(real_parse(one, "prop_sep").t_values) == 1

    def test_rejects_mode_mismatch(self):
        with pytest.raises(SpecError, match="does not match"):
            parse_problem_spec(_solve_spec(), "tau")

    def test_rejects_epsilon_out_of_range(self):
        with pytest.raises(SpecError, match="epsilon"):
            parse_problem_spec(_solve_spec(epsilon="0"), "solve")
        with pytest.raises(SpecError, match="epsilon"):
            parse_problem_spec(_solve_spec(epsilon="0.8"), "solve")
        # a 4-dim problem gets the wider sqrt(4)/2 cap
        spec = parse_problem_spec(
            _solve_spec(points=[["1", "0", "0", "1"]], epsilon="0.9"), "solve"
        )
        assert len(spec.values["points"][0]) == 4

    def test_rejects_both_t_and_range(self):
        with pytest.raises(SpecError, match="not both"):
            parse_problem_spec(
                _solve_spec(t_range={"from": "1", "to": "2"}), "solve"
            )

    def test_rejects_missing_t(self):
        data = _solve_spec()
        del data["t"]
        with pytest.raises(SpecError, match="requires t"):
            parse_problem_spec(data, "solve")

    def test_rejects_missing_epsilon(self):
        data = _solve_spec()
        del data["epsilon"]
        with pytest.raises(SpecError, match="epsilon"):
            parse_problem_spec(data, "solve")

    def test_rejects_nonpositive_t(self):
        with pytest.raises(SpecError, match="positive"):
            parse_problem_spec(_solve_spec(t="0"), "solve")

    def test_rejects_low_precision(self):
        with pytest.raises(SpecError, match="precision_bits"):
            parse_problem_spec(_solve_spec(precision_bits=52), "solve")
        with pytest.raises(SpecError, match="precision_bits"):
            parse_problem_spec(_solve_spec(precision_bits=True), "solve")

    def test_rejects_negative_seed(self):
        with pytest.raises(SpecError, match="seed"):
            parse_problem_spec(_solve_spec(seed=-1), "solve")

    def test_t_range_expansion_log(self):
        data = _solve_spec()
        del data["t"]
        data["t_range"] = {"from": "1e2", "to": "1e4", "count": 3, "spacing": "log"}
        spec = parse_problem_spec(data, "solve")
        assert len(spec.t_values) == 3
        vals = [parse_decimal(v, 160) for v in spec.t_values]
        assert abs(vals[0] - 100) < mpf("1e-20")
        assert abs(vals[1] - 1000) < mpf("1e-17")
        assert abs(vals[2] - 10000) < mpf("1e-16")

    def test_t_range_linear_and_validation(self):
        base = _solve_spec()
        del base["t"]
        spec = parse_problem_spec(
            {**base, "t_range": {"from": "10", "to": "20", "count": 2, "spacing": "linear"}},
            "solve",
        )
        assert [parse_decimal(v, 96) for v in spec.t_values] == [mpf(10), mpf(20)]
        with pytest.raises(SpecError, match="unknown t_range"):
            parse_problem_spec({**base, "t_range": {"from": "1", "to": "2", "x": 1}}, "solve")
        with pytest.raises(SpecError, match="count"):
            parse_problem_spec(
                {**base, "t_range": {"from": "1", "to": "2", "count": 10001}}, "solve"
            )
        with pytest.raises(SpecError, match=">="):
            parse_problem_spec(
                {**base, "t_range": {"from": "2", "to": "1", "count": 2}}, "solve"
            )
        with pytest.raises(SpecError, match="spacing"):
            parse_problem_spec(
                {**base, "t_range": {"from": "1", "to": "2", "spacing": "cubic"}}, "solve"
            )

    def test_t_range_single_value_and_shape(self):
        base = _solve_spec()
        del base["t"]
        # count 1 is the start alone, whatever the end and spacing
        for spacing in ("linear", "log"):
            spec = parse_problem_spec(
                {**base, "t_range": {"from": "5", "to": "9", "count": 1, "spacing": spacing}},
                "solve",
            )
            assert spec.t_values == ["5.0000000000000000000000000000000000000000"]
        with pytest.raises(SpecError, match="must be an object"):
            parse_problem_spec({**base, "t_range": ["1", "2"]}, "solve")
        for key in ("from", "to"):
            rng = {"from": "1", "to": "2"}
            del rng[key]
            with pytest.raises(SpecError, match=f"missing '{key}'"):
                parse_problem_spec({**base, "t_range": rng}, "solve")
        for start, end in (("0", "2"), ("-1", "2"), ("1", "0")):
            with pytest.raises(SpecError, match="endpoints must be positive"):
                parse_problem_spec(
                    {**base, "t_range": {"from": start, "to": end, "count": 2}}, "solve"
                )

    @pytest.mark.parametrize(
        "key, value", [("epsilon", "0.3"), ("L_cap", "5"), ("height_bound", 3), ("seed", 5)]
    )
    def test_tau_refuses_solver_keys(self, tmp_path, capsys, key, value):
        # tau reads no tolerance, horizon cap, relation height or seed
        data = {"mode": "tau", "points": [["0", "0"], ["0.5", "0"]], "t": "1", key: value}
        with pytest.raises(SpecError, match=f"does not read spec keys \\['{key}'\\]"):
            parse_problem_spec(data, "tau")
        spec_path = _write_spec(tmp_path, data)
        assert main(["tau", "--input", spec_path, "--grid-theta", "4", "--grid-trans", "4"]) == 2
        assert json.loads(capsys.readouterr().out)["exit_code"] == 2

    def test_tau_requires_planar_points(self):
        data = {
            "mode": "tau",
            "points": [["1", "0", "0", "1"]],
            "t": "1",
        }
        with pytest.raises(SpecError, match="planar"):
            parse_problem_spec(data, "tau")

    def test_l_cap_validated(self):
        with pytest.raises(SpecError, match="L_cap"):
            parse_problem_spec(_solve_spec(L_cap="0"), "solve")
        spec = parse_problem_spec(_solve_spec(L_cap="100"), "solve")
        assert spec.values["L_cap"] == "100"


class TestSolveCommand:
    def test_end_to_end_single_point(self, tmp_path):
        spec_path = _write_spec(tmp_path, _solve_spec())
        out_path = str(tmp_path / "report.json")
        code = main(["solve", "--input", spec_path, "--output", out_path])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["mode"] == "solve"
        assert report["summary"]["all_achieved"] is True
        assert report["summary"]["achieved_count"] == 1
        assert report["results"][0]["achieved"] is True
        assert report["spec"]["epsilon"] == "0.1"
        assert report["spec"]["t_values"] == ["1e4"]
        assert "wall_clock_seconds" not in report

    def test_output_is_canonical_json(self, tmp_path):
        spec_path = _write_spec(tmp_path, _solve_spec())
        out_path = str(tmp_path / "report.json")
        assert main(["solve", "--input", spec_path, "--output", out_path]) == 0
        text = (tmp_path / "report.json").read_text()
        assert text == canonical_json(json.loads(text))

    def test_timings_flag_adds_wall_clock(self, tmp_path):
        spec_path = _write_spec(tmp_path, _solve_spec())
        out_path = str(tmp_path / "report.json")
        assert main(["solve", "--input", spec_path, "--output", out_path, "--timings"]) == 0
        data = json.loads((tmp_path / "report.json").read_text())
        assert "wall_clock_seconds" in data

    def test_seed_override_changes_phase(self, tmp_path):
        spec_path = _write_spec(tmp_path, _solve_spec())
        a_path, b_path = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["solve", "--input", spec_path, "--output", a_path, "--seed", "0"]) == 0
        assert main(["solve", "--input", spec_path, "--output", b_path, "--seed", "1"]) == 0
        a = json.loads((tmp_path / "a.json").read_text())
        b = json.loads((tmp_path / "b.json").read_text())
        assert a["spec"]["seed"] == 0
        assert b["spec"]["seed"] == 1
        assert a["results"][0]["phi"] != b["results"][0]["phi"]

    def test_precision_override_echoed(self, tmp_path):
        spec_path = _write_spec(tmp_path, _solve_spec())
        out_path = str(tmp_path / "report.json")
        assert main(["solve", "--input", spec_path, "--output", out_path, "--precision", "64"]) == 0
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["spec"]["precision_bits"] == 64

    def test_curve_and_cell_plots(self, tmp_path):
        spec_path = _write_spec(tmp_path, _solve_spec())
        out_path = str(tmp_path / "report.json")
        curve = tmp_path / "curve.svg"
        assert (
            main(["solve", "--input", spec_path, "--output", out_path, "--plot", str(curve)])
            == 0
        )
        assert curve.read_text().startswith("<svg")
        cell = tmp_path / "cell.svg"
        assert (
            main(
                [
                    "solve", "--input", spec_path, "--output", out_path,
                    "--plot", str(cell), "--plot-kind", "cell",
                ]
            )
            == 0
        )
        assert "circle" in cell.read_text()

    def test_byte_identical_reruns(self, tmp_path):
        spec_path = _write_spec(tmp_path, _solve_spec())
        for sub in ("x", "y"):
            d = tmp_path / sub
            d.mkdir()
            assert (
                main(
                    [
                        "solve", "--input", spec_path,
                        "--output", str(d / "report.json"),
                        "--plot", str(d / "plot.svg"),
                    ]
                )
                == 0
            )
        assert (tmp_path / "x/report.json").read_bytes() == (tmp_path / "y/report.json").read_bytes()
        assert (tmp_path / "x/plot.svg").read_bytes() == (tmp_path / "y/plot.svg").read_bytes()

    def test_four_dim_block_solve(self, tmp_path):
        data = _solve_spec(points=[["1", "0", "0", "1"]], t="1e10")
        spec_path = _write_spec(tmp_path, data)
        out_path = str(tmp_path / "report.json")
        assert main(["solve", "--input", spec_path, "--output", out_path]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert "per_plane" in report["results"][0]
        assert len(report["results"][0]["per_plane"]) == 2

    @pytest.mark.parametrize(
        "points",
        [
            [["1", "0"], ["0.5", "0.25"], ["0.3", "0.7"], ["-0.2", "0.9"], ["0.6", "-0.1"]],
            [["1", "0", "0.3", "0.7"], ["0.5", "0.25", "-0.2", "0.9"], ["0.3", "0.7", "1", "0"],
             ["-0.2", "0.9", "0.5", "0.25"], ["0.6", "-0.1", "0.4", "0.45"]],
        ],
        ids=["planar", "block"],
    )
    def test_precision_advisory_listed_once(self, tmp_path, points):
        # 5 entries at height 64 are advised 70 bits; both t values and
        # both planes of the block raise the same advisory
        data = _solve_spec(points=points, precision_bits=64, L_cap="0.001")
        del data["t"]
        data["t_range"] = {"from": "1e4", "to": "1e5", "count": 2, "spacing": "log"}
        spec_path = _write_spec(tmp_path, data)
        out_path = tmp_path / "report.json"
        assert main(["solve", "--input", spec_path, "--output", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["warnings"] == [
            "precision 64 below advised 70 for r=5, height_bound=64; "
            "detection may miss relations"
        ]

    @pytest.mark.parametrize("eps", ["1e-17", "1e-20", "1e-250", "1e-330"])
    def test_tiny_epsilon_exits_0_as_a_miss(self, tmp_path, eps):
        spec_path = _write_spec(tmp_path, _solve_spec(epsilon=eps))
        out_path = tmp_path / "report.json"
        assert main(["solve", "--input", spec_path, "--output", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["results"][0]["achieved"] is False

    def test_malformed_json_exits_2_without_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        out_path = tmp_path / "report.json"
        code = main(["solve", "--input", str(bad), "--output", str(out_path)])
        assert code == 2
        assert not out_path.exists()
        err = json.loads(capsys.readouterr().out)
        assert err["exit_code"] == 2
        assert "malformed JSON" in err["error"]

    @pytest.mark.parametrize(
        "args",
        [
            ["solve", "--output", "o.json", "--seed", "1"],
            ["tau", "--grid-theta", "4", "--grid-trans", "4"],
        ],
        ids=["solve-with-override", "tau"],
    )
    def test_non_object_spec_exits_2(self, tmp_path, capsys, args):
        spec_path = _write_spec(tmp_path, [["1", "0"]])
        assert main([args[0], "--input", spec_path] + args[1:]) == 2
        assert "JSON object" in json.loads(capsys.readouterr().out)["error"]

    def test_missing_input_file_exits_2(self, tmp_path):
        code = main(
            ["solve", "--input", str(tmp_path / "nope.json"), "--output", str(tmp_path / "o.json")]
        )
        assert code == 2

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        spec_path = _write_spec(tmp_path, _solve_spec())
        code = main(
            ["solve", "--input", spec_path, "--output", str(tmp_path / "no_dir" / "o.json")]
        )
        assert code == 2
        capsys.readouterr()

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        spec_path = _write_spec(tmp_path, _solve_spec(epsilon="2"))
        code = main(["solve", "--input", spec_path, "--output", str(tmp_path / "o.json")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert "epsilon" in err["error"]

    def test_argparse_errors_propagate_exit_code(self, capsys):
        assert main(["solve"]) == 2
        capsys.readouterr()


class TestFlagErrors:
    """Flags argparse refuses are unusable input like any other: exit 2
    with the canonical error JSON on stdout and the usage line on stderr.
    --help and --version print what they print and exit 0."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve"],
            ["covering", "--direction", "1", "--eps", "0.1", "--cap", "10", "--bogus"],
            ["covering", "--eps", "0.1", "--cap", "10", "--direction"],
            ["prop-sep", "--t", "2", "--samples", "many", "--seed", "1"],
            ["frobnicate"],
        ],
        ids=["missing-flag", "unknown-flag", "missing-value", "bad-int", "unknown-command"],
    )
    def test_exits_2_with_the_error_json(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert out == canonical_json(report)
        assert set(report) == {"error", "exit_code"} and report["exit_code"] == 2
        assert err.startswith("usage: lattice-rotor")

    @pytest.mark.parametrize("argv", [["--help"], ["covering", "--help"], ["--version"]])
    def test_help_and_version_exit_0_without_json(self, argv, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: lattice-rotor" if "--help" in argv else "lattice-rotor ")

    def test_negative_first_coordinate(self, capsys):
        # "-2.5,0.48" is a value, not an option, with or without "="
        argv = ["covering", "--direction", "-2.5,0.48", "--eps", "0.05", "--cap", "1000"]
        assert main(argv) == 0
        spaced = capsys.readouterr().out
        assert json.loads(spaced)["spec"]["options"]["direction"] == ["-2.5", "0.48"]
        assert main(["covering", "--direction=-2.5,0.48", *argv[3:]]) == 0
        assert capsys.readouterr().out == spaced


# a planar and a 4-D point set with no relation of small height between
# their entries, so every plane's flow has two entries
_RUN_POINTS = {
    "planar": [["1", "0"], ["0.5", "0.866025403784438646763723170753"]],
    "block": [
        ["1", "0", "0.6", "0.8"],
        ["0.5", "0.866025403784438646763723170753", "0.7071067811865475244", "0.7071067811865475244"],
    ],
}


def _run_spec(tmp_path, points):
    """Solve points over a t range from a miss at 1e4 to verified
    rotations at 1e17 and 1e30, whose magnitude raises eval_bits past 128;
    the report's results and t values."""
    data = _solve_spec(points=points, seed=3)
    del data["t"]
    data["t_range"] = {"from": "1e4", "to": "1e30", "count": 3, "spacing": "log"}
    out = tmp_path / "report.json"
    assert main(["solve", "--input", _write_spec(tmp_path, data), "--output", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    return report["results"], report["spec"]["t_values"]


class TestSolveRunPlansOnce:
    """A solve run detects relations and draws its phases once, for all
    of its dilations, and reports what independent solves report."""

    @pytest.mark.parametrize("kind", ["planar", "block"])
    def test_results_equal_independent_solves(self, tmp_path, kind):
        # each t solved on its own, with no run cache, gives the run's
        # result byte for byte, across a change of eval_bits
        results, t_values = _run_spec(tmp_path, _RUN_POINTS[kind])
        assert len({r["eval_bits"] for r in results}) >= 2
        assert not results[0]["achieved"] and results[-1]["achieved"]
        planes = project_planes(_RUN_POINTS[kind], 128)
        eps = parse_decimal("0.1", 128)
        for t_str, result in zip(t_values, results, strict=True):
            t = parse_decimal(t_str, 128)
            if kind == "planar":
                alone = solve_general(planes[0], t, eps, seed=3, config=SolverConfig())
            else:
                alone = solve_even_dim(planes, t, eps, seed=3, config=SolverConfig())
            assert canonical_json(result) == canonical_json(to_json_data(alone))

    @pytest.mark.parametrize("kind, planes", [("planar", 1), ("block", 2)])
    def test_relations_are_detected_once_per_plane(self, tmp_path, monkeypatch, kind, planes):
        calls, real = [], solver.detect_relations

        def detect(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(solver, "detect_relations", detect)
        results, _ = _run_spec(tmp_path, _RUN_POINTS[kind])
        assert len(results) == 3 and len(calls) == planes

    def test_a_solved_point_set_honours_patched_settings(self, tmp_path, monkeypatch):
        # a CLI run has solved the points already; a plan or phase kept
        # past that run would ignore the first horizon and retry count
        # patched below, as a module-level memo of them did
        _run_spec(tmp_path, _RUN_POINTS["planar"])
        monkeypatch.setattr(solver, "initial_search_length", lambda eps, entries, bits: mpf(5))
        monkeypatch.setattr(solver, "MAX_PHASE_RETRIES", 1)
        walks, real = [], solver.solve_typical

        def walk(*args):
            walks.append(real(*args))
            return walks[-1]

        monkeypatch.setattr(solver, "solve_typical", walk)
        vec = project_planes(_RUN_POINTS["planar"], 128)[0]
        report = solve_general(vec, parse_decimal("1e2", 128), parse_decimal("0.1", 128), seed=3)
        assert report.L_used == 5 and not report.achieved
        assert len(walks) == 2


class TestOneParserPerProcess:
    """main builds its argument parser once per process, and no call's
    flags, refusal or exit reaches a later call: each report equals the
    one the same call writes with a freshly built parser."""

    def _report(self, spec_path, out, extra):
        assert main(["solve", "--input", spec_path, "--output", str(out), *extra]) == 0
        return out.read_text(encoding="utf-8")

    def test_no_call_reaches_the_next(self, tmp_path, capsys):
        spec_path = _write_spec(tmp_path, _solve_spec())
        out = tmp_path / "report.json"
        shared = []
        for before, extra in [
            (None, ["--seed", "7"]),
            (None, []),
            (None, ["--precision", "160"]),
            (None, []),
            ((["solve"], 2), []),
            ((["--version"], 0), []),
        ]:
            if before is not None:
                argv, code = before
                assert main(argv) == code
            shared.append((extra, self._report(spec_path, out, extra)))
        assert "usage:" in capsys.readouterr().err

        echoed = [json.loads(text)["spec"] for _, text in shared]
        assert [(e["seed"], e["precision_bits"]) for e in echoed] == [
            (7, 128), (0, 128), (0, 160), (0, 128), (0, 128), (0, 128)
        ]
        for extra, text in shared:
            cli._build_parser.cache_clear()
            assert self._report(spec_path, out, extra) == text

    def test_calls_build_the_parser_once(self, tmp_path):
        spec_path = _write_spec(tmp_path, _solve_spec())
        cli._build_parser.cache_clear()
        for _ in range(4):
            self._report(spec_path, tmp_path / "report.json", [])
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)


class TestOneProjectionPerCall:
    """A call projects its points once, in the spec's point-set check,
    and the run reads those planes at the spec's precision."""

    _CALLS = {
        "planar": ("solve_general", _solve_spec(), _INPUT_ARGS["solve"]),
        "block": ("solve_even_dim", _solve_spec(points=[["1", "0", "0", "1"]]), _INPUT_ARGS["solve"]),
        "tau": ("tau_estimate", _VALID_SPECS["tau"], _INPUT_ARGS["tau"]),
    }

    @pytest.mark.parametrize("kind", list(_CALLS))
    def test_each_call_projects_once(self, tmp_path, monkeypatch, capsys, kind):
        runner, data, args = self._CALLS[kind]
        projected, real_project = [], cli.project_planes

        def project(*a, **kw):
            projected.append(real_project(*a, **kw))
            return projected[-1]

        read, real_runner = [], getattr(cli, runner)

        def run(planes, *a, **kw):
            read.append(planes)
            return real_runner(planes, *a, **kw)

        monkeypatch.setattr(cli, "project_planes", project)
        monkeypatch.setattr(cli, runner, run)
        monkeypatch.chdir(tmp_path)
        argv = [data["mode"], "--input", _write_spec(tmp_path, data), *args, "--precision", "192"]
        for calls in (1, 2, 3):
            assert main(argv) == 0
            assert len(projected) == calls
        capsys.readouterr()

        for planes, got in zip(projected, read, strict=True):
            assert all(p.bits == 192 for p in planes)
            if kind == "planar":
                assert got is planes[0]
            elif kind == "block":
                assert got is planes
            else:
                # tau sweeps the dilated plane, made from the kept one
                assert got.bits == 192 and len(got) == len(planes[0])


def _half_cell_off(report):
    """The report's rotation turned further by 1/(2t): a unit-modulus
    entry's image moves half a lattice step along the circle, so it lands
    at least 0.5 - eps from every lattice point."""
    with working_precision(report.eval_bits):
        nudge = Rotation.from_angle(1 / (2 * report.t), report.eval_bits)
    return report.theta * nudge


class TestInternalCheckExit:
    """A result that its a-posteriori recheck refuses, such as a solve
    marked achieved whose rotation misses the lattice, ends the run: exit
    3, the canonical error JSON on stdout, and no report written."""

    def _run_expecting_3(self, tmp_path, capsys, argv):
        out_path = tmp_path / "report.json"
        code = main(argv + ["--output", str(out_path)])
        assert code == 3
        stdout = capsys.readouterr().out
        err = json.loads(stdout)
        assert set(err) == {"error", "exit_code"}
        assert err["exit_code"] == 3
        assert stdout == canonical_json(err)
        assert not out_path.exists()

    def test_corrupted_planar_theta_exits_3(self, tmp_path, capsys, monkeypatch):
        solve_general = cli.solve_general

        def corrupted(*args, **kwargs):
            report = solve_general(*args, **kwargs)
            assert report.achieved
            return dataclasses.replace(report, theta=_half_cell_off(report))

        monkeypatch.setattr(cli, "solve_general", corrupted)
        spec_path = _write_spec(tmp_path, _solve_spec())
        self._run_expecting_3(tmp_path, capsys, ["solve", "--input", spec_path])

    def test_corrupted_block_theta_exits_3(self, tmp_path, capsys, monkeypatch):
        solve_even_dim = cli.solve_even_dim

        def corrupted(*args, **kwargs):
            report = solve_even_dim(*args, **kwargs)
            assert report.achieved
            first = report.per_plane[0]
            bad = dataclasses.replace(first, theta=_half_cell_off(first))
            return dataclasses.replace(report, per_plane=(bad,) + report.per_plane[1:])

        monkeypatch.setattr(cli, "solve_even_dim", corrupted)
        spec_path = _write_spec(tmp_path, _solve_spec(points=[["1", "0", "0", "1"]], t="1e10"))
        self._run_expecting_3(tmp_path, capsys, ["solve", "--input", spec_path])

    @pytest.mark.parametrize(
        "runner, corrupt, argv",
        [
            # the argmin isometry reproduces 0.25, not the halved upper bound
            (
                "tau_estimate",
                lambda est: dataclasses.replace(est, upper=est.upper / 2),
                ["tau", "--input", "SPEC", "--grid-theta", "40", "--grid-trans", "40"],
            ),
            # the argmin sample reproduces the minimum, not half of it
            (
                "check_prop_sep",
                lambda chk: dataclasses.replace(chk, minimum=chk.minimum / 2),
                ["prop-sep", "--t", "2", "--samples", "50", "--seed", "9"],
            ),
            # covered, yet one cell short of every cell
            (
                "covering_time",
                lambda out: dataclasses.replace(out, cells_visited=out.cells_visited - 1),
                ["covering", "--direction", "1", "--eps", "0.2", "--cap", "10"],
            ),
        ],
        ids=["tau", "prop-sep", "covering"],
    )
    def test_failed_oracle_recheck_exits_3(
        self, tmp_path, capsys, monkeypatch, runner, corrupt, argv
    ):
        real = getattr(cli, runner)
        monkeypatch.setattr(cli, runner, lambda *args, **kwargs: corrupt(real(*args, **kwargs)))
        spec = {"mode": "tau", "points": [["0", "0"], ["0.5", "0"]], "t": "1"}
        spec_path = _write_spec(tmp_path, spec)
        self._run_expecting_3(tmp_path, capsys, [spec_path if a == "SPEC" else a for a in argv])


class TestTauCommand:
    def test_pair_sweep_with_csv(self, tmp_path, capsys):
        data = {"mode": "tau", "points": [["0", "0"], ["0.5", "0"]], "t": "1"}
        spec_path = _write_spec(tmp_path, data)
        csv_path = tmp_path / "tau.csv"
        code = main(
            [
                "tau", "--input", spec_path,
                "--grid-theta", "40", "--grid-trans", "40",
                "--reflect", "--csv", str(csv_path),
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "tau"
        est = report["results"][0]["estimate"]
        assert parse_decimal(est["upper"], 128) == mpf("0.25")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,upper,certified_lower"
        assert lines[1].startswith("1,")
        assert report["spec"]["options"]["with_reflection"] is True

    def test_output_file_instead_of_stdout(self, tmp_path, capsys):
        data = {"mode": "tau", "points": [["0", "0"]], "t": "1"}
        spec_path = _write_spec(tmp_path, data)
        out_path = tmp_path / "tau.json"
        code = main(
            [
                "tau", "--input", spec_path,
                "--grid-theta", "8", "--grid-trans", "8",
                "--output", str(out_path),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        report = json.loads(out_path.read_text())
        assert report["summary"]["count"] == 1

    def test_mode_defaults_to_subcommand(self, tmp_path, capsys):
        # spec without an explicit mode key still runs under tau
        data = {"points": [["0", "0"]], "t": "2"}
        spec_path = _write_spec(tmp_path, data)
        assert (
            main(["tau", "--input", spec_path, "--grid-theta", "4", "--grid-trans", "4"])
            == 0
        )
        capsys.readouterr()

    def test_t_without_fractional_part_exits_2(self, tmp_path, capsys):
        data = {"mode": "tau", "points": [["1", "0"], ["0", "1"]], "t": "1e17"}
        spec_path = _write_spec(tmp_path, data)
        assert main(["tau", "--input", spec_path, "--grid-theta", "20", "--grid-trans", "20"]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["exit_code"] == 2 and "fractional" in err["error"]

    @pytest.mark.parametrize(
        "grid_theta, grid_trans", [("8", "4097"), (str((4 << 24) + 4), "8")],
        ids=["translation", "rotation"],
    )
    def test_grid_past_the_table_limit_exits_2(self, tmp_path, capsys, grid_theta, grid_trans):
        data = {"mode": "tau", "points": [["0", "0"]], "t": "1"}
        spec_path = _write_spec(tmp_path, data)
        argv = ["tau", "--input", spec_path, "--grid-theta", grid_theta, "--grid-trans", grid_trans]
        assert main(argv) == 2
        stdout = capsys.readouterr().out
        err = json.loads(stdout)
        assert set(err) == {"error", "exit_code"} and "desk-scale" in err["error"]
        assert stdout == canonical_json(err)


def _numpy_pcg64_draw(seed, index):
    """Sample `index` of prop-sep's stream, drawn by numpy: the check's
    PCG64, skipped past the 4 * index words before the sample by numpy's
    own advance."""
    bitgen = oracle._random_stream(seed).__self__.bit_generator
    bitgen.advance(4 * index)
    turn, coin, t1, t2 = np.random.Generator(bitgen).random(4).tolist()
    return turn, coin < 0.5, t1, t2


class TestPropSepCommand:
    def test_stdout_report(self, capsys):
        code = main(["prop-sep", "--t", "2", "--samples", "500", "--seed", "9"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        result = report["results"][0]
        assert result["violations"] == []
        assert parse_decimal(result["separation"], 128) == 2
        assert parse_decimal(result["minimum"], 128) >= mpf(1) / 8 - mpf(2) ** -64
        assert report["summary"]["violations"] == 0

    def test_deterministic_stdout(self, capsys):
        main(["prop-sep", "--t", "1", "--samples", "200", "--seed", "3"])
        first = capsys.readouterr().out
        main(["prop-sep", "--t", "1", "--samples", "200", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second

    def test_bad_samples_exits_2(self, capsys):
        assert main(["prop-sep", "--t", "2", "--samples", "0", "--seed", "1"]) == 2
        capsys.readouterr()

    def test_seed_past_the_philox_key_range_exits_2(self, capsys):
        # a PCG64 state is below 2^128; the check refuses a larger seed as
        # a spec error, before it would wrap
        code = main(["prop-sep", "--t", "2", "--samples", "10", "--seed", str(2**128)])
        assert code == 2
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert report["exit_code"] == 2
        assert "seed must be in [0, 2^128)" in report["error"]
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("seed", [1, 2, 2**40 + 3, 0, 2**64, 2**128 - 1])
    def test_recheck_skips_to_the_argmin_draw(self, seed):
        # the pure-Python replay must give numpy's PCG64 draw of the same
        # sample: in the first words, on each side of a screen chunk's
        # boundary (8,192 samples) against the plain stream, and far out,
        # past 2^64 words and near the 2^128 period, against numpy's own
        # advance
        rows = oracle._random_stream(seed)(4 * 8194).reshape(-1, 4)
        for index in (0, 1, 8191, 8192, 8193):
            turn, coin, t1, t2 = rows[index].tolist()
            assert cli._replay_draw(seed, index) == (turn, coin < 0.5, t1, t2)
        for index in (1_999_999, 2**64 - 1, 2**126):
            assert cli._replay_draw(seed, index) == _numpy_pcg64_draw(seed, index)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**128 - 1), index=st.integers(0, 2**70))
    def test_recheck_replay_matches_numpy_pcg64(self, seed, index):
        assert cli._replay_draw(seed, index) == _numpy_pcg64_draw(seed, index)

    def test_recheck_skip_memory_is_bounded(self, traced_peak_mb):
        # the replay of a far sample holds its jump and its four words,
        # not the stream before it
        assert traced_peak_mb(lambda: cli._replay_draw(5, 2_000_000)) < 1.0


class TestCoveringCommand:
    def test_line_covers(self, capsys):
        code = main(["covering", "--direction", "1", "--eps", "0.2", "--cap", "10"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"][0]["covered"] is True
        assert report["summary"]["covered"] is True

    def test_diagonal_does_not_cover(self, capsys):
        code = main(["covering", "--direction", "1,1", "--eps", "0.1", "--cap", "1000"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"][0]["covered"] is False
        assert report["summary"]["L"] is None

    def test_zero_direction_exits_2(self, capsys):
        assert main(["covering", "--direction", "0,0", "--eps", "0.1", "--cap", "10"]) == 2
        capsys.readouterr()

    def test_bad_eps_exits_2(self, capsys):
        assert main(["covering", "--direction", "1", "--eps", "0.6", "--cap", "10"]) == 2
        capsys.readouterr()

    def test_step_limit_exits_2(self, capsys):
        assert main(["covering", "--direction", "1,1", "--eps", "0.1", "--cap", "1e300"]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["exit_code"] == 2 and "steps" in err["error"]


class TestFloat64OverflowExits2:
    """An oracle input that overflows its float64 screen is unusable
    input: exit 2 and the canonical error JSON, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["tau", "--input", "SPEC", "--grid-theta", "8", "--grid-trans", "8"],
            ["prop-sep", "--t", "1e400", "--samples", "10", "--seed", "1"],
            ["covering", "--direction", "1", "--eps", "0.1", "--cap", "1e400"],
            ["covering", "--direction", "1e400", "--eps", "0.1", "--cap", "10"],
            ["covering", "--direction", "1", "--eps", "1e-320", "--cap", "10"],
            ["covering", "--direction", "1", "--eps", "0.1", "--cell", "1e-320", "--cap", "10"],
        ],
        ids=["tau-t", "prop-sep-t", "covering-cap", "covering-direction", "covering-eps",
             "covering-cell"],
    )
    def test_exits_2(self, argv, tmp_path, capsys):
        spec = {"mode": "tau", "points": [["1", "0"], ["0", "1"]], "t": "1e400"}
        spec_path = _write_spec(tmp_path, spec)
        assert main([spec_path if a == "SPEC" else a for a in argv]) == 2
        stdout = capsys.readouterr().out
        err = json.loads(stdout)
        assert set(err) == {"error", "exit_code"}
        assert err["exit_code"] == 2
        assert stdout == canonical_json(err)


def _oracle_fuzz_cases(seed):
    """About a score of command lines of the oracle modes: the edges of
    each input, with the values between them drawn from
    random.Random(seed).  Each case is (argv, spec, exits): a tau case's
    spec is written to a file that stands for SPEC in argv, and exits are
    the codes the call may end with, 2 alone for an edge that must be
    refused."""
    rng = random.Random(seed)
    either, refused = (0, 2), (2,)

    def t():
        return f"{rng.uniform(0.5, 20):.6g}"

    def direction(dim):
        return ",".join(f"{rng.uniform(-3, 3):.17g}" for _ in range(dim))

    def points(count):
        return [[f"{rng.uniform(-1, 1):.6g}", f"{rng.uniform(-1, 1):.6g}"] for _ in range(count)]

    def grid():
        return rng.randint(8, 400)

    def prop_sep(t_str, samples, key, exits=either):
        return ["prop-sep", "--t", t_str, "--samples", str(samples), "--seed", str(key)], None, exits

    def covering(direction, eps, cap, *cell, exits=either):
        argv = ["covering", "--direction", direction, "--eps", eps, "--cap", cap, *cell]
        return argv, None, exits

    def tau(points, t_str, grid_theta, grid_trans, exits=either):
        argv = ["tau", "--input", "SPEC", "--grid-theta", str(grid_theta),
                "--grid-trans", str(grid_trans)]
        return argv, {"mode": "tau", "points": points, "t": t_str}, exits

    chunk = oracle._CHUNK
    # the largest translation grid whose cell table stays within the
    # tau sweep's limit
    trans_limit = math.isqrt(oracle._TAU_TABLE_LIMIT)
    return {
        "seed-0": prop_sep(t(), 2000, 0),
        "seed-max": prop_sep(t(), 2000, 2**128 - 1),
        "seed-past-key-range": prop_sep(t(), 10, 2**128, exits=refused),
        "samples-chunk-minus-1": prop_sep(t(), chunk - 1, rng.randrange(2**128)),
        "samples-chunk-plus-1": prop_sep(t(), chunk + 1, rng.randrange(2**128)),
        "t-past-rotation-modulus": prop_sep("1e5", 12, rng.randrange(2**128)),
        "t-at-2^52": prop_sep(str(2**52), 10, rng.randrange(2**128), exits=refused),
        "covering-2d": covering(direction(2), "0.05", "1000"),
        "covering-3d": covering(direction(3), "0.2", "200"),
        "cap-past-step-limit": covering("1,1", "0.1", "1e300", exits=refused),
        "subnormal-eps": covering("1", "1e-320", "10", exits=refused),
        "subnormal-cell": covering("1", "0.1", "10", "--cell", "1e-320", exits=refused),
        "tau-one-point": tau(points(1), t(), grid(), grid()),
        "tau-eight-points": tau(points(8), t(), grid(), grid()),
        "tau-t-1e12": tau(points(rng.randint(2, 8)), "1e12", grid(), grid()),
        "tau-grid-edges": tau(points(rng.randint(2, 8)), t(), 8, 400),
        "tau-grid-past-limit": tau(points(3), t(), 8, trans_limit + 1, exits=refused),
        "tau-t-at-2^52": tau([["1", "0"], points(1)[0]], str(2**52), 8, 8, exits=refused),
    }


_ORACLE_FUZZ = _oracle_fuzz_cases(37)


class TestOracleFuzz:
    """A fixed-seed slice of the CLI fuzz, oracle modes only: every call
    runs in its own interpreter and ends inside its budget with an exit
    the case allows, canonical JSON on stdout and no traceback."""

    # each call took 0.25-0.31 s on a 2-core Xeon, nearly all of it
    # interpreter start-up and imports; the rest is margin for a loaded host
    BUDGET_S = 5.0

    @pytest.mark.parametrize("argv, spec, exits", _ORACLE_FUZZ.values(), ids=_ORACLE_FUZZ.keys())
    def test_ends_with_an_advertised_exit(self, argv, spec, exits, tmp_path):
        if spec is not None:
            argv = [_write_spec(tmp_path, spec) if a == "SPEC" else a for a in argv]
        root = Path(__file__).parent.parent
        path = filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        out = subprocess.run(
            [sys.executable, "-m", "lattice_rotor.cli", *argv],
            capture_output=True, text=True, env=env, timeout=self.BUDGET_S,
        )
        assert "Traceback" not in out.stdout + out.stderr
        assert out.returncode in exits
        report = json.loads(out.stdout)
        assert out.stdout == canonical_json(report)
        if out.returncode == 2:
            assert report["exit_code"] == 2
        else:
            assert report["mode"] == argv[0].replace("-", "_")


class TestPlotGuards:
    def test_plot_requires_solve_report(self, tmp_path):
        report = RunReport(
            spec_echo={"mode": "tau"},
            mode="tau",
            results=[{"t": "1"}],
            summary={},
            tool_version="0.1.0",
        )
        with pytest.raises(SpecError, match="solve"):
            emit_plot(report, str(tmp_path / "x.svg"))
