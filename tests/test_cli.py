import dataclasses
import json
import random

import pytest
from mpmath import mpf

import lattice_rotor.cli as cli
from lattice_rotor.cli import (
    SpecError,
    emit_plot,
    main,
    parse_problem_spec,
)
from lattice_rotor.corelattice import Rotation
from lattice_rotor.precision import parse_decimal, working_precision
from lattice_rotor.reporting import RunReport, canonical_json


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

    @pytest.mark.parametrize("seed", [1, 2, 2**40 + 3])
    def test_recheck_skips_to_the_argmin_draw(self, seed):
        # the recheck skips 8 words a sample with getrandbits, in slices of
        # 2^20 words (131,072 samples); it must land on the draw a plain
        # loop of random() calls makes, inside, at and past a slice
        checked = (0, 99_997, 131_072, 131_073)
        rng = random.Random(seed)
        for index in range(checked[-1] + 1):
            draw = (rng.random(), rng.random() < 0.5, rng.random(), rng.random())
            if index in checked:
                assert cli._replay_draw(seed, index) == draw


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
        ],
        ids=["tau-t", "prop-sep-t", "covering-cap", "covering-direction"],
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
