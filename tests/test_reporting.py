import json
from pathlib import Path

import pytest
from mpmath import mpf

from lattice_rotor.cli import main
from lattice_rotor.corelattice import Rotation
from lattice_rotor.products import BlockEmbeddingReport
from lattice_rotor.precision import format_complex_pair, format_decimal, working_precision
from lattice_rotor.reporting import (
    RunReport,
    canonical_json,
    covering_csv,
    tau_csv,
    to_json_data,
)
from lattice_rotor.solver import SolveReport

GOLDEN_DIR = Path(__file__).parent / "data"

_TRIANGLE = [
    ["1", "0"],
    ["-0.5", "0.866025403784438646763723170753"],
    ["-0.5", "-0.866025403784438646763723170753"],
]

# name -> (spec passed with --input, or None; CLI arguments), each well
# under two seconds.  The files in GOLDEN_DIR pin the report schema byte
# for byte: re-record them only for a deliberate schema change.
GOLDEN_CASES = {
    "solve_planar_relation": (
        {
            "mode": "solve",
            "points": [["1", "0"], ["0.5", "0.25"], ["1.5", "0.25"]],
            "epsilon": "0.1",
            "t": "2e14",
            "seed": 3,
        },
        ["solve"],
    ),
    "solve_planar_miss": (
        {
            "mode": "solve",
            "points": [["1", "0"], ["0.5", "0.866025403784438646763723170753"]],
            "epsilon": "0.1",
            "t": "1e4",
            "seed": 3,
            "L_cap": "0.001",
        },
        ["solve"],
    ),
    "solve_block": (
        {
            "mode": "solve",
            "points": [["1", "0", "0.3", "0.7"], ["0.5", "0.25", "-0.2", "0.9"]],
            "epsilon": "0.1",
            "t": "1e20",
            "seed": 2,
        },
        ["solve"],
    ),
    "tau": (
        {
            "mode": "tau",
            "points": _TRIANGLE,
            "t_range": {"from": "1", "to": "4", "count": 3, "spacing": "log"},
        },
        ["tau", "--grid-theta", "40", "--grid-trans", "20", "--reflect", "--csv", "CSV"],
    ),
    "tau_no_reflect": (
        {"mode": "tau", "points": _TRIANGLE, "t": "3"},
        ["tau", "--grid-theta", "40", "--grid-trans", "20", "--csv", "CSV"],
    ),
    "solve_overrides": (
        {
            "mode": "solve",
            "points": [["1", "0"], ["0.5", "0.25"], ["1.5", "0.25"]],
            "epsilon": "0.1",
            "t": "2e14",
            "seed": 3,
        },
        ["solve", "--seed", "11", "--precision", "160"],
    ),
    "solve_plot_curve": (
        {
            "mode": "solve",
            "points": [["1", "0"], ["0.5", "0.25"]],
            "epsilon": "0.1",
            "t_range": {"from": "1e4", "to": "1e6", "count": 3, "spacing": "log"},
            "seed": 1,
        },
        ["solve", "--plot", "SVG"],
    ),
    "solve_plot_cell": (
        {
            "mode": "solve",
            "points": [["1", "0", "0.3", "0.7"], ["0.5", "0.25", "-0.2", "0.9"]],
            "epsilon": "0.1",
            "t": "1e20",
            "seed": 2,
        },
        ["solve", "--plot", "SVG", "--plot-kind", "cell"],
    ),
    "prop_sep": (None, ["prop-sep", "--t", "2", "--samples", "3000", "--seed", "5"]),
    "covering_covered": (
        None,
        ["covering", "--direction", "1,1.618", "--eps", "0.1", "--cap", "1e5"],
    ),
    "covering_uncovered": (
        None,
        ["covering", "--direction", "1,1.618", "--eps", "0.1", "--cap", "3"],
    ),
    "covering_cell": (
        None,
        ["covering", "--direction", "1,1.618", "--eps", "0.1", "--cap", "1e5", "--cell", "0.04"],
    ),
}
# placeholder arguments that stand for an artifact path: <name>.csv, <name>.svg
_ARTIFACTS = {"CSV": "csv", "SVG": "svg"}


def run_golden_case(name: str, workdir: Path) -> list:
    """Run one golden case with its artifacts written into workdir; returns
    the artifact file names (<name>.json, plus one per placeholder)."""
    spec, args = GOLDEN_CASES[name]
    argv = [args[0]]
    if spec is not None:
        spec_path = workdir / f"{name}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        argv += ["--input", str(spec_path)]
    names = [f"{name}.json"]
    for arg in args[1:]:
        if arg in _ARTIFACTS:
            names.append(f"{name}.{_ARTIFACTS[arg]}")
            arg = str(workdir / names[-1])
        argv.append(arg)
    argv += ["--output", str(workdir / names[0])]
    assert main(argv) == 0
    return names


def _sample_report(**kwargs):
    defaults = dict(
        spec_echo={"mode": "solve", "epsilon": "0.1"},
        mode="solve",
        results=({"t": "100", "achieved": True},),
        summary={"count": 1, "all_achieved": True},
        tool_version="0.1.0",
    )
    defaults.update(kwargs)
    return RunReport(**defaults)


class TestCanonicalJson:
    def test_key_order_is_stable(self):
        a = canonical_json({"b": 1, "a": 2})
        b = canonical_json({"a": 2, "b": 1})
        assert a == b

    def test_trailing_newline(self):
        assert canonical_json({}).endswith("\n")

    def test_no_float_reformatting_of_strings(self):
        text = canonical_json({"x": "0.100000000000000000000000000001"})
        assert "0.100000000000000000000000000001" in text

    def test_round_trips_through_json(self):
        obj = {"nested": {"list": [1, "two", None, True]}}
        assert json.loads(canonical_json(obj)) == obj


class TestRunReport:
    def test_to_json_is_canonical(self):
        r = _sample_report()
        text = r.to_json()
        assert text == canonical_json(r.to_json_dict())

    def test_wall_clock_omitted_when_absent(self):
        r = _sample_report()
        assert "wall_clock_seconds" not in r.to_json_dict()

    def test_wall_clock_present_when_set(self):
        r = _sample_report(wall_clock_seconds="1.234")
        assert r.to_json_dict()["wall_clock_seconds"] == "1.234"

    def test_identical_reports_serialize_identically(self):
        assert _sample_report().to_json() == _sample_report().to_json()


def test_rotation_uses_report_precision():
    """A rotation carried at more bits than the report's eval_bits is
    written with the report's digits."""
    with working_precision(256):
        theta = Rotation.from_angle(mpf(1) / 3, 256)
    report = SolveReport(
        t=mpf(10), theta=theta, phi=mpf(0), s_found=None, L_used=mpf(1),
        T_threshold=mpf(1), per_point_frac=(mpf(0),), max_frac=mpf(0),
        achieved=True, search_steps=0, seed=None, decomposition=None,
    )
    assert to_json_data(report)["theta"] == format_complex_pair(theta.value, 128)


def test_nested_records_serialize_as_objects():
    """A record inside a record's tuple field is an object, not the list
    its tuple base would give."""
    plane = SolveReport(
        t=mpf(10), theta=Rotation.from_angle(mpf(1), 128), phi=mpf(0), s_found=None,
        L_used=mpf(1), T_threshold=mpf(1), per_point_frac=(mpf(0),), max_frac=mpf(0),
        achieved=True, search_steps=0, seed=None, decomposition=None,
    )
    block = BlockEmbeddingReport(
        t=mpf(10), per_plane=(plane, plane), plane_eps=(mpf("0.1"), mpf("0.1")),
        combined_per_point=(mpf(0),), combined_max_frac=mpf(0), achieved=True, seed=1,
    )
    data = to_json_data(block)
    assert data["per_plane"] == [to_json_data(plane)] * 2
    assert isinstance(data["per_plane"][0], dict)
    assert set(data["per_plane"][0]) == set(SolveReport._fields)
    assert data["plane_eps"] == [format_decimal(mpf("0.1"), 128)] * 2


class TestCsv:
    def test_tau_header_and_rows(self):
        text = tau_csv([("1", "0.25", "0.1"), ("2", "0.2", "0.05")])
        lines = text.splitlines()
        assert lines[0] == "t,upper,certified_lower"
        assert lines[1] == "1,0.25,0.1"
        assert lines[2] == "2,0.2,0.05"
        assert text.endswith("\n")

    def test_covering_header(self):
        text = covering_csv([("0.1", "12.5")])
        assert text.splitlines()[0] == "eps,L"
        assert text.splitlines()[1] == "0.1,12.5"


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_report_bytes_golden(name, tmp_path):
    """The serialized artifacts of each case match the recorded bytes."""
    for artifact in run_golden_case(name, tmp_path):
        assert (tmp_path / artifact).read_bytes() == (GOLDEN_DIR / artifact).read_bytes(), artifact
