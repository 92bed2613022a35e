"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The traced counts must repeat exactly, or a later change could not
claim a count as evidence; the inputs must not depend on anything but
the seed.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import layers
import workloads
from run import child_env, spawn

COUNT_UNITS = ("count", "bits")


def _reduced_jobs(tmp_path):
    """A few items of each solve workload: enough to reach every layer."""
    jobs = []
    readme = workloads.build("readme-solve", 0, tmp_path / "readme")
    spec_path = Path(readme["calls"][0][2])
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    spec["t_range"]["count"] = 2
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    readme["items"] = readme["items"][:2]
    jobs.append(readme)
    for name in ("planted-solve", "block-solve"):
        job = workloads.build(name, 0, tmp_path / name)
        job["calls"], job["items"] = job["calls"][:1], job["items"][:1]
        jobs.append(job)
    return jobs


def _traced_counts(job, tmp_path, tag):
    path = tmp_path / f"{job['workload']}-{tag}.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    result = tmp_path / f"{job['workload']}-{tag}-result.json"
    res = spawn(path, result, "traced", child_env(), time.monotonic() + 120)
    assert res["ok"], res
    assert res["codes"] == [0] * len(job["calls"])
    bits = []
    for item in job["items"]:
        report = json.loads(Path(item["report"]).read_text(encoding="utf-8"))
        r = report["results"][item["index"]]
        bits += [int(p["eval_bits"]) for p in r.get("per_plane", [r])]
    values = layers.per_layer(
        res["spans"], res["outside_counts"], bits, calib_s=0.0, scale=1.0, overhead=0.0
    )
    return {k: v for k, v in values.items() if layers.UNITS[k] in COUNT_UNITS}


def test_traced_counts_repeat(tmp_path):
    for job in _reduced_jobs(tmp_path):
        first = _traced_counts(job, tmp_path, "first")
        second = _traced_counts(job, tmp_path, "second")
        assert first == second, job["workload"]
        assert first["flowsearch.calls"] > 0
        assert first["flowsearch.exact_checks"] > 0
        assert first["solver.eval_bits_max"] > 0
        if job["workload"] == "planted-solve":
            assert first["lll.flowsearch.calls"] > 0 and first["lll.relations.calls"] > 0


def _digest(job) -> str:
    data = {k: job[k] for k in ("points", "eps")}
    data["t"] = [item["t"] for item in job["items"]]
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def test_inputs_depend_only_on_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 5, tmp_path / f"{name}-a")
        b = workloads.build(name, 5, tmp_path / f"{name}-b")
        assert _digest(a) == _digest(b)
    a = workloads.build("planted-solve", 5, tmp_path / "pa")
    b = workloads.build("planted-solve", 6, tmp_path / "pb")
    assert _digest(a) != _digest(b)


def test_planted_entry_is_the_exact_combination():
    from fractions import Fraction

    z = [[Fraction(c) for c in p] for p in workloads.planted_points(3)]
    (a, b), (c, d) = workloads.PLANTED_F1, workloads.PLANTED_F3
    assert z[4][0] == a * z[0][0] - b * z[0][1] + c * z[2][0] - d * z[2][1]
    assert z[4][1] == a * z[0][1] + b * z[0][0] + c * z[2][1] + d * z[2][0]


def test_input_ids_cover_the_pool():
    ids = {workloads.input_id(seed, k) for seed in range(workloads.POOL) for k in range(3)}
    assert ids == set(range(workloads.POOL))
