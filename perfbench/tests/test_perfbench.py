"""Tests of the benchmark itself: checker, tracer, and the no-source exit.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

from maxent_agents import cli, engine, network  # noqa: E402


def _request(w, tmp_path: Path) -> tuple[dict, list[int]]:
    counts = write_inputs(w, 3, tmp_path)
    out = tmp_path / "out.json"
    rc = cli.main(["network", "--config", str(tmp_path / "config.json"),
                   "--counts", str(tmp_path / "counts_0000.json"), "--out", str(out)])
    assert rc == 0
    return json.loads(out.read_text()), counts["counts_0000.json"]


@pytest.fixture(scope="module")
def round0(tmp_path_factory):
    """A k=3 round-0 result: three distinct views, non-zero divergences."""
    w = dataclasses.replace(WORKLOADS["canonical-k3"], round=0, pool=1)
    payload, counts = _request(w, tmp_path_factory.mktemp("round0"))
    return w.setting(), payload, counts


def _failed(setting, payload, counts) -> set[int]:
    return {a for a, p in check.check_output(payload, setting, counts).items() if p}


def test_checker_accepts_program_output(round0):
    setting, payload, counts = round0
    assert np.min(np.asarray(payload["divergences"]) + np.eye(3)) > 0.0
    assert _failed(setting, payload, counts) == set()


@pytest.mark.parametrize("perturb", ["beta", "mean", "divergence", "asymmetry", "diagonal"])
def test_checker_rejects_perturbed_output(round0, perturb):
    setting, payload, counts = round0
    bad = copy.deepcopy(payload)
    want = {1, 3}
    if perturb == "beta":
        bad["agents"][1]["beta"] *= 1.0 + 1e-4
        want = {2}
    elif perturb == "mean":
        bad["agents"][1]["means"][0] += 1e-6
        want = {2}
    elif perturb == "divergence":
        bad["divergences"][0][2] *= 1.0 + 1e-4
        bad["divergences"][2][0] *= 1.0 + 1e-4
    elif perturb == "asymmetry":
        bad["divergences"][2][0] *= 1.0 + 1e-4
    else:
        bad["divergences"][2][2] = 1e-6
        want = {3}
    assert _failed(setting, bad, counts) == want


def test_lumped_reference_matches_full_lattice():
    """Dirichlet aggregation is exact: the lumped problem converges to the full one."""
    f = (1.0, 0.0, 0.0, 0.0, -2.0)
    view = ((2, 7),)
    full = check.Reference(check.Setting(5, 30, f, 0.0, 40, (), 0)).fit(view)
    lumped = check.Reference(check.Setting(5, 30, f, 0.0, None, (), 0)).fit(view)
    assert abs(full.beta - lumped.beta) < 0.01
    assert np.max(np.abs(full.means - lumped.means)) < 1e-4
    assert abs(full.log_zeta - lumped.log_zeta) < 1e-3


def test_traced_canonical_request_counts(tmp_path):
    w = WORKLOADS["canonical-k3"]
    write_inputs(dataclasses.replace(w, pool=1), 3, tmp_path)
    with Tracer() as tracer:
        tracer.request = 0
        rc = cli.main(["network", "--config", str(tmp_path / "config.json"),
                       "--counts", str(tmp_path / "counts_0000.json"),
                       "--out", str(tmp_path / "out.json")])
    assert rc == 0
    assert tracer.missing == []
    names = [s[0] for s in tracer.spans]
    assert names.count("engine.solve") == 3
    assert names.count("engine.basis") == 6
    assert names.count("network.divergence") == 6
    assert names.count("cli.main") == 1


def test_wrappers_removed_after_traced_run():
    originals = [(cli, "main", cli.main), (network, "solve_beta", network.solve_beta),
                 (engine, "build_grid", engine.build_grid),
                 (engine.GridEngine, "basis", vars(engine.GridEngine)["basis"])]
    with Tracer():
        assert all(vars(owner)[name] is not fn for owner, name, fn in originals)
    assert all(vars(owner)[name] is fn for owner, name, fn in originals)


def test_missing_target_is_skipped():
    with Tracer([("x", "maxent_agents.engine", "no_such_function"),
                 ("y", "maxent_agents.no_such_module", "f")]) as tracer:
        pass
    assert tracer.missing == ["maxent_agents.engine.no_such_function",
                              "maxent_agents.no_such_module.f"]


def test_exits_nonzero_without_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "canonical-k3", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
