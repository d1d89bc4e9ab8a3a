"""The benchmark's span tracer still finds every layer it times.

perfbench/tracing.py wraps program functions by name, where they are
called, and a metric whose function is renamed or no longer called on a
workload is silently absent from the benchmark's result.  One in-process
`network` request runs under the tracer for a shared fit (complete k=3
network, round 1) and for distinct views (2x2 triangle lattice, round 1).
Every per-layer metric BENCHMARK.json declares must come out, except the
two that perfbench/run.py computes itself rather than from spans, and each
distinct view must pass through the fit path's stages exactly once.
"""
import importlib.util
import json
from pathlib import Path

import pytest

from maxent_agents import cli
from maxent_agents.fileio import write_payload

ROOT = Path(__file__).resolve().parents[1]
RUNNER_METRICS = {"failed_frac", "trace.overhead_s"}


def load_tracing():
    """perfbench/tracing.py as a module of its own, without touching sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Distinct views at round 1: one on the complete graph; on the 2x2 lattice
# agents 2 and 3 see every side and agents 1 and 4 see three sides each.
@pytest.mark.parametrize("network, counts, grid, fits", [
    pytest.param({"preset": "complete"}, [6, 3, 1], 30, 1, id="complete-k3-shared-fit"),
    pytest.param({"preset": "triangle-lattice", "rows": 2, "cols": 2}, [6, 3, 2, 1], 12, 3,
                 id="lattice-2x2-distinct-views"),
])
def test_every_declared_layer_is_traced(tmp_path, network, counts, grid, fits):
    k, n = len(counts), sum(counts)
    write_payload(tmp_path / "config.json", {
        "k": k, "n": n, "seed": 0, "prior": [1.0] * k,
        "constraint": {"f": [1.0] + [0.0] * (k - 2) + [-2.0], "F": 0.0},
        "network": network, "round": 1, "engine": {"grid": grid},
    })
    write_payload(tmp_path / "counts.json", {"k": k, "n": n, "counts": counts, "seed": 0})
    tracing = load_tracing()
    with tracing.Tracer() as tracer:
        # Through the module attribute, which is where the tracer wraps main.
        assert cli.main(["network", "--config", str(tmp_path / "config.json"),
                         "--counts", str(tmp_path / "counts.json"),
                         "--out", str(tmp_path / "out.json")]) == 0
    # perfbench/tracing.py still lists the retired Monte-Carlo engine's two
    # functions, and will until the benchmark-upkeep change (ROADMAP item 1)
    # drops them; perfbench/ is left as it is here.  Nothing else may be missing.
    assert tracer.missing == ["maxent_agents.engine.McEngine.basis",
                              "maxent_agents.engine.sample_dirichlet"]
    (metrics,) = tracing.request_metrics(tracer.spans, k).values()
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert sorted(declared - RUNNER_METRICS - set(metrics)) == []
    # One solve, one set of node masses, one summary per distinct view and one
    # entropy per distinct fit: a stage skipped or repeated shows here.
    stages = ("engine.solve", "engine.posterior", "engine.summary", "engine.entropy")
    counted = {name: sum(span[0] == name for span in tracer.spans) for name in stages}
    assert counted == dict.fromkeys(stages, fits)
