"""Command-line interface and file-format tests."""
import copy
import gc
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxent_agents import (
    AgentView,
    ConstraintSpec,
    EngineSettings,
    ExperimentConfig,
    GridEngine,
    PriorSpec,
)
from maxent_agents import cli
from maxent_agents import fileio as fileio_module
from maxent_agents import simplex as simplex_module
from maxent_agents.cli import main
from maxent_agents.engine import _TiltedFamily
from maxent_agents.fileio import (
    load_config,
    parse_constraint_shorthand,
    read_counts,
    read_payload,
    write_payload,
    write_sweep_csv,
)
from maxent_agents.network import belief_divergence, infer_all
from maxent_agents.simplex import NODE_BUDGET, NodeSet


CONFIG = {
    "k": 3,
    "n": 10,
    "seed": 7,
    "prior": [1.0, 1.0, 1.0],
    "constraint": {"f": [1.0, 0.0, -2.0], "F": 0.0},
    "theta_true": [0.5, 0.3, 0.2],
    "network": {"preset": "complete"},
    "round": 1,
    "engine": {"grid": 60},
}


COUNTS = {"k": 3, "n": 10, "counts": [5, 3, 2], "seed": 7}

# An agent body as `network` shares it between agents that share one fit.
BODY = {"view": {"k": 3, "n": 10, "visible": [[1, 5]]}, "beta": 0.5, "s_me": -0.0,
        "means": [0.25, 1 / 3, 1e300], "marginals": [[0.5, 5e-324], []]}

# (name in the error, config overrides, path to an integral field in the
# {"config": ..., "counts": ...} inputs)
INT_FIELDS = [
    pytest.param("config k", {}, ("config", "k"), id="k"),
    pytest.param("config n", {}, ("config", "n"), id="n"),
    pytest.param("config seed", {}, ("config", "seed"), id="seed"),
    pytest.param("config round", {}, ("config", "round"), id="round"),
    pytest.param("config engine.grid", {}, ("config", "engine", "grid"), id="grid"),
    pytest.param("config network.k", {"network": {"preset": "complete", "k": 3}},
                 ("config", "network", "k"), id="network-k"),
    pytest.param("config network.rows",
                 {"network": {"preset": "triangle-lattice", "rows": 1, "cols": 3}},
                 ("config", "network", "rows"), id="network-rows"),
    pytest.param("config network.cols",
                 {"network": {"preset": "triangle-lattice", "rows": 1, "cols": 3}},
                 ("config", "network", "cols"), id="network-cols"),
    pytest.param("config network.edges", {"network": {"edges": [[1, 2], [2, 3]]}},
                 ("config", "network", "edges", 0, 1), id="network-edges"),
    pytest.param("counts file k", {}, ("counts", "k"), id="counts-k"),
    pytest.param("counts file n", {}, ("counts", "n"), id="counts-n"),
    pytest.param("counts file counts", {}, ("counts", "counts", 0), id="counts-entry"),
]


def write_config(path, **overrides):
    write_payload(path, {**CONFIG, **overrides})
    return path


def test_cli_import_loads_no_scipy():
    # The runtime needs numpy only; scipy.special alone takes longer to import
    # than numpy, and every cold command would pay for it.
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, maxent_agents.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def same_values(written, loaded):
    """`loaded` holds every value of `written` exactly: floats bit for bit
    (the sign of a zero too), ints, bools and None by type, keys in order."""
    if isinstance(written, float):
        assert type(loaded) is float and loaded == written
        assert math.copysign(1.0, loaded) == math.copysign(1.0, written)
    elif isinstance(written, (list, tuple)):
        assert type(loaded) is list and len(loaded) == len(written)
        for w, v in zip(written, loaded):
            same_values(w, v)
    elif isinstance(written, dict):
        assert list(loaded) == list(written)
        for key in written:
            same_values(written[key], loaded[key])
    else:
        assert type(loaded) is type(written) and loaded == written


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestSerialization:
    def test_floats_round_trip(self, tmp_path):
        path = tmp_path / "x.json"
        for x in [math.pi, 1 / 3, -0.1, 2e-308, 12345.6789]:
            write_payload(path, {"x": x})
            assert read_payload(path)["x"] == x

    def test_round_trip_keeps_every_value(self, tmp_path):
        shared = tuple(float(v) for v in np.random.default_rng(5).uniform(size=100))
        payload = {
            "floats": [-0.0, 1.0, 1e300, 5e-324, 1.2345678901234568e17, 1 / 3, 1.5e-300],
            "numpy": [np.float64(0.1), np.float64(-0.0), np.float64(5e-324)],
            "mixed": [3, np.float64(0.1), -7, 2.5, True, None],
            "flags": [True, False, None],
            "nested": [[0.5, 2], [np.float64(-0.0)], []],
            "agents": [{"agent": i, "a": shared, "c": x} for i, x in enumerate([0.0, -0.0, 3.0])],
            "count": 42,
            "scale": np.float64(1e-5),
            "order": {"z": 1, "a": "text", "y": {"b": [], "a": None}},
        }
        path = tmp_path / "x.json"
        write_payload(path, payload)
        same_values(payload, read_payload(path))
        # Shared members are encoded once, and the text is still the stdlib encoder's.
        assert path.read_text(encoding="utf-8") == json.dumps(payload) + "\n"

    def test_write_leaves_no_reference_cycle(self, tmp_path):
        # The writer's memo is freed by reference counting: a garbage cycle left by
        # every record makes the cyclic collector run, and requests stall, more often.
        shared = [0.5] * 10
        payload = {"agents": [{"agent": i, "a": shared} for i in range(3)]}
        gc.collect()
        gc.disable()
        try:
            write_payload(tmp_path / "x.json", payload)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("rows", [
        pytest.param([{"agent": i, **BODY} for i in (1, 2, 3)], id="shared-after-first"),
        pytest.param([{"agent": 1, **BODY}, {"agent": 2, **BODY, "beta": 0.25},
                      {"agent": 3, **BODY}], id="all-but-one-shared"),
        pytest.param([{"agent": 1, "beta": BODY["beta"]}, {"agent": 2, "s_me": BODY["beta"]}],
                     id="same-value-other-key"),
        pytest.param([{"agent": 1}, {"agent": 2}, {"agent": 3, **BODY}], id="one-member"),
        pytest.param([], id="empty-list"),
        pytest.param([{"agent": 1, **BODY}, {"agent": 2, "error": "agent 2: infeasible"},
                      {"agent": 3, **BODY}], id="error-between-shared"),
        pytest.param([{"agent": 1, **BODY}, 3, None, [BODY], {"agent": 2, **BODY}], id="mixed"),
        pytest.param([{"agent": 1, **BODY}, {}, {"agent": 2, **BODY}], id="empty-dict"),
    ])
    def test_shared_members_keep_the_encoder_text(self, tmp_path, rows):
        payload = {"counts": [5, 3, 2], "agents": rows, "meta": {"agents": rows}}
        path = tmp_path / "x.json"
        write_payload(path, payload)
        assert path.read_text(encoding="utf-8") == json.dumps(payload) + "\n"

    def test_shared_body_is_encoded_once(self, monkeypatch, tmp_path):
        encoded = []

        class Recording(json.JSONEncoder):
            def encode(self, o):
                encoded.append(o)
                return super().encode(o)

        monkeypatch.setattr(fileio_module, "_ENCODER", Recording(allow_nan=False))
        write_payload(tmp_path / "x.json", {"agents": [{"agent": i, **BODY} for i in (1, 2, 3)]})
        assert sum(isinstance(o, dict) and "means" in o for o in encoded) == 1

    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path):
        # Outputs are rewritten in place and then cut at their new length.
        path = tmp_path / "x.json"
        short, long = {"x": 1}, {"x": list(range(1000))}
        for first, second in ((long, short), (short, long)):
            write_payload(path, first)
            write_payload(path, second)
            assert path.read_bytes() == (json.dumps(second) + "\n").encode()
        path.write_bytes(b"\0" * 100_000)
        write_sweep_csv(path, [{"beta": 0.5, "log_zeta": 1.0, "expected_f": -0.0, "s_me": 2.0}])
        assert path.read_bytes() == b"beta,log_zeta,expected_f,s_me\n0.5,1.0,-0.0,2.0\n"

    def test_refusal_leaves_an_existing_file_alone(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_bytes(b"old bytes\n")
        os.utime(path, ns=(1_000_000_000, 1_000_000_000))
        with pytest.raises(ValueError, match="non-finite"):
            write_payload(path, {"x": [1.0, float("nan")]})
        with pytest.raises(ValueError, match="non-finite"):
            write_sweep_csv(path, [{"beta": 0.5, "log_zeta": math.inf, "expected_f": 0.0,
                                    "s_me": 0.0}])
        assert path.read_bytes() == b"old bytes\n"
        assert path.stat().st_mtime_ns == 1_000_000_000

    def test_new_file_mode_is_that_of_open(self, tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        with open(tmp_path / "reference", "w"):
            pass
        write_payload(tmp_path / "x.json", {"x": 1})
        write_sweep_csv(tmp_path / "x.csv", [])
        modes = {stat.S_IMODE((tmp_path / name).stat().st_mode)
                 for name in ("reference", "x.json", "x.csv")}
        assert modes == {0o666 & ~umask}

    def test_network_writes_to_a_device(self, tmp_path):
        # A character device takes the record but cannot be cut at its length.
        config_path = write_config(tmp_path / "c.json")
        counts_path = tmp_path / "n.json"
        write_payload(counts_path, COUNTS)
        assert main(["network", "--config", str(config_path), "--counts", str(counts_path),
                     "--out", os.devnull]) == 0

    def test_rejects_nan(self, tmp_path):
        path = tmp_path / "x.json"
        with pytest.raises(ValueError, match="non-finite") as raised:
            write_payload(path, {"x": float("nan")})
        assert str(path) in str(raised.value)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), np.float64("inf")])
    def test_rejects_non_finite_in_lists(self, tmp_path, bad):
        path = tmp_path / "x.json"
        with pytest.raises(ValueError, match="non-finite"):
            write_payload(path, {"x": [1.0, bad]})
        for floats in ([0.5, bad], [bad, 0.25], [0.1] * 20 + [bad]):
            with pytest.raises(ValueError, match="non-finite"):
                write_payload(path, {"x": [float(v) for v in floats]})
        assert not path.exists()

    @pytest.mark.parametrize("overrides, counts", [
        pytest.param({"round": 0}, [5, 3, 2], id="complete-k3-round0"),
        # At round 1 the three agents share one fit, so the record repeats its body.
        pytest.param({"round": 1}, [5, 3, 2], id="complete-k3-round1"),
        pytest.param({"k": 4, "n": 12, "prior": [1.0] * 4, "theta_true": None,
                      "constraint": {"f": [1.0, 0.0, 0.0, -2.0], "F": 0.0},
                      "network": {"preset": "triangle-lattice", "rows": 2, "cols": 2},
                      "engine": {"grid": 30}}, [5, 3, 2, 2], id="lattice-2x2"),
    ])
    def test_network_record_is_exact(self, tmp_path, overrides, counts):
        # The record holds every fitted number bit for bit, on one line.
        config_path = write_config(tmp_path / "c.json", **overrides)
        counts_path, out = tmp_path / "n.json", tmp_path / "o.json"
        write_payload(counts_path, {"k": len(counts), "n": sum(counts), "counts": counts,
                                    "seed": 7})
        assert main(["network", "--config", str(config_path), "--counts", str(counts_path),
                     "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.endswith("\n") and text.count("\n") == 1
        record = json.loads(text)
        assert text == json.dumps(record) + "\n"

        config = load_config(config_path)
        entries, errors = infer_all(config.build_network(), read_counts(counts_path),
                                    config.round, PriorSpec.of(config.prior), config.constraint,
                                    config.engine.build(config.k))
        assert not errors and len(record["agents"]) == len(entries)
        for agent in record["agents"]:
            belief = entries[agent["agent"]]
            assert bits([agent["beta"], agent["log_zeta"]]) == bits(
                [belief.solved.beta, belief.solved.log_zeta])
            assert bits(agent["means"]) == bits(belief.means)
            assert bits(agent["variances"]) == bits(belief.variances)
            assert bits(agent["marginals"]) == bits(belief.marginals)
        ok = sorted(entries)
        assert record["divergence_agents"] == ok
        assert bits(record["divergences"]) == bits(
            [[belief_divergence(entries, a, b) if a != b else 0.0 for b in ok] for a in ok])
        # Agents that share one fit diverge by zero; distinct fits do not.
        distinct_fits = len({id(belief) for belief in entries.values()}) > 1
        assert any(v > 0.0 for row in record["divergences"] for v in row) == distinct_fits

    def test_config_round_trip(self, tmp_path):
        config = ExperimentConfig(
            k=3, n=10, seed=7,
            prior=(1.0, 2.0, 0.5),
            constraint=ConstraintSpec.of([1, 0, -2], 0.125),
            theta_true=(0.5, 0.3, 0.2),
            # A 1x3 lattice: the 2x2 this used to hold has 4 agents, refused at k = 3.
            network={"preset": "triangle-lattice", "rows": 1, "cols": 3},
            round=1,
            engine=EngineSettings(grid=30),
        )
        path = tmp_path / "config.json"
        write_payload(path, config.to_payload())
        assert load_config(path) == config

    @pytest.mark.parametrize("settings", [EngineSettings(), EngineSettings(grid=1),
                                          EngineSettings(grid=240)])
    def test_engine_settings_round_trip(self, tmp_path, settings):
        write_payload(tmp_path / "e.json", settings.to_payload())
        assert EngineSettings.from_payload(read_payload(tmp_path / "e.json")) == settings

    def test_constraint_shorthand(self):
        spec = parse_constraint_shorthand("f=1,0,-2;F=0")
        assert spec == ConstraintSpec.of([1, 0, -2], 0.0)
        assert parse_constraint_shorthand("none") is None
        with pytest.raises(ValueError):
            parse_constraint_shorthand("f=1,2")

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_config_round_trip_property(self, tmp_path_factory, data):
        finite = st.floats(-1e6, 1e6, allow_nan=False)
        k = data.draw(st.integers(2, 6))
        config = ExperimentConfig(
            k=k,
            n=data.draw(st.integers(0, 100)),
            seed=data.draw(st.integers(0, 2**31)),
            prior=tuple(data.draw(st.floats(0.1, 50.0)) for _ in range(k)),
            constraint=ConstraintSpec.of(
                [data.draw(finite) for _ in range(k)], data.draw(finite)
            ),
            round=data.draw(st.integers(0, 5)),
            engine=EngineSettings(grid=data.draw(st.integers(1, 500))),
        )
        path = tmp_path_factory.mktemp("config") / "config.json"
        write_payload(path, config.to_payload())
        assert ExperimentConfig.from_payload(read_payload(path)) == config


class TestCommandLine:
    @pytest.mark.parametrize("argv", [
        pytest.param(["network", "--config", "c.json", "--out", "o.json"], id="missing-counts"),
        pytest.param(["network", "--config", "c.json", "--counts", "n.json", "--out", "o.json",
                      "--bogus"], id="unknown-flag"),
        pytest.param(["infer", "--config", "c.json", "--counts", "n.json", "--out", "o.json",
                      "--grid", "abc"], id="grid-abc"),
        pytest.param(["roll"], id="unknown-command"),
        pytest.param([], id="no-command"),
    ])
    def test_malformed_command_line_is_input_error(self, capsys, argv):
        # Exit 2 means an infeasible constraint; a bad command line is input.
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "usage: maxent-agents" in err and "error:" in err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: maxent-agents" in capsys.readouterr().out

    def test_process_exit_code(self):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run([sys.executable, "-m", "maxent_agents.cli", "network",
                               "--grid", "abc"], env=env, capture_output=True, text=True)
        assert done.returncode == 4
        assert "error:" in done.stderr and "Traceback" not in done.stderr


class TestSimulate:
    def test_writes_counts(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "counts.json"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        counts = read_counts(out)
        assert counts.n == 10 and counts.k == 3

    def test_zero_rolls(self, tmp_path):
        config = write_config(tmp_path / "c.json", n=0)
        out = tmp_path / "counts.json"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert read_counts(out).counts == (0, 0, 0)

    def test_byte_identical_per_seed(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["simulate", "--config", str(config), "--out", str(out1)])
        main(["simulate", "--config", str(config), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        out3 = tmp_path / "c3.json"
        main(["simulate", "--config", str(config), "--out", str(out3), "--seed", "8"])
        assert out3.read_bytes() != out1.read_bytes()

    def test_needs_theta_true(self, tmp_path):
        config = write_config(tmp_path / "c.json", theta_true=None)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")]) == 4

    @pytest.mark.parametrize("flag, value", [("--grid", "30"), ("--mc-samples", "1000"),
                                             ("--constraint", "f=1,0,-2;F=0")])
    def test_refuses_engine_flags(self, tmp_path, capsys, flag, value):
        # simulate builds no engine and fits nothing; it used to validate these
        # flags and then ignore them.
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(config), "--out", str(out),
                     flag, value]) == 4
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("usage: maxent-agents")
        assert err.endswith(f"error: unrecognized arguments: {flag} {value}\n")

    def test_negative_seed_names_seed(self, tmp_path, capsys):
        # It used to reach the generator, whose error named no field.
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(config), "--out", str(out),
                     "--seed", "-2"]) == 4
        assert not out.exists()
        assert capsys.readouterr().err == "error: seed must be >= 0, got -2\n"


class TestInfer:
    def test_full_view_no_constraint_is_conjugate(self, tmp_path):
        config = write_config(tmp_path / "c.json", constraint=None, engine={"grid": 240})
        counts = tmp_path / "counts.json"
        write_payload(counts, {"k": 3, "n": 10, "counts": [5, 3, 2], "seed": 7})
        out = tmp_path / "result.json"
        assert main(["infer", "--config", str(config), "--counts", str(counts),
                     "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        agent = record["agents"][0]
        assert agent["beta"] == 0.0
        assert agent["means"] == pytest.approx([6 / 13, 4 / 13, 3 / 13], abs=1e-6)
        assert agent["residual"] <= 1e-9
        assert agent["normalization"] == pytest.approx(1.0, abs=1e-9)

    def test_student_view_record(self, tmp_path):
        config = write_config(tmp_path / "c.json", engine={"grid": 240})
        counts = tmp_path / "counts.json"
        write_payload(counts, {"k": 3, "n": 10, "counts": [5, 3, 2], "seed": 7})
        out = tmp_path / "student.json"
        assert main(["infer", "--config", str(config), "--counts", str(counts),
                     "--out", str(out), "--view", "1"]) == 0
        record = json.loads(out.read_text())
        agent = record["agents"][0]
        assert agent["view"]["visible"] == [[1, 5]]
        assert agent["beta"] > 0.0
        assert agent["s_me"] < 0.0

    def test_infeasible_exit_code(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        counts = tmp_path / "counts.json"
        write_payload(counts, {"k": 3, "n": 10, "counts": [5, 3, 2], "seed": 7})
        code = main(["infer", "--config", str(config), "--counts", str(counts),
                     "--out", str(tmp_path / "x"), "--constraint", "f=1,0,-2;F=1.5"])
        assert code == 2
        assert "(-2.0, 1.0)" in capsys.readouterr().err

    def test_nonconvergence_exit_code(self, tmp_path):
        # Feasible in exact arithmetic but outside the range of f over the
        # r=30 interior nodes: the solve reports the engine's own interval.
        config = write_config(tmp_path / "c.json", engine={"grid": 30})
        counts = tmp_path / "counts.json"
        write_payload(counts, {"k": 3, "n": 10, "counts": [5, 3, 2], "seed": 7})
        code = main(["infer", "--config", str(config), "--counts", str(counts),
                     "--out", str(tmp_path / "x"),
                     "--constraint", "f=1,0,-2;F=0.999999999999"])
        assert code == 3

    def test_positive_entropy_exit_code(self, tmp_path, capsys, monkeypatch):
        # An engine whose reference weights sum to 2, not 1, doubles zeta: with
        # no data and no constraint s_me = log 2 > 0, a numerical failure
        # (exit 3), not an input error; no output is written.
        grid = GridEngine(3, 30).grid

        class DoubledWeights:
            k = 3

            def basis(self, prior, view):
                return NodeSet(grid.nodes, grid.log_nodes, grid.log_weights + math.log(2.0))

        monkeypatch.setattr(EngineSettings, "build", lambda self, k: DoubledWeights())
        config = write_config(tmp_path / "c.json", constraint=None)
        counts = tmp_path / "counts.json"
        write_payload(counts, COUNTS)
        out = tmp_path / "x"
        code = main(["infer", "--config", str(config), "--counts", str(counts),
                     "--out", str(out), "--view", "none"])
        assert code == 3
        assert "error: s_me = 0.693147180559945" in capsys.readouterr().err  # log 2
        assert not out.exists()

    def test_malformed_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["infer", "--config", str(bad), "--counts", str(bad),
                     "--out", str(tmp_path / "x")]) == 4

    def test_count_mismatch_exit_code(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        counts = tmp_path / "counts.json"
        write_payload(counts, {"k": 3, "n": 9, "counts": [5, 3, 2], "seed": 7})
        assert main(["infer", "--config", str(config), "--counts", str(counts),
                     "--out", str(tmp_path / "x")]) == 4

    def test_record_revalidates(self, tmp_path):
        # Recomputing <f> from the stored beta must reproduce the residual.
        config = write_config(tmp_path / "c.json", engine={"grid": 240})
        counts = tmp_path / "counts.json"
        write_payload(counts, {"k": 3, "n": 10, "counts": [7, 2, 1], "seed": 7})
        out = tmp_path / "result.json"
        assert main(["infer", "--config", str(config), "--counts", str(counts),
                     "--out", str(out), "--view", "1"]) == 0
        record = json.loads(out.read_text())
        echoed = ExperimentConfig.from_payload(record["config"])
        agent = record["agents"][0]
        v = agent["view"]
        view = AgentView.from_mapping(v["k"], v["n"], dict(v["visible"]))
        fam = _TiltedFamily(
            PriorSpec.of(echoed.prior), view, echoed.constraint, echoed.engine.build(echoed.k),
        )
        value = fam.mean_f(fam.tilt(agent["beta"])[0])
        assert abs(value - echoed.constraint.F) == pytest.approx(
            agent["residual"], abs=1e-15
        )
        assert agent["residual"] <= 1e-9

    @pytest.mark.parametrize("command", ["infer", "sweep-beta"])
    @pytest.mark.parametrize("view", ["5", "0", "1,1"])
    def test_bad_view_sides_exit_code(self, tmp_path, capsys, command, view):
        config = write_config(tmp_path / "c.json", engine={"grid": 30})
        counts = tmp_path / "counts.json"
        write_payload(counts, {"k": 3, "n": 10, "counts": [5, 3, 2], "seed": 7})
        argv = [command, "--config", str(config), "--counts", str(counts),
                "--out", str(tmp_path / "x"), "--view", view]
        if command == "sweep-beta":
            argv += ["--beta-min", "0", "--beta-max", "1", "--beta-step", "0.5"]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--view" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "network"])
    def test_grid_and_mc_samples_exit_code(self, tmp_path, capsys, command):
        config = write_config(tmp_path / "c.json")
        counts = tmp_path / "counts.json"
        write_payload(counts, {"k": 3, "n": 10, "counts": [5, 3, 2], "seed": 7})
        argv = [command, "--config", str(config), "--out", str(tmp_path / "x"),
                "--grid", "30", "--mc-samples", "1000"]
        if command == "network":
            argv += ["--counts", str(counts)]
        assert main(argv) == 4
        err = capsys.readouterr().err
        # simulate builds no engine, so --grid is not its own either; no
        # command takes --mc-samples.
        flags = "--grid 30 --mc-samples 1000" if command == "simulate" else "--mc-samples 1000"
        assert err.endswith(f"error: unrecognized arguments: {flags}\n")
        assert not (tmp_path / "x").exists()


class TestInputChecks:
    """Bad input exits 4 with an error line naming it, before any fit and
    without writing an output file."""

    def _run(self, tmp_path, capsys, argv, counts_payload=COUNTS):
        counts = tmp_path / "counts.json"
        write_payload(counts, counts_payload)
        out = tmp_path / "x"
        code = main(argv + ["--counts", str(counts), "--out", str(out)])
        err = capsys.readouterr().err
        assert not out.exists()
        assert "Traceback" not in err
        return code, err

    @pytest.mark.parametrize("command", ["infer", "network"])
    @pytest.mark.parametrize("grid, named", [
        pytest.param("0", "r must be >= 1", id="r0"),
        pytest.param("100000", "budget", id="over-budget"),
    ])
    def test_invalid_grid_exit_code(self, tmp_path, capsys, command, grid, named):
        config = write_config(tmp_path / "c.json")
        code, err = self._run(tmp_path, capsys,
                              [command, "--config", str(config), "--grid", grid])
        assert code == 4
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("command", ["network", "sweep-beta"])
    @pytest.mark.parametrize("payload, named", [
        pytest.param([CONFIG], "config must be a JSON object", id="list-config"),
        pytest.param({**CONFIG, "engine": [60]}, "engine must be a JSON object",
                     id="list-engine"),
        pytest.param({**CONFIG, "prior": [1.0, math.nan, 1.0]}, "prior", id="nan-prior"),
        pytest.param({**CONFIG, "prior": [1.0, math.inf, 1.0]}, "prior", id="inf-prior"),
        pytest.param({**CONFIG, "constraint": {"f": [1.0, math.nan, -2.0], "F": 0.0}},
                     "constraint", id="nan-f"),
        pytest.param({**CONFIG, "constraint": {"f": [1.0, 0.0, -2.0], "F": math.nan}},
                     "constraint", id="nan-F"),
        pytest.param({**CONFIG, "constraint": {"f": [1.0, 0.0, -2.0], "F": -math.inf}},
                     "constraint", id="inf-F"),
        pytest.param({**CONFIG, "theta_true": [math.nan, 0.5, 0.5]}, "theta",
                     id="nan-theta_true"),
        pytest.param({**CONFIG, "network": "complete"}, "network must be a JSON object",
                     id="string-network"),
    ])
    def test_bad_config_exit_code(self, tmp_path, capsys, command, payload, named):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(payload))  # json writes NaN and Infinity
        argv = [command, "--config", str(config)]
        if command == "sweep-beta":
            argv += ["--beta-min", "0", "--beta-max", "1", "--beta-step", "0.5"]
        code, err = self._run(tmp_path, capsys, argv)
        assert code == 4
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("bad", ["fraction", "bool"])
    @pytest.mark.parametrize("named, overrides, path", INT_FIELDS)
    def test_integer_field_refuses_non_integer(self, tmp_path, capsys, named, overrides,
                                                path, bad):
        # 1.5 used to run as 1, and true as 1.
        inputs = copy.deepcopy({"config": {**CONFIG, "engine": {"grid": 30}, **overrides},
                                "counts": COUNTS})
        *parents, leaf = path
        owner = inputs
        for key in parents:
            owner = owner[key]
        owner[leaf] = owner[leaf] + 0.5 if bad == "fraction" else True
        for name, payload in inputs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(payload))
        out = tmp_path / "x"
        code = main(["network", "--config", str(tmp_path / "config.json"),
                     "--counts", str(tmp_path / "counts.json"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 4 and not out.exists()
        assert err.startswith(f"error: {named} must be an integer, got ")

    @pytest.mark.parametrize("config, counts, extra, named", [
        pytest.param({"round": "x"}, COUNTS, [], "config round must be an integer, got 'x'",
                     id="string-round"),
        pytest.param({"network": {"preset": "triangle-lattice", "cols": 3}}, COUNTS, [],
                     "config network.rows is missing", id="lattice-without-rows"),
        pytest.param({"constraint": {"f": [1.0, 0.0, -2.0]}}, COUNTS, [],
                     "config constraint.F is missing", id="constraint-without-F"),
        pytest.param({}, {"n": 10, "counts": [5, 3, 2]}, [], "counts file k is missing",
                     id="counts-without-k"),
        pytest.param({}, COUNTS, ["--view", "a"], "--view side must be an integer, got 'a'",
                     id="view-letter"),
        pytest.param({"network": {"preset": "explicit", "edges": [[1]]}}, COUNTS, [],
                     "config network.edges entry [1] is not a pair of agents", id="edge-of-one"),
        pytest.param({"network": {"edges": [[1, 2], [1, 2, 3]]}}, COUNTS, [],
                     "config network.edges entry [1, 2, 3] is not a pair of agents",
                     id="edge-of-three"),
    ])
    def test_input_error_names_its_field(self, tmp_path, capsys, config, counts, extra, named):
        write_config(tmp_path / "c.json", engine={"grid": 30}, **config)
        write_payload(tmp_path / "counts.json", counts)
        out = tmp_path / "x"
        code = main(["infer" if extra else "network", "--config", str(tmp_path / "c.json"),
                     "--counts", str(tmp_path / "counts.json"), "--out", str(out), *extra])
        assert code == 4 and not out.exists()
        assert capsys.readouterr().err == f"error: {named}\n"

    @pytest.mark.parametrize("command", ["infer", "network", "sweep-beta"])
    def test_counts_n_mismatch(self, tmp_path, capsys, command):
        config = write_config(tmp_path / "c.json", n=40)
        argv = [command, "--config", str(config)]
        if command == "sweep-beta":
            argv += ["--beta-min", "0", "--beta-max", "1", "--beta-step", "0.5"]
        code, err = self._run(tmp_path, capsys, argv)
        assert code == 4
        assert err == "error: counts file has n=10, config has n=40\n"

    @pytest.mark.parametrize("command", ["infer", "network", "sweep-beta"])
    def test_seed_flag_only_on_simulate(self, tmp_path, capsys, command):
        # config.seed drives only simulate's rolls, so elsewhere the flag
        # only rewrote the echoed seed.
        argv = [command, "--config", str(write_config(tmp_path / "c.json")), "--seed", "3"]
        if command == "sweep-beta":
            argv += ["--beta-min", "0", "--beta-max", "1", "--beta-step", "0.5"]
        code, err = self._run(tmp_path, capsys, argv)
        assert code == 4
        assert err.endswith("error: unrecognized arguments: --seed 3\n")

    @pytest.mark.parametrize("engine", [
        pytest.param({"gird": 30}, id="gird"),  # used to run at the default r=240, exit 0
        pytest.param({"grid": 30, "mc_samples": 1000}, id="mc_samples"),
        pytest.param({"mc_seed": 2}, id="mc_seed"),
    ])
    def test_engine_refuses_unknown_key(self, tmp_path, capsys, engine):
        config = write_config(tmp_path / "c.json", engine=engine)
        code, err = self._run(tmp_path, capsys, ["network", "--config", str(config)])
        assert code == 4
        (key,) = set(engine) - {"grid"}
        assert err == (f"error: config engine.{key} is unknown: the engine section "
                       "takes only grid\n")

    @pytest.mark.parametrize("overrides, named, known", [
        # Each used to run on the default it misspelt, exit 0.
        pytest.param({"rund": 0}, "rund", "a config takes only k, n, seed, prior, constraint, "
                     "theta_true, network, round, engine", id="rund"),
        pytest.param({"constraint": {"f": [1.0, 0.0, -2.0], "F": 0.0, "FF": 0.5}},
                     "constraint.FF", "the constraint section takes only f, F", id="FF"),
        pytest.param({"network": {"preset": "triangle-lattice", "rows": 1, "cols": 3, "colz": 4}},
                     "network.colz", "the triangle-lattice preset takes only preset, rows, cols",
                     id="colz"),
        pytest.param({"network": {"preset": "complete", "rows": 3}}, "network.rows",
                     "the complete preset takes only preset, k", id="complete-rows"),
        pytest.param({"network": {"edges": [[1, 2]], "egdes": []}}, "network.egdes",
                     "the explicit preset takes only preset, k, edges", id="egdes"),
    ])
    @pytest.mark.parametrize("command", ["infer", "network", "sweep-beta"])
    def test_config_refuses_unknown_key(self, tmp_path, capsys, command, overrides, named,
                                        known):
        # Refused when the config is read, by every command that reads one.
        argv = [command, "--config", str(write_config(tmp_path / "c.json", **overrides))]
        if command == "sweep-beta":
            argv += ["--beta-min", "0", "--beta-max", "1", "--beta-step", "0.5"]
        code, err = self._run(tmp_path, capsys, argv)
        assert code == 4
        assert err == f"error: config {named} is unknown: {known}\n"

    def test_record_config_echo_loads(self, tmp_path):
        # Every key a record echoes is a config key: the echo loads as the config.
        for network in ({"preset": "complete", "k": 3}, {"preset": "explicit", "edges": [[1, 2]]},
                        {"preset": "triangle-lattice", "rows": 1, "cols": 3}):
            config = write_config(tmp_path / "c.json", network=network, engine={"grid": 30})
            counts = tmp_path / "counts.json"
            write_payload(counts, COUNTS)
            out = tmp_path / "net.json"
            assert main(["network", "--config", str(config), "--counts", str(counts),
                         "--out", str(out)]) == 0
            echo = json.loads(out.read_text())["config"]
            write_payload(config, echo)
            assert load_config(config) == ExperimentConfig.from_payload(echo)
            assert load_config(config).to_payload() == echo

    def test_k5_needs_a_grid(self, tmp_path, capsys):
        # No default grid above k = 4; with one given, the same request runs.
        five = {"k": 5, "n": 10, "prior": [1.0] * 5, "theta_true": None,
                "constraint": {"f": [1.0, 0.0, 0.0, 0.0, -2.0], "F": 0.0}}
        counts = {"k": 5, "n": 10, "counts": [4, 3, 1, 0, 2], "seed": 7}
        config = write_config(tmp_path / "c.json", engine={}, **five)
        code, err = self._run(tmp_path, capsys, ["network", "--config", str(config)], counts)
        assert code == 4
        assert err == "error: no default engine for k=5: set config engine.grid or --grid\n"
        out = tmp_path / "x"
        assert main(["network", "--config", str(config), "--counts", str(tmp_path / "counts.json"),
                     "--out", str(out), "--grid", "8"]) == 0
        assert json.loads(out.read_text())["meta"]["engine"] == {"grid": 8}

    @pytest.mark.parametrize("overrides, flags, named", [
        pytest.param({"engine": {"grid": 0}}, [], "engine.grid or --grid", id="config-grid-0"),
        pytest.param({}, ["--grid", "0"], "engine.grid or --grid", id="flag-grid-0"),
    ])
    def test_engine_error_names_its_field(self, tmp_path, capsys, overrides, flags, named):
        # It used to name no field: "r must be >= 1".
        config = write_config(tmp_path / "c.json", **overrides)
        code, err = self._run(tmp_path, capsys, ["infer", "--config", str(config), *flags])
        assert code == 4
        assert err.startswith(f"error: config {named}: ")

    @pytest.mark.parametrize("command, config, counts, named", [
        pytest.param("simulate", {"n": 10**30}, None, "config n", id="simulate-config-n"),
        *(pytest.param(command, config, counts, named, id=f"{command}-{case}")
          for command in ("infer", "network")
          for config, counts, named, case in [
              ({"n": 10**30}, COUNTS, "config n", "config-n"),
              ({}, {**COUNTS, "n": 10**30, "counts": [10**30, 0, 0]}, "counts file n",
               "counts-n"),
              ({}, {**COUNTS, "counts": [10**30, 0, 0]}, "counts file counts", "counts-entry"),
          ]),
    ])
    def test_count_beyond_float64_refused(self, tmp_path, capsys, command, config, counts,
                                          named):
        # At n = counts[0] = 10**30, simulate used to end in an OverflowError
        # traceback, infer in a misleading factorial error and network in a
        # file of per-agent errors (exit 3).
        argv = [command, "--config", str(write_config(tmp_path / "c.json", **config))]
        if counts is None:  # simulate reads no counts file
            code = main(argv + ["--out", str(tmp_path / "x")])
            err = capsys.readouterr().err
        else:
            code, err = self._run(tmp_path, capsys, argv, counts)
        assert code == 4 and not (tmp_path / "x").exists()
        assert err == f"error: {named} must be <= 2**53 to be exact as a float64, got {10**30}\n"

    def test_count_bound_is_inclusive(self, tmp_path):
        # 2**53 is exact as a float64; 2**53 + 1 is not.
        path = tmp_path / "n.json"
        write_payload(path, {**COUNTS, "n": 2**53, "counts": [2**53, 0, 0]})
        assert read_counts(path).counts == (2**53, 0, 0)
        write_payload(path, {**COUNTS, "n": 2**53 + 1, "counts": [2**53, 1, 0]})
        with pytest.raises(ValueError, match="counts file n must be <= 2"):
            read_counts(path)
        write_payload(path, {**COUNTS, "n": 2**53, "counts": [2**53 + 1, 0, 0]})
        with pytest.raises(ValueError, match="counts file counts must be <= 2"):
            read_counts(path)
        assert ExperimentConfig(k=3, n=2**53, seed=0).n == 2**53
        with pytest.raises(ValueError, match="config n must be <= 2"):
            ExperimentConfig(k=3, n=2**53 + 1, seed=0)

    @pytest.mark.parametrize("drop", [(), ("prior",)], ids=["with-prior", "default-prior"])
    def test_huge_k_refused(self, tmp_path, capsys, drop):
        # The default prior [1.0] * k used to be built first, even when a prior
        # was given: an uncaught OverflowError at k = 10**30.
        config = tmp_path / "c.json"
        write_payload(config, {key: v for key, v in {**CONFIG, "k": 10**30}.items()
                               if key not in drop})
        code, err = self._run(tmp_path, capsys, ["network", "--config", str(config)])
        assert code == 4
        assert err == f"error: config k must be <= {NODE_BUDGET}, the node budget, got {10**30}\n"

    @pytest.mark.parametrize("network, named", [
        pytest.param({"preset": "triangle-lattice", "rows": 10**6, "cols": 10**6},
                     f"network.rows * network.cols gives {10**12}", id="huge-lattice"),
        pytest.param({"preset": "complete", "k": 10**30}, f"network.k gives {10**30}",
                     id="huge-complete"),
        pytest.param({"preset": "explicit", "k": 4, "edges": [[1, 2]]}, "network.k gives 4",
                     id="explicit-k4"),
    ])
    def test_network_size_refused_before_build(self, tmp_path, capsys, monkeypatch, network,
                                               named):
        def no_graph(*args):
            raise AssertionError("a graph was built")

        for builder in ("complete_network", "triangle_lattice_network", "AgentNetwork"):
            monkeypatch.setattr(fileio_module, builder, no_graph)
        config = write_config(tmp_path / "c.json", network=network)
        code, err = self._run(tmp_path, capsys, ["network", "--config", str(config)])
        assert code == 4
        assert err == f"error: config {named} agents, but config k is 3\n"

    @pytest.mark.parametrize("overrides, named", [
        # Each ran to exit 0 under some commands but not under others.
        pytest.param({"network": {"preset": "triangle-lattice", "rows": "x", "cols": 3}},
                     "config network.rows must be an integer, got 'x'", id="rows-x"),
        pytest.param({"network": {"preset": "triangle-lattice", "rows": 2, "cols": 2}},
                     "config network.rows * network.cols gives 4 agents, but config k is 3",
                     id="lattice-2x2"),
        pytest.param({"network": {"preset": "triangle-lattice", "rows": -1, "cols": -3}},
                     "rows and cols must be >= 1", id="lattice-negative"),
        pytest.param({"network": {"edges": [[1, 4]]}}, "edge (1, 4) out of range [1, 3]",
                     id="edge-out-of-range"),
        pytest.param({"network": {"edges": [[2, 2]]}}, "self-loop on agent 2", id="self-loop"),
        pytest.param({"prior": [-1.0, 1.0, 1.0]},
                     "prior Dirichlet parameters must be finite and > 0, got (-1.0, 1.0, 1.0)",
                     id="negative-prior"),
    ])
    @pytest.mark.parametrize("command", ["simulate", "infer", "network", "sweep-beta"])
    def test_every_command_refuses_the_same_config(self, tmp_path, capsys, command, overrides,
                                                   named):
        argv = [command, "--config", str(write_config(tmp_path / "c.json", **overrides))]
        if command == "sweep-beta":
            argv += ["--beta-min", "0", "--beta-max", "1", "--beta-step", "0.5"]
        if command != "simulate":
            write_payload(tmp_path / "counts.json", COUNTS)
            argv += ["--counts", str(tmp_path / "counts.json")]
        out = tmp_path / "x"
        assert main(argv + ["--out", str(out)]) == 4
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["infer", "network", "sweep-beta"])
    def test_counts_k_mismatch(self, tmp_path, capsys, command):
        config = write_config(tmp_path / "c.json", k=4, prior=[1.0] * 4, theta_true=None,
                              constraint={"f": [1.0, 0.0, 0.0, -2.0], "F": 0.0})
        argv = [command, "--config", str(config)]
        if command == "sweep-beta":
            argv += ["--beta-min", "0", "--beta-max", "1", "--beta-step", "0.5"]
        code, err = self._run(tmp_path, capsys, argv)
        assert code == 4
        assert err == "error: counts file has k=3, config has k=4\n"

    def test_sweep_row_cap(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        code, err = self._run(tmp_path, capsys, [
            "sweep-beta", "--config", str(config),
            "--beta-min", "0", "--beta-max", "1e9", "--beta-step", "1e-3",
        ])
        assert code == 4
        assert err == ("error: beta range gives 1000000000001 rows, "
                       f"more than {cli.MAX_SWEEP_ROWS}\n")

    def test_sweep_row_count_overflow(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        code, err = self._run(tmp_path, capsys, [
            "sweep-beta", "--config", str(config),
            "--beta-min=-1e308", "--beta-max", "1e308", "--beta-step", "1e-300",
        ])
        assert code == 4
        assert err.startswith("error: beta range gives inf rows")


class TestNetworkCmd:
    def _counts(self, tmp_path):
        counts = tmp_path / "counts.json"
        write_payload(counts, {"k": 3, "n": 10, "counts": [7, 2, 1], "seed": 7})
        return counts

    def test_round1_consensus(self, tmp_path):
        config = write_config(tmp_path / "c.json", engine={"grid": 240})
        out = tmp_path / "net.json"
        assert main(["network", "--config", str(config),
                     "--counts", str(self._counts(tmp_path)), "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        div = np.array(record["divergences"])
        assert div.shape == (3, 3)
        assert div.max() <= 1e-8

    def test_grid_output_independent_of_blas_threads(self, tmp_path):
        # Weighted sums over the grid are taken in a fixed order, so the
        # record is the same bytes however many threads BLAS uses.
        config = write_config(tmp_path / "c.json", round=0, engine={"grid": 240})
        counts = tmp_path / "counts.json"
        write_payload(counts, COUNTS)
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"net{threads}.json"
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            subprocess.run([sys.executable, "-m", "maxent_agents.cli", "network",
                            "--config", str(config), "--counts", str(counts), "--out", str(out)],
                           env=env, capture_output=True, check=True)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_round0_disagreement(self, tmp_path):
        config = write_config(tmp_path / "c.json", round=0, engine={"grid": 240})
        out = tmp_path / "net0.json"
        assert main(["network", "--config", str(config),
                     "--counts", str(self._counts(tmp_path)), "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        assert max(max(row) for row in record["divergences"]) > 0.0

    def test_isolated_agents_round_independent(self, tmp_path):
        counts = self._counts(tmp_path)
        outs = []
        for label, round_ in (("r0", 0), ("r5", 5)):
            config = write_config(
                tmp_path / f"c_{label}.json", round=round_,
                network={"preset": "explicit", "edges": []}, engine={"grid": 60},
            )
            out = tmp_path / f"{label}.json"
            assert main(["network", "--config", str(config), "--counts", str(counts),
                         "--out", str(out)]) == 0
            outs.append(json.loads(out.read_text()))
        # Same beliefs; only the config echo records the requested round.
        assert outs[0]["agents"] == outs[1]["agents"]
        assert outs[0]["divergences"] == outs[1]["divergences"]

    def test_byte_identical_rerun(self, tmp_path):
        config = write_config(tmp_path / "c.json", engine={"grid": 60})
        counts = self._counts(tmp_path)
        out1, out2 = tmp_path / "n1.json", tmp_path / "n2.json"
        main(["network", "--config", str(config), "--counts", str(counts), "--out", str(out1)])
        main(["network", "--config", str(config), "--counts", str(counts), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_warm_requests_match_fresh_interpreters(self, tmp_path):
        # Grids and the parser are kept per process and agents sharing a fit
        # share one serialized body: every output of one interpreter that
        # alternates grids and commands must equal a fresh interpreter's.
        config = write_config(tmp_path / "c.json", engine={"grid": 60})
        common = ["--config", str(config), "--counts", str(self._counts(tmp_path))]
        runs = [
            ["network", "--grid", "30"],
            ["infer", "--grid", "240", "--view", "1"],
            ["network", "--grid", "240", "--round", "0"],
            ["infer", "--grid", "30", "--view", "all"],
            ["network", "--grid", "240"],
            ["infer", "--grid", "240", "--view", "all"],
            ["network", "--grid", "30", "--round", "0"],
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        for i, argv in enumerate(runs):
            warm, cold = tmp_path / f"warm{i}.json", tmp_path / f"cold{i}.json"
            assert main([*argv, *common, "--out", str(warm)]) == 0
            subprocess.run([sys.executable, "-m", "maxent_agents.cli", *argv, *common,
                            "--out", str(cold)], env=env, capture_output=True, check=True)
            assert warm.read_bytes() == cold.read_bytes(), argv

    @pytest.mark.parametrize("round_, calls", [(1, 1), (0, 3)])
    def test_one_entropy_per_shared_model(self, tmp_path, monkeypatch, round_, calls):
        seen = []
        entropy = cli.me_entropy

        def counting_entropy(belief):
            seen.append(belief)
            return entropy(belief)

        monkeypatch.setattr(cli, "me_entropy", counting_entropy)
        config = write_config(tmp_path / "c.json", round=round_, engine={"grid": 60})
        assert main(["network", "--config", str(config),
                     "--counts", str(self._counts(tmp_path)),
                     "--out", str(tmp_path / "net.json")]) == 0
        assert len(seen) == calls

    def test_all_fail_exit_code(self, tmp_path):
        config = write_config(tmp_path / "c.json", engine={"grid": 30})
        code = main(["network", "--config", str(config),
                     "--counts", str(self._counts(tmp_path)),
                     "--out", str(tmp_path / "x.json"),
                     "--constraint", "f=1,0,-2;F=1.5"])
        assert code == 2
        record = json.loads((tmp_path / "x.json").read_text())
        assert all("error" in a for a in record["agents"])

    def test_all_fail_short_of_infeasible_exit_code(self, tmp_path):
        # F = 0.999999999999 is feasible, but beyond every r=30 node's f (round 0
        # gives three views): each agent fails to converge, and the command exits 3.
        config = write_config(tmp_path / "c.json", engine={"grid": 30})
        code = main(["network", "--config", str(config),
                     "--counts", str(self._counts(tmp_path)),
                     "--out", str(tmp_path / "x.json"), "--round", "0",
                     "--constraint", "f=1,0,-2;F=0.999999999999"])
        assert code == 3
        record = json.loads((tmp_path / "x.json").read_text())
        assert [a["agent"] for a in record["agents"]] == [1, 2, 3]
        for a in record["agents"]:
            assert a["error"].startswith(f"agent {a['agent']}: target F = 0.999999999999 lies "
                                         "outside (")
        assert record["divergence_agents"] == [] and record["divergences"] == []


class TestSweepBeta:
    def test_table_shape_and_monotonicity(self, tmp_path):
        config = write_config(tmp_path / "c.json", n=0, engine={"grid": 240})
        counts = tmp_path / "counts.json"
        write_payload(counts, {"k": 3, "n": 0, "counts": [0, 0, 0], "seed": 7})
        out = tmp_path / "sweep.csv"
        assert main(["sweep-beta", "--config", str(config), "--counts", str(counts),
                     "--out", str(out), "--view", "none",
                     "--beta-min", "-4", "--beta-max", "4", "--beta-step", "0.5"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "beta,log_zeta,expected_f,s_me"
        assert len(lines) == 1 + 17
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        ef = [r[2] for r in rows]
        assert all(a < b for a, b in zip(ef, ef[1:]))
        at_zero = rows[8]
        assert at_zero[0] == 0.0
        assert at_zero[2] == pytest.approx(-1 / 3, abs=1e-12)

    def test_one_basis_build_per_sweep(self, tmp_path, monkeypatch):
        config = write_config(tmp_path / "c.json", engine={"grid": 60})
        counts = tmp_path / "counts.json"
        write_payload(counts, {"k": 3, "n": 10, "counts": [5, 3, 2], "seed": 7})
        calls = []
        basis = GridEngine.basis

        def counting_basis(self, prior, view):
            calls.append(view)
            return basis(self, prior, view)

        monkeypatch.setattr(GridEngine, "basis", counting_basis)
        out = tmp_path / "sweep.csv"
        assert main(["sweep-beta", "--config", str(config), "--counts", str(counts),
                     "--out", str(out), "--view", "1,3",
                     "--beta-min", "-2", "--beta-max", "2", "--beta-step", "0.25"]) == 0
        assert len(calls) == 1
        monkeypatch.undo()
        # Every row matches a freshly built family exactly.
        prior, spec = PriorSpec.flat(3), ConstraintSpec.of([1.0, 0.0, -2.0], 0.0)
        view, engine = AgentView.from_mapping(3, 10, {1: 5, 3: 2}), GridEngine(3, 60)
        lines = out.read_text().strip().splitlines()[1:]
        assert len(lines) == 17
        for line in lines:
            beta, lz, ef, _ = (float(v) for v in line.split(","))
            assert lz == _TiltedFamily(prior, view, spec, engine).tilt(beta)[1]
            fam = _TiltedFamily(prior, view, spec, engine)
            assert ef == fam.mean_f(fam.tilt(beta)[0])

    def test_mc_sweep_bins_no_nodes(self, tmp_path, monkeypatch):
        # A node set builds its per-side level tables on first use: a sweep
        # writes no summary, so it builds none; a summary does.  The cache is
        # cleared so that no earlier test's grid, its tables built, is reused.
        simplex_module.build_grid.cache_clear()
        binned = []
        side_levels = simplex_module.side_levels

        def counting_levels(nodes):
            binned.append(nodes.shape)
            return side_levels(nodes)

        monkeypatch.setattr(simplex_module, "side_levels", counting_levels)
        config = write_config(tmp_path / "c.json", engine={"grid": 50})
        counts = tmp_path / "counts.json"
        write_payload(counts, COUNTS)
        common = ["--config", str(config), "--counts", str(counts)]
        assert main(["sweep-beta", *common, "--out", str(tmp_path / "s.csv"),
                     "--beta-min", "-1", "--beta-max", "1", "--beta-step", "0.5"]) == 0
        assert binned == []
        assert main(["infer", *common, "--out", str(tmp_path / "i.json")]) == 0
        assert binned == [(1326, 3)]

    @pytest.mark.parametrize("low, high, step, rows", [
        ("0", "1", "0.6", 2),  # used to add 1.2, past --beta-max
        ("0", "1.75", "0.5", 4),  # round(3.5) is 4: used to end at 2.0
        ("0", "0.3", "0.1", 4),  # 0.3 / 0.1 is 2.9999999999999996
    ])
    def test_rows_stop_at_beta_max(self, tmp_path, low, high, step, rows):
        config = write_config(tmp_path / "c.json", engine={"grid": 30})
        counts = tmp_path / "counts.json"
        write_payload(counts, COUNTS)
        out = tmp_path / "s.csv"
        assert main(["sweep-beta", "--config", str(config), "--counts", str(counts),
                     "--out", str(out), f"--beta-min={low}", f"--beta-max={high}",
                     f"--beta-step={step}"]) == 0
        betas = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
        assert betas == [float(low) + i * float(step) for i in range(rows)]

    def test_csv_values_are_shortest_repr(self, tmp_path):
        # Under numpy >= 2, repr(np.float64(0.1)) is "np.float64(0.1)".
        row = {"beta": np.float64(0.1), "log_zeta": np.float64(-1 / 3),
               "expected_f": np.float64(-0.0), "s_me": np.float64(5e-324)}
        out = tmp_path / "s.csv"
        write_sweep_csv(out, [row])
        header, line = out.read_text(encoding="utf-8").splitlines()
        assert header == "beta,log_zeta,expected_f,s_me"
        assert line == "0.1,-0.3333333333333333,-0.0,5e-324"
        assert bits([float(v) for v in line.split(",")]) == bits(list(row.values()))

    def test_csv_refuses_non_finite(self, tmp_path):
        out = tmp_path / "s.csv"
        row = {"beta": 0.5, "log_zeta": float("inf"), "expected_f": 0.0, "s_me": 0.0}
        with pytest.raises(ValueError, match="non-finite"):
            write_sweep_csv(out, [{**row, "log_zeta": -1.0}, row])
        assert not out.exists()

    def test_bad_range(self, tmp_path):
        config = write_config(tmp_path / "c.json", n=0)
        counts = tmp_path / "counts.json"
        write_payload(counts, {"k": 3, "n": 0, "counts": [0, 0, 0], "seed": 7})
        assert main(["sweep-beta", "--config", str(config), "--counts", str(counts),
                     "--out", str(tmp_path / "s.csv"), "--beta-min", "1",
                     "--beta-max", "0", "--beta-step", "0.5"]) == 4

    @pytest.mark.parametrize("flag, value", [
        ("--beta-min", "-inf"), ("--beta-max", "inf"), ("--beta-step", "inf"),
    ])
    def test_non_finite_range_exit_code(self, tmp_path, capsys, flag, value):
        config = write_config(tmp_path / "c.json", engine={"grid": 30})
        counts = tmp_path / "counts.json"
        write_payload(counts, {"k": 3, "n": 10, "counts": [5, 3, 2], "seed": 7})
        bounds = {"--beta-min": "0", "--beta-max": "1", "--beta-step": "0.5", flag: value}
        argv = ["sweep-beta", "--config", str(config), "--counts", str(counts),
                "--out", str(tmp_path / "s.csv")] + [f"{k}={v}" for k, v in bounds.items()]
        assert main(argv) == 4
        assert capsys.readouterr().err == f"error: {flag} must be finite, got {float(value)!r}\n"
        assert not (tmp_path / "s.csv").exists()
