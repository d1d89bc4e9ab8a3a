"""Network presets, visibility rounds, per-agent inference, divergences."""
import json
import time

import numpy as np
import pytest

from maxent_agents import cli, network
from maxent_agents import (
    AgentView,
    ConstraintSpec,
    CountVector,
    EngineSettings,
    ExperimentConfig,
    GridEngine,
    InfeasibleConstraintError,
    PriorSpec,
    belief_divergence,
    complete_network,
    infer_all,
    posterior,
    posterior_summary,
    solve_beta,
    triangle_lattice_network,
    views_at_round,
)
from maxent_agents.engine import MARGINAL_ABSCISSA
from maxent_agents.fileio import write_payload
from maxent_agents.network import AgentNetwork, fit_view

from oracles import divergence_reference, visible_sides

FLAT3 = PriorSpec.flat(3)
BIAS = ConstraintSpec.of([1.0, 0.0, -2.0], 0.0)


def summary(belief):
    """The numbers a belief reports beside its fit, for comparing two by value."""
    return (belief.solved.expected_f, belief.means, belief.variances, belief.normalization,
            belief.marginals)


def network_record(tmp_path, counts, *flags, **config):
    """Run the `network` command on a flat-prior k=3 config with the BIAS
    constraint (`config` overrides its fields); return (exit code, record)."""
    base = {"k": 3, "n": sum(counts), "seed": 7, "prior": [1.0] * 3,
            "constraint": {"f": list(BIAS.f), "F": BIAS.F},
            "network": {"preset": "complete"}, "round": 1, "engine": {"grid": 240}}
    write_payload(tmp_path / "c.json", {**base, **config})
    write_payload(tmp_path / "n.json", {"k": len(counts), "n": sum(counts), "counts": counts,
                                         "seed": 7})
    code = cli.main(["network", "--config", str(tmp_path / "c.json"),
                     "--counts", str(tmp_path / "n.json"), "--out", str(tmp_path / "o.json"),
                     *flags])
    return code, json.loads((tmp_path / "o.json").read_text())


@pytest.fixture(scope="module")
def eng240():
    return GridEngine(3, 240)


class TestBuildNetwork:
    def test_complete_triangle(self):
        net = complete_network(3)
        assert net.edges == ((1, 2), (1, 3), (2, 3))
        assert all(len(net.neighbors(a)) == 2 for a in (1, 2, 3))

    def test_lattice_interior_degree_six(self):
        net = triangle_lattice_network(4, 4)
        assert net.k == 16
        interior = [a for a in range(1, 17) if len(net.neighbors(a)) == 6]
        assert interior == [6, 7, 10, 11]

    def test_larger_lattice_interior(self):
        net = triangle_lattice_network(5, 6)
        for i in range(1, 4):
            for j in range(1, 5):
                agent = i * 6 + j + 1
                assert len(net.neighbors(agent)) == 6

    def test_explicit_isolated(self):
        net = AgentNetwork(3, [])
        assert net.edges == ()
        assert all(net.neighbors(a) == () for a in (1, 2, 3))

    def test_preset_dispatch(self):
        def build(k, network):
            return ExperimentConfig(k=k, n=0, seed=0, prior=(1.0,) * k,
                                    network=network).build_network()

        assert build(4, {"preset": "complete"}).k == 4
        assert build(6, {"preset": "triangle-lattice", "rows": 2, "cols": 3}).k == 6
        assert build(3, {"preset": "explicit", "edges": [[3, 1]]}).edges == ((1, 3),)
        with pytest.raises(ValueError, match="preset"):
            build(3, {"preset": "ring"})

    def test_validation(self):
        with pytest.raises(ValueError, match="self-loop"):
            AgentNetwork(3, [(1, 1)])
        with pytest.raises(ValueError, match="out of range"):
            AgentNetwork(3, [(1, 4)])

    def test_edges_normalized(self):
        # Any order, either orientation, repeats: each edge stored once, (low, high).
        net = AgentNetwork(4, [[3, 1], (2, 4), (1, 3), (4, 2), (1, 2)])
        assert net.edges == ((1, 2), (1, 3), (2, 4))
        assert net == AgentNetwork(4, ((1, 2), (1, 3), (2, 4)))
        assert net.neighbors(1) == (2, 3) and net.neighbors(4) == (2,)


class TestViewsAtRound:
    def test_triangle_round0_own_side_only(self):
        net = complete_network(3)
        counts = CountVector.of([7, 2, 1])
        views = views_at_round(net, counts, 0)
        assert views[1] == AgentView.from_mapping(3, 10, {1: 7})
        assert views[2] == AgentView.from_mapping(3, 10, {2: 2})
        assert views[3] == AgentView.from_mapping(3, 10, {3: 1})

    def test_triangle_round1_full_information(self):
        net = complete_network(3)
        counts = CountVector.of([7, 2, 1])
        views = views_at_round(net, counts, 1)
        full = AgentView.full(counts)
        assert all(views[a] == full for a in (1, 2, 3))

    def test_lattice_interior_sees_seven(self):
        net = triangle_lattice_network(4, 4)
        counts = CountVector.of(list(range(1, 17)))
        views = views_at_round(net, counts, 1)
        for agent in (6, 7, 10, 11):
            assert len(views[agent].visible) == 7
            assert agent in views[agent].visible_sides

    def test_monotone_in_round(self):
        net = triangle_lattice_network(3, 3)
        counts = CountVector.of([1] * 9)
        for agent in range(1, 10):
            previous: set[int] = set()
            for r in range(4):
                sides = set(views_at_round(net, counts, r)[agent].visible_sides)
                assert previous <= sides
                previous = sides

    def test_isolated_rounds_equal(self):
        net = AgentNetwork(3, [])
        counts = CountVector.of([7, 2, 1])
        assert views_at_round(net, counts, 0) == views_at_round(net, counts, 5)

    def test_dimension_check(self):
        with pytest.raises(ValueError, match="k="):
            views_at_round(complete_network(3), CountVector.of([1, 1]), 0)

    @pytest.mark.parametrize("net", [
        pytest.param(complete_network(3), id="complete-3"),
        pytest.param(complete_network(5), id="complete-5"),
        pytest.param(triangle_lattice_network(4, 4), id="lattice-4x4"),
        pytest.param(triangle_lattice_network(3, 5), id="lattice-3x5"),
        pytest.param(AgentNetwork(5, [(1, 2), (2, 3), (3, 4), (4, 5)]), id="path-5"),
        pytest.param(AgentNetwork(6, [(1, 2), (2, 3), (3, 4), (4, 1), (4, 5)]), id="isolated-6"),
    ])
    def test_matches_shortest_path_oracle(self, net):
        counts = CountVector.of(list(range(1, net.k + 1)))
        for round in (0, 1, 2, 3, 4, 10**9):
            t0 = time.perf_counter()
            views = views_at_round(net, counts, round)
            # Far past the diameter: the rounds after the last new agent cost nothing.
            assert time.perf_counter() - t0 < 0.25
            for agent in range(1, net.k + 1):
                sides = visible_sides(net.k, net.edges, agent, round)
                assert views[agent] == AgentView.from_mapping(
                    net.k, counts.n, {s: counts.counts[s - 1] for s in sides})


class TestInferAll:
    def test_round1_consensus_identical(self, eng240):
        net = complete_network(3)
        counts = CountVector.of([7, 2, 1])
        entries, errors = infer_all(net, counts, 1, FLAT3, BIAS, eng240)
        assert not errors
        summaries = [summary(entries[a]) for a in (1, 2, 3)]
        assert summaries[0] == summaries[1] == summaries[2]
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                if a < b:
                    assert belief_divergence(entries, a, b) <= 1e-9

    def test_round0_distinct_beliefs(self, eng240):
        net = complete_network(3)
        counts = CountVector.of([7, 2, 1])
        entries, _ = infer_all(net, counts, 0, FLAT3, BIAS, eng240)
        div = belief_divergence(entries, 1, 3)
        assert div > 1e-3

    def test_round0_marginal_mode_near_observed_share(self, eng240):
        # Agent 1 sees 7 of 10 rolls on its side; with no tilt its marginal
        # over theta_1 peaks near the Beta(8, 4) mode of 0.7.
        net = complete_network(3)
        counts = CountVector.of([7, 2, 1])
        entries, _ = infer_all(net, counts, 0, FLAT3, ConstraintSpec.none(3), eng240)
        belief = entries[1]
        mode = MARGINAL_ABSCISSA[int(np.argmax(belief.marginals[0]))]
        assert 0.6 <= mode <= 0.8

    def test_round_at_diameter_matches_full_view(self, eng240):
        net = AgentNetwork(3, [(1, 2), (2, 3)])  # path graph, diameter 2
        counts = CountVector.of([4, 3, 3])
        entries, _ = infer_all(net, counts, 2, FLAT3, BIAS, eng240)
        solved = solve_beta(FLAT3, AgentView.full(counts), BIAS, eng240)
        direct = summary(posterior_summary(solved, posterior(solved)))
        for agent in (1, 2, 3):
            assert summary(entries[agent]) == direct

    def test_per_agent_failure_isolated(self, eng240, tmp_path, monkeypatch):
        class FlakyEngine:
            """Delegates to a grid engine but refuses one particular view."""

            def __init__(self, inner, poison_side):
                self.inner, self.poison = inner, poison_side
                self.k = inner.k

            def basis(self, prior, view):
                if view.visible_sides == (self.poison,):
                    raise RuntimeError("boom")
                return self.inner.basis(prior, view)

            def descriptor(self):
                return self.inner.descriptor()

        net = complete_network(3)
        counts = CountVector.of([7, 2, 1])
        entries, errors = infer_all(net, counts, 0, FLAT3, BIAS, FlakyEngine(eng240, 2))
        assert sorted(entries) == [1, 3]
        assert list(errors) == [2]
        assert str(errors[2]) == "boom"  # as raised; the record names the agent
        with pytest.raises(KeyError):
            belief_divergence(entries, 1, 2)  # a failed agent has no belief to compare
        monkeypatch.setattr(EngineSettings, "build", lambda self, k: FlakyEngine(eng240, 2))
        code, record = network_record(tmp_path, [7, 2, 1], "--round", "0")
        assert code == 0
        assert record["agents"][1] == {"agent": 2, "error": "agent 2: boom"}
        assert [a["agent"] for a in record["agents"]] == [1, 2, 3]
        assert record["divergence_agents"] == [1, 3]

    def test_all_agents_fail_infeasible(self, eng240):
        net = complete_network(3)
        counts = CountVector.of([7, 2, 1])
        bad = ConstraintSpec.of([1.0, 0.0, -2.0], 1.5)
        entries, errors = infer_all(net, counts, 1, FLAT3, bad, eng240)
        assert not entries
        assert all(isinstance(e, InfeasibleConstraintError) for e in errors.values())

    def test_equal_views_bitwise_equal(self, eng240):
        # Two agents assigned the same glancing structure see identical views
        # and must produce identical summaries.
        net = complete_network(3)
        counts = CountVector.of([3, 3, 4])
        entries, _ = infer_all(net, counts, 1, FLAT3, BIAS, eng240)
        assert summary(entries[1]) == summary(entries[2])

    def test_identical_views_fitted_once(self, eng240, monkeypatch):
        calls = []

        def counting_solve(*args, **kwargs):
            calls.append(args[1])
            return solve_beta(*args, **kwargs)

        monkeypatch.setattr(network, "solve_beta", counting_solve)
        counts = CountVector.of([7, 2, 1])
        entries, _ = infer_all(complete_network(3), counts, 1, FLAT3, BIAS, eng240)
        assert calls == [AgentView.full(counts)]
        assert entries[1] is entries[2] is entries[3]

    def test_shared_failure_gives_each_agent_its_own_error(self, eng240, tmp_path):
        # infer_all keeps the one exception the shared view raised; the
        # written record gives each agent holding it its own message.
        counts = CountVector.of([7, 2, 1])
        bad = ConstraintSpec.of([1.0, 0.0, -2.0], 1.5)
        with pytest.raises(InfeasibleConstraintError) as direct:
            solve_beta(FLAT3, AgentView.full(counts), bad, eng240)
        _, by_agent = infer_all(complete_network(3), counts, 1, FLAT3, bad, eng240)
        errors = [by_agent[a] for a in (1, 2, 3)]
        assert errors[0] is errors[1] is errors[2]
        assert isinstance(errors[0], InfeasibleConstraintError)
        assert str(errors[0]) == str(direct.value)
        code, record = network_record(tmp_path, [7, 2, 1], constraint={"f": list(bad.f),
                                                                        "F": bad.F})
        assert code == 2
        assert record["agents"] == [{"agent": a, "error": f"agent {a}: {direct.value}"}
                                    for a in (1, 2, 3)]
        assert record["divergence_agents"] == [] and record["divergences"] == []


def assert_divergences_match_oracle(entries):
    """Every off-diagonal divergence equals the from-scratch oracle to 1e-12
    relative; an entry at roundoff (beliefs that coincide) is held to 1e-14
    of the oracle's error scale instead."""
    agents = sorted(entries)
    for a in agents:
        for b in agents:
            if a != b:
                ref, scale = divergence_reference(entries[a], entries[b])
                assert belief_divergence(entries, a, b) == pytest.approx(
                    ref, rel=1e-12, abs=1e-14 * scale)


class TestBeliefDivergence:
    @pytest.mark.parametrize("round", [0, 1])
    def test_triangle_lattice_matches_oracle(self, round):
        # At round 1 every agent of the 2x2 patch misses at most one side,
        # which n fixes, so the beliefs coincide and the entries are roundoff.
        prior = PriorSpec.of([1.0, 2.0, 0.5, 1.0])
        constraint = ConstraintSpec.of([1.0, 0.0, 0.5, -2.0], 0.0)
        entries, _ = infer_all(triangle_lattice_network(2, 2), CountVector.of([5, 3, 2, 2]),
                               round, prior, constraint, GridEngine(4, 12))
        assert sorted(entries) == [1, 2, 3, 4]
        assert_divergences_match_oracle(entries)

    def test_complete_round0_matches_oracle(self):
        entries, _ = infer_all(complete_network(3), CountVector.of([7, 2, 1]), 0, FLAT3, BIAS,
                               GridEngine(3, 60))
        assert min(belief_divergence(entries, 1, b) for b in (2, 3)) > 1.0
        assert_divergences_match_oracle(entries)

    def test_different_constraints_match_oracle(self, monkeypatch):
        # One view, two constraint f: each density needs its own f, so taking
        # f from the other belief's family would be wrong here.
        engine, view = GridEngine(3, 60), AgentView.from_mapping(3, 10, {1: 7})
        entries = {1: fit_view(FLAT3, view, BIAS, engine),
                   2: fit_view(FLAT3, view, ConstraintSpec.of([0.0, 1.0, -1.0], 0.25), engine)}
        assert_divergences_match_oracle(entries)
        assert belief_divergence(entries, 1, 2) > 1.0
        calls = []
        f_values = ConstraintSpec.f_values
        monkeypatch.setattr(ConstraintSpec, "f_values",
                            lambda spec, nodes: calls.append(spec) or f_values(spec, nodes))
        belief_divergence(entries, 1, 2)
        assert len(calls) == 2  # q's f on p's nodes, once per side

    def test_shared_constraint_takes_f_from_family(self, eng240, monkeypatch):
        entries, _ = infer_all(complete_network(3), CountVector.of([7, 2, 1]), 0, FLAT3, BIAS,
                               eng240)
        expected = belief_divergence(entries, 1, 3)

        def refuse(spec, nodes):
            raise AssertionError("f recomputed for a shared constraint")

        monkeypatch.setattr(ConstraintSpec, "f_values", refuse)
        assert belief_divergence(entries, 1, 3) == expected

    def test_identical_views_zero(self, eng240):
        net = complete_network(3)
        entries, _ = infer_all(net, CountVector.of([5, 3, 2]), 1, FLAT3, BIAS, eng240)
        assert belief_divergence(entries, 1, 2) <= 1e-10

    def test_shared_model_exactly_zero(self, eng240):
        entries, _ = infer_all(complete_network(3), CountVector.of([5, 3, 2]), 1, FLAT3, BIAS,
                               eng240)
        assert entries[1] is entries[3]
        assert belief_divergence(entries, 1, 3) == 0.0

    def test_nonnegative_and_symmetric(self, eng240):
        net = complete_network(3)
        entries, _ = infer_all(net, CountVector.of([7, 2, 1]), 0, FLAT3, BIAS, eng240)
        for a, b in [(1, 2), (1, 3), (2, 3)]:
            d1, d2 = belief_divergence(entries, a, b), belief_divergence(entries, b, a)
            assert d1 >= 0.0
            assert d1 == d2  # the two one-sided terms, added in either order

    @pytest.mark.parametrize("counts, config", [
        ([5, 3, 2, 2], {"k": 4, "prior": [1.0, 2.0, 0.5, 1.0],
                        "constraint": {"f": [1.0, 0.0, 0.5, -2.0], "F": 0.0},
                        "network": {"preset": "triangle-lattice", "rows": 2, "cols": 2},
                        "round": 1, "engine": {"grid": 12}}),
        ([7, 2, 1], {"round": 0, "engine": {"grid": 60}}),
    ])
    def test_written_matrix_exactly_symmetric(self, tmp_path, counts, config):
        code, record = network_record(tmp_path, counts, **config)
        assert code == 0
        d = np.array(record["divergences"])
        assert d.shape == (config.get("k", 3),) * 2
        np.testing.assert_array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        # Off the diagonal: real divergences at round 0; at round 1 the 2x2
        # beliefs coincide to roundoff, and agents 2 and 3 share one fit (0.0).
        assert d.any()

    def test_missing_agent(self, eng240):
        net = complete_network(3)
        entries, _ = infer_all(net, CountVector.of([5, 3, 2]), 1, FLAT3, BIAS, eng240)
        with pytest.raises(KeyError):
            belief_divergence(entries, 1, 9)
