"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Tolerances are fixed here and nowhere else.
"""
import contextlib
import json
import math

import numpy as np
import pytest

from maxent_agents import (
    AgentView,
    ConstraintSpec,
    CountVector,
    GridEngine,
    PriorSpec,
    belief_divergence,
    complete_network,
    infer_all,
    me_entropy,
    posterior,
    posterior_summary,
    solve_beta,
    triangle_lattice_network,
    views_at_round,
)
from maxent_agents.cli import main
from maxent_agents.engine import _TiltedFamily
from maxent_agents.fileio import write_payload
from maxent_agents.multinomial import view_log_likelihood_nodes
from maxent_agents.network import fit_view

from oracles import (
    log_columns,
    compositions,
    dirichlet_log_rel,
    entropy_functional,
    tilted_flat_posterior,
    view_loglik_brute,
)

FLAT3 = PriorSpec.flat(3)
BIAS = ConstraintSpec.of([1.0, 0.0, -2.0], 0.0)


@contextlib.contextmanager
def report(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL - {description}")
        raise
    print(f"criterion {num:2d}: PASS - {description}")


@pytest.fixture(scope="module")
def eng240():
    return GridEngine(3, 240)


@pytest.fixture(scope="module")
def eng960():
    return GridEngine(3, 960)


def test_criterion_1_bayes_reduction(eng960):
    """Full view, beta = 0: posterior equals closed-form Dirichlet(alpha+m)."""
    with report(1, "Bayes reduction to Dirichlet(alpha+m), rel err <= 1e-8"):
        rng = np.random.default_rng(20250811)
        nodes = eng960.grid.nodes
        for case in range(20):
            alpha = np.ones(3) if case % 2 == 0 else rng.uniform(1.0, 4.0, 3)
            n = int(rng.integers(6, 51))
            # Keep every posterior exponent >= 3: below that the boundary
            # term of the lattice rule exceeds the 1e-8 budget at r = 960.
            while True:
                m = rng.multinomial(n, rng.dirichlet(np.full(3, 2.0)))
                if (alpha + m).min() >= 4.0:
                    break
            prior = PriorSpec.of(alpha)
            view = AgentView.full(CountVector.of(m))
            belief = fit_view(prior, view, ConstraintSpec.none(3), eng960)
            closed = dirichlet_log_rel(alpha + m, nodes)
            rel = np.abs(np.expm1(belief.log_density_at(nodes, log_columns(nodes)) - closed))
            assert rel.max() <= 1e-8, (case, alpha, m, rel.max())


def test_criterion_2_maxent_reduction(eng960):
    """No data: posterior satisfies the constraint and matches the tilted prior."""
    with report(2, "MaxEnt reduction: |<f>| <= 1e-8 and r=960 oracle match <= 1e-6"):
        view = AgentView.empty(3, 0)
        solved = solve_beta(FLAT3, view, BIAS, eng960)
        assert solved.residual <= 1e-8
        belief = posterior_summary(solved, posterior(solved))
        assert abs(belief.solved.expected_f - 0.0) <= 1e-8
        beta_o, nodes_o, log_norm_o = tilted_flat_posterior(960, [1.0, 0.0, -2.0], 0.0)
        oracle = beta_o * (nodes_o @ np.array([1.0, 0.0, -2.0])) - log_norm_o
        rel = np.abs(np.expm1(belief.log_density_at(nodes_o, log_columns(nodes_o)) - oracle))
        assert rel.max() <= 1e-6, rel.max()


def test_criterion_3_simultaneous_constraint_satisfaction(eng240):
    """Random feasible cases: the solve converges and the posterior obeys F."""
    with report(3, "20 random feasible cases: residual |<f> - F| <= 1e-8"):
        rng = np.random.default_rng(3033)
        for case in range(20):
            n = int(rng.integers(5, 51))
            counts = CountVector.of(rng.multinomial(n, rng.dirichlet(np.ones(3))))
            f = rng.uniform(-3.0, 3.0, 3)
            while len(set(np.round(f, 6))) == 1:
                f = rng.uniform(-3.0, 3.0, 3)
            u = rng.uniform(0.2, 0.8)
            F = f.min() + u * (f.max() - f.min())
            spec = ConstraintSpec.of(f, F)
            view = AgentView.full(counts)
            solved = solve_beta(FLAT3, view, spec, eng240)
            assert solved.residual <= 1e-8
            fam = _TiltedFamily(FLAT3, view, spec, eng240)
            recomputed = fam.mean_f(fam.tilt(solved.beta)[0])
            assert abs(recomputed - F) <= 1e-8, (case, f, F)


def test_criterion_4_marginalization_identity():
    """Closed aggregated likelihood equals brute-force hidden-count summation."""
    with report(4, "exhaustive k<=5, n<=8 views vs brute force, rel err <= 1e-12"):
        for k in range(2, 6):
            weights = np.arange(1.0, k + 1.0)
            theta = tuple(weights / weights.sum())
            sides = list(range(1, k + 1))
            subsets = [
                [s for s in sides if mask & (1 << (s - 1))]
                for mask in range(1 << k)
            ]
            for n in range(9):
                for subset in subsets:
                    hidden = [s for s in sides if s not in subset]
                    for m_v in compositions(n, len(subset)) if subset else [()]:
                        if sum(m_v) > n or (not hidden and sum(m_v) < n):
                            continue
                        visible = dict(zip(subset, m_v))
                        pts = np.array([theta])
                        ours = view_log_likelihood_nodes(
                            AgentView.from_mapping(k, n, visible), pts, log_columns(pts)
                        )[0]
                        brute = view_loglik_brute(k, n, visible, theta)
                        tol = 1e-12 * max(1.0, abs(ours), abs(brute))
                        assert abs(ours - brute) <= tol, (k, n, visible)


def test_criterion_5_student_scenario_end_to_end(eng240):
    """Single-side views of 10 rolls match the directly evaluated tilt form."""
    with report(5, "student posterior vs direct tilted form, all m1, <= 1e-8"):
        nodes = eng240.grid.nodes
        for m1 in range(11):
            view = AgentView.from_mapping(3, 10, {1: m1})
            belief = fit_view(FLAT3, view, BIAS, eng240)
            form = (
                belief.solved.beta * (3.0 * nodes[:, 0] + 2.0 * nodes[:, 1] - 2.0)
                + m1 * np.log(nodes[:, 0])
                + (10 - m1) * np.log(1.0 - nodes[:, 0])
            )
            top = form.max()
            direct = form - (top + np.log(np.mean(np.exp(form - top))))
            rel = np.abs(np.expm1(belief.log_density_at(nodes, log_columns(nodes)) - direct))
            assert rel.max() <= 1e-8, (m1, rel.max())


def test_criterion_6_consensus(eng240):
    """Full sharing on the triangle: everyone reaches the same belief."""
    with report(6, "triangle round 1: pairwise divergences <= 1e-8, 10 cases"):
        rng = np.random.default_rng(66)
        net = complete_network(3)
        for _ in range(10):
            counts = CountVector.of(rng.multinomial(10, rng.dirichlet(np.ones(3))))
            entries, errors = infer_all(net, counts, 1, FLAT3, BIAS, eng240)
            assert not errors
            for a in (1, 2, 3):
                for b in range(a + 1, 4):
                    assert belief_divergence(entries, a, b) <= 1e-8


def test_criterion_7_lattice_views_bit_for_bit():
    """Interior lattice agents see 7 counts; results replay bit-for-bit."""
    with report(7, "4x4 lattice: 7 visible counts and bit-identical repro"):
        net = triangle_lattice_network(4, 4)
        k = net.k
        rng = np.random.default_rng(7777)
        counts = CountVector.of(rng.multinomial(20, rng.dirichlet(np.ones(k))))
        f = [0.0] * k
        f[0], f[k - 1] = 1.0, -2.0
        spec = ConstraintSpec.of(f, 0.0)
        prior = PriorSpec.flat(k)
        engine = GridEngine(k, 8)
        views = views_at_round(net, counts, 1)
        interior = [a for a in range(1, k + 1) if len(net.neighbors(a)) == 6]
        assert interior == [6, 7, 10, 11]
        for agent in interior:
            assert len(views[agent].visible) == 7
        entries, errors = infer_all(net, counts, 1, prior, spec, engine)
        assert not errors
        for agent in interior:
            view = views[agent]
            solved = solve_beta(prior, view, spec, engine)
            direct = posterior_summary(solved, posterior(solved))
            belief = entries[agent]
            assert belief.solved.beta == solved.beta
            assert belief.solved.log_zeta == solved.log_zeta
            assert belief.solved.expected_f == solved.expected_f
            assert ((belief.means, belief.variances, belief.normalization, belief.marginals)
                    == (direct.means, direct.variances, direct.normalization, direct.marginals))


def test_criterion_8_entropy_identity(eng240):
    """s_me = log_zeta - beta*F agrees with the direct entropy functional."""
    with report(8, "10 solved cases: entropy vs direct quadrature <= 1e-6, s_me <= 0"):
        rng = np.random.default_rng(88)
        nodes = eng240.grid.nodes
        for _ in range(10):
            alpha = rng.uniform(1.0, 4.0, 3)
            n = int(rng.integers(5, 31))
            counts = CountVector.of(rng.multinomial(n, rng.dirichlet(np.ones(3))))
            f = rng.uniform(-2.0, 2.0, 3)
            while len(set(np.round(f, 6))) == 1:
                f = rng.uniform(-2.0, 2.0, 3)
            F = f.min() + rng.uniform(0.25, 0.75) * (f.max() - f.min())
            prior = PriorSpec.of(alpha)
            view = AgentView.full(counts)
            spec = ConstraintSpec.of(f, F)
            belief = fit_view(prior, view, spec, eng240)
            s_me = me_entropy(belief)
            assert s_me <= 0.0
            direct = entropy_functional(
                belief, tuple(alpha), 3, n, dict(AgentView.full(counts).visible), nodes
            )
            assert abs(s_me - direct) <= 1e-6


def test_criterion_9_monotonicity_and_unique_root(eng240):
    """<f> is strictly increasing in beta; the solve hits its residual."""
    with report(9, "20 cases: strict beta-monotonicity, residual <= 1e-9"):
        rng = np.random.default_rng(99)
        ladder = (-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0)
        for _ in range(20):
            n = int(rng.integers(0, 31))
            counts = CountVector.of(rng.multinomial(n, rng.dirichlet(np.ones(3))))
            visible_sides = rng.choice([0, 1, 2], size=rng.integers(0, 4), replace=False)
            visible = {int(s) + 1: int(counts.counts[s]) for s in visible_sides}
            view = AgentView.from_mapping(3, n, visible)
            f = rng.uniform(-2.0, 2.0, 3)
            while len(set(np.round(f, 6))) == 1:
                f = rng.uniform(-2.0, 2.0, 3)
            fam = _TiltedFamily(FLAT3, view, ConstraintSpec.of(f, 0.0), eng240)
            vals = [fam.mean_f(fam.tilt(b)[0]) for b in ladder]
            assert all(a < b for a, b in zip(vals, vals[1:]))
            F = f.min() + rng.uniform(0.2, 0.8) * (f.max() - f.min())
            solved = solve_beta(FLAT3, view, ConstraintSpec.of(f, F), eng240)
            assert solved.residual <= 1e-9


def test_criterion_10_determinism(tmp_path):
    """simulate + network reruns produce byte-identical output files."""
    with report(10, "fixed seeds give byte-identical simulate/network outputs"):
        config_path = tmp_path / "config.json"
        write_payload(config_path, {
            "k": 3,
            "n": 10,
            "seed": 42,
            "prior": [1.0, 1.0, 1.0],
            "constraint": {"f": [1.0, 0.0, -2.0], "F": 0.0},
            "theta_true": [0.5, 0.3, 0.2],
            "network": {"preset": "complete"},
            "round": 1,
            "engine": {"grid": 240},
        })
        outputs = []
        for tag in ("one", "two"):
            counts_path = tmp_path / f"counts_{tag}.json"
            result_path = tmp_path / f"net_{tag}.json"
            assert main(["simulate", "--config", str(config_path),
                         "--out", str(counts_path)]) == 0
            assert main(["network", "--config", str(config_path),
                         "--counts", str(counts_path),
                         "--out", str(result_path)]) == 0
            outputs.append((counts_path.read_bytes(), result_path.read_bytes()))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
        record = json.loads(outputs[0][1])
        assert all(a["residual"] <= 1e-9 for a in record["agents"])
