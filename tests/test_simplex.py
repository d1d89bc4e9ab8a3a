"""Grid nodes, checked through the expectations they give, and the seeded generator."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxent_agents import (
    AgentView,
    GridEngine,
    NodeBudgetError,
    PriorSpec,
    build_grid,
)
from maxent_agents import simplex as simplex_module
from maxent_agents.multinomial import simulate_rolls, theta_point
from maxent_agents.simplex import NODE_BUDGET, compositions
from oracles import compositions as compositions_oracle

EXP_TH1 = 2 * math.e - 4  # int_0^1 e^t * 2(1-t) dt, the Beta(1,2) marginal of theta_1


def grid_mean(vals: np.ndarray) -> float:
    """Equal-weight expectation over grid nodes, summed in ascending order so
    it is bit-stable and exactly symmetric under coordinate permutations."""
    return float(np.sum(np.sort(vals)) / vals.size)


def mc_mean(vals: np.ndarray) -> tuple[float, float]:
    """Plain Monte-Carlo mean of i.i.d. draws and its standard error."""
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(vals.size))


class TestThetaPoint:
    # theta_point, the simulator's check of theta_true, refuses what is not on the simplex.
    def test_valid(self):
        t = theta_point([0.5, 0.3, 0.2])
        assert t.dtype == float and t.tolist() == [0.5, 0.3, 0.2]
        assert t.sum() == pytest.approx(1.0, abs=1e-12)

    def test_boundary_allowed(self):
        theta_point([1.0, 0.0, 0.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            theta_point([1.1, -0.1, 0.0])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="must sum to 1"):
            theta_point([0.5, 0.3, 0.3])

    def test_rejects_scalar(self):
        with pytest.raises(ValueError, match="at least 2 components"):
            theta_point([1.0])


class TestBuildGrid:
    def test_node_counts(self):
        assert build_grid(3, 2).nodes.shape == (6, 3)
        assert build_grid(2, 4).nodes.shape == (5, 2)
        assert build_grid(3, 240).nodes.shape == (29161, 3)

    def test_constant_is_exact(self):
        nodes = build_grid(3, 240).nodes
        assert grid_mean(np.ones(nodes.shape[0])) == 1.0

    def test_nodes_interior_and_on_simplex(self):
        for k, r in [(2, 7), (3, 11), (4, 5), (6, 3)]:
            grid = build_grid(k, r)
            assert grid.nodes.min() > 0.0
            assert np.abs(grid.nodes.sum(axis=1) - 1.0).max() <= 1e-12

    def test_weights_normalized(self):
        for k in range(2, 7):
            for r in (1, 2, 5, 10, 30, 60):
                if math.comb(r + k - 1, k - 1) > 100_000:
                    continue
                basis = GridEngine(k, r).basis(PriorSpec.flat(k), AgentView.empty(k, 0))
                assert abs(math.fsum(np.exp(basis.log_weights).tolist()) - 1.0) <= 1e-12
                assert basis.nodes.shape[0] == math.comb(r + k - 1, k - 1)

    def test_budget(self):
        with pytest.raises(NodeBudgetError, match="engine.grid or --grid"):
            build_grid(16, 9)
        build_grid(16, 8)  # C(23,15) = 490314 fits the default budget

    def test_coordinate_budget(self, monkeypatch):
        # k = 1000 at r = 2 has 500,500 nodes, inside NODE_BUDGET, but 500.5 M
        # coordinates, 4 GB per float64 table: refused before the table is built.
        def no_table(*args):
            raise AssertionError("the composition table was built")

        monkeypatch.setattr(simplex_module, "compositions", no_table)
        with pytest.raises(NodeBudgetError, match=r"500500 nodes x 1000 = 500500000 coordinates"):
            build_grid(1000, 2)
        with pytest.raises(NodeBudgetError, match=r"\(budget 16000000\)"):
            build_grid(NODE_BUDGET, 1)  # NODE_BUDGET nodes of NODE_BUDGET coordinates

    def test_deterministic(self):
        a, b = build_grid(3, 17), build_grid(3, 17)
        assert np.array_equal(a.nodes, b.nodes)

    def test_built_once_and_read_only(self):
        grid = build_grid(3, 17)
        assert build_grid(3, 17) is grid
        assert GridEngine(3, 17).grid is grid
        assert grid.levels is grid.levels
        for table in (grid.nodes, grid.levels[0].reshape(3, -1)):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0
            with pytest.raises(ValueError, match="read-only"):
                table += 1

    @pytest.mark.parametrize("k, r", [(2, 960), (3, 240), (16, 5)])
    def test_side_levels(self, k, r):
        # Each side's levels are its column's distinct values in increasing
        # order; the flattened order lists every side's column sorted, each
        # side's ties in node order, and a level's cell is its side's block
        # plus np.histogram's bin of the value.
        grid = build_grid(k, r)
        n = grid.nodes.shape[0]
        order, starts, value, side, cell = grid.levels
        order = order.reshape(k, n)
        for i in range(k):
            column = grid.nodes[:, i]
            np.testing.assert_array_equal(order[i], np.argsort(column, kind="stable"))
            mine = side == i
            np.testing.assert_array_equal(value[mine], np.unique(column))
            runs = np.append(starts[mine], (i + 1) * n) - i * n
            np.testing.assert_array_equal(np.repeat(value[mine], np.diff(runs)), column[order[i]])
            hist = [np.histogram([v], bins=100, range=(0.0, 1.0))[0].argmax() for v in value[mine]]
            np.testing.assert_array_equal(cell[mine], 100 * i + np.array(hist))
        for arr in grid.levels:
            assert not arr.flags.writeable

    @pytest.mark.parametrize("k, r", [(2, 960), (3, 240), (16, 5)])
    def test_log_tables(self, k, r):
        # The log columns and log-weights every fit reads are built once with
        # the grid: np.log(nodes.T) bit for bit, C-contiguous, read-only.
        grid = build_grid(k, r)
        n = grid.nodes.shape[0]
        assert grid.log_nodes.shape == (k, n)
        assert grid.log_nodes.flags.c_contiguous
        np.testing.assert_array_equal(grid.log_nodes, np.log(grid.nodes.T))
        np.testing.assert_array_equal(grid.log_weights, np.full(n, -np.log(n)))
        assert GridEngine(k, r).basis(PriorSpec.flat(k), AgentView.empty(k, 0)) is grid
        for table in (grid.log_nodes, grid.log_weights):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table += 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            build_grid(1, 5)
        with pytest.raises(ValueError):
            build_grid(3, 0)


class TestCompositions:
    @pytest.mark.parametrize("total, parts", [
        (0, 1), (7, 1), (0, 2), (0, 5), (1, 2), (5, 2), (4, 3), (30, 3), (6, 4), (3, 7),
    ])
    def test_compositions_match_oracle_row_for_row(self, total, parts):
        rows = compositions(total, parts)
        assert rows.dtype == np.int64
        assert rows.shape == (math.comb(total + parts - 1, parts - 1), parts)
        assert [tuple(int(v) for v in row) for row in rows] == compositions_oracle(total, parts)

    def test_compositions_reject_no_parts(self):
        with pytest.raises(ValueError, match="parts"):
            compositions(3, 0)


class TestExpectGrid:
    def test_symmetry_exact(self):
        for k, r in [(3, 30), (4, 12)]:
            nodes = build_grid(k, r).nodes
            vals = [grid_mean(nodes[:, i]) for i in range(k)]
            assert all(v == vals[0] for v in vals)

    def test_theta1_mean(self):
        nodes = build_grid(3, 240).nodes
        assert grid_mean(nodes[:, 0]) == pytest.approx(1 / 3, abs=1e-6)

    def test_exp_theta1_oracle(self):
        nodes = build_grid(3, 240).nodes
        assert grid_mean(np.exp(nodes[:, 0])) == pytest.approx(EXP_TH1, abs=1e-5)

    def test_linearity(self):
        nodes = build_grid(3, 25).nodes
        g = nodes[:, 0] ** 2
        h = np.exp(nodes[:, 1])
        combo = grid_mean(2.5 * g - 0.75 * h)
        parts = 2.5 * grid_mean(g) - 0.75 * grid_mean(h)
        assert combo == pytest.approx(parts, abs=1e-12)

    def test_convergence_monotone(self):
        # E[theta_1^2 theta_2] = 1/30 under the flat reference for k=3.
        mono_errs, exp_errs = [], []
        for r in (30, 60, 120, 240):
            t = build_grid(3, r).nodes
            mono_errs.append(abs(grid_mean(t[:, 0] ** 2 * t[:, 1]) - 1 / 30))
            exp_errs.append(abs(grid_mean(np.exp(t[:, 0])) - EXP_TH1))
        assert all(a >= b for a, b in zip(mono_errs, mono_errs[1:]))
        assert all(a >= b for a, b in zip(exp_errs, exp_errs[1:]))

    @given(st.integers(2, 5), st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_composition_count_property(self, k, r):
        assert len(compositions(r, k)) == math.comb(r + k - 1, k - 1)


class TestExpectMc:
    """Plain Monte-Carlo means of numpy's Dirichlet draws, an independent
    reference for the grid's expectations."""

    def test_agrees_with_grid(self):
        grid_val = grid_mean(np.exp(build_grid(3, 240).nodes[:, 0]))
        draws = np.random.default_rng(7).dirichlet([1.0, 1.0, 1.0], 200_000)
        value, std_error = mc_mean(np.exp(draws[:, 0]))
        assert abs(value - grid_val) <= 3 * std_error

    def test_polynomials_match_grid(self):
        nodes = build_grid(3, 240).nodes
        rng = np.random.default_rng(2024)
        for _ in range(10):
            coeffs = rng.uniform(-1.0, 1.0, size=4)
            powers = rng.integers(0, 3, size=(4, 3))

            def poly(t, coeffs=coeffs, powers=powers):
                return sum(c * np.prod(t**p, axis=1) for c, p in zip(coeffs, powers))

            seed = int(rng.integers(1 << 30))
            draws = np.random.default_rng(seed).dirichlet([1.0, 1.0, 1.0], 40_000)
            value, std_error = mc_mean(poly(draws))
            grid_val = grid_mean(poly(nodes))
            slack = 4 * max(std_error, 1e-12)
            assert abs(value - grid_val) <= slack

    def test_sampler_is_pinned(self):
        # Simulated rolls come from the one fixed Philox stream per seed.
        theta = [0.2, 0.5, 0.3]
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5, spawn_key=(0,))))
        expected = tuple(int(c) for c in rng.multinomial(1000, theta))
        assert simulate_rolls(theta, 1000, seed=5).counts == expected
