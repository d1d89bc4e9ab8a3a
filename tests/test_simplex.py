"""Grid and Monte-Carlo expectation tests."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxent_agents import (
    McEstimate,
    NodeBudgetError,
    ThetaPoint,
    build_grid,
    expect_grid,
    expect_mc,
)
from maxent_agents.simplex import compositions, sample_dirichlet
from oracles import compositions as compositions_oracle

EXP_TH1 = 2 * math.e - 4  # int_0^1 e^t * 2(1-t) dt, the Beta(1,2) marginal of theta_1


class TestThetaPoint:
    def test_valid(self):
        t = ThetaPoint.of([0.5, 0.3, 0.2])
        assert t.k == 3
        assert t.as_array().sum() == pytest.approx(1.0, abs=1e-12)

    def test_boundary_allowed(self):
        ThetaPoint.of([1.0, 0.0, 0.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ThetaPoint.of([1.1, -0.1, 0.0])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            ThetaPoint.of([0.5, 0.3, 0.3])

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            ThetaPoint.of([1.0])


class TestBuildGrid:
    def test_node_counts(self):
        assert build_grid(3, 2).node_count == 6
        assert build_grid(2, 4).node_count == 5
        assert build_grid(3, 240).node_count == 29161

    def test_constant_is_exact(self):
        grid = build_grid(3, 240)
        assert expect_grid(lambda t: 1.0, grid) == 1.0

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
                grid = build_grid(k, r)
                assert abs(math.fsum(grid.weights.tolist()) - 1.0) <= 1e-12
                assert grid.node_count == math.comb(r + k - 1, k - 1)

    def test_budget(self):
        with pytest.raises(NodeBudgetError, match="Monte-Carlo"):
            build_grid(16, 9)
        build_grid(16, 8)  # C(23,15) = 490314 fits the default budget

    def test_deterministic(self):
        a, b = build_grid(3, 17), build_grid(3, 17)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.weights, b.weights)

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
            grid = build_grid(k, r)
            vals = [expect_grid(lambda t, i=i: t[i], grid) for i in range(k)]
            assert all(v == vals[0] for v in vals)

    def test_theta1_mean(self):
        grid = build_grid(3, 240)
        assert expect_grid(lambda t: t[0], grid) == pytest.approx(1 / 3, abs=1e-6)

    def test_exp_theta1_oracle(self):
        grid = build_grid(3, 240)
        assert expect_grid(lambda t: math.exp(t[0]), grid) == pytest.approx(
            EXP_TH1, abs=1e-5
        )

    def test_linearity(self):
        grid = build_grid(3, 25)
        g = lambda t: t[0] ** 2
        h = lambda t: math.exp(t[1])
        combo = expect_grid(lambda t: 2.5 * g(t) - 0.75 * h(t), grid)
        parts = 2.5 * expect_grid(g, grid) - 0.75 * expect_grid(h, grid)
        assert combo == pytest.approx(parts, abs=1e-12)

    def test_convergence_monotone(self):
        # E[theta_1^2 theta_2] = 1/30 under the flat reference for k=3.
        mono_errs, exp_errs = [], []
        for r in (30, 60, 120, 240):
            grid = build_grid(3, r)
            mono_errs.append(abs(expect_grid(lambda t: t[0] ** 2 * t[1], grid) - 1 / 30))
            exp_errs.append(abs(expect_grid(lambda t: math.exp(t[0]), grid) - EXP_TH1))
        assert all(a >= b for a, b in zip(mono_errs, mono_errs[1:]))
        assert all(a >= b for a, b in zip(exp_errs, exp_errs[1:]))

    def test_nonfinite_names_node(self):
        grid = build_grid(3, 4)
        bad = grid.nodes[3].copy()
        with pytest.raises(ValueError, match="node 3"):
            expect_grid(lambda t: math.inf if np.array_equal(t, bad) else 1.0, grid)

    @given(st.integers(2, 5), st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_composition_count_property(self, k, r):
        assert len(compositions(r, k)) == math.comb(r + k - 1, k - 1)


class TestExpectMc:
    def test_constant(self):
        est = expect_mc(lambda t: 1.0, [1.0, 1.0, 1.0], samples=1000, seed=3)
        assert est.value == 1.0
        assert est.std_error == 0.0

    def test_theta1_symmetric(self):
        est = expect_mc(lambda t: t[0], [1.0, 1.0, 1.0], samples=200_000, seed=42)
        assert abs(est.value - 1 / 3) <= 3 * est.std_error

    def test_agrees_with_grid(self):
        grid = build_grid(3, 240)
        grid_val = expect_grid(lambda t: math.exp(t[0]), grid)
        est = expect_mc(lambda t: math.exp(t[0]), [1.0, 1.0, 1.0], samples=200_000, seed=7)
        assert abs(est.value - grid_val) <= 3 * est.std_error

    def test_reproducible(self):
        a = expect_mc(lambda t: t[0] * t[1], [2.0, 1.0, 3.0], samples=5000, seed=11)
        b = expect_mc(lambda t: t[0] * t[1], [2.0, 1.0, 3.0], samples=5000, seed=11)
        assert a == b
        c = expect_mc(lambda t: t[0] * t[1], [2.0, 1.0, 3.0], samples=5000, seed=12)
        assert c.value != a.value

    def test_polynomials_match_grid(self):
        grid = build_grid(3, 240)
        rng = np.random.default_rng(2024)
        for _ in range(10):
            coeffs = rng.uniform(-1.0, 1.0, size=4)
            powers = rng.integers(0, 3, size=(4, 3))

            def poly(t, coeffs=coeffs, powers=powers):
                return float(sum(c * np.prod(t**p) for c, p in zip(coeffs, powers)))

            est = expect_mc(poly, [1.0, 1.0, 1.0], samples=40_000, seed=int(rng.integers(1 << 30)))
            grid_val = expect_grid(poly, grid)
            slack = 4 * max(est.std_error, 1e-12)
            assert abs(est.value - grid_val) <= slack

    def test_nonfinite_names_draw(self):
        with pytest.raises(ValueError, match="draw 0"):
            expect_mc(lambda t: math.nan, [1.0, 1.0], samples=10, seed=0)

    def test_validates_args(self):
        with pytest.raises(ValueError):
            expect_mc(lambda t: 1.0, [1.0, 1.0], samples=1, seed=0)
        with pytest.raises(ValueError):
            expect_mc(lambda t: 1.0, [1.0, 0.0], samples=10, seed=0)
        with pytest.raises(ValueError):
            McEstimate(value=1.0, std_error=-1.0, samples=2, seed=0)

    def test_sampler_stream_separation(self):
        a = sample_dirichlet([1.0, 1.0], 4, seed=5, stream=0)
        b = sample_dirichlet([1.0, 1.0], 4, seed=5, stream=1)
        assert not np.array_equal(a, b)
