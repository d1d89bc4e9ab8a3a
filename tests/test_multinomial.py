"""Counts, views, marginalized likelihoods, and the roll simulator."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from maxent_agents import (
    AgentView,
    CountVector,
    ThetaPoint,
    build_grid,
    simulate_rolls,
)
from maxent_agents import multinomial
from maxent_agents.multinomial import log_power, view_log_likelihood_nodes

from oracles import (
    assert_row_sums_close,
    compositions,
    full_column_view_loglik,
    log_columns,
    log_multinomial_pmf,
    nodes_with_zeros,
    power_terms,
    view_loglik_brute,
)

# log of 2520 * 0.5^5 * 0.3^3 * 0.2^2, checked with 50-digit arithmetic
LOG_PMF_532 = -2.4645159601402662834


def view_loglik(view, theta) -> float:
    """The engine's view likelihood at one point."""
    pts = np.array([theta], dtype=float)
    return float(view_log_likelihood_nodes(view, pts, log_columns(pts))[0])


def log_pmf(counts, theta) -> float:
    """The engine's likelihood of a full view, which is the multinomial pmf."""
    return view_loglik(AgentView.full(CountVector.of(counts)), theta)


class TestCountVector:
    def test_basic(self):
        m = CountVector.of([5, 3, 2])
        assert (m.k, m.n) == (3, 10)

    def test_rejects(self):
        with pytest.raises(ValueError):
            CountVector.of([5])
        with pytest.raises(ValueError):
            CountVector.of([1, -1])


class TestAgentView:
    def test_full_and_empty(self):
        m = CountVector.of([5, 3, 2])
        full = AgentView.full(m)
        assert full.visible_sides == (1, 2, 3) and full.visible_total == 10
        empty = AgentView.empty(3, 10)
        assert empty.visible == () and empty.n == 10

    def test_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            AgentView(k=3, n=5, visible=((1, 2), (1, 1)))
        with pytest.raises(ValueError, match=r"\[1, 3\]"):
            AgentView.from_mapping(3, 5, {4: 1})
        with pytest.raises(ValueError, match="> n"):
            AgentView.from_mapping(3, 5, {1: 4, 2: 3})


class TestLogMultinomial:
    def test_uniform_unit_counts(self):
        val = log_pmf([1, 1, 1], [1 / 3] * 3)
        assert val == pytest.approx(math.log(2 / 9), abs=1e-12)

    def test_certain_outcome(self):
        assert log_pmf([5, 0, 0], [1.0, 0.0, 0.0]) == 0.0

    def test_frozen_value(self):
        assert log_pmf([5, 3, 2], [0.5, 0.3, 0.2]) == pytest.approx(LOG_PMF_532, rel=1e-13)

    def test_impossible_is_minus_inf(self):
        assert log_pmf([4, 1, 0], [1.0, 0.0, 0.0]) == float("-inf")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            log_pmf([1, 1], [0.5, 0.3, 0.2])

    def test_normalization_sums_to_one(self):
        theta = [0.5, 0.3, 0.2]
        for n in range(7):
            total = math.fsum(math.exp(log_pmf(c, theta)) for c in compositions(n, 3))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestViewLikelihood:
    def test_single_side_example(self):
        view = AgentView.from_mapping(3, 2, {1: 1})
        val = view_loglik(view, [0.5, 0.3, 0.2])
        assert val == pytest.approx(math.log(0.5), abs=1e-12)

    def test_empty_view_is_certain(self):
        view = AgentView.empty(3, 7)
        assert view_loglik(view, [0.5, 0.3, 0.2]) == 0.0

    def test_full_view_matches_multinomial(self):
        counts, theta = [4, 2, 3], [0.2, 0.5, 0.3]
        assert log_pmf(counts, theta) == pytest.approx(
            log_multinomial_pmf(counts, theta), rel=1e-14
        )

    def test_seven_of_ten_sides_vs_brute_force(self):
        rng = np.random.default_rng(99)
        theta = rng.dirichlet(np.ones(10))
        counts = rng.multinomial(12, theta)
        visible = {s: int(counts[s - 1]) for s in range(1, 8)}
        view = AgentView.from_mapping(10, 12, visible)
        ours = view_loglik(view, theta)
        brute = view_loglik_brute(10, 12, visible, theta)
        assert ours == pytest.approx(brute, rel=1e-12)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_aggregation_identity_random(self, data):
        k = data.draw(st.integers(2, 5))
        n = data.draw(st.integers(0, 8))
        counts = data.draw(
            st.lists(st.integers(0, n), min_size=k, max_size=k).filter(
                lambda c: sum(c) == n
            )
        )
        sides = data.draw(st.sets(st.integers(1, k), max_size=k))
        weights = data.draw(
            st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)
        )
        theta = tuple(w / sum(weights) for w in weights)
        visible = {s: counts[s - 1] for s in sides}
        ours = view_loglik(AgentView.from_mapping(k, n, visible), theta)
        brute = view_loglik_brute(k, n, visible, theta)
        assert ours == pytest.approx(brute, rel=1e-12, abs=1e-12)

    def test_nodes_variant_matches_pointwise(self):
        visible = {2: 3, 4: 1}
        view = AgentView.from_mapping(4, 9, visible)
        pts = np.random.default_rng(5).dirichlet(np.ones(4), size=20)
        vec = view_log_likelihood_nodes(view, pts, log_columns(pts))
        for j, p in enumerate(pts):
            assert vec[j] == pytest.approx(view_loglik_brute(4, 9, visible, p), rel=1e-12)

    def test_count_beyond_int64(self):
        # A count of 2^63 does not fit an int64; its constant is lgamma(n+1)
        # - lgamma(n+1) - lgamma(1) = 0, leaving the power term alone.
        view = AgentView(k=3, n=2**63, visible=((1, 2**63),))
        pts = np.array([[0.5, 0.3, 0.2], [0.25, 0.25, 0.5], [1.0, 0.0, 0.0]])
        got = view_log_likelihood_nodes(view, pts, log_columns(pts))
        np.testing.assert_array_equal(got, 2.0**63 * np.log(pts[:, 0]))


class TestPowerKernel:
    def test_no_informative_column_skips_xlogy(self, monkeypatch):
        # No log is evaluated when every exponent is 0.
        def fail(*args, **kwargs):
            raise AssertionError("log evaluated")

        pts = nodes_with_zeros(3, 6, 20, seed=1)
        log_pts = log_columns(pts)
        monkeypatch.setattr(multinomial.np, "log", fail)
        np.testing.assert_array_equal(log_power(np.zeros(3), log_pts), np.zeros(pts.shape[0]))
        view = AgentView.full(CountVector.of([0, 0, 0]))
        np.testing.assert_array_equal(view_log_likelihood_nodes(view, pts, log_pts),
                                      np.zeros(pts.shape[0]))

    @pytest.mark.parametrize("k", [3, 7, 16])
    def test_kernel_matches_scipy_xlogy(self, k):
        # numpy's log may differ from scipy's xlogy by an ulp on some inputs;
        # the +-inf and nan pattern on zero coordinates must not differ at all.
        rng = np.random.default_rng(100 + k)
        pts = nodes_with_zeros(k, 5 if k > 4 else 12, 300, seed=k)
        for e in (rng.choice([0.0, 1.0, 3.0], size=k), rng.choice([0.0, -0.5, 1.5, 7.0], size=k),
                  np.resize([-0.5, 2.0], k)):
            terms = xlogy(e, pts)
            with np.errstate(invalid="ignore"):
                got = log_power(e, log_columns(pts))
                ref = terms.sum(axis=1)
            assert_row_sums_close(got, ref, terms)
        assert np.isposinf(ref).any() and np.isneginf(ref).any()
        counts = rng.multinomial(12, rng.dirichlet(np.ones(k)))
        counts[0] = 0
        views = [AgentView.full(CountVector.of(counts)),
                 AgentView.from_mapping(k, int(counts.sum()) + 3, {1: 0, 2: int(counts[1])})]
        for view in views:
            got = view_log_likelihood_nodes(view, pts, log_columns(pts))
            ref = full_column_view_loglik(view, pts, terms=xlogy)
            finite = np.isfinite(ref)
            assert not finite.all()
            np.testing.assert_array_equal(got[~finite], ref[~finite])
            np.testing.assert_allclose(got[finite], ref[finite], rtol=1e-14)

    @pytest.mark.parametrize("k, r", [(3, 240), (16, 5)])
    def test_columns_match_row_sums(self, k, r):
        # The kernel adds the kept terms left to right, one log column at a
        # time.  numpy sums a row of fewer than 8 terms left to right too, so
        # there the two agree bit for bit; longer rows numpy may sum
        # pairwise, which moves the result by a few ulps of sum |terms|.
        grid = build_grid(k, r)
        rng = np.random.default_rng(k)
        for kept in range(1, k + 1):
            cols = np.sort(rng.choice(k, kept, replace=False))
            e = np.zeros(k)
            e[cols] = rng.choice([-0.5, 1.0, 3.0, 7.0], size=kept)
            terms = e[cols] * np.log(grid.nodes[:, cols])
            got = log_power(e, grid.log_nodes)
            if kept <= 7:
                np.testing.assert_array_equal(got, terms.sum(axis=1))
            else:
                bound = 4 * np.finfo(float).eps * np.abs(terms).sum(axis=1)
                assert np.all(np.abs(got - terms.sum(axis=1)) <= bound)

    @pytest.mark.parametrize("k, r", [(3, 240), (4, 60), (16, 5)])
    def test_rest_sum_is_left_to_right_column_sum(self, k, r):
        # On a grid, 1 - sum of the visible theta equals, bit for bit, the
        # node columns added left to right, for every number of visible
        # sides; a kernel that sums a (k, N) column table in that order can
        # then replace the row gather without moving any grid output.
        grid = build_grid(k, r)
        rng = np.random.default_rng(k)
        for kept in range(1, k):
            for sides in (np.arange(kept), np.arange(k - kept, k),
                          np.sort(rng.choice(k, kept, replace=False))):
                counts = rng.choice([0, 1, 2, 5], size=kept)
                n = int(counts.sum()) + 4
                view = AgentView.from_mapping(k, n, dict(zip(sides + 1, counts.tolist())))
                e = np.zeros(k)
                e[sides] = counts
                visible_sum = grid.nodes[:, sides[0]].copy()
                for s in sides[1:]:
                    visible_sum += grid.nodes[:, s]
                rest_count = float(n - counts.sum())
                ref = (math.lgamma(n + 1.0) - float(np.sum([math.lgamma(c + 1.0) for c in counts]))
                       - math.lgamma(rest_count + 1.0)) + log_power(e, grid.log_nodes)
                with np.errstate(divide="ignore"):
                    ref += rest_count * np.log(np.maximum(1.0 - visible_sum, 0.0))
                    got = view_log_likelihood_nodes(view, grid.nodes, grid.log_nodes)
                np.testing.assert_array_equal(got, ref)

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError, match="expected 3"):
            log_power(np.ones(3), np.full((2, 4), np.log(0.25)))

    @pytest.mark.parametrize("k", [3, 7, 16])
    def test_view_matches_full_column_xlogy(self, k):
        # Zero counts drop out of the product term; with at most 7 visible
        # sides the row sums are unchanged bit for bit.
        rng = np.random.default_rng(k)
        pts = nodes_with_zeros(k, 5 if k > 4 else 12, 300, seed=k)
        counts = rng.multinomial(12, rng.dirichlet(np.ones(k)))
        counts[rng.random(k) < 0.4] = 0
        n = int(counts.sum()) + 3
        half = {s: int(counts[s - 1]) for s in rng.choice(np.arange(1, k + 1), k // 2,
                                                          replace=False)}
        views = [
            AgentView.empty(k, n),
            AgentView.from_mapping(k, n, half),
            AgentView.from_mapping(k, n, {s: 0 for s in half}),
            AgentView.full(CountVector.of(counts)),
            AgentView.full(CountVector.of([0] * k)),
        ]
        for view in views:
            with np.errstate(divide="ignore"):
                got = view_log_likelihood_nodes(view, pts, log_columns(pts))
                ref = full_column_view_loglik(view, pts)
            if len(view.visible) <= 7:
                np.testing.assert_array_equal(got, ref)
            else:
                mv = np.asarray([c for _, c in view.visible], dtype=float)
                sides = np.asarray(view.visible_sides) - 1
                assert_row_sums_close(got, ref, power_terms(mv, pts[:, sides]))


class TestSimulateRolls:
    def test_degenerate_die(self):
        counts = simulate_rolls(ThetaPoint.of([1.0, 0.0, 0.0]), 10, seed=1)
        assert counts.counts == (10, 0, 0)

    def test_zero_rolls(self):
        assert simulate_rolls(ThetaPoint.of([0.5, 0.5]), 0, seed=1).counts == (0, 0)

    def test_deterministic(self):
        a = simulate_rolls(ThetaPoint.of([0.5, 0.3, 0.2]), 50, seed=42)
        b = simulate_rolls(ThetaPoint.of([0.5, 0.3, 0.2]), 50, seed=42)
        assert a == b
        c = simulate_rolls(ThetaPoint.of([0.5, 0.3, 0.2]), 50, seed=43)
        assert c != a

    def test_law_of_large_numbers(self):
        theta = (0.5, 0.3, 0.2)
        counts = simulate_rolls(ThetaPoint.of(theta), 100_000, seed=42)
        freqs = np.asarray(counts.counts) / counts.n
        assert np.abs(freqs - np.array(theta)).max() <= 0.01

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            simulate_rolls(ThetaPoint.of([0.5, 0.5]), -1, seed=0)
