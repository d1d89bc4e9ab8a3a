"""Solver, posterior, summary, and entropy tests."""
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from maxent_agents import (
    AgentView,
    ConstraintSpec,
    CountVector,
    EngineSettings,
    GridEngine,
    InfeasibleConstraintError,
    PriorSpec,
    SolvedConstraint,
    me_entropy,
    posterior,
    posterior_summary,
    solve_beta,
)
from maxent_agents import simplex as simplex_module
from maxent_agents.engine import (BETA_CAP, MARGINAL_BINS, SOLVER_TOL, EngineRangeError,
                                  _TiltedFamily, grid_levels)
from maxent_agents.network import fit_view
from maxent_agents.simplex import NodeSet

from oracles import (
    log_columns,
    assert_row_sums_close,
    dirichlet_log_rel,
    entropy_functional,
    level_log_mass,
    nodes_with_zeros,
    power_product_full,
    power_terms,
    solve_beta_nodes,
    tilted_flat_posterior,
)

FLAT3 = PriorSpec.flat(3)
BIAS = ConstraintSpec.of([1.0, 0.0, -2.0], 0.0)

# Fitted multiplier for the no-data, F=0 case, from an independent r=960
# lattice bisection (tests/oracles.py) run before the build.
BETA_STAR_960 = 0.97052485835811242
# log normalizer at beta=0.5 for full counts (5,3,2), same oracle at r=960.
LOG_ZETA_HALF_960 = -4.1775656338506488


def log_zeta(prior, view, spec, beta, engine):
    return _TiltedFamily(prior, view, spec, engine).tilt(beta)[1]


def expected_f(prior, view, spec, beta, engine):
    fam = _TiltedFamily(prior, view, spec, engine)
    return fam.mean_f(fam.tilt(beta)[0])


def bayes_posterior(prior, view, engine):
    """The belief without a moment constraint (beta = 0)."""
    return fit_view(prior, view, ConstraintSpec.none(view.k), engine)


@pytest.fixture(scope="module")
def eng240():
    return GridEngine(3, 240)


@pytest.fixture(scope="module")
def eng960():
    return GridEngine(3, 960)


class TestSpecs:
    def test_prior_validation(self):
        with pytest.raises(ValueError):
            PriorSpec.of([1.0, 0.0, 1.0])
        assert PriorSpec.flat(3).dirichlet_params == (1.0, 1.0, 1.0)

    def test_constraint_interval(self):
        assert BIAS.attainable_interval() == (-2.0, 1.0)
        assert not BIAS.is_constant
        assert ConstraintSpec.none(3).is_constant

    def test_solved_constraint_rejects_large_residual(self):
        fam = _TiltedFamily(FLAT3, AgentView.empty(3, 0), BIAS, GridEngine(3, 10))
        with pytest.raises(ValueError, match="residual"):
            SolvedConstraint(beta=0.0, log_zeta=0.0, expected_f=1e-3, family=fam,
                             weights=fam.tilt(0.0)[0])
        with pytest.raises(TypeError, match="family"):
            SolvedConstraint(beta=0.0, log_zeta=0.0, expected_f=0.0)


class TestPriorDensity:
    @pytest.mark.parametrize("k", [2, 3, 4, 7, 8, 16])
    def test_matches_full_column_xlogy(self, k):
        # Skipping alpha = 1 sides drops exact 0.0 terms; numpy sums rows of
        # fewer than 8 columns left to right, so only k >= 8 may move an ulp.
        rng = np.random.default_rng(k)
        pts = nodes_with_zeros(k, 5 if k > 4 else 12, 300, seed=k)
        mixed = np.resize([1.0, 0.5, 2.5], k)
        for alpha in (np.ones(k), mixed, rng.choice([1.0, 0.5, 2.5], size=k)):
            prior = PriorSpec.of(alpha)
            const = math.lgamma(alpha.sum()) - sum(map(math.lgamma, alpha)) - math.lgamma(k)
            # Rows with a zero under alpha < 1 and another under alpha > 1
            # are inf - inf = nan in both forms.
            with np.errstate(invalid="ignore"):
                ref = const + power_product_full(alpha - 1.0, pts)
                got = prior.log_rel_density(log_columns(pts))
            if k <= 7 or np.all(alpha == 1.0):
                np.testing.assert_array_equal(got, ref)
            else:
                assert_row_sums_close(got, ref, power_terms(alpha - 1.0, pts))


class TestFlatPrior:
    """A flat prior's term is its constant, a float, so adding it costs no
    pass over the nodes; it must act exactly as the (N,) array it stands for."""

    @pytest.mark.parametrize("k", [2, 3, 16])
    def test_constant_equals_array_form(self, k):
        pts = nodes_with_zeros(k, 5 if k > 4 else 12, 300, seed=k)
        got = PriorSpec.flat(k).log_rel_density(log_columns(pts))
        assert isinstance(got, float)
        const = math.lgamma(k) - k * math.lgamma(1.0) - math.lgamma(k)
        array_form = const + power_product_full(np.zeros(k), pts)
        np.testing.assert_array_equal(np.broadcast_to(got, array_form.shape), array_form)
        # Added to node data (signed zeros included) it gives the same bits.
        a = np.concatenate([np.zeros(3), -np.zeros(3), pts[:, 0] - 0.5])
        assert (a + got).tobytes() == (a + (const + np.zeros(a.size))).tobytes()


class TestLogZeta:
    def test_no_information_is_zero(self, eng240):
        view = AgentView.empty(3, 0)
        assert log_zeta(FLAT3, view, BIAS, 0.0, eng240) == 0.0

    def test_full_view_flat_evidence(self, eng240):
        # Flat-prior evidence is uniform over the 66 compositions of 10 into 3.
        view = AgentView.full(CountVector.of([5, 3, 2]))
        val = log_zeta(FLAT3, view, BIAS, 0.0, eng240)
        assert val == pytest.approx(math.log(1 / 66), abs=1e-7)

    def test_tilted_value_matches_frozen_oracle(self, eng240):
        view = AgentView.full(CountVector.of([5, 3, 2]))
        val = log_zeta(FLAT3, view, BIAS, 0.5, eng240)
        assert val == pytest.approx(LOG_ZETA_HALF_960, abs=1e-6)

    def test_dimension_mismatch(self, eng240):
        with pytest.raises(ValueError, match="dimension"):
            log_zeta(PriorSpec.flat(4), AgentView.empty(3, 0), BIAS, 0.0, eng240)


class TestExpectedF:
    def test_prior_mean(self, eng240):
        view = AgentView.empty(3, 0)
        assert expected_f(FLAT3, view, BIAS, 0.0, eng240) == pytest.approx(
            -1 / 3, abs=1e-12
        )

    def test_balanced_counts_near_zero(self, eng240):
        # Dirichlet(4,5,2) has <theta_1> = 4/11 and <theta_3> = 2/11, so the
        # analytic <f> vanishes; the grid value carries only boundary-term
        # quadrature bias.
        view = AgentView.full(CountVector.of([3, 4, 1]))
        val = expected_f(FLAT3, view, BIAS, 0.0, eng240)
        assert abs(val) <= 1e-4

    def test_tilt_increases_mean(self, eng240):
        view = AgentView.full(CountVector.of([3, 4, 1]))
        v0 = expected_f(FLAT3, view, BIAS, 0.0, eng240)
        v1 = expected_f(FLAT3, view, BIAS, 1.0, eng240)
        assert v1 > v0
        assert 0.0 < v1 < 1.0

    def test_strictly_increasing_ladder(self, eng240):
        rng = np.random.default_rng(7)
        for _ in range(6):
            counts = CountVector.of(rng.multinomial(12, rng.dirichlet(np.ones(3))))
            view = AgentView.full(counts)
            vals = [
                expected_f(FLAT3, view, BIAS, b, eng240)
                for b in (-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0)
            ]
            assert all(a < b for a, b in zip(vals, vals[1:]))


class TestSolveBeta:
    def test_already_satisfied_returns_zero(self, eng240):
        solved = solve_beta(FLAT3, AgentView.empty(3, 0),
                            ConstraintSpec.of([1, 0, -2], -1 / 3), eng240)
        assert solved.beta == 0.0
        assert solved.residual <= 1e-9

    def test_balanced_counts_solve_near_zero(self, eng240, eng960):
        # Analytically beta = 0; the engine's root absorbs the quadrature
        # bias of <f>(0), which shrinks with resolution.
        view = AgentView.full(CountVector.of([3, 4, 1]))
        b240 = solve_beta(FLAT3, view, BIAS, eng240)
        assert abs(b240.beta) <= 1e-3
        assert b240.residual <= 1e-9
        b960 = solve_beta(FLAT3, view, BIAS, eng960)
        assert abs(b960.beta) < abs(b240.beta)

    def test_no_data_tilt_matches_frozen_oracle(self, eng960):
        solved = solve_beta(FLAT3, AgentView.empty(3, 0), BIAS, eng960)
        assert solved.beta > 0.0
        assert solved.beta == pytest.approx(BETA_STAR_960, abs=1e-7)
        assert solved.residual <= 1e-9

    def test_infeasible_reports_interval(self, eng240):
        view = AgentView.empty(3, 0)
        with pytest.raises(InfeasibleConstraintError, match=r"\(-2\.0, 1\.0\)"):
            solve_beta(FLAT3, view, ConstraintSpec.of([1, 0, -2], 1.5), eng240)
        with pytest.raises(InfeasibleConstraintError):
            solve_beta(FLAT3, view, ConstraintSpec.of([1, 0, -2], -2.0), eng240)
        with pytest.raises(InfeasibleConstraintError):
            solve_beta(FLAT3, view, ConstraintSpec.of([0.5, 0.5, 0.5], 0.4), eng240)

    def test_constant_f_at_its_value(self, eng240):
        solved = solve_beta(FLAT3, AgentView.empty(3, 0),
                            ConstraintSpec.of([0.5, 0.5, 0.5], 0.5), eng240)
        assert solved.beta == 0.0

    def test_trivial_constraint(self, eng240):
        solved = solve_beta(FLAT3, AgentView.empty(3, 5), ConstraintSpec.none(3), eng240)
        assert solved.beta == 0.0 and solved.residual == 0.0

    def test_target_outside_engine_range(self, monkeypatch):
        # Feasible in exact arithmetic, but the r=30 nodes only reach
        # <f> < 0.9367; the solve says so before taking any step.
        calls = []
        level_moments = _TiltedFamily.level_moments

        def counting(self, beta):
            calls.append(beta)
            return level_moments(self, beta)

        monkeypatch.setattr(_TiltedFamily, "level_moments", counting)
        view = AgentView.full(CountVector.of([5, 3, 2]))
        target = ConstraintSpec.of([1, 0, -2], 0.999999999999)
        with pytest.raises(EngineRangeError,
                           match=r"0\.9366\d*\).*GridEngine\(k=3, resolution=30\).*finer grid"):
            solve_beta(FLAT3, view, target, GridEngine(3, 30))
        assert calls == [0.0]


class TestNewtonSolve:
    def test_matches_brentq_on_view_ladder(self, eng240):
        # n = 10 views with every visible-side pattern, and targets across the
        # range of f over the nodes, 1e-3 from each end included.
        f_nodes = eng240.grid.nodes @ np.asarray(BIAS.f)
        lo, hi = f_nodes.min(), f_nodes.max()
        rng = np.random.default_rng(2024)
        for _ in range(2):
            counts = CountVector.of(rng.multinomial(10, rng.dirichlet(np.ones(3))))
            for r in range(4):
                for sides in itertools.combinations((1, 2, 3), r):
                    view = AgentView.from_mapping(3, 10, {s: counts.counts[s - 1] for s in sides})
                    for F in (lo + 1e-3, lo + 0.1, -1.0, 0.0, hi - 0.1, hi - 1e-3):
                        solved = solve_beta(FLAT3, view, ConstraintSpec.of(BIAS.f, F), eng240)
                        fam = solved.family
                        ref = brentq(lambda b: fam.mean_f(fam.tilt(b)[0]) - F,
                                     -BETA_CAP, BETA_CAP, xtol=1e-13, rtol=1e-15)
                        # The stop rule pins <f> to tol, which pins beta to tol / Var f.
                        _, var = fam.level_moments(ref)
                        assert abs(solved.beta - ref) <= 1e-10 + SOLVER_TOL / var
                        assert solved.iterations <= 12

    def test_solve_then_posterior_builds_one_family(self, eng240, monkeypatch):
        calls = []
        basis = GridEngine.basis

        def counting_basis(self, prior, view):
            calls.append(view)
            return basis(self, prior, view)

        monkeypatch.setattr(GridEngine, "basis", counting_basis)
        view = AgentView.full(CountVector.of([5, 3, 2]))
        solved = solve_beta(FLAT3, view, BIAS, eng240)
        belief = posterior_summary(solved, posterior(solved))
        assert calls == [view]
        assert belief.solved.expected_f == pytest.approx(0.0, abs=1e-9)


class TestLevelSolve:
    """The Newton loop runs on f's levels; its beta and log zeta must equal a
    loop over every node, and every level's folded mass must be exact."""

    def assert_matches_node_loop(self, solved):
        fam = solved.family
        beta, log_zeta, iters = solve_beta_nodes(fam.a, fam.f, fam.spec.F)
        # Near beta = 0 a roundoff in <f> moves beta by about 1e-16 / Var f.
        assert solved.beta == pytest.approx(beta, rel=1e-12, abs=1e-12)
        assert solved.log_zeta == pytest.approx(log_zeta, rel=1e-12, abs=1e-12)
        assert solved.iterations == iters
        assert solved.residual <= SOLVER_TOL

    @pytest.mark.parametrize("counts, F, beta_sign", [
        pytest.param([2000, 0, 0], -1.0, -1, id="2000-0-0"),
        pytest.param([0, 0, 500], 0.5, 1, id="0-0-500"),
    ])
    def test_extreme_views(self, eng240, counts, F, beta_sign):
        # beta is in the thousands: most levels hold mass below 1e-290 of the
        # peak, and a fold against one global peak loses them (<f> comes out
        # 0.072 instead of -1 on the first case).
        view = AgentView.full(CountVector.of(counts))
        solved = solve_beta(FLAT3, view, ConstraintSpec.of(BIAS.f, F), eng240)
        assert beta_sign * solved.beta > 1000.0
        self.assert_matches_node_loop(solved)
        fam = solved.family
        values, masses = level_log_mass(fam.a, fam.f)
        np.testing.assert_array_equal(fam.levels, values)
        np.testing.assert_allclose(fam.level_a, masses, rtol=1e-13)

    @pytest.mark.parametrize("engine", [GridEngine(3, 240)], ids=["grid"])
    def test_view_ladder(self, engine):
        counts = CountVector.of([5, 3, 2])
        specs = [ConstraintSpec.of(BIAS.f, F) for F in (-1.0, -0.5, 0.0, 0.5)]
        specs += [ConstraintSpec.of([0.5, 0.5, 0.5], 0.5), ConstraintSpec.none(3)]
        for r in range(4):
            for sides in itertools.combinations((1, 2, 3), r):
                view = AgentView.from_mapping(3, 10, {s: counts.counts[s - 1] for s in sides})
                for spec in specs:
                    solved = solve_beta(FLAT3, view, spec, engine)
                    self.assert_matches_node_loop(solved)
                    if spec.is_constant:
                        assert solved.beta == 0.0

    def test_grouping_computed_once_per_grid_and_f(self):
        f = (1.0, 0.25, -2.0)  # an f no other test uses, so its first fit misses
        engine = GridEngine(3, 60)
        before = grid_levels.cache_info()
        fams = [solve_beta(FLAT3, AgentView.full(CountVector.of(m)),
                           ConstraintSpec.of(f, 0.0), engine).family
                for m in ([5, 3, 2], [1, 8, 1], [0, 0, 10])]
        after = grid_levels.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 2)
        assert all(fam.levels is fams[0].levels and fam.f is fams[0].f for fam in fams)
        assert fams[0].levels.size < fams[0].f.size


class TestPosterior:
    def test_bayes_reduction_closed_form(self, eng240):
        # beta = 0 with a full view is the conjugate Dirichlet(alpha + m).
        rng = np.random.default_rng(314)
        for trial in range(5):
            alpha = np.ones(3) if trial % 2 else rng.uniform(1.0, 4.0, 3)
            n = int(rng.integers(10, 41))
            m = rng.multinomial(n, rng.dirichlet(np.ones(3) * 3))
            while (alpha + m).min() < 6:
                m = rng.multinomial(n, rng.dirichlet(np.ones(3) * 3))
            belief = bayes_posterior(
                PriorSpec.of(alpha), AgentView.full(CountVector.of(m)), eng240
            )
            nodes = eng240.grid.nodes
            ours = belief.log_density_at(nodes, log_columns(nodes))
            closed = dirichlet_log_rel(alpha + m, nodes)
            assert np.abs(np.expm1(ours - closed)).max() <= 1e-8

    def test_full_view_means_and_variance(self, eng240):
        belief = bayes_posterior(
            FLAT3, AgentView.full(CountVector.of([5, 3, 2])), eng240
        )
        assert belief.means == pytest.approx((6 / 13, 4 / 13, 3 / 13), abs=1e-7)
        assert belief.variances[0] == pytest.approx(6 * 7 / (13**2 * 14), abs=1e-7)
        assert belief.normalization == pytest.approx(1.0, abs=1e-12)

    def test_empty_view_beta0_is_prior_flat(self, eng240):
        belief = bayes_posterior(FLAT3, AgentView.empty(3, 0), eng240)
        pts = np.random.default_rng(0).dirichlet(np.ones(3), size=50)
        assert np.abs(belief.log_density_at(pts, log_columns(pts))).max() <= 1e-12

    def test_empty_view_beta0_is_prior_nonflat(self, eng240):
        # Self-normalization reproduces the prior up to the grid's estimate
        # of its own mass; negligible once every exponent is >= 2.
        prior = PriorSpec.of([4.0, 3.0, 5.0])
        belief = bayes_posterior(prior, AgentView.empty(3, 0), eng240)
        pts = np.random.default_rng(0).dirichlet(np.ones(3), size=50)
        assert np.abs(
            belief.log_density_at(pts, log_columns(pts)) - prior.log_rel_density(log_columns(pts))
        ).max() <= 1e-7

    def test_maxent_reduction_vs_independent_oracle(self, eng240):
        # No data: the posterior is the tilted prior.  Compare against the
        # independent lattice solve at the same resolution.
        belief = fit_view(FLAT3, AgentView.empty(3, 0), BIAS, eng240)
        beta_o, nodes_o, log_norm_o = tilted_flat_posterior(240, [1.0, 0.0, -2.0], 0.0)
        fvals = nodes_o @ np.array([1.0, 0.0, -2.0])
        oracle_logdens = beta_o * fvals - log_norm_o
        ours = belief.log_density_at(nodes_o, log_columns(nodes_o))
        assert np.abs(np.expm1(ours - oracle_logdens)).max() <= 1e-8

    def test_student_view_matches_direct_form(self, eng240):
        # Single visible side: density proportional to
        # exp(beta*(3 th1 + 2 th2 - 2)) * th1^m1 * (1 - th1)^(n - m1),
        # using f = th1 - 2 th3 = 3 th1 + 2 th2 - 2 on the simplex.
        n, m1 = 10, 7
        view = AgentView.from_mapping(3, n, {1: m1})
        belief = fit_view(FLAT3, view, BIAS, eng240)
        nodes = eng240.grid.nodes
        form = (
            belief.solved.beta * (3 * nodes[:, 0] + 2 * nodes[:, 1] - 2)
            + m1 * np.log(nodes[:, 0])
            + (n - m1) * np.log(1 - nodes[:, 0])
        )
        direct = form - (np.max(form) + np.log(np.mean(np.exp(form - np.max(form)))))
        ours = belief.log_density_at(nodes, log_columns(nodes))
        assert np.abs(np.expm1(ours - direct)).max() <= 1e-8


class TestSequentialVsSimultaneous:
    def test_agree_exactly_when_bayes_already_satisfies(self, eng240):
        # Symmetric counts and F = -1/3: prior and Bayes posterior both meet
        # the constraint on the symmetric grid, so both updates are exactly
        # the no-tilt Bayes result.
        spec = ConstraintSpec.of([1.0, 0.0, -2.0], -1 / 3)
        view = AgentView.full(CountVector.of([2, 2, 2]))
        pre = solve_beta(FLAT3, AgentView.empty(3, 6), spec, eng240)
        assert pre.beta == 0.0  # MaxEnt stage of the sequential route
        sim = solve_beta(FLAT3, view, spec, eng240)
        assert sim.beta == 0.0  # simultaneous route
        bayes = bayes_posterior(FLAT3, view, eng240)
        joint = posterior_summary(sim, posterior(sim))
        nodes = eng240.grid.nodes
        assert np.array_equal(joint.log_density_at(nodes, log_columns(nodes)),
                              bayes.log_density_at(nodes, log_columns(nodes)))

    def test_betas_differ_on_skewed_counts(self, eng240):
        # Sequential (fit the tilt on the prior, then condition) lands on a
        # different multiplier than the simultaneous solve.
        view = AgentView.full(CountVector.of([7, 2, 1]))
        beta_seq = solve_beta(FLAT3, AgentView.empty(3, 10), BIAS, eng240).beta
        beta_sim = solve_beta(FLAT3, view, BIAS, eng240).beta
        assert abs(beta_seq - beta_sim) > 1e-3


class TestOnePass:
    """One exp pass per beta: the weights and log zeta the solve keeps, and
    the node masses `posterior` evaluates, are the values the separate
    passes they replace give, bit for bit."""

    @pytest.mark.parametrize("engine", [GridEngine(3, 240)], ids=["grid"])
    @pytest.mark.parametrize("visible", [{1: 5, 2: 3, 3: 2}, {2: 3}, {}])
    def test_kept_pass_matches_fresh_passes(self, engine, visible):
        view = AgentView.from_mapping(3, 10, visible)
        solved = solve_beta(FLAT3, view, BIAS, engine)
        fam, beta = solved.family, solved.beta
        assert beta != 0.0
        np.testing.assert_array_equal(solved.weights, fam.tilt(beta)[0])
        assert solved.log_zeta == fam.tilt(beta)[1]
        t = fam.a + beta * fam.f
        w = np.exp(t - t.max())
        np.testing.assert_array_equal(solved.weights, w / w.sum())
        assert solved.log_zeta == float(t.max() + np.log(np.sum(np.exp(t - t.max()))))
        mass = posterior(solved)
        np.testing.assert_array_equal(mass, np.exp(fam.a + beta * fam.f - solved.log_zeta))
        for arr in (solved.weights, mass):
            assert not arr.flags.writeable


class TestEntropy:
    def test_no_update_entropy_zero(self, eng240):
        belief = bayes_posterior(FLAT3, AgentView.empty(3, 0), eng240)
        assert me_entropy(belief) == 0.0

    def test_full_view_beta0(self, eng240):
        belief = bayes_posterior(
            FLAT3, AgentView.full(CountVector.of([5, 3, 2])), eng240
        )
        s_me = me_entropy(belief)
        assert s_me == pytest.approx(math.log(1 / 66), abs=1e-7)
        assert s_me == belief.solved.log_zeta

    def test_tilted_case_matches_direct_functional(self, eng240):
        view = AgentView.empty(3, 0)
        belief = fit_view(FLAT3, view, BIAS, eng240)
        s_me = me_entropy(belief)
        assert s_me < 0.0
        direct = entropy_functional(belief, (1.0, 1.0, 1.0), 3, 0, {}, eng240.grid.nodes)
        assert s_me == pytest.approx(direct, abs=1e-6)


class TestEngineSettings:
    def test_defaults(self):
        assert isinstance(EngineSettings().build(3), GridEngine)
        assert EngineSettings().build(3).resolution == 240
        assert EngineSettings().build(4).resolution == 60
        assert EngineSettings(grid=20).build(5).resolution == 20
        # No default grid is accurate above k = 4: the grid must be chosen.
        with pytest.raises(ValueError, match="no default engine for k=5: set config engine.grid"):
            EngineSettings().build(5)


def histogram_marginals(belief):
    """np.histogram's marginal tables for a belief, scaled to densities."""
    fam = belief.solved.family
    w = fam.tilt(belief.solved.beta)[0]
    theta = fam.nodes.nodes
    return tuple(
        tuple(np.histogram(theta[:, i], bins=MARGINAL_BINS, range=(0.0, 1.0),
                           weights=w)[0] * MARGINAL_BINS)
        for i in range(theta.shape[1])
    )


class TestMarginals:
    """Marginal tables are bincounts over a bin table; they must equal
    np.histogram bit for bit, on grids, past its 65,536-node block, and for
    coordinates exactly on bin edges or at 1.0."""

    @pytest.mark.parametrize("k, r", [(2, 960), (3, 240), (4, 60), (16, 5)])
    def test_grid_matches_histogram(self, k, r, monkeypatch):
        view = AgentView.from_mapping(k, 4 if k == 2 else 6, {1: 3, 2: 1})
        f = [1.0] + [0.0] * (k - 2) + [-2.0]
        engine = GridEngine(k, r)
        solved = solve_beta(PriorSpec.flat(k), view, ConstraintSpec.of(f, 0.0), engine)
        mass = posterior(solved)
        assert engine.grid.bins is engine.grid.bins  # built on first use, then kept

        def no_binning(nodes):
            raise AssertionError("a grid's nodes were binned again")

        monkeypatch.setattr(simplex_module, "marginal_bins", no_binning)
        belief = posterior_summary(solved, mass)
        assert belief.marginals == histogram_marginals(belief)

    def test_mc_basis_past_one_histogram_block(self):
        engine = GridEngine(3, 400)  # 80,601 nodes: 2 blocks
        belief = fit_view(FLAT3, AgentView.full(CountVector.of([5, 3, 2])), BIAS, engine)
        assert belief.marginals == histogram_marginals(belief)

    def test_coordinates_on_bin_edges_and_at_one(self):
        edges = np.linspace(0.0, 1.0, MARGINAL_BINS + 1)
        x = np.concatenate([
            edges, np.nextafter(edges, 2.0), np.nextafter(edges, -1.0),
            np.random.default_rng(5).uniform(size=2_000),
        ])
        x = x[(x >= 0.0) & (x <= 1.0)]
        nodes = np.column_stack([x, 1.0 - x])

        class FixedNodes:
            k = 2

            def basis(self, prior, view):
                logw = np.log(np.random.default_rng(6).uniform(0.5, 1.5, size=x.size))
                return NodeSet(nodes, log_columns(nodes), logw - np.log(np.exp(logw).sum()))

        belief = bayes_posterior(PriorSpec.flat(2), AgentView.empty(2, 0), FixedNodes())
        assert {0.0, 1.0} <= set(x.tolist())
        assert belief.marginals == histogram_marginals(belief)
