"""Simultaneous-update inference engine.

Given a Dirichlet prior over the side probabilities theta, the likelihood
of whatever counts an agent can see, and one linear moment target
<f(theta)> = F with f(theta) = sum_i f_i theta_i, the updated belief is

    p(theta)  propto  prior(theta) * view_likelihood(theta) * exp(beta f(theta)),

where the multiplier beta is the unique root of <f>_beta = F.  <f>_beta is
strictly increasing in beta (its derivative is the posterior variance of
f), so the solve takes Newton steps toward <f>_beta = F inside a sign
bracket and falls back to bisection whenever a step would leave it.

An engine's `basis(prior, view)` is a `NodeSet`: nodes on the simplex plus
log-weights of the flat reference measure.  Everything is normalized on
those nodes: zeta is the engine expectation of the unnormalized density, so
every posterior integrates to exactly 1 under the engine that built it and
tilt expectations are ratios of sums sharing one set of nodes.  All
densities are handled in log space; the beta-independent part of the
log-integrand is computed once per (prior, view, engine), reused across
every beta the solver visits, and kept on the fitted SolvedConstraint.  Newton
runs on f's levels, its distinct values (cached per grid and f), each fit
folding its nodes onto them once; one node pass at the final beta follows,
and `posterior` returns its kept weights.  `posterior_summary` reads them
once, through the node set's per-side coordinate levels; the Belief holds the
solve and its summary.  Weighted sums over nodes take a fixed order, no BLAS.

With no data the result is the exponentially tilted prior (pure moment
matching); with beta = 0 it is the conjugate Dirichlet update.  The
maximized relative entropy of the update is s_me = log zeta - beta*F under
this sign convention (the posterior carries e^{+beta f}).

Solves are single-threaded at the iteration level (node evaluation is
vectorized); PriorSpec, SolvedConstraint and Belief values are immutable
and safe to share across threads.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .multinomial import AgentView, log_power, view_log_likelihood_nodes
from .simplex import GRID_CACHE_SIZE, MARGINAL_BINS, MARGINAL_EDGES, NodeSet, build_grid

SOLVER_TOL = 1e-9
NORMALIZATION_TOL = 1e-9
MAX_ITER = 200
BETA_CAP = 2.0**16
DEFAULT_RESOLUTION = {2: 960, 3: 240, 4: 60}  # the default engine's grid, by k
MARGINAL_ABSCISSA = tuple(float(v) for v in 0.5 * (MARGINAL_EDGES[:-1] + MARGINAL_EDGES[1:]))


class InfeasibleConstraintError(ValueError):
    """The moment target lies outside the attainable open interval."""


class ConvergenceError(RuntimeError):
    """The multiplier solve failed to reach the requested residual."""


class EngineRangeError(ConvergenceError):
    """A feasible target lies outside the range of f over the engine's nodes,
    which bounds <f> at every beta."""


@dataclass(frozen=True)
class PriorSpec:
    """Dirichlet prior over side probabilities; all ones is the flat prior."""

    dirichlet_params: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.dirichlet_params) < 2:
            raise ValueError("prior needs at least 2 parameters")
        if not all(0.0 < a < math.inf for a in self.dirichlet_params):
            raise ValueError(
                f"prior Dirichlet parameters must be finite and > 0, got {self.dirichlet_params}"
            )

    @classmethod
    def flat(cls, k: int) -> "PriorSpec":
        return cls(tuple(1.0 for _ in range(k)))

    @classmethod
    def of(cls, values: Sequence[float]) -> "PriorSpec":
        return cls(tuple(float(v) for v in values))

    @property
    def k(self) -> int:
        return len(self.dirichlet_params)

    def log_rel_density(self, log_nodes: np.ndarray) -> np.ndarray | float:
        """log density relative to the flat Dirichlet reference, from the nodes' log columns.

        The power product prod_i theta_i^{alpha_i - 1} goes through
        `log_power`: sides with alpha_i = 1 are skipped, so a flat prior
        returns its constant (0.0) as a float, which broadcasts to the array
        form bit for bit.  The others give +inf (alpha < 1) or -inf
        (alpha > 1) on faces.
        """
        alpha = np.asarray(self.dirichlet_params)
        const = math.lgamma(alpha.sum()) - sum(map(math.lgamma, alpha)) - math.lgamma(self.k)
        if np.all(alpha == 1.0):
            return const
        return const + log_power(alpha - 1.0, log_nodes)


@dataclass(frozen=True)
class ConstraintSpec:
    """Linear moment constraint: <sum_i f_i theta_i> must equal F."""

    f: tuple[float, ...]
    F: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (*self.f, self.F)):
            raise ValueError(f"constraint f and F must be finite, got f={self.f}, F={self.F!r}")

    @classmethod
    def of(cls, f: Sequence[float], F: float) -> "ConstraintSpec":
        return cls(tuple(float(v) for v in f), float(F))

    @classmethod
    def none(cls, k: int) -> "ConstraintSpec":
        """Trivial constraint: satisfied identically, solves to beta = 0."""
        return cls(tuple(0.0 for _ in range(k)), 0.0)

    @property
    def k(self) -> int:
        return len(self.f)

    @property
    def is_constant(self) -> bool:
        return len(set(self.f)) == 1

    def attainable_interval(self) -> tuple[float, float]:
        return (min(self.f), max(self.f))

    def f_values(self, nodes: np.ndarray) -> np.ndarray:
        return nodes @ np.asarray(self.f)


@dataclass(frozen=True)
class SolvedConstraint:
    """A fitted multiplier: beta, the log normalizer and <f> under the kept
    weights, with the tilted family it was fitted on (prior, view, constraint
    and the engine's node set) and the read-only normalized node weights of
    the pass that gave log_zeta, which `posterior` returns.
    """

    beta: float
    log_zeta: float
    expected_f: float
    family: _TiltedFamily = field(repr=False, compare=False)
    weights: np.ndarray = field(repr=False, compare=False)
    iterations: int = 0

    def __post_init__(self) -> None:
        if not self.residual <= SOLVER_TOL:
            raise ValueError(f"residual {self.residual!r} exceeds solver tolerance {SOLVER_TOL!r}")

    @property
    def residual(self) -> float:
        return abs(self.expected_f - self.family.spec.F)


class GridEngine:
    """Deterministic lattice-quadrature backend, the one engine.

    The grid is built (or fetched from the per-process cache) here, so an
    invalid or oversized resolution is refused before any fit.
    """

    def __init__(self, k: int, resolution: int):
        self.k = k
        self.resolution = resolution
        self.grid = build_grid(k, resolution)

    def basis(self, prior: PriorSpec, view: AgentView) -> NodeSet:
        """The grid itself: its nodes do not depend on the prior or the view."""
        return self.grid

    def descriptor(self) -> dict:
        return {"grid": self.resolution}

    def __repr__(self) -> str:
        return f"GridEngine(k={self.k}, resolution={self.resolution})"


@functools.lru_cache(maxsize=GRID_CACHE_SIZE)
def grid_levels(grid: NodeSet, f: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """(f at each node, its distinct values in increasing order, each node's
    level index): the nodes grouped by the exact float value of f, cached."""
    values = grid.nodes @ np.asarray(f)
    out = (values, *np.unique(values, return_inverse=True))
    for arr in out:
        arr.flags.writeable = False
    return out


class _TiltedFamily:
    """Cached beta-independent node data for one (prior, view, constraint,
    engine), on the engine's basis `nodes`:

    a_j = log w_j + log prior_rel(theta_j) + log view_likelihood(theta_j)
    f_j = f(theta_j)

    log_zeta(beta) = logsumexp_j(a_j + beta f_j); expectations under the
    tilted posterior are softmax-weighted sums over the same nodes.
    """

    def __init__(self, prior: PriorSpec, view: AgentView, spec: ConstraintSpec, engine):
        if prior.k != view.k or spec.k != view.k or engine.k != view.k:
            raise ValueError(
                f"dimension mismatch: prior k={prior.k}, view k={view.k}, "
                f"constraint k={spec.k}, engine k={engine.k}"
            )
        self.prior, self.view, self.spec = prior, view, spec
        self.nodes = ns = engine.basis(prior, view)
        self.a = np.add(ns.log_weights, prior.log_rel_density(ns.log_nodes))
        self.a += view_log_likelihood_nodes(view, ns.nodes, ns.log_nodes)
        if not np.all(np.isfinite(self.a)):
            j = int(np.flatnonzero(~np.isfinite(self.a))[0])
            raise ValueError(
                f"log-integrand is not finite at node {j} (theta={tuple(ns.nodes[j])}); "
                "the view likelihood vanishes on the whole support"
            )
        self.f, self.levels, self.level_index = grid_levels(ns, spec.f)

    @functools.cached_property
    def level_a(self) -> np.ndarray:
        """L_g = log sum_{f_j = v_g} e^{a_j}, exact on every level: one exp pass against
        max a, then the levels summing below 1e-290 again against their own peak."""
        idx, size = self.level_index, self.levels.size
        shift = np.full(size, self.a.max())
        mass = np.bincount(idx, np.exp(self.a - shift[0]), size)
        low = mass < 1e-290
        if low.any():
            a, sub = self.a[low[idx]], idx[low[idx]]
            shift[low] = -np.inf
            np.maximum.at(shift, sub, a)
            mass[low] = np.bincount(sub, np.exp(a - shift[sub]), size)[low]
        return shift + np.log(mass)

    def tilt(self, beta: float) -> tuple[np.ndarray, float]:
        """(read-only normalized posterior weights, log zeta) at beta, from one
        exp pass: s = sum_j exp(a_j + beta f_j - m) with m the largest
        exponent gives the weights exp(...) / s and log zeta = m + log s."""
        t = np.multiply(self.f, beta)
        t += self.a
        m = t.max()
        t -= m
        np.exp(t, out=t)
        s = t.sum()
        t /= s
        t.flags.writeable = False
        return t, float(m + np.log(s))

    def mean_f(self, w: np.ndarray) -> float:
        """<f> under the normalized node weights w, in a fixed order (no BLAS)."""
        return float(np.einsum("i,i->", w, self.f))

    def level_moments(self, beta: float) -> tuple[float, float]:
        """(<f>, Var f) at beta from one exp pass over the levels, in fixed order."""
        t = self.level_a + beta * self.levels
        p = np.exp(t - t.max())
        s = p.sum()
        mean = float(np.einsum("i,i->", p, self.levels) / s)
        dev = self.levels - mean
        return mean, float(np.einsum("i,i,i->", p, dev, dev) / s)


def tilt_table(prior: PriorSpec, view: AgentView, constraint: ConstraintSpec,
               betas: Sequence[float], engine) -> list[tuple[float, float]]:
    """(log_zeta, <f>) at each beta, all from one build of the node data.

    log_zeta is the log of the engine expectation of
    prior_rel * view_likelihood * e^{beta f}; <f> is the beta-tilted mean.
    """
    fam = _TiltedFamily(prior, view, constraint, engine)
    return [(log_zeta, fam.mean_f(w)) for w, log_zeta in map(fam.tilt, betas)]


def solve_beta(prior: PriorSpec, view: AgentView, constraint: ConstraintSpec,
               engine) -> SolvedConstraint:
    """Fit the multiplier so the posterior satisfies the moment constraint.

    Feasible targets are the open interval (min f_i, max f_i); a constant f
    is feasible only at its own value.  If the constraint already holds at
    beta = 0 (within SOLVER_TOL) the solve returns beta = 0 exactly.
    Otherwise it takes safeguarded Newton steps from beta = 0 on
    <f>_beta - F, measured as a logit within the range of f over the
    engine's nodes, with slope from Var_beta f; <f> and Var f come from one
    exp pass over f's levels.  Every evaluated beta tightens a sign bracket
    [lo, hi].  A Newton step is taken only when it lands strictly inside the bracket;
    otherwise the bracket is bisected, or, while one side is still open, the
    step is capped at max(1, 2|beta|) and |beta| at 2^16.  The solve stops
    when |<f> - F| <= SOLVER_TOL; a bracket narrower than 1e-12 or MAX_ITER
    evaluations without that is a ConvergenceError.  The tolerance and the
    evaluation cap are fixed module constants.  A target outside the range
    of f over the nodes is an EngineRangeError, raised after the beta = 0
    check and before any step.  `iterations` counts the level evaluations
    after the beta = 0 check.  One node pass at the final beta gives the
    weights, log zeta and <f>; they and the fitted family are kept on the
    result, so `posterior(solved)` needs no other input and neither builds
    the family nor weighs the nodes again.
    """
    lo_f, hi_f = constraint.attainable_interval()
    if constraint.is_constant:
        if constraint.F != lo_f:
            raise InfeasibleConstraintError(
                f"constant f = {lo_f} cannot satisfy target F = {constraint.F}"
            )
    elif not lo_f < constraint.F < hi_f:
        raise InfeasibleConstraintError(
            f"target F = {constraint.F} lies outside the attainable interval "
            f"({lo_f}, {hi_f})"
        )
    fam = _TiltedFamily(prior, view, constraint, engine)
    F = constraint.F

    # Newton works on the logit of <f> within (a, b), the range of f over the
    # nodes.  Near an end <f> approaches it like 1/beta or e^{-c beta}: a
    # Newton step on <f> itself at most doubles beta there, while the logit
    # is close to linear in log beta or in beta.
    a, b = float(fam.levels.min()), float(fam.levels.max())

    def logit(x: float) -> float:
        if not a < x < b:
            return -math.inf if x <= a else math.inf
        return math.log((x - a) / (b - x))

    beta = 0.0
    e, var = fam.level_moments(beta)
    resid = abs(e - F)
    if resid > SOLVER_TOL and not a < F < b:
        raise EngineRangeError(
            f"target F = {F} lies outside ({a!r}, {b!r}), the interval of <f> "
            f"attainable on the nodes of {engine!r}; a finer grid widens it"
        )
    target = logit(F)
    lo, hi = -math.inf, math.inf
    iters = 0
    while resid > SOLVER_TOL:
        if e < F:
            lo = beta
        else:
            hi = beta
        if hi - lo <= 1e-12 or iters >= MAX_ITER:
            raise ConvergenceError(
                f"beta solve stalled: beta = {beta!r}, residual = {resid!r} "
                f"> tol = {SOLVER_TOL!r}, interval = [{lo!r}, {hi!r}] after {iters} evaluations"
            )
        # d logit(<f>)/d beta = Var f * (b - a) / ((<f> - a)(b - <f>))
        gap = (e - a) * (b - e)
        step = math.nan
        if gap > 0.0 and var > 0.0:
            step = (target - logit(e)) * gap / (var * (b - a))
        if not step * (F - e) > 0.0:  # nan, zero, or pointing away from F
            step = math.copysign(math.inf, F - e)
        if math.isinf(lo) or math.isinf(hi):
            limit = max(1.0, 2.0 * abs(beta))
            step = min(max(step, -limit), limit)
        nxt = beta + step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt) > BETA_CAP:
            if abs(beta) == BETA_CAP:
                side = "above" if e > F else "below"
                raise ConvergenceError(
                    f"no bracket: <f>({beta:g}) = {e!r} still {side} F = {F}"
                )
            nxt = math.copysign(BETA_CAP, nxt)
        beta = nxt
        e, var = fam.level_moments(beta)
        resid = abs(e - F)
        iters += 1
    w, log_zeta = fam.tilt(beta)
    return SolvedConstraint(beta=beta, log_zeta=log_zeta, expected_f=fam.mean_f(w),
                            family=fam, weights=w, iterations=iters)


def posterior(solved: SolvedConstraint) -> np.ndarray:
    """The read-only node masses of a fit, its normalized posterior's engine mass
    on each node: the weights the solve kept from its final pass.  For a posterior
    without a moment constraint, solve `ConstraintSpec.none(k)` (beta = 0)."""
    return solved.weights


@dataclass(frozen=True, eq=False)
class Belief:
    """One fitted update: the solve and the cheap-to-serialize summary of
    the posterior under its engine."""

    solved: SolvedConstraint
    means: tuple[float, ...]
    variances: tuple[float, ...]
    normalization: float
    marginals: tuple[tuple[float, ...], ...]

    @property
    def view(self) -> AgentView:
        return self.solved.family.view

    def log_density_at(self, points: np.ndarray, log_points: np.ndarray,
                       f: np.ndarray | None = None) -> np.ndarray:
        """log posterior density (relative to the flat reference) at an (N, k)
        array of points, given their (k, N) log columns and, if known, the
        constraint's f at them (else `f_values` computes it)."""
        fam = self.solved.family
        f = fam.spec.f_values(points) if f is None else f
        return (
            fam.prior.log_rel_density(log_points)
            + view_log_likelihood_nodes(fam.view, points, log_points)
            + f * self.solved.beta
            - self.solved.log_zeta
        )


def posterior_summary(solved: SolvedConstraint, weights: np.ndarray) -> Belief:
    """The belief of a fit from its node `weights` (see `posterior`): component
    means/variances, normalization check, marginal tables.

    One gather over the node set's per-side `levels` sums the weights per
    coordinate level; means, second moments and marginal bin masses are sums
    of those level masses.  The normalization sum_g exp(L_g + beta v_g - log
    zeta) over f's levels checks the final pass's log zeta by a separate sum.
    Marginals are density estimates on the bin centers MARGINAL_ABSCISSA (bin
    mass divided by bin width); the bin masses are np.histogram's.
    """
    fam, (order, starts, value, side, cell) = solved.family, solved.family.nodes.levels
    k = fam.spec.k
    mass = np.add.reduceat(weights[order], starts)
    means = np.bincount(side, mass * value, k)
    variances = np.maximum(np.bincount(side, mass * value**2, k) - means**2, 0.0)
    normalization = float(np.exp(fam.level_a + solved.beta * fam.levels - solved.log_zeta).sum())
    marginals = np.bincount(cell, mass, k * MARGINAL_BINS) * MARGINAL_BINS
    return Belief(solved, tuple(means.tolist()), tuple(variances.tolist()), normalization,
                  tuple(map(tuple, marginals.reshape(k, MARGINAL_BINS).tolist())))


def me_entropy(belief: Belief) -> float:
    """Entropy of the update: s_me = log zeta - beta * F.

    The value is checked against -E[log(p / p_ref)], p_ref the prior-times-
    likelihood density, summed over f's levels: p / p_ref = e^{beta f} / zeta
    is constant on a level.  Disagreement beyond 1e-6 raises, since that
    indicates a broken solve.  The identity sees a log zeta error only times
    |s_me|, so the belief's normalization must also be 1 within
    NORMALIZATION_TOL.  A positive s_me beyond roundoff raises too: it is a
    negated divergence.  Every refusal is a ConvergenceError.
    """
    solved, fam = belief.solved, belief.solved.family
    s_me = solved.log_zeta - solved.beta * fam.spec.F
    log_ratio = solved.beta * fam.levels - solved.log_zeta
    direct = -float(np.einsum("i,i->", np.exp(fam.level_a + log_ratio), log_ratio))
    if abs(s_me - direct) > 1e-6:
        raise ConvergenceError(
            f"entropy identity violated: log_zeta - beta*F = {s_me!r} but the "
            f"direct functional evaluates to {direct!r}"
        )
    if not abs(belief.normalization - 1.0) <= NORMALIZATION_TOL:
        raise ConvergenceError(f"normalization = {belief.normalization!r} misses 1 by more "
                               f"than {NORMALIZATION_TOL!r}: log zeta does not normalize the fit")
    if s_me > 1e-9:
        raise ConvergenceError(f"s_me = {s_me!r} > 0, but a maximized relative "
                               "entropy is <= 0: the engine's quadrature is unreliable")
    return s_me
