"""Output checker for `network` results, independent of `maxent_agents`.

Every agent entry is checked for internal consistency (residual,
normalization, means, s_me) and against a reference computed here with
plain numpy and an independent beta root-find:

* Grid workloads: the same calibrated composition lattice the program
  uses, built here from its defining formula, so results agree to solver
  tolerance.
* Monte-Carlo workloads: a proposal-independent lattice on the exact
  Dirichlet-aggregated ("lumped") problem.  Hidden sides that share an f
  value enter the flat-prior posterior only through their sum, and that sum
  is Dirichlet-distributed with the summed parameters, so each round-0
  agent is an exact problem in at most four dimensions and each pair of
  agents in at most five.  Agreement is required within stated
  Monte-Carlo tolerances.

The divergence matrix must be symmetric, non-negative, zero on the
diagonal, and match the reference pairwise symmetrized KL divergence.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln, logsumexp, xlogy

RESIDUAL_TOL = 1e-9
UNIT_TOL = 1e-9
BETA_CAP = 2.0**16

# Tolerances for agreement with the reference, as (absolute, relative).
GRID_TOL = {"beta": (1e-6, 1e-6), "moment": (1e-8, 0.0), "log_zeta": (1e-8, 1e-9),
            "divergence": (1e-8, 1e-6)}
# Monte-Carlo tolerances: about five standard errors of an estimator with
# an effective sample size of 5,000 (2.5% of the default 200k samples) on
# posteriors whose components have standard deviations near 0.07.
MC_TOL = {"beta": (0.05, 0.02), "moment": (5e-3, 0.0), "log_zeta": (0.02, 0.0),
          "divergence": (0.02, 0.03)}
# Node budget of one lumped reference lattice.
LUMPED_NODES = 150_000


def compositions(total: int, parts: int) -> np.ndarray:
    """Every way to write `total` as an ordered sum of `parts` non-negative ints."""
    rows = np.zeros((1, 0), dtype=np.int64)
    left = np.array([total], dtype=np.int64)
    for _ in range(parts - 1):
        reps = left + 1
        first = np.concatenate([np.arange(m) for m in reps])
        rows = np.hstack([np.repeat(rows, reps, axis=0), first[:, None]])
        left = np.repeat(left, reps) - first
    return np.hstack([rows, left[:, None]])


def lattice_nodes(parts: int, r: int) -> np.ndarray:
    """Interior lattice (c + s) / D with D the geometric mean of r+1 .. r+parts-1."""
    D = float(np.exp(np.mean(np.log(r + np.arange(1, parts, dtype=float)))))
    return (compositions(r, parts) + (D - r) / parts) / D


def node_count(parts: int, r: int) -> int:
    return int(round(np.exp(gammaln(r + parts) - gammaln(r + 1) - gammaln(parts))))


def lumped_resolution(parts: int, budget: int = LUMPED_NODES) -> int:
    r = 1
    while node_count(parts, r + 1) <= budget:
        r += 1
    return r


def _close(got: float, want: float, tol: tuple[float, float]) -> bool:
    return abs(got - want) <= tol[0] + tol[1] * abs(want)


@dataclass(frozen=True)
class Setting:
    """What the reference needs to know about a workload."""

    k: int
    n: int
    f: tuple[float, ...]
    F: float
    grid: int | None  # lattice resolution of a grid workload; None for Monte Carlo
    edges: tuple[tuple[int, int], ...]
    round: int

    @property
    def tol(self) -> dict:
        return GRID_TOL if self.grid is not None else MC_TOL


def network_edges(k: int, network: dict) -> tuple[tuple[int, int], ...]:
    """Edges of the complete graph or of a rows x cols triangle-lattice patch."""
    if network["preset"] == "complete":
        return tuple((a, b) for a in range(1, k + 1) for b in range(a + 1, k + 1))
    rows, cols = network["rows"], network["cols"]
    edges = set()
    for i in range(rows):
        for j in range(cols):
            for di, dj in ((0, 1), (1, 0), (1, -1)):
                if 0 <= i + di < rows and 0 <= j + dj < cols:
                    a, b = i * cols + j + 1, (i + di) * cols + j + dj + 1
                    edges.add((min(a, b), max(a, b)))
    return tuple(sorted(edges))


def expected_views(s: Setting, counts: list[int]) -> dict[int, tuple[tuple[int, int], ...]]:
    """Agent -> sorted ((side, count), ...) visible after `s.round` hops."""
    adj = {a: set() for a in range(1, s.k + 1)}
    for a, b in s.edges:
        adj[a].add(b)
        adj[b].add(a)
    views = {}
    for agent in adj:
        seen = {agent}
        frontier = {agent}
        for _ in range(s.round):
            frontier = {b for a in frontier for b in adj[a]} - seen
            seen |= frontier
        views[agent] = tuple((side, counts[side - 1]) for side in sorted(seen))
    return views


class Lumped:
    """Posterior problem on blocks of sides: each kept side alone, the rest by f value."""

    def __init__(self, s: Setting, keep: frozenset[int], r: int | None = None):
        rest: dict[float, list[int]] = {}
        for side in range(1, s.k + 1):
            if side not in keep:
                rest.setdefault(s.f[side - 1], []).append(side)
        self.blocks = [(side,) for side in sorted(keep)] + [tuple(g) for _, g in sorted(rest.items())]
        self.block_of = {side: b for b, sides in enumerate(self.blocks) for side in sides}
        size = np.array([len(b) for b in self.blocks], dtype=float)
        parts = len(self.blocks)
        self.setting = s
        self.nodes = lattice_nodes(parts, r if r is not None else lumped_resolution(parts))
        self.fS = self.nodes @ np.array([s.f[b[0] - 1] for b in self.blocks])
        # Flat prior on the k sides aggregates to Dirichlet(block sizes).
        self.base = (-np.log(len(self.nodes)) + gammaln(size.sum()) - gammaln(size).sum()
                     - gammaln(parts) + xlogy(size - 1.0, self.nodes).sum(axis=1))
        self.size = size

    def loglik(self, view) -> np.ndarray:
        cols = [self.block_of[side] for side, _ in view]
        m = np.array([c for _, c in view], dtype=float)
        rest = self.setting.n - m.sum()
        const = gammaln(self.setting.n + 1) - gammaln(m + 1).sum() - gammaln(rest + 1)
        out = const + xlogy(m, self.nodes[:, cols]).sum(axis=1)
        if rest > 0:
            out += xlogy(rest, np.maximum(1.0 - self.nodes[:, cols].sum(axis=1), 0.0))
        return out

    def tilted(self, view, beta: float) -> np.ndarray:
        """Normalized log weights of the posterior at a given beta."""
        t = self.base + self.loglik(view) + beta * self.fS
        return t - logsumexp(t)


@dataclass
class AgentRef:
    beta: float
    log_zeta: float
    means: np.ndarray
    variances: np.ndarray


class Reference:
    """Reference fits and divergences for one request, cached by view."""

    def __init__(self, s: Setting):
        self.s = s
        self._problems: dict[frozenset, Lumped] = {}
        self._fits: dict[tuple, AgentRef] = {}

    def problem(self, keep: frozenset[int]) -> Lumped:
        if self.s.grid is not None:
            keep = frozenset(range(1, self.s.k + 1))
        if keep not in self._problems:
            self._problems[keep] = Lumped(self.s, keep, self.s.grid)
        return self._problems[keep]

    def fit(self, view) -> AgentRef:
        if view in self._fits:
            return self._fits[view]
        p = self.problem(frozenset(side for side, _ in view))
        a = p.base + p.loglik(view)

        def gap(beta: float) -> float:
            t = a + beta * p.fS
            w = np.exp(t - t.max())
            return float(w @ p.fS / w.sum()) - self.s.F

        lo, hi = -1.0, 1.0
        while gap(lo) > 0 and lo > -BETA_CAP:
            lo *= 2.0
        while gap(hi) < 0 and hi < BETA_CAP:
            hi *= 2.0
        beta = brentq(gap, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps, maxiter=500)
        t = a + beta * p.fS
        log_zeta = float(logsumexp(t))
        w = np.exp(t - log_zeta)
        means = np.empty(self.s.k)
        variances = np.empty(self.s.k)
        S1, S2 = w @ p.nodes, w @ p.nodes**2
        for b, sides in enumerate(p.blocks):
            A = p.size[b]
            for side in sides:
                means[side - 1] = S1[b] / A
                variances[side - 1] = S2[b] * 2.0 / (A * (A + 1.0)) - (S1[b] / A) ** 2
        ref = AgentRef(beta=beta, log_zeta=log_zeta, means=means, variances=variances)
        self._fits[view] = ref
        return ref

    def divergence(self, view_a, view_b) -> float:
        p = self.problem(frozenset(side for side, _ in view_a + view_b))
        la = p.tilted(view_a, self.fit(view_a).beta)
        lb = p.tilted(view_b, self.fit(view_b).beta)
        return float((np.exp(la) - np.exp(lb)) @ (la - lb))


def check_agent(entry: dict, ref: AgentRef, s: Setting) -> list[str]:
    """Problems with one converged agent entry; empty when it passes."""
    tol = s.tol
    bad = []
    if not entry["residual"] <= RESIDUAL_TOL:
        bad.append(f"residual {entry['residual']}")
    if abs(entry["normalization"] - 1.0) > UNIT_TOL:
        bad.append(f"normalization {entry['normalization']}")
    if abs(sum(entry["means"]) - 1.0) > UNIT_TOL:
        bad.append(f"means sum to {sum(entry['means'])}")
    if not entry["s_me"] <= 0.0:
        bad.append(f"s_me {entry['s_me']} > 0")
    if not _close(entry["beta"], ref.beta, tol["beta"]):
        bad.append(f"beta {entry['beta']} vs reference {ref.beta}")
    if not _close(entry["log_zeta"], ref.log_zeta, tol["log_zeta"]):
        bad.append(f"log_zeta {entry['log_zeta']} vs reference {ref.log_zeta}")
    if not _close(entry["s_me"], ref.log_zeta - ref.beta * s.F, tol["log_zeta"]):
        bad.append(f"s_me {entry['s_me']} vs reference {ref.log_zeta - ref.beta * s.F}")
    for name, got, want in (("mean", entry["means"], ref.means),
                            ("variance", entry["variances"], ref.variances)):
        for i, (g, w) in enumerate(zip(got, want)):
            if not _close(g, w, tol["moment"]):
                bad.append(f"{name} {i + 1}: {g} vs reference {w}")
    return bad


def check_output(payload: dict, s: Setting, counts: list[int]) -> dict[int, list[str]]:
    """Agent -> list of problems (empty if the agent passed) for one result file.

    An agent with an error entry fails with that error as its problem.
    Structural problems that cannot be pinned on one agent fail them all.
    """
    agents = range(1, s.k + 1)
    entries = {e.get("agent"): e for e in payload.get("agents", [])}
    if sorted(entries) != list(agents) or payload.get("counts") != counts:
        return {a: ["result does not list each agent once for these counts"] for a in agents}
    views = expected_views(s, counts)
    ref = Reference(s)
    problems: dict[int, list[str]] = {}
    for a in agents:
        e = entries[a]
        if "error" in e:
            problems[a] = [f"error entry: {e['error']}"]
            continue
        got_view = tuple((side, c) for side, c in e["view"]["visible"])
        if got_view != views[a]:
            problems[a] = [f"view {got_view} but expected {views[a]}"]
            continue
        problems[a] = check_agent(e, ref.fit(views[a]), s)

    ok = [a for a in agents if "error" not in entries[a]]
    D = payload.get("divergences")
    if payload.get("divergence_agents") != ok or np.shape(D) != (len(ok), len(ok)):
        for a in ok:
            problems[a].append("divergence matrix does not cover the converged agents")
        return problems
    D = np.asarray(D, dtype=float)
    # Symmetry, sign and the diagonal hold to the divergence tolerance, so a
    # matrix summed in another order (one GEMM, say) is not failed for roundoff.
    tol = s.tol["divergence"]
    for i, a in enumerate(ok):
        if abs(D[i, i]) > tol[0]:
            problems[a].append(f"divergence diagonal {D[i, i]}")
        for j in range(i + 1, len(ok)):
            b = ok[j]
            want = ref.divergence(views[a], views[b])
            if (not _close(D[j, i], D[i, j], tol) or min(D[i, j], D[j, i]) < -tol[0]
                    or not _close(D[i, j], want, tol)):
                msg = f"divergence ({a},{b}) = {D[i, j]} / {D[j, i]} vs reference {want}"
                problems[a].append(msg)
                problems[b].append(msg)
    return problems
