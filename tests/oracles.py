"""Independent reference implementations used only by the test suite.

Everything here is deliberately written from scratch (recursion, lgamma,
explicit loops) rather than importing the package's numerical paths, so
tests compare two separately derived answers.
"""
from __future__ import annotations

import math

import numpy as np


def compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All compositions of `total` into `parts` non-negative integers."""
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def lattice_nodes(k: int, r: int) -> np.ndarray:
    """Volume-calibrated equal-weight lattice, built independently."""
    prod = 1.0
    for j in range(1, k):
        prod *= r + j
    scale = prod ** (1.0 / (k - 1))
    shift = (scale - r) / k
    rows = compositions(r, k)
    return (np.array(rows, dtype=float) + shift) / scale


def log_columns(points: np.ndarray) -> np.ndarray:
    """(k, N) log of each coordinate column of (N, k) points, the layout of the
    engine's log tables; a zero coordinate gives -inf."""
    with np.errstate(divide="ignore"):
        return np.log(points.T)


def nodes_with_zeros(k: int, r: int, samples: int, seed: int) -> np.ndarray:
    """Lattice nodes stacked on Dirichlet(1/2) draws with about 1 in 8 coordinates set to 0."""
    rng = np.random.default_rng(seed)
    drawn = rng.dirichlet(np.full(k, 0.5), size=samples)
    drawn[rng.random(drawn.shape) < 0.125] = 0.0
    return np.vstack([lattice_nodes(k, r), drawn])


def fsum_mean(values: np.ndarray) -> float:
    return math.fsum(values.tolist()) / len(values)


def dirichlet_log_rel(alpha, pts: np.ndarray) -> np.ndarray:
    """log Dirichlet(alpha) density relative to the flat Dirichlet."""
    alpha = list(map(float, alpha))
    k = len(alpha)
    const = (
        math.lgamma(sum(alpha))
        - sum(math.lgamma(a) for a in alpha)
        - math.lgamma(k)
    )
    out = np.full(pts.shape[0], const)
    for i, a in enumerate(alpha):
        out += (a - 1.0) * np.log(pts[:, i])
    return out


def power_terms(exponents, pts: np.ndarray) -> np.ndarray:
    """e_i log theta_i for every entry, and exactly 0.0 where e_i = 0
    (the product would give 0 * log 0 = nan on a zero coordinate)."""
    e = np.asarray(exponents, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(e == 0, 0.0, e * np.log(pts))


def power_product_full(exponents, pts: np.ndarray) -> np.ndarray:
    """log prod_i theta_i^{e_i} summed over every column, zero exponents included."""
    return power_terms(exponents, pts).sum(axis=1)


def assert_row_sums_close(got: np.ndarray, ref: np.ndarray, terms: np.ndarray,
                          rtol: float = 1e-14) -> None:
    """got == ref up to rtol of each row's summed term magnitudes.

    A plain relative tolerance on the result fails where the terms cancel;
    reassociating the sum moves it by an ulp of the terms, not of the result.
    Infinities and nans must sit in the same places with the same values.
    """
    finite = np.isfinite(ref)
    np.testing.assert_array_equal(got[~finite], ref[~finite])
    got, ref, terms = got[finite], ref[finite], terms[finite]
    assert np.all(np.abs(got - ref) <= rtol * (np.abs(terms).sum(axis=1) + np.abs(ref)))


def log_multinomial_pmf(counts, theta) -> float:
    n = sum(counts)
    val = math.lgamma(n + 1)
    for m, t in zip(counts, theta):
        val -= math.lgamma(m + 1)
        if m > 0:
            if t <= 0.0:
                return float("-inf")
            val += m * math.log(t)
    return val


def view_loglik_brute(k: int, n: int, visible: dict[int, int], theta) -> float:
    """Sum the full multinomial pmf over every completion of the hidden counts."""
    hidden = [s for s in range(1, k + 1) if s not in visible]
    rest = n - sum(visible.values())
    if rest < 0:
        raise ValueError("visible counts exceed n")
    if not hidden:
        if rest > 0:
            return float("-inf")
        counts = [visible[s] for s in range(1, k + 1)]
        return log_multinomial_pmf(counts, theta)
    terms = []
    for fill in compositions(rest, len(hidden)):
        counts = [0] * k
        for s, c in visible.items():
            counts[s - 1] = c
        for s, c in zip(hidden, fill):
            counts[s - 1] = c
        terms.append(log_multinomial_pmf(counts, theta))
    top = max(terms)
    if top == float("-inf"):
        return top
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def view_loglik_aggregated(k: int, n: int, visible: dict[int, int],
                           pts: np.ndarray) -> np.ndarray:
    """Closed-form marginal likelihood at many points (independent rewrite)."""
    if not visible:
        return np.zeros(pts.shape[0])
    rest = n - sum(visible.values())
    const = math.lgamma(n + 1) - math.lgamma(rest + 1)
    for c in visible.values():
        const -= math.lgamma(c + 1)
    out = np.full(pts.shape[0], const)
    seen = np.zeros(pts.shape[0])
    for s, c in visible.items():
        out += c * np.log(pts[:, s - 1])
        seen += pts[:, s - 1]
    if rest > 0:
        out += rest * np.log(1.0 - seen)
    return out


def full_column_view_loglik(view, pts, terms=power_terms):
    """The aggregated view likelihood with `terms` over every visible side."""
    if not view.visible:
        return np.zeros(pts.shape[0])
    sides = np.asarray(view.visible_sides) - 1
    mv = np.asarray([c for _, c in view.visible], dtype=float)
    rest = view.n - float(mv.sum())
    coef = (math.lgamma(view.n + 1) - float(np.sum([math.lgamma(c + 1) for c in mv]))
            - math.lgamma(rest + 1))
    out = coef + terms(mv, pts[:, sides]).sum(axis=1)
    if rest > 0:
        out += terms(rest, np.maximum(1.0 - pts[:, sides].sum(axis=1), 0.0))
    return out


def visible_sides(k: int, edges, agent: int, round: int) -> tuple[int, ...]:
    """The sides `agent` sees at `round`: those of every agent within graph
    distance <= round, from all-pairs shortest paths (Floyd-Warshall on the
    edge list)."""
    dist = [[0 if i == j else math.inf for j in range(k)] for i in range(k)]
    for a, b in edges:
        dist[a - 1][b - 1] = dist[b - 1][a - 1] = 1
    for m in range(k):
        for i in range(k):
            for j in range(k):
                dist[i][j] = min(dist[i][j], dist[i][m] + dist[m][j])
    return tuple(s + 1 for s in range(k) if dist[agent - 1][s] <= round)


def divergence_reference(p, q) -> tuple[float, float]:
    """(KL(p || q) + KL(q || p), the error scale of that sum) for two fitted
    beliefs, from scratch: each density is rebuilt from its prior
    (`math.lgamma`), its view (`full_column_view_loglik`) and its own
    constraint's f as an explicit sum over sides, on the nodes and with the
    kept weights of the belief whose expectation each term is, and summed
    with `math.fsum`.  The scale is sum_j w_j (|log p_j| + |log q_j|) over
    both terms: a divergence near 0 is a difference of numbers that size."""

    def log_density(belief, pts: np.ndarray) -> np.ndarray:
        fam, solved = belief.solved.family, belief.solved
        f = sum(c * pts[:, i] for i, c in enumerate(fam.spec.f))
        return (dirichlet_log_rel(fam.prior.dirichlet_params, pts)
                + full_column_view_loglik(fam.view, pts)
                + solved.beta * f - solved.log_zeta)

    total, scale = 0.0, 0.0
    for a, b in ((p, q), (q, p)):
        pts, w = a.solved.family.nodes.nodes, a.solved.weights
        log_a, log_b = log_density(a, pts), log_density(b, pts)
        total += math.fsum((w * (log_a - log_b)).tolist())
        scale += math.fsum((w * (np.abs(log_a) + np.abs(log_b))).tolist())
    return total, scale


def tilted_flat_posterior(r: int, f_coeffs, target: float):
    """Empty-view flat-prior solve on an independent grid.

    Returns (beta, node array, log normalizer) where the density relative
    to the flat reference at node j is exp(beta*f_j - log_norm).
    """
    nodes = lattice_nodes(len(f_coeffs), r)
    fvals = nodes @ np.asarray(f_coeffs, dtype=float)

    def tilted_mean(beta: float) -> float:
        w = np.exp(beta * fvals - (beta * fvals).max())
        return float((w / math.fsum(w.tolist())) @ fvals)

    lo, hi = -1.0, 1.0
    while tilted_mean(lo) > target:
        lo *= 2.0
    while tilted_mean(hi) < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if tilted_mean(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    beta = 0.5 * (lo + hi)
    shifted = beta * fvals
    top = shifted.max()
    log_norm = top + math.log(fsum_mean(np.exp(shifted - top)))
    return beta, nodes, log_norm


def entropy_functional(belief, prior_alpha, k: int, n: int, visible: dict[int, int],
                       nodes: np.ndarray) -> float:
    """-E[p log(p/p_ref)] by equal-weight quadrature, p_ref = prior * likelihood."""
    log_p = belief.log_density_at(nodes, log_columns(nodes))
    log_ref = dirichlet_log_rel(prior_alpha, nodes) + view_loglik_aggregated(
        k, n, visible, nodes
    )
    integrand = -np.exp(log_p) * (log_p - log_ref)
    return fsum_mean(integrand)


def level_log_mass(a: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct values v_g of f, log sum_{f_j = v_g} e^{a_j}), one level at a
    time, each summed against its own largest a_j."""
    order = np.argsort(f, kind="stable")
    fs, as_ = f[order], a[order]
    starts = np.flatnonzero(np.r_[True, fs[1:] != fs[:-1]])
    values, masses = [], []
    for lo, hi in zip(starts, np.r_[starts[1:], fs.size]):
        seg = as_[lo:hi]
        top = seg.max()
        values.append(fs[lo])
        masses.append(top + math.log(math.fsum(np.exp(seg - top).tolist())))
    return np.array(values), np.array(masses)


def solve_beta_nodes(a: np.ndarray, f: np.ndarray, F: float, tol: float = 1e-9,
                     max_iter: int = 200, beta_cap: float = 2.0**16) -> tuple[float, float, int]:
    """(beta, log zeta, evaluations after beta = 0) of the safeguarded Newton
    solve of <f>_beta = F, with <f>, Var f and log zeta taken over every node
    at each step: the logit of <f> within the range of f, a sign bracket,
    bisection when a step leaves it, steps capped while it is open."""
    lo_f, hi_f = float(f.min()), float(f.max())

    def evaluate(beta: float) -> tuple[float, float, float]:
        t = a + beta * f
        top = t.max()
        w = np.exp(t - top)
        s = w.sum()
        w /= s
        mean = float(np.sum(w * f))
        return mean, float(np.sum(w * (f - mean) ** 2)), float(top + math.log(s))

    def logit(x: float) -> float:
        if not lo_f < x < hi_f:
            return -math.inf if x <= lo_f else math.inf
        return math.log((x - lo_f) / (hi_f - x))

    beta, iters = 0.0, 0
    e, var, log_zeta = evaluate(beta)
    lo, hi = -math.inf, math.inf
    while abs(e - F) > tol:
        if e < F:
            lo = beta
        else:
            hi = beta
        if hi - lo <= 1e-12 or iters >= max_iter:
            raise RuntimeError(f"reference solve stalled at beta = {beta!r}")
        gap = (e - lo_f) * (hi_f - e)
        step = math.nan
        if gap > 0.0 and var > 0.0:
            step = (logit(F) - logit(e)) * gap / (var * (hi_f - lo_f))
        if not step * (F - e) > 0.0:
            step = math.copysign(math.inf, F - e)
        if math.isinf(lo) or math.isinf(hi):
            limit = max(1.0, 2.0 * abs(beta))
            step = min(max(step, -limit), limit)
        nxt = beta + step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt) > beta_cap:
            if abs(beta) == beta_cap:
                raise RuntimeError(f"reference solve found no bracket at beta = {beta!r}")
            nxt = math.copysign(beta_cap, nxt)
        beta = nxt
        e, var, log_zeta = evaluate(beta)
        iters += 1
    return beta, log_zeta, iters
