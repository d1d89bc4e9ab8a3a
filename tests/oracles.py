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


def entropy_functional(model, prior_alpha, k: int, n: int, visible: dict[int, int],
                       nodes: np.ndarray) -> float:
    """-E[p log(p/p_ref)] by equal-weight quadrature, p_ref = prior * likelihood."""
    log_p = model.log_density_at(nodes, log_columns(nodes))
    log_ref = dirichlet_log_rel(prior_alpha, nodes) + view_loglik_aggregated(
        k, n, visible, nodes
    )
    integrand = -np.exp(log_p) * (log_p - log_ref)
    return fsum_mean(integrand)
