"""Quadrature nodes and the seeded generator on the probability simplex.

All expectations are taken with respect to the *normalized* uniform measure
on the (k-1)-simplex, i.e. the flat Dirichlet(1,...,1) distribution.  With
that convention the expectation of the constant 1 is exactly 1 and no
simplex-volume bookkeeping is needed anywhere downstream.  An engine's
basis is a `NodeSet`: nodes plus log-weights of that measure.  The grid rule
below supplies the lattice engine's; `dirichlet_sampler` supplies the
generator of the die-roll simulator.

The grid rule places one node per composition (c_1,...,c_k) of the
resolution r into k non-negative parts,

    theta_i = (c_i + s) / D,      D = ((r+1)(r+2)...(r+k-1))^(1/(k-1)),
                                  s = (D - r) / k,

with equal weights 1/C(r+k-1, k-1).  The scale D matches the lattice cell
count to the simplex volume exactly, which removes the O(1/r) and the
uniform O(1/r^2) bias of naive centroid shifts; what remains is a boundary
term that decays rapidly with the order to which the integrand vanishes on
the simplex boundary.  Nodes never touch the boundary (integrands may
contain log theta_i), the layout is exactly symmetric under coordinate
permutations, and weight normalization is exact by construction.  A grid
of more than NODE_BUDGET nodes is refused.

Everything here is a pure function of its inputs.  A node set's arrays are
read-only, so writing to one raises.  A grid is built once per (k, r) and
kept (the last GRID_CACHE_SIZE per process).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

THETA_SUM_TOL = 1e-12
NODE_BUDGET = 10**6
GRID_CACHE_SIZE = 4
MARGINAL_BINS = 100
MARGINAL_EDGES = np.linspace(0.0, 1.0, MARGINAL_BINS + 1)


class NodeBudgetError(ValueError):
    """A requested grid would exceed NODE_BUDGET nodes."""


@dataclass(frozen=True)
class ThetaPoint:
    """A point on the probability simplex: components >= 0 summing to 1."""

    components: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.components) < 2:
            raise ValueError("theta needs at least 2 components")
        if not all(c >= 0.0 for c in self.components):  # refuses NaN too
            raise ValueError(f"theta components must be >= 0, got {self.components}")
        total = float(np.sum(np.sort(np.asarray(self.components, dtype=float))))
        if abs(total - 1.0) > THETA_SUM_TOL:
            raise ValueError(f"theta components must sum to 1 (got {total!r})")

    @classmethod
    def of(cls, values: Iterable[float]) -> "ThetaPoint":
        return cls(tuple(float(v) for v in values))

    @property
    def k(self) -> int:
        return len(self.components)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.components, dtype=float)


def compositions(total: int, parts: int) -> np.ndarray:
    """All compositions of `total` into `parts` non-negative integers.

    Returns an int64 array of shape (C(total+parts-1, parts-1), parts) in
    lexicographic order of the rows.  The table grows one part at a time:
    a partial row with `left` units still unassigned fans out into
    left + 1 rows that take 0..left units for the next part.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    left = np.array([total], dtype=np.int64)
    rows = np.empty((1, parts), dtype=np.int64)
    for j in range(parts - 1):
        fan = left + 1
        parent = np.repeat(np.arange(left.size), fan)
        part = np.arange(parent.size) - np.repeat(np.cumsum(fan) - fan, fan)
        rows = rows.take(parent, axis=0)
        rows[:, j] = part
        left = left.take(parent) - part
    rows[:, -1] = left
    return rows


def lattice_scale(k: int, r: int) -> tuple[float, float]:
    """Return (D, s) of the calibrated node map theta = (c + s)/D."""
    D = float(np.exp(np.mean(np.log(r + np.arange(1, k, dtype=float)))))
    return D, (D - r) / k


@dataclass(frozen=True, eq=False)
class NodeSet:
    """Nodes plus log-weights, the basis of every engine: N read-only (N, k)
    `nodes` on the simplex, their log columns `log_nodes` = np.log(nodes.T),
    C-contiguous (k, N), and the `log_weights` of the reference measure.
    `bins`, their `marginal_bins` table, is built on first use and kept."""

    nodes: np.ndarray
    log_nodes: np.ndarray
    log_weights: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.nodes, self.log_nodes, self.log_weights):
            arr.flags.writeable = False

    @functools.cached_property
    def bins(self) -> np.ndarray:
        bins = marginal_bins(self.nodes)
        bins.flags.writeable = False
        return bins


def marginal_bins(nodes: np.ndarray) -> np.ndarray:
    """(k, N) uint8 marginal bin of each coordinate of (N, k) `nodes` in [0, 1]
    by `np.histogram`'s rule (edge i <= theta < edge i + 1; 1.0 in the last bin),
    which is about 6x faster than a binary search of the edges on random draws."""
    theta = nodes.T
    bins = np.minimum((theta * MARGINAL_BINS).astype(np.intp), MARGINAL_BINS - 1)
    bins -= theta < MARGINAL_EDGES[bins]
    bins += (theta >= MARGINAL_EDGES[bins + 1]) & (bins < MARGINAL_BINS - 1)
    return bins.astype(np.uint8)


@functools.lru_cache(maxsize=GRID_CACHE_SIZE)
def build_grid(k: int, r: int) -> NodeSet:
    """The deterministic simplex grid at resolution r, cached per (k, r): equal
    weights 1 / N on its N nodes.

    Parameters
    ----------
    k : dimension (>= 2)
    r : subdivisions per edge (>= 1)

    Raises
    ------
    NodeBudgetError
        if C(r+k-1, k-1) exceeds NODE_BUDGET, the fixed cap on grid nodes.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if r < 1:
        raise ValueError("r must be >= 1")
    n_nodes = math.comb(r + k - 1, k - 1)
    if n_nodes > NODE_BUDGET:
        raise NodeBudgetError(
            f"grid for k={k}, r={r} needs {n_nodes} nodes "
            f"(budget {NODE_BUDGET}); set a smaller config engine.grid or --grid"
        )
    counts = compositions(r, k)
    D, s = lattice_scale(k, r)
    nodes = (counts + s) / D
    return NodeSet(nodes, np.ascontiguousarray(np.log(nodes.T)),
                   np.full(n_nodes, -np.log(n_nodes)))


def dirichlet_sampler(seed: int) -> np.random.Generator:
    """Counter-based generator for a seed.

    The generator is Philox(SeedSequence(seed, spawn_key=(0,)));
    this derivation is fixed so results are reproducible across platforms
    and thread counts.
    """
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0,)))
    )
