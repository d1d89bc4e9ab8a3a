"""Quadrature nodes on the probability simplex.

All expectations are taken with respect to the *normalized* uniform measure
on the (k-1)-simplex, i.e. the flat Dirichlet(1,...,1) distribution.  With
that convention the expectation of the constant 1 is exactly 1 and no
simplex-volume bookkeeping is needed anywhere downstream.  An engine's
basis is a `NodeSet`: nodes plus log-weights of that measure.  The grid rule
below supplies the lattice engine's.

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
of more than NODE_BUDGET nodes, or of more than COORD_BUDGET coordinates
(N nodes times k, 128 MB per float64 table), is refused before it is built.

Everything here is a pure function of its inputs.  A node set's arrays are
read-only, so writing to one raises.  A grid is built once per (k, r) and
kept (the last GRID_CACHE_SIZE per process).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

NODE_BUDGET = 10**6
COORD_BUDGET = 16 * NODE_BUDGET
GRID_CACHE_SIZE = 4
MARGINAL_BINS = 100
MARGINAL_EDGES = np.linspace(0.0, 1.0, MARGINAL_BINS + 1)


class NodeBudgetError(ValueError):
    """A requested grid would exceed NODE_BUDGET nodes or COORD_BUDGET coordinates."""


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


def side_levels(nodes: np.ndarray) -> tuple[np.ndarray, ...]:
    """Read-only level tables of an (N, k) node table in [0, 1], a side's levels
    being the distinct values of its column: (order, each side's stable argsort
    of its column, flattened over sides so that `x[order]` lists every sorted
    column in one gather; starts, the flattened run starts, one per level; and
    per level its value, its side and its marginal cell, side * 100 plus the
    `np.histogram` bin of the value: edge i <= value < edge i + 1, 1.0 last)."""
    n = nodes.shape[0]
    order = np.argsort(nodes.T, axis=1, kind="stable").ravel()
    column = np.take_along_axis(nodes.T, order.reshape(-1, n), axis=1).ravel()
    starts = np.union1d(np.flatnonzero(column[1:] != column[:-1]) + 1, range(0, column.size, n))
    value, side = column[starts], starts // n
    bins = np.minimum(np.searchsorted(MARGINAL_EDGES, value, "right") - 1, MARGINAL_BINS - 1)
    out = (order, starts, value, side, side * MARGINAL_BINS + bins)
    for arr in out:
        arr.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class NodeSet:
    """Nodes plus log-weights, the basis of every engine: N read-only (N, k)
    `nodes` on the simplex, their log columns `log_nodes` = np.log(nodes.T),
    C-contiguous (k, N), and the `log_weights` of the reference measure.
    `levels`, their `side_levels` tables, are built on first use and kept."""

    nodes: np.ndarray
    log_nodes: np.ndarray
    log_weights: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.nodes, self.log_nodes, self.log_weights):
            arr.flags.writeable = False

    @functools.cached_property
    def levels(self) -> tuple[np.ndarray, ...]:
        return side_levels(self.nodes)


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
        if N = C(r+k-1, k-1) exceeds NODE_BUDGET, the fixed cap on grid nodes,
        or N * k exceeds COORD_BUDGET, the fixed cap on the coordinates held.
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
    if n_nodes * k > COORD_BUDGET:
        raise NodeBudgetError(
            f"grid for k={k}, r={r} needs {n_nodes} nodes x {k} = {n_nodes * k} coordinates "
            f"(budget {COORD_BUDGET}); set a smaller config engine.grid or --grid"
        )
    counts = compositions(r, k)
    D, s = lattice_scale(k, r)
    nodes = (counts + s) / D
    return NodeSet(nodes, np.ascontiguousarray(np.log(nodes.T)),
                   np.full(n_nodes, -np.log(n_nodes)))

