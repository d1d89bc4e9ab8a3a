"""Multinomial counts, partial-information views, and the die-roll simulator.

The likelihood of a full count vector m under side probabilities theta is
the multinomial pmf.  An agent that sees only a subset V of the counts
works with the marginal likelihood obtained by summing over every possible
completion of the hidden counts; that sum collapses to a single aggregated
multinomial term

    n! / (prod_{i in V} m_i! * (n - M_V)!) *
        prod_{i in V} theta_i^{m_i} * (1 - sum_{i in V} theta_i)^{n - M_V},

which is what `view_log_likelihood_nodes` evaluates over an array of
nodes.  Enumeration of hidden completions is never used outside test
oracles.

This likelihood and the Dirichlet prior are power products
prod_i theta_i^{e_i} with a `math.lgamma` constant; `log_power`
evaluates the log of the product from the (k, N) log columns of a node set.
A zero exponent contributes exactly 0 in log space, so its column is
skipped (so 0 * log 0 never arises); a positive exponent on a zero
coordinate gives -inf and a negative one +inf.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .simplex import ThetaPoint, dirichlet_sampler


@dataclass(frozen=True)
class CountVector:
    """Observed roll counts per side; n is their total."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) < 2:
            raise ValueError("need at least 2 sides")
        if any(c < 0 or c != int(c) for c in self.counts):
            raise ValueError(f"counts must be non-negative integers, got {self.counts}")

    @classmethod
    def of(cls, values: Iterable[int]) -> "CountVector":
        return cls(tuple(int(v) for v in values))

    @property
    def k(self) -> int:
        return len(self.counts)

    @property
    def n(self) -> int:
        return int(sum(self.counts))


@dataclass(frozen=True)
class AgentView:
    """The count components visible to one agent.

    `visible` maps 1-based side indices to their observed counts; the total
    roll count n is known globally even when no counts are visible.  The
    view may be empty (no data) or cover all k sides (full information).
    """

    k: int
    n: int
    visible: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.n < 0:
            raise ValueError("n must be >= 0")
        sides = [s for s, _ in self.visible]
        if len(set(sides)) != len(sides):
            raise ValueError(f"visible sides must be distinct, got {sides}")
        if any(s < 1 or s > self.k for s in sides):
            raise ValueError(f"visible sides must lie in [1, {self.k}], got {sides}")
        if any(c < 0 for _, c in self.visible):
            raise ValueError("visible counts must be >= 0")
        if sum(c for _, c in self.visible) > self.n:
            raise ValueError(
                f"visible counts sum to {sum(c for _, c in self.visible)} > n={self.n}"
            )
        if list(self.visible) != sorted(self.visible):
            raise ValueError("visible must be sorted by side index")

    @classmethod
    def from_mapping(cls, k: int, n: int, visible: Mapping[int, int]) -> "AgentView":
        items = tuple(sorted((int(s), int(c)) for s, c in visible.items()))
        return cls(k=k, n=n, visible=items)

    @classmethod
    def full(cls, counts: CountVector) -> "AgentView":
        return cls.from_mapping(
            counts.k, counts.n, {i + 1: c for i, c in enumerate(counts.counts)}
        )

    @classmethod
    def empty(cls, k: int, n: int) -> "AgentView":
        return cls(k=k, n=n, visible=())

    @property
    def visible_sides(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.visible)

    @property
    def visible_total(self) -> int:
        return int(sum(c for _, c in self.visible))


def log_power(exponents, log_nodes: np.ndarray) -> np.ndarray:
    """log prod_i theta_i^{e_i} at each node, as e_i log theta_i over e_i != 0.

    `log_nodes` is the (k, N) table of log theta_i; the kept terms are added
    left to right, one contiguous row at a time, as numpy sums a row of
    fewer than 8 terms, so the result equals `(e * log theta).sum(axis=1)`
    bit for bit there (numpy may sum longer rows pairwise, a few ulps off).
    """
    e = np.asarray(exponents, dtype=float)
    if log_nodes.shape[0] != e.size:
        raise ValueError(f"nodes have {log_nodes.shape[0]} components, expected {e.size}")
    cols = np.flatnonzero(e)
    if cols.size == 0:
        return np.zeros(log_nodes.shape[1])
    out = e[cols[0]] * log_nodes[cols[0]]
    for i in cols[1:]:
        out += e[i] * log_nodes[i]
    return out


def view_log_likelihood_nodes(view: AgentView, nodes: np.ndarray,
                              log_nodes: np.ndarray) -> np.ndarray:
    """log probability of the visible counts at each row of an (N, k) array,
    whose (k, N) log columns are `log_nodes`.

    The hidden counts are summed out in the closed aggregated form of the
    module docstring; for a full view this is the multinomial pmf, and an
    empty view carries no information (0 everywhere).  A zero theta under
    a positive count gives -inf.  Zero visible counts drop out of the
    product term (see `log_power`); the rest term still sums theta over
    every visible side.
    """
    if nodes.shape[1] != view.k:
        raise ValueError(f"nodes have {nodes.shape[1]} components, expected {view.k}")
    if not view.visible:
        return np.zeros(nodes.shape[0])
    sides = np.asarray(view.visible_sides, dtype=np.int64) - 1
    rest_count = float(view.n - view.visible_total)
    exponents = np.zeros(view.k)
    exponents[sides] = [c for _, c in view.visible]
    out = (math.lgamma(view.n + 1.0)
           - float(np.sum([math.lgamma(c + 1.0) for _, c in view.visible]))
           - math.lgamma(rest_count + 1.0)) + log_power(exponents, log_nodes)
    if rest_count > 0:
        rest = np.maximum(1.0 - nodes[:, sides].sum(axis=1), 0.0)
        with np.errstate(divide="ignore"):
            out += rest_count * np.log(rest)
    return out


def simulate_rolls(theta_true, n: int, seed: int) -> CountVector:
    """Roll the die n times: counts ~ Multinomial(n, theta_true), seeded."""
    if n < 0:
        raise ValueError("n must be >= 0")
    t = theta_true.as_array() if isinstance(theta_true, ThetaPoint) else ThetaPoint.of(theta_true).as_array()
    rng = dirichlet_sampler(seed)
    counts = rng.multinomial(n, t / t.sum())
    return CountVector.of(counts)
