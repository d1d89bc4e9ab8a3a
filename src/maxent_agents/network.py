"""Networks of agents, visibility rounds, and per-agent inference.

One agent sits on each vertex of an undirected graph, and agent i watches
die side i; it always knows the total roll count and the shared moment
target, and it sees the counts of every side watched within graph
distance `round` of itself (round 0: own side only; round 1: own side plus
direct neighbors; a round at least the graph diameter reveals everything).
Every agent runs the same inference engine on its own view.  Agents with
identical views share one fit (one beta solve, one set of node masses, one
`Belief`), so their beliefs are the same object and their divergence is
exactly 0.  Fits touch only immutable shared inputs and results are
collected in agent-index order.
"""
from __future__ import annotations

from dataclasses import dataclass

from .engine import Belief, ConstraintSpec, PriorSpec, posterior, posterior_summary, solve_beta
from .multinomial import AgentView, CountVector


@dataclass(frozen=True)
class AgentNetwork:
    """Undirected graph on agents 1..k; agent i watches side i.  Edges come in any
    order and orientation and are stored once each, as sorted (low, high) pairs."""

    k: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop on agent {a}")
            if not (1 <= a <= self.k and 1 <= b <= self.k):
                raise ValueError(f"edge ({a}, {b}) out of range [1, {self.k}]")
        object.__setattr__(self, "edges",
                           tuple(sorted({(min(a, b), max(a, b)) for a, b in self.edges})))

    def neighbors(self, agent: int) -> tuple[int, ...]:
        out = [b for a, b in self.edges if a == agent]
        out += [a for a, b in self.edges if b == agent]
        return tuple(sorted(out))


def complete_network(k: int) -> AgentNetwork:
    edges = [(a, b) for a in range(1, k + 1) for b in range(a + 1, k + 1)]
    return AgentNetwork(k=k, edges=tuple(edges))


def triangle_lattice_network(rows: int, cols: int) -> AgentNetwork:
    """Parallelogram patch of the triangular lattice; interior degree is 6.

    Vertex (i, j) is agent i*cols + j + 1; neighbor offsets are (0, +-1),
    (+-1, 0), (+1, -1) and (-1, +1).  Boundary agents simply have fewer
    neighbors.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    edges = []
    offsets = [(0, 1), (1, 0), (1, -1)]
    for i in range(rows):
        for j in range(cols):
            a = i * cols + j + 1
            for di, dj in offsets:
                ii, jj = i + di, j + dj
                if 0 <= ii < rows and 0 <= jj < cols:
                    edges.append((a, ii * cols + jj + 1))
    return AgentNetwork(rows * cols, edges)


def views_at_round(net: AgentNetwork, counts: CountVector, round: int) -> dict[int, AgentView]:
    """Each agent's view after `round` hops of glancing.

    Agent a sees the counts of the sides of every agent within graph
    distance <= round, its own side included: its seen set grows by one
    frontier of neighbors per round, and stops once a frontier is empty.
    """
    if counts.k != net.k:
        raise ValueError(f"counts have k={counts.k} but network has k={net.k}")
    if round < 0:
        raise ValueError("round must be >= 0")
    views = {}
    for agent in range(1, net.k + 1):
        seen, frontier = {agent}, {agent}
        for _ in range(round):
            frontier = {b for a in frontier for b in net.neighbors(a)} - seen
            if not frontier:
                break
            seen |= frontier
        visible = {s: counts.counts[s - 1] for s in seen}
        views[agent] = AgentView.from_mapping(net.k, counts.n, visible)
    return views


def fit_view(prior: PriorSpec, view: AgentView, constraint: ConstraintSpec,
             engine) -> Belief:
    """The one fit path from (prior, view, constraint, engine) to a belief:
    the beta solve, its node masses and the belief that summarizes them."""
    solved = solve_beta(prior, view, constraint, engine)
    return posterior_summary(solved, posterior(solved))


def infer_all(net: AgentNetwork, counts: CountVector, round: int, prior: PriorSpec,
              constraint: ConstraintSpec,
              engine) -> tuple[dict[int, Belief], dict[int, Exception]]:
    """Run the same solve for every agent on its own view; return
    (entries, errors), each keyed by agent.

    Each distinct view is fitted once per call and every agent holding it
    gets the same entry.  One view failing (infeasible constraint,
    non-convergence) does not abort the others; every agent holding it gets
    the exception as raised, one object shared among them.
    """
    views = views_at_round(net, counts, round)
    fits: dict[AgentView, Belief | Exception] = {}
    entries: dict[int, Belief] = {}
    errors: dict[int, Exception] = {}
    for agent in range(1, net.k + 1):
        view = views[agent]
        if view not in fits:
            try:
                fits[view] = fit_view(prior, view, constraint, engine)
            except Exception as exc:  # noqa: BLE001 - per-agent isolation is the contract
                fits[view] = exc
        fit = fits[view]
        (entries if isinstance(fit, Belief) else errors)[agent] = fit
    return entries, errors


def belief_divergence(entries: dict[int, Belief], a: int, b: int) -> float:
    """Symmetrized relative entropy between two agents' posteriors.

    KL(p_a || p_b) + KL(p_b || p_a), each term evaluated under the node set
    of the belief whose expectation it is (its nodes and kept weights);
    >= 0, and 0 exactly when the two densities coincide on all nodes;
    agents sharing one fit get 0.0 at once.  Both densities of a term take
    f at the nodes from that belief's family when the two share the
    constraint's f, so only the view likelihood is evaluated per belief.
    An agent with no entry (unknown, or its fit failed) raises `KeyError`.
    """
    pa, pb = entries[a], entries[b]
    if pa is pb:
        return 0.0

    def one_sided(p: Belief, q: Belief) -> float:
        fam = p.solved.family
        ns, shared_f = fam.nodes, fam.spec.f == q.solved.family.spec.f
        log_p = p.log_density_at(ns.nodes, ns.log_nodes, fam.f)
        log_q = q.log_density_at(ns.nodes, ns.log_nodes, fam.f if shared_f else None)
        return float((p.solved.weights * (log_p - log_q)).sum())  # fixed order, no BLAS

    return one_sided(pa, pb) + one_sided(pb, pa)
