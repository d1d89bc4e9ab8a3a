"""Belief updating from partial counts plus a shared moment constraint.

A die with k sides is rolled n times; agents see some of the per-side
counts and all share one expected-value constraint on the side
probabilities.  Each agent's updated belief is the prior times the
likelihood of what it saw, exponentially tilted so the constraint holds.
"""
from .engine import (
    ConstraintSpec,
    GridEngine,
    InfeasibleConstraintError,
    PriorSpec,
    SolvedConstraint,
    me_entropy,
    posterior,
    posterior_summary,
    solve_beta,
)
from .fileio import EngineSettings, ExperimentConfig
from .multinomial import AgentView, CountVector, simulate_rolls
from .network import (
    belief_divergence,
    complete_network,
    infer_all,
    triangle_lattice_network,
    views_at_round,
)
from .simplex import NodeBudgetError, build_grid

__all__ = [
    "AgentView",
    "ConstraintSpec",
    "CountVector",
    "EngineSettings",
    "ExperimentConfig",
    "GridEngine",
    "InfeasibleConstraintError",
    "NodeBudgetError",
    "PriorSpec",
    "SolvedConstraint",
    "belief_divergence",
    "build_grid",
    "complete_network",
    "infer_all",
    "me_entropy",
    "posterior",
    "posterior_summary",
    "simulate_rolls",
    "solve_beta",
    "triangle_lattice_network",
    "views_at_round",
]

__version__ = "0.1.0"
