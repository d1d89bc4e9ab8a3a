"""Span tracing of the program from outside, by wrapping its functions.

The modules import names directly (`from .engine import solve_beta`), so
each wrapper is installed on the name where it is called, e.g.
`maxent_agents.network.solve_beta`, and methods on their class.  A target
that no longer exists is skipped and its metrics are reported absent.
Spans stay in memory: (name, start, end, parent index, request id, probe).
"""
from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

# (span name, module, attribute where the function is looked up when called)
TARGETS = (
    ("cli.main", "maxent_agents.cli", "main"),
    ("fileio.load", "maxent_agents.cli", "load_config"),
    ("fileio.load", "maxent_agents.cli", "read_counts"),
    ("fileio.write", "maxent_agents.cli", "write_payload"),
    ("network.infer_all", "maxent_agents.cli", "infer_all"),
    ("network.divergence", "maxent_agents.cli", "belief_divergence"),
    ("engine.entropy", "maxent_agents.cli", "me_entropy"),
    ("network.views", "maxent_agents.network", "views_at_round"),
    ("engine.solve", "maxent_agents.network", "solve_beta"),
    ("engine.posterior", "maxent_agents.network", "posterior"),
    ("engine.summary", "maxent_agents.network", "posterior_summary"),
    ("engine.basis", "maxent_agents.engine", "GridEngine.basis"),
    ("engine.basis", "maxent_agents.engine", "McEngine.basis"),
    ("multinomial.view_loglik", "maxent_agents.engine", "view_log_likelihood_nodes"),
    ("simplex.build_grid", "maxent_agents.engine", "build_grid"),
    ("simplex.sample_dirichlet", "maxent_agents.engine", "sample_dirichlet"),
)


def _probe(name: str, args: tuple, kwargs: dict, result):
    """The count a span carries, read from its arguments or result."""
    if name == "engine.solve":
        return getattr(result, "iterations", None)
    if name == "network.views":
        return (len(set(result.values())), len(result))
    if name == "network.divergence":
        return frozenset(args[1:3])
    if name == "simplex.build_grid":
        return result.nodes.shape[0]
    if name == "simplex.sample_dirichlet":
        return kwargs.get("samples", args[1] if len(args) > 1 else None)
    if name == "fileio.write":
        return os.path.getsize(args[0])
    return None


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.request = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.request, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            span[5] = _probe(name, args, kwargs, result)
            return result
        return wrapper

    def __enter__(self) -> "Tracer":
        for name, module, attr in self.targets:
            try:
                owner = importlib.import_module(module)
            except ImportError:
                owner = None
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(leaf) if owner is not None else None
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self._undo.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def request_metrics(spans: list[list], agents: int) -> dict[int, dict[str, float]]:
    """Per-layer metrics of each traced request, keyed by request id.

    A metric whose span never occurred in a request is absent from it.
    """
    selfs = self_times(spans)
    by_request: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(list))
    for span, self_s in zip(spans, selfs):
        by_request[span[4]][span[0]].append((span[2] - span[1], span[5], self_s))

    out = {}
    for req, named in by_request.items():
        m: dict[str, float] = {}

        def total(name: str) -> float:
            return sum(d for d, _, _ in named[name])

        for metric, name in (
            ("network.divergence_s", "network.divergence"),
            ("network.infer_all_s", "network.infer_all"),
            ("network.views_s", "network.views"),
            ("engine.solve_s", "engine.solve"),
            ("engine.posterior_s", "engine.posterior"),
            ("engine.summary_s", "engine.summary"),
            ("engine.entropy_s", "engine.entropy"),
            ("multinomial.view_loglik_s", "multinomial.view_loglik"),
            ("simplex.build_grid_s", "simplex.build_grid"),
            ("simplex.sample_dirichlet_s", "simplex.sample_dirichlet"),
            ("fileio.load_s", "fileio.load"),
            ("fileio.write_s", "fileio.write"),
        ):
            if name in named:
                m[metric] = total(name)
        for metric, name in (
            ("network.divergence_calls", "network.divergence"),
            ("engine.basis_calls", "engine.basis"),
            ("multinomial.view_loglik_evals", "multinomial.view_loglik"),
        ):
            if name in named:
                m[metric] = len(named[name])
        for metric, name in (
            ("simplex.grid_nodes", "simplex.build_grid"),
            ("simplex.samples_drawn", "simplex.sample_dirichlet"),
            ("fileio.bytes_written", "fileio.write"),
        ):
            if name in named:
                m[metric] = sum(p for _, p, _ in named[name])
        if "network.divergence" in named:
            pairs = {p for _, p, _ in named["network.divergence"]}
            m["network.divergence_useful_frac"] = len(pairs) / len(named["network.divergence"])
        if "network.views" in named:
            distinct, seen = (sum(p[i] for _, p, _ in named["network.views"]) for i in (0, 1))
            m["network.distinct_view_frac"] = distinct / seen
        solved = [p for _, p, _ in named.get("engine.solve", []) if p is not None]
        if solved:
            m["engine.solve_iterations"] = sum(solved) / len(solved)
            if sum(solved):
                m["engine.solve_s_per_iter"] = total("engine.solve") / sum(solved)
        if "engine.basis" in named:
            m["engine.builds_per_agent"] = len(named["engine.basis"]) / agents
        if "cli.main" in named:
            m["cli.self_s"] = sum(s for _, _, s in named["cli.main"])
        out[req] = m
    return out

