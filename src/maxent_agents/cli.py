"""Command-line experiment runner.

Commands
--------
simulate    roll the die and write a counts file
infer       run one agent's inference for a chosen view
network     run every agent in a network and compare their beliefs
sweep-beta  tabulate log_zeta, <f> and s_me over a range of multipliers

Exit codes: 0 success, 2 infeasible constraint, 3 numerical
non-convergence, 4 input error (a malformed command line too).  Wall-clock
timing goes to stderr so output files stay byte-deterministic for fixed seeds.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import replace
from typing import Any

from .engine import (MARGINAL_ABSCISSA, Belief, ConstraintSpec, ConvergenceError,
                     InfeasibleConstraintError, PriorSpec, me_entropy, tilt_table)
from .fileio import (
    EngineSettings,
    ExperimentConfig,
    as_field,
    load_config,
    parse_constraint_shorthand,
    read_counts,
    write_counts,
    write_payload,
    write_sweep_csv,
)
from .multinomial import AgentView, CountVector, simulate_rolls
from .network import belief_divergence, fit_view, infer_all

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_NONCONVERGED = 3
EXIT_INPUT = 4
MAX_SWEEP_ROWS = 1_000_000


def _add_common(parser: argparse.ArgumentParser, overrides: bool = True) -> None:
    """--config and --out; with `overrides`, the engine and constraint overrides."""
    parser.add_argument("--config", required=True, help="experiment config (JSON)")
    parser.add_argument("--out", required=True, help="output path")
    if not overrides:
        return
    parser.add_argument("--grid", type=int, default=None, help="grid resolution override")
    parser.add_argument(
        "--constraint", default=None,
        help='moment constraint shorthand "f=1,0,-2;F=0" or "none" (overrides config)',
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxent-agents",
        description="belief updating with counts and a shared bias constraint",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="roll the die, write a counts file")
    _add_common(p, overrides=False)
    p.add_argument("--seed", type=int, default=None, help="override config seed")

    p = sub.add_parser("infer", help="single-agent inference for one view")
    _add_common(p)
    p.add_argument("--counts", required=True, help="counts file (JSON)")
    p.add_argument(
        "--view", default=None,
        help='visible sides "1,3" | "all" (default) | "none" for an empty view',
    )

    p = sub.add_parser("network", help="inference for every agent in the network")
    _add_common(p)
    p.add_argument("--counts", required=True, help="counts file (JSON)")
    p.add_argument("--round", type=int, default=None, help="visibility round override")

    p = sub.add_parser("sweep-beta", help="tabulate the tilt over a multiplier range")
    _add_common(p)
    p.add_argument("--counts", required=True, help="counts file (JSON)")
    p.add_argument("--view", default=None, help='visible sides, as for infer')
    p.add_argument("--beta-min", type=float, required=True)
    p.add_argument("--beta-max", type=float, required=True)
    p.add_argument("--beta-step", type=float, required=True)
    return parser


def _resolved_config(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config)
    updates: dict[str, Any] = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    grid, constraint = (getattr(args, key, None) for key in ("grid", "constraint"))
    if grid is not None:
        updates["engine"] = EngineSettings(grid)
    if constraint is not None:
        updates["constraint"] = parse_constraint_shorthand(constraint)
    if getattr(args, "round", None) is not None:
        updates["round"] = args.round
    return replace(config, **updates)


def _problem(args: argparse.Namespace):
    """The shared prologue of infer, network and sweep-beta: the resolved
    config, the counts (checked against its k and n), prior, constraint and engine."""
    config = _resolved_config(args)
    counts = read_counts(args.counts)
    if counts.k != config.k:
        raise ValueError(f"counts file has k={counts.k}, config has k={config.k}")
    if counts.n != config.n:
        raise ValueError(f"counts file has n={counts.n}, config has n={config.n}")
    prior = PriorSpec.of(config.prior)
    constraint = config.constraint or ConstraintSpec.none(config.k)
    return config, counts, prior, constraint, config.engine.build(config.k)


def _parse_view(text: str | None, counts: CountVector) -> AgentView:
    if text is None or text.strip().lower() == "all":
        return AgentView.full(counts)
    if text.strip().lower() == "none":
        return AgentView.empty(counts.k, counts.n)
    sides = [as_field(v, "--view side") for v in text.split(",") if v.strip()]
    for s in sides:
        if not 1 <= s <= counts.k:
            raise ValueError(f"--view side {s} is out of range [1, {counts.k}]")
    if len(set(sides)) != len(sides):
        raise ValueError(f"--view repeats a side: {text!r}")
    return AgentView.from_mapping(
        counts.k, counts.n, {s: counts.counts[s - 1] for s in sides}
    )


def _agent_payload(belief: Belief, s_me: float) -> dict:
    solved = belief.solved
    return {
        "view": {"k": belief.view.k, "n": belief.view.n,
                 "visible": [[s, c] for s, c in belief.view.visible]},
        "beta": solved.beta,
        "log_zeta": solved.log_zeta,
        "residual": solved.residual,
        "s_me": s_me,
        "expected_f": solved.expected_f,
        "normalization": belief.normalization,
        "means": list(belief.means),
        "variances": list(belief.variances),
        "marginal_abscissa": MARGINAL_ABSCISSA,
        "marginals": [list(row) for row in belief.marginals],
    }


def _write_record(out: str, config: ExperimentConfig, counts: CountVector, engine,
                  agents: list[dict], iterations: list[int], **extra: Any) -> None:
    """Write the infer and network record: config, counts, agents, the
    command's `extra` keys, then meta, in that order."""
    write_payload(out, {
        "config": config.to_payload(),
        "counts": list(counts.counts),
        "agents": agents,
        **extra,
        "meta": {"engine": engine.descriptor(), "solver_iterations": iterations},
    })


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _resolved_config(args)
    if config.theta_true is None:
        raise ValueError("simulate needs theta_true in the config")
    counts = simulate_rolls(config.theta_true, config.n, config.seed)
    write_counts(args.out, counts, config.seed, theta_true=config.theta_true)
    print(f"wrote {args.out}: counts={list(counts.counts)} n={counts.n}", file=sys.stderr)
    return EXIT_OK


def cmd_infer(args: argparse.Namespace) -> int:
    config, counts, prior, constraint, engine = _problem(args)
    view = _parse_view(args.view, counts)
    t0 = time.perf_counter()
    belief = fit_view(prior, view, constraint, engine)
    s_me = me_entropy(belief)
    elapsed = time.perf_counter() - t0
    solved = belief.solved
    _write_record(args.out, config, counts, engine, [_agent_payload(belief, s_me)],
                  [solved.iterations])
    print(f"infer: beta={solved.beta:.6g} residual={solved.residual:.3g} "
          f"({elapsed:.2f}s)", file=sys.stderr)
    return EXIT_OK


def cmd_network(args: argparse.Namespace) -> int:
    config, counts, prior, constraint, engine = _problem(args)
    net = config.build_network()
    t0 = time.perf_counter()
    entries, errors = infer_all(net, counts, config.round, prior, constraint, engine)
    agents_payload = []
    iterations = []
    bodies = {}  # belief -> agent body, keyed by identity; agents sharing a fit share one
    for agent in range(1, net.k + 1):
        if agent in entries:
            belief = entries[agent]
            if belief not in bodies:
                bodies[belief] = _agent_payload(belief, me_entropy(belief))
            agents_payload.append({"agent": agent, **bodies[belief]})
            iterations.append(belief.solved.iterations)
        else:
            agents_payload.append({"agent": agent, "error": f"agent {agent}: {errors[agent]}"})
    ok_agents = sorted(entries)
    divergences = [
        [
            belief_divergence(entries, a, b) if a != b else 0.0
            for b in ok_agents
        ]
        for a in ok_agents
    ]
    elapsed = time.perf_counter() - t0
    _write_record(args.out, config, counts, engine, agents_payload, iterations,
                  divergence_agents=ok_agents, divergences=divergences)
    print(f"network: {len(ok_agents)}/{net.k} agents converged ({elapsed:.2f}s)",
          file=sys.stderr)
    if not entries:
        if all(isinstance(e, InfeasibleConstraintError) for e in errors.values()):
            return EXIT_INFEASIBLE
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_sweep_beta(args: argparse.Namespace) -> int:
    _, counts, prior, constraint, engine = _problem(args)
    view = _parse_view(args.view, counts)
    for flag, value in (("--beta-min", args.beta_min), ("--beta-max", args.beta_max),
                        ("--beta-step", args.beta_step)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value!r}")
    if args.beta_step <= 0:
        raise ValueError("beta step must be > 0")
    if args.beta_max < args.beta_min:
        raise ValueError("beta range is empty")
    span = (args.beta_max - args.beta_min) / args.beta_step  # may overflow to inf
    # The last row is the largest i with beta_min + i * step <= beta_max, up to roundoff.
    n_rows = math.floor(span + 1e-9) + 1 if math.isfinite(span) else math.inf
    if n_rows > MAX_SWEEP_ROWS:
        raise ValueError(f"beta range gives {n_rows} rows, more than {MAX_SWEEP_ROWS}")
    betas = [args.beta_min + i * args.beta_step for i in range(n_rows)]
    rows = [
        {"beta": beta, "log_zeta": lz, "expected_f": ef, "s_me": lz - beta * ef}
        for beta, (lz, ef) in zip(betas, tilt_table(prior, view, constraint, betas, engine))
    ]
    write_sweep_csv(args.out, rows)
    print(f"sweep-beta: {len(rows)} rows -> {args.out}", file=sys.stderr)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage and `error:` line
        return EXIT_INPUT if exc.code else EXIT_OK
    handlers = {
        "simulate": cmd_simulate,
        "infer": cmd_infer,
        "network": cmd_network,
        "sweep-beta": cmd_sweep_beta,
    }
    try:
        return handlers[args.command](args)
    except InfeasibleConstraintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        # NodeBudgetError lands here too: an oversized grid is an input problem.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
