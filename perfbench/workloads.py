"""Workload definitions and seeded input generation.

Every workload runs the `network` command on a flat prior with the
constraint f = e_1 - 2 e_k, F = 0, and a fresh count vector per request:
theta is drawn from Dirichlet(1, ..., 1) and the counts from
Multinomial(n, theta).  All inputs derive from the benchmark seed and are
written to files before any timing starts; the program only sees files.
"""
from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import check


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    n: int
    network: dict
    round: int
    engine: dict
    # Distinct count files per run; requests cycle through them, so this
    # stays above the number of requests a run makes at the seed commit.
    pool: int
    why: str

    def constraint_f(self) -> list[float]:
        f = [0.0] * self.k
        f[0], f[-1] = 1.0, -2.0
        return f

    def setting(self) -> check.Setting:
        return check.Setting(k=self.k, n=self.n, f=tuple(self.constraint_f()), F=0.0,
                             grid=self.engine.get("grid"),
                             edges=check.network_edges(self.k, self.network), round=self.round)

    def config(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "seed": 0,
            "prior": [1.0] * self.k,
            "constraint": {"f": self.constraint_f(), "F": 0.0},
            "network": self.network,
            "round": self.round,
            "engine": self.engine,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="canonical-k3", k=3, n=10, network={"preset": "complete"}, round=1,
            engine={"grid": 240}, pool=768,
            why="README three-student run (k=3, r=240, 29,161 nodes): three agents share "
                "one full view, so memoization by view and a faster beta solve show here",
        ),
        Workload(
            name="lattice-k16", k=16, n=20,
            network={"preset": "triangle-lattice", "rows": 4, "cols": 4}, round=1,
            engine={"grid": 5}, pool=128,
            why="4x4 triangle lattice at r=5 (15,504 nodes): 16 distinct views and 240 "
                "divergence calls, so GEMM divergence and lumping show and memoization does not",
        ),
        Workload(
            name="mc-k6", k=6, n=30, network={"preset": "complete"}, round=0,
            engine={}, pool=128,
            why="k=6 round 0 on the default Monte-Carlo engine: bases depend on the view and "
                "no grid is built, so sampling shows and grid-only changes should not",
        ),
    )
}


def draw_counts(workload: Workload, seed: int) -> list[list[int]]:
    """`workload.pool` + 1 count vectors, a pure function of (workload, seed)."""
    salt = zlib.crc32(workload.name.encode())
    rng = np.random.default_rng([seed, salt])
    out = []
    for _ in range(workload.pool + 1):
        theta = rng.dirichlet(np.ones(workload.k))
        out.append([int(c) for c in rng.multinomial(workload.n, theta)])
    return out


def write_inputs(workload: Workload, seed: int, workdir: Path) -> dict[str, list[int]]:
    """Write the config, the cold request's counts and the pool of warm counts.

    Returns counts file name -> counts.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "config.json").write_text(json.dumps(workload.config()), encoding="utf-8")
    drawn = draw_counts(workload, seed)
    names = ["cold_counts.json"] + [f"counts_{i:04d}.json" for i in range(workload.pool)]
    for name, counts in zip(names, drawn):
        payload = {"k": workload.k, "n": workload.n, "counts": counts, "seed": seed}
        (workdir / name).write_text(json.dumps(payload), encoding="utf-8")
    return dict(zip(names, drawn))
