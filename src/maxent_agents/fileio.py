"""Experiment configuration and result files.

Everything on disk is JSON written by a small canonical emitter: keys keep
their insertion order, numeric fields are printed with 17 significant
digits (which round-trips IEEE doubles exactly), and files end with a
newline.  Given the same inputs and seeds, output files are therefore
byte-identical across runs and platforms with the same floating-point
environment.

Counts files have the fixed schema {k, n, counts: [...], seed,
theta_true (optional)}.  Sweep tables are comma-separated with a header
row.  The constraint can also be given as command-line shorthand,
"f=1,0,-2;F=0".
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from .engine import DEFAULT_MC_SAMPLES, DEFAULT_RESOLUTION, ConstraintSpec, GridEngine, McEngine
from .multinomial import AgentView, CountVector
from .network import AgentNetwork, complete_network, explicit_network, triangle_lattice_network
from .simplex import ThetaPoint


def _format_float(x: float) -> str:
    s = format(x, ".17g")
    if "." in s or "e" in s:
        return s
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return s + ".0"


def dumps_canonical(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON emitter; floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {dumps_canonical(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(v) is float for v in obj):
            return "[" + ", ".join(map(_format_float, obj)) + "]"
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
            return "[" + ", ".join(dumps_canonical(v) for v in obj) + "]"
        items = ",\n".join(f"{inner}{dumps_canonical(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_payload(path: str | Path, payload: Mapping[str, Any]) -> None:
    Path(path).write_text(dumps_canonical(payload) + "\n", encoding="utf-8", newline="\n")


def read_payload(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def parse_constraint_shorthand(text: str) -> ConstraintSpec | None:
    """Parse "f=1,0,-2;F=0" into a ConstraintSpec ("none" disables it)."""
    text = text.strip()
    if text.lower() in ("none", ""):
        return None
    f_part = target_part = None
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, _, value = chunk.partition("=")
        key = key.strip()
        if key == "f":
            f_part = [float(v) for v in value.split(",") if v.strip()]
        elif key == "F":
            target_part = float(value)
        else:
            raise ValueError(f"unknown constraint field {key!r} in {text!r}")
    if f_part is None or target_part is None:
        raise ValueError(f"constraint shorthand needs both f=... and F=..., got {text!r}")
    return ConstraintSpec.of(f_part, target_part)


@dataclass(frozen=True)
class EngineSettings:
    """Grid resolution or Monte-Carlo sample count/seed."""

    grid: int | None = None
    mc_samples: int | None = None
    mc_seed: int = 0

    def __post_init__(self) -> None:
        if self.grid is not None and self.mc_samples is not None:
            raise ValueError("choose either a grid resolution or mc_samples, not both")

    def build(self, k: int):
        """The engine for dimension k: the configured grid or sample count,
        else the grid of DEFAULT_RESOLUTION for k <= 4 and DEFAULT_MC_SAMPLES
        draws above; Monte-Carlo engines always use `mc_seed`."""
        if self.grid is not None:
            return GridEngine(k, self.grid)
        if self.mc_samples is None and k in DEFAULT_RESOLUTION:
            return GridEngine(k, DEFAULT_RESOLUTION[k])
        samples = DEFAULT_MC_SAMPLES if self.mc_samples is None else self.mc_samples
        return McEngine(k, samples, self.mc_seed)

    def to_payload(self) -> dict:
        payload: dict[str, Any] = {}
        if self.grid is not None:
            payload["grid"] = self.grid
        if self.mc_samples is not None:
            payload["mc_samples"] = self.mc_samples
        if self.mc_samples is not None or self.mc_seed:
            payload["mc_seed"] = self.mc_seed
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any] | None) -> "EngineSettings":
        if payload is None:
            return cls()
        if not isinstance(payload, Mapping):
            raise ValueError(f"config engine must be a JSON object, got {type(payload).__name__}")
        return cls(
            grid=int(payload["grid"]) if "grid" in payload else None,
            mc_samples=int(payload["mc_samples"]) if "mc_samples" in payload else None,
            mc_seed=int(payload.get("mc_seed", 0)),
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs: die, prior, constraint, network, engine."""

    k: int
    n: int
    seed: int
    prior: tuple[float, ...]
    constraint: ConstraintSpec | None = None
    theta_true: tuple[float, ...] | None = None
    network: dict | None = None
    round: int = 0
    engine: EngineSettings = EngineSettings()

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if len(self.prior) != self.k:
            raise ValueError(f"prior has {len(self.prior)} parameters, expected {self.k}")
        if self.constraint is not None and self.constraint.k != self.k:
            raise ValueError(f"constraint f has length {self.constraint.k}, expected {self.k}")
        if self.theta_true is not None:
            ThetaPoint.of(self.theta_true)
            if len(self.theta_true) != self.k:
                raise ValueError("theta_true has wrong dimension")
        if self.round < 0:
            raise ValueError("round must be >= 0")

    def build_network(self) -> AgentNetwork:
        spec = self.network or {"preset": "complete"}
        preset = spec.get("preset", "explicit" if "edges" in spec else None)
        if preset == "complete":
            return complete_network(int(spec.get("k", self.k)))
        if preset == "triangle-lattice":
            return triangle_lattice_network(int(spec["rows"]), int(spec["cols"]))
        if preset == "explicit":
            edges = [(int(a), int(b)) for a, b in spec.get("edges", [])]
            return explicit_network(int(spec.get("k", self.k)), edges)
        raise ValueError(
            f"unknown network preset {preset!r}; use complete, triangle-lattice or explicit"
        )

    def to_payload(self) -> dict:
        payload: dict[str, Any] = {
            "k": self.k,
            "n": self.n,
            "seed": self.seed,
            "prior": [float(v) for v in self.prior],
        }
        payload["constraint"] = (
            {"f": [float(v) for v in self.constraint.f], "F": float(self.constraint.F)}
            if self.constraint is not None
            else None
        )
        payload["theta_true"] = (
            [float(v) for v in self.theta_true] if self.theta_true is not None else None
        )
        payload["network"] = self.network
        payload["round"] = self.round
        payload["engine"] = self.engine.to_payload()
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ExperimentConfig":
        if not isinstance(payload, Mapping):
            raise ValueError(f"config must be a JSON object, got {type(payload).__name__}")
        network = payload.get("network")
        if network is not None and not isinstance(network, Mapping):
            raise ValueError(f"config network must be a JSON object, got {type(network).__name__}")
        constraint = None
        if payload.get("constraint") is not None:
            c = payload["constraint"]
            constraint = ConstraintSpec.of(c["f"], c["F"])
        theta_true = (
            tuple(float(v) for v in payload["theta_true"])
            if payload.get("theta_true") is not None
            else None
        )
        return cls(
            k=int(payload["k"]),
            n=int(payload["n"]),
            seed=int(payload.get("seed", 0)),
            prior=tuple(float(v) for v in payload.get("prior", [1.0] * int(payload["k"]))),
            constraint=constraint,
            theta_true=theta_true,
            network=dict(network) if network else None,
            round=int(payload.get("round", 0)),
            engine=EngineSettings.from_payload(payload.get("engine")),
        )


def load_config(path: str | Path) -> ExperimentConfig:
    return ExperimentConfig.from_payload(read_payload(path))


def write_counts(path: str | Path, counts: CountVector, seed: int,
                 theta_true: Sequence[float] | None = None) -> None:
    payload: dict[str, Any] = {
        "k": counts.k,
        "n": counts.n,
        "counts": list(counts.counts),
        "seed": seed,
    }
    if theta_true is not None:
        payload["theta_true"] = [float(v) for v in theta_true]
    write_payload(path, payload)


def read_counts(path: str | Path) -> CountVector:
    payload = read_payload(path)
    counts = CountVector.of(payload["counts"])
    if counts.k != int(payload["k"]):
        raise ValueError(f"counts file k={payload['k']} does not match {counts.k} entries")
    if counts.n != int(payload["n"]):
        raise ValueError(f"counts file n={payload['n']} but counts sum to {counts.n}")
    return counts


def view_to_payload(view: AgentView) -> dict:
    return {"k": view.k, "n": view.n, "visible": [[s, c] for s, c in view.visible]}


def write_sweep_csv(path: str | Path, rows: Sequence[Mapping[str, float]]) -> None:
    lines = ["beta,log_zeta,expected_f,s_me"]
    for row in rows:
        lines.append(
            ",".join(
                _format_float(row[col]) for col in ("beta", "log_zeta", "expected_f", "s_me")
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
