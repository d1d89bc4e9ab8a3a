"""Experiment configuration and result files.

Every JSON file written here is one line from the standard library's
encoder: keys keep their insertion order, each float is printed as
Python's shortest round-trip repr (it parses back to the same double), a
NaN or an infinity is refused, and the file ends with a newline.  Given
the same inputs and seeds, outputs are therefore byte-identical across
runs and platforms with the same floating-point environment.  The fit's
weighted sums take a fixed order, but the summary's means and variances
are BLAS products: on large grids (k=3 at r=600) they may move in their
last digits with the BLAS thread count, so pin it when comparing those.
Outputs are rewritten in place and then cut to length, without O_TRUNC: on
ext4 (auto_da_alloc) truncating a non-empty file to zero makes close start
writeback.  A crash mid-write can thus leave a tail of the old bytes where
it used to leave a short file.

Counts files have the fixed schema {k, n, counts: [...], seed,
theta_true (optional)}.  Sweep tables are comma-separated with a header
row and the same float text.  The constraint can also be given as
command-line shorthand, "f=1,0,-2;F=0".
"""
from __future__ import annotations

import json
import math
import os
import stat
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .engine import DEFAULT_RESOLUTION, ConstraintSpec, GridEngine
from .multinomial import CountVector
from .network import AgentNetwork, complete_network, triangle_lattice_network
from .simplex import NODE_BUDGET, ThetaPoint


MAX_COUNT = 2**53  # the likelihood takes counts as float64s, exact up to here
_ENCODER = json.JSONEncoder(allow_nan=False)  # json.dumps with a keyword builds one per call


def check_count(value: int, name: str) -> int:
    """`value`, or a ValueError naming `name` if it exceeds MAX_COUNT."""
    if value > MAX_COUNT:
        raise ValueError(f"{name} must be <= 2**53 to be exact as a float64, got {value}")
    return value


def as_field(value: Any, name: str, kind: Any = int):
    """`value` as `kind`: int, float, or [kind] for a JSON list of them.  None (a
    missing field), a bool, a value of another shape or that `kind` refuses, and
    a non-integral number for an int raise a ValueError that names the field."""
    if value is None:
        raise ValueError(f"{name} is missing")
    if isinstance(kind, list) and isinstance(value, list):
        return [as_field(v, name, kind[0]) for v in value]
    try:
        out = None if isinstance(value, bool) or isinstance(kind, list) else kind(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or (kind is int and out != value and not isinstance(value, str)):
        what = "an integer" if kind is int else "a number" if kind is float else "a list"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return out


def _dumps(payload: Mapping[str, Any]) -> str:
    """The text of `json.dumps(payload, allow_nan=False)`, keys being strings.  In a list of
    non-empty dicts, an element whose members after its first are the very objects of an earlier
    one's reuses their text: agents that share one fit encode its body, and its floats, once."""
    members = []
    for key, value in payload.items():
        if isinstance(value, list) and all(isinstance(v, Mapping) and v for v in value):
            tails, texts = {}, []  # (key, id) of the members after an element's first -> text
            for element in value:
                (first, first_value), *rest = element.items()
                shape = tuple((k, id(v)) for k, v in rest)
                if shape not in tails:
                    tails[shape] = ", " + _ENCODER.encode(dict(rest))[1:-1] if rest else ""
                texts.append("{" + _ENCODER.encode({first: first_value})[1:-1] + tails[shape] + "}")
            text = "[" + ", ".join(texts) + "]"
        else:
            text = _ENCODER.encode(value)
        members.append(f"{_ENCODER.encode(key)}: {text}")
    return "{" + ", ".join(members) + "}"


def _write_text(path: str | Path, text: str) -> None:
    """Write `text` as UTF-8 over `path` in place, then cut a regular file at its new length."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666),
              "wb") as out:
        size = out.write(text.encode("utf-8"))  # a buffered write retries short writes
        if stat.S_ISREG(os.fstat(out.fileno()).st_mode):  # a device or FIFO cannot be cut
            out.truncate(size)


def write_payload(path: str | Path, payload: Mapping[str, Any]) -> None:
    """Write `payload` as one line of strict JSON, the text of `json.dumps`; refuse a NaN or
    infinity, naming `path`."""
    try:
        text = _dumps(payload)
    except ValueError as exc:
        raise ValueError(f"{path}: cannot write a non-finite value ({exc})") from None
    _write_text(path, text + "\n")


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
            f_part = [as_field(v, "constraint f", float) for v in value.split(",") if v.strip()]
        elif key == "F":
            target_part = as_field(value, "constraint F", float)
        else:
            raise ValueError(f"unknown constraint field {key!r} in {text!r}")
    if f_part is None or target_part is None:
        raise ValueError(f"constraint shorthand needs both f=... and F=..., got {text!r}")
    return ConstraintSpec.of(f_part, target_part)


@dataclass(frozen=True)
class EngineSettings:
    """The grid resolution, if one is configured."""

    grid: int | None = None

    def __post_init__(self) -> None:
        if self.grid is not None and self.grid < 1:
            raise ValueError("config engine.grid or --grid: the grid resolution r must be >= 1, "
                             f"got {self.grid}")

    def build(self, k: int) -> GridEngine:
        """The engine for dimension k: the configured grid, else the grid of
        DEFAULT_RESOLUTION for k <= 4; any other k needs a configured grid."""
        if self.grid is not None:
            return GridEngine(k, self.grid)
        if k not in DEFAULT_RESOLUTION:
            raise ValueError(f"no default engine for k={k}: set config engine.grid or --grid")
        return GridEngine(k, DEFAULT_RESOLUTION[k])

    def to_payload(self) -> dict:
        return {} if self.grid is None else {"grid": self.grid}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "EngineSettings":
        for key in payload:
            if key != "grid":
                raise ValueError(f"config engine.{key} is unknown: the engine section takes "
                                 "only grid")
        return cls(as_field(payload["grid"], "config engine.grid") if "grid" in payload else None)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs: die, prior, constraint, network, engine.
    A missing prior is the flat one, built once k is checked."""

    k: int
    n: int
    seed: int
    prior: tuple[float, ...] | None = None
    constraint: ConstraintSpec | None = None
    theta_true: tuple[float, ...] | None = None
    network: dict | None = None
    round: int = 0
    engine: EngineSettings = EngineSettings()

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.k > NODE_BUDGET:  # a grid has at least k nodes
            raise ValueError(f"config k must be <= {NODE_BUDGET}, the node budget, got {self.k}")
        if self.prior is None:
            object.__setattr__(self, "prior", (1.0,) * self.k)
        if self.n < 0:
            raise ValueError("n must be >= 0")
        check_count(self.n, "config n")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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

        def field(key: str, default: Any = None, kind: Any = int):
            return as_field(spec.get(key, default), f"config network.{key}", kind)

        def agents(size: int, named: str) -> int:
            """`size`, refused before a graph of that many agents is built unless it is k."""
            if size != self.k:
                raise ValueError(f"config {named} gives {size} agents, but config k is {self.k}")
            return size

        if preset == "complete":
            return complete_network(agents(field("k", self.k), "network.k"))
        if preset == "triangle-lattice":
            rows, cols = field("rows"), field("cols")
            agents(rows * cols, "network.rows * network.cols")
            return triangle_lattice_network(rows, cols)
        if preset == "explicit":
            k = agents(field("k", self.k), "network.k")
            edges = field("edges", [], [[int]])
            for edge in edges:
                if len(edge) != 2:
                    raise ValueError(f"config network.edges entry {edge} is not a pair of agents")
            return AgentNetwork(k, edges)
        raise ValueError(
            f"unknown network preset {preset!r}; use complete, triangle-lattice or explicit"
        )

    def to_payload(self) -> dict:
        c, theta = self.constraint, self.theta_true
        return {
            "k": self.k,
            "n": self.n,
            "seed": self.seed,
            "prior": [float(v) for v in self.prior],
            "constraint": None if c is None else {"f": [float(v) for v in c.f], "F": float(c.F)},
            "theta_true": None if theta is None else [float(v) for v in theta],
            "network": self.network,
            "round": self.round,
            "engine": self.engine.to_payload(),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ExperimentConfig":
        if not isinstance(payload, Mapping):
            raise ValueError(f"config must be a JSON object, got {type(payload).__name__}")
        for section in ("constraint", "engine", "network"):
            value = payload.get(section)
            if value is not None and not isinstance(value, Mapping):
                got = type(value).__name__
                raise ValueError(f"config {section} must be a JSON object, got {got}")

        def field(key: str, default: Any = None, kind: Any = int):
            *section, leaf = key.split(".")
            owner = payload[section[0]] if section else payload
            return as_field(owner.get(leaf, default), f"config {key}", kind)

        c, network, theta = (payload.get(key) for key in ("constraint", "network", "theta_true"))
        return cls(
            k=field("k"),
            n=field("n"),
            seed=field("seed", 0),
            prior=tuple(field("prior", kind=[float])) if "prior" in payload else None,
            constraint=None if c is None else ConstraintSpec.of(
                field("constraint.f", kind=[float]), field("constraint.F", kind=float)),
            theta_true=None if theta is None else tuple(field("theta_true", kind=[float])),
            network=dict(network) if network else None,
            round=field("round", 0),
            engine=EngineSettings.from_payload(payload.get("engine") or {}),
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
    if not isinstance(payload, Mapping):
        raise ValueError(f"counts file must be a JSON object, got {type(payload).__name__}")
    k, n, entries = (as_field(payload.get(key), f"counts file {key}", kind)
                     for key, kind in (("k", int), ("n", int), ("counts", [int])))
    check_count(n, "counts file n")
    counts = CountVector(tuple(check_count(c, "counts file counts") for c in entries))
    if counts.k != k:
        raise ValueError(f"counts file k={k} does not match {counts.k} entries")
    if counts.n != n:
        raise ValueError(f"counts file n={n} but counts sum to {counts.n}")
    return counts


def write_sweep_csv(path: str | Path, rows: Sequence[Mapping[str, float]]) -> None:
    """Write `rows` under a header, floats as `float.__repr__`; refuse a non-finite value."""
    cols = ("beta", "log_zeta", "expected_f", "s_me")
    table = [[row[c] for c in cols] for row in rows]
    if not all(math.isfinite(v) for values in table for v in values):
        raise ValueError(f"{path}: cannot write a non-finite value")
    lines = [",".join(cols)] + [",".join(map(float.__repr__, values)) for values in table]
    _write_text(path, "\n".join(lines) + "\n")
