"""The measured process: one client issuing `network` requests in a closed loop.

Started by run.py as a fresh interpreter.  It imports the package from the
given source tree, makes one cold request, prints "ready", and (unless
--setup-only) times warm requests until --seconds have passed.  Each
request is a `maxent_agents.cli.main([...])` call from input files to an
output file.  With --trace 1 the first half of the time runs untraced and
the second half traced, so the difference of the two medians is the
tracing overhead.  The result goes to <workdir>/child_result.json.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def _request(cli, workdir: Path, counts: Path, out: Path) -> tuple[int, float]:
    argv = ["network", "--config", str(workdir / "config.json"),
            "--counts", str(counts), "--out", str(out)]
    t0 = time.perf_counter()
    rc = cli.main(argv)
    return rc, time.perf_counter() - t0


def _digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--agents", type=int, required=True)
    ap.add_argument("--setup-only", default=None, metavar="OUT_NAME")
    args = ap.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from maxent_agents import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"maxent_agents imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3

    workdir = Path(args.workdir)
    if args.setup_only:
        _request(cli, workdir, workdir / "cold_counts.json", workdir / args.setup_only)
        print("ready", flush=True)
        return 0
    cold_rc, _ = _request(cli, workdir, workdir / "cold_counts.json", workdir / "cold.json")
    print("ready", flush=True)

    from tracing import Tracer, request_metrics

    pool = sorted(workdir.glob("counts_*.json"))
    requests = []
    tracer = Tracer()
    phases = ((0, args.seconds / 2), (1, args.seconds / 2)) if args.trace else ((0, args.seconds),)
    for traced, seconds in phases:
        with tracer if traced else nullcontext():
            deadline = time.perf_counter() + seconds
            start = len(requests)
            while len(requests) == start or time.perf_counter() < deadline:
                i = len(requests)
                slot = i % len(pool)
                out = workdir / f"out_{slot:04d}.json"
                tracer.request = i
                rc, dt = _request(cli, workdir, pool[slot], out)
                requests.append({"slot": slot, "rc": rc, "seconds": dt, "traced": traced,
                                 "digest": _digest(out) if rc == 0 else None})

    result = {
        "cold_rc": cold_rc,
        "requests": requests,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": request_metrics(tracer.spans, args.agents),
        "missing": tracer.missing,
    }
    (workdir / "child_result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
