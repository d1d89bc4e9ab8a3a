"""Outside-in benchmark of the `network` command.

    python3 perfbench/run.py --workload canonical-k3 --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  One client issues `network` requests in a closed loop
from a fresh child interpreter (see child.py), each request a
`maxent_agents.cli.main([...])` call from input files to an output file,
timed from outside the program.  Inputs are generated from --seed and
written before timing starts.  After the child exits, every output is
checked against a reference that does not use the package (check.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs half the time
untraced and half with spans recorded around each layer (tracing.py) and
prints the per-layer metrics.  The last stdout line is the JSON result;
the line before it records the machine and environment.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median, quantiles

import numpy as np
import scipy

import check
from workloads import WORKLOADS, Workload, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# One client on a small shared machine: a single BLAS thread keeps runs
# steady, and it never exceeds the processor count.
BLAS_THREADS = 1
SETUP_SAMPLES = 3
# A child that has not finished this long after its measuring time is killed.
CHILD_GRACE_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "request_s.p50": "s",
    "request_s.p90": "s",
    "agents_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "failed_frac": "frac",
    "trace.overhead_s": "s",
    "network.divergence_s": "s",
    "network.divergence_calls": "count",
    "network.divergence_useful_frac": "frac",
    "network.infer_all_s": "s",
    "network.views_s": "s",
    "network.distinct_view_frac": "frac",
    "engine.solve_s": "s",
    "engine.solve_iterations": "count",
    "engine.solve_s_per_iter": "s",
    "engine.basis_calls": "count",
    "engine.builds_per_agent": "count",
    "engine.posterior_s": "s",
    "engine.summary_s": "s",
    "engine.entropy_s": "s",
    "multinomial.view_loglik_s": "s",
    "multinomial.view_loglik_evals": "count",
    "simplex.build_grid_s": "s",
    "simplex.grid_nodes": "count",
    "simplex.sample_dirichlet_s": "s",
    "simplex.samples_drawn": "count",
    "fileio.load_s": "s",
    "fileio.write_s": "s",
    "fileio.bytes_written": "B",
    "cli.self_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(args: list[str], workdir: Path, log: str, timeout: float) -> float:
    """Run child.py to completion; return the seconds from start to its "ready" line."""
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC),
           "--workdir", str(workdir), *args]
    with open(workdir / log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(),
                                cwd=ROOT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    if line.strip() != b"ready" or rc != 0:
        tail = (workdir / log).read_text(errors="replace")[-2000:]
        raise BenchError(f"child exited with {rc} (first line {line!r}):\n{tail}")
    return ready


def environment() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    digest = hashlib.sha256()
    for path in sorted((SRC / "maxent_agents").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.split()
        commit = commit if Path(top).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError, ValueError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "caches": caches,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def checked_agents(w: Workload, workdir: Path, counts: dict[str, list[int]], child: dict,
                   problems: list[str]) -> list[int]:
    """Failed agents of each request: cold first, then warm in order.

    A non-zero exit fails every agent, and so does an output that differs
    from the one another request wrote for the same input.
    """
    setting = w.setting()
    verdicts: dict[str, int] = {}

    def failed_in(out: str, inp: str) -> int:
        if out not in verdicts:
            per_agent = check.check_output(
                json.loads((workdir / out).read_text()), setting, counts[inp])
            bad = {a: p for a, p in per_agent.items() if p}
            problems.extend(f"{out} agent {a}: {p[0]}" for a, p in bad.items())
            verdicts[out] = len(bad)
        return verdicts[out]

    failed = [w.k if child["cold_rc"] != 0 else failed_in("cold.json", "cold_counts.json")]
    # The file on disk is the last one written for its slot.
    final = {r["slot"]: r["digest"] for r in child["requests"]}
    for r in child["requests"]:
        out = f"out_{r['slot']:04d}.json"
        if r["rc"] != 0 or r["digest"] is None or r["digest"] != final[r["slot"]]:
            problems.append(f"{out}: exit {r['rc']}, output digest {r['digest']}")
            failed.append(w.k)
        else:
            failed.append(failed_in(out, f"counts_{r['slot']:04d}.json"))
    return failed


def run(w: Workload, seed: int, seconds: float, trace: int, workdir: Path) -> tuple[dict, dict]:
    counts = write_inputs(w, seed, workdir)
    timeout = seconds + CHILD_GRACE_S
    setups = [spawn(["--seconds", str(seconds), "--trace", str(trace), "--agents", str(w.k)],
                    workdir, "child.stderr", timeout)]
    child = json.loads((workdir / "child_result.json").read_text())
    problems: list[str] = []
    failed = checked_agents(w, workdir, counts, child, problems)
    if not trace:
        cold = (workdir / "cold.json").read_bytes() if child["cold_rc"] == 0 else None
        for j in range(1, SETUP_SAMPLES):
            out = f"setup_{j}.json"
            setups.append(spawn(["--seconds", "0", "--agents", str(w.k), "--setup-only", out],
                                workdir, f"setup_{j}.stderr", CHILD_GRACE_S))
            if not (workdir / out).exists() or (workdir / out).read_bytes() != cold:
                problems.append(f"{out} differs from the first cold output")
                failed[0] = w.k

    warm = child["requests"]
    times = [r["seconds"] for r in warm]
    if trace:
        traced = [r["seconds"] for r in warm if r["traced"]]
        untraced = [r["seconds"] for r in warm if not r["traced"]]
        layers = [m for i, m in child["layers"].items() if warm[int(i)]["traced"]]
        metrics = {}
        for name in PER_LAYER:
            values = [m[name] for m in layers if name in m]
            if values:
                metrics[name] = float(median(values))
        metrics["failed_frac"] = sum(failed) / (w.k * len(failed))
        metrics["trace.overhead_s"] = median(traced) - median(untraced)
    else:
        ok_agents = sum(w.k - f for f in failed[1:])
        metrics = {
            "setup_s": median(setups),
            "request_s.p50": median(times),
            "request_s.p90": quantiles(times, n=10, method="inclusive")[8]
            if len(times) > 1 else times[0],
            "agents_per_s": ok_agents / sum(times),
            "peak_rss_mb": child["peak_rss_kb"] / 1024.0,
        }
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not any(failed),
        "attempted": len(failed),
        "failed": sum(1 for f in failed if f),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    info = {
        "workload": w.name,
        "seed": seed,
        "request_samples": len(times),
        "setup_samples": len(setups),
        "agents_attempted": w.k * len(failed),
        "agents_failed": sum(failed),
        "unwrapped": child["missing"],
        "problems": problems[:20],
        "env": environment(),
    }
    return result, info


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "maxent_agents" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'maxent_agents'}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, info = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
                           workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for line in info["problems"]:
        print(f"check: {line}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
