"""Benchmark entry point for liecohom.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (the one holding ``src/liecohom``).
Workloads are ``tables``, ``metric-sweep`` and ``verify-gate``; see
perfbench/README.md.  One caller, a closed loop: each pass of the workload
runs in a fresh worker process (perfbench/worker.py), one after another,
until the next pass would end after ``--seconds``; at least one pass runs.

Untraced (``--trace 0``), the run first times set-up alone in a few worker
processes, then reports the medians over workers of set-up time, pass time
and peak resident memory.  Set-up and pass times are wall times rescaled to
a fixed reference speed by probes taken while they run (perfbench/speed.py),
so that the host's changing speed does not show as a change of the program;
the unscaled medians are printed too.  Traced (``--trace 1``), it alternates
an untraced and a traced pass on the same inputs and reports the per-layer
metrics of the traced passes (medians, in wall seconds) and the tracing
overhead.  Traced and untraced passes must produce the same output digests.

Every output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 when every operation passed its checks, 1 when one failed, and 2
when the run could not be made (no source tree, a worker crashed or timed
out); in that last case no result is printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("tables", "metric-sweep", "verify-gate")
DEFAULT_SEED = 20260808  # the verification suite's default seed
SETUP_PROBES = 8  # set-up-only workers per untraced run
RUN_LIMIT_S = 170.0  # a run gives up (exit 2) past this

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class RunError(Exception):
    """The run could not be made; no result is printed."""


def call_worker(
    workload: str, seed: int, pass_index: int, mode: str, deadline: float
) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), workload, str(seed), str(pass_index), mode],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{mode} worker for pass {pass_index} timed out") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"{mode} worker for pass {pass_index} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the passes of one benchmark run and aggregate them."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    if not trace:
        setups = [
            call_worker(workload, seed, 0, "setup", deadline)
            for _ in range(SETUP_PROBES)
        ]
    start = time.monotonic()
    plain, traced = [], []
    pass_index = 0
    while True:
        t0 = time.monotonic()
        plain.append(call_worker(workload, seed, pass_index, "run", deadline))
        if trace:
            traced.append(call_worker(workload, seed, pass_index, "trace", deadline))
        pass_index += 1
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            break
    return aggregate(setups, plain, traced)


def aggregate(setups: list[dict], plain: list[dict], traced: list[dict]) -> dict:
    """Fold worker records into the run's result (see the module docstring)."""
    records = plain + traced
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    problems = [p for r in records for p in r["problems"]]
    for i, (a, b) in enumerate(zip(plain, traced)):
        for j, (x, y) in enumerate(zip(a["digests"], b["digests"])):
            if x != y:
                failed += 1
                problems.append(f"pass {i} operation {j}: traced output differs")
    if traced:
        metrics = {}
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name] for r in traced)
        wall = statistics.median(r["raw_wall_s"] for r in plain)
        metrics["trace.untraced_wall_s"] = wall
        traced_wall = statistics.median(r["raw_wall_s"] for r in traced)
        metrics["trace.overhead_ratio"] = traced_wall / wall
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in setups + plain),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "pass_walls": [(r["wall_s"], r["raw_wall_s"]) for r in plain],
        "raw_setup_s": statistics.median(r["raw_setup_s"] for r in setups + plain),
    }


def units() -> dict[str, str]:
    out = dict(END_TO_END_UNITS)
    out.update((name, spec["unit"]) for name, spec in PER_LAYER.items())
    return out


def report(result: dict) -> str:
    """Print the result by name with units; return the final JSON line."""
    unit = units()
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    error_rate = result["failed"] / result["attempted"]
    walls = " ".join(f"{w:.3f}/{raw:.3f}" for w, raw in result["pass_walls"])
    print(f"untraced passes {len(result['pass_walls'])}, wall_s/raw s each: {walls}")
    print(f"raw setup_s median {result['raw_setup_s']:.6g} s")
    print(
        f"error_rate {error_rate:.4g} "
        f"({result['failed']}/{result['attempted']} operations failed)"
    )
    for name, value in result["metrics"].items():
        print(f"{name} {value:.6g} {unit[name]}")
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": unit[name]}
                for name, value in result["metrics"].items()
            },
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "liecohom" / "__init__.py").is_file():
        print(f"no liecohom source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    print(report(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
