"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED PASS MODE

MODE is ``setup`` (set up and stop), ``run`` (one untraced pass) or
``trace`` (one traced pass).  Set-up time covers importing liecohom and
building the inputs.  The pass times the workload's operations one after
another; their outputs are checked afterwards, untimed.  Untraced, set-up
and pass times are also rescaled to the reference speed (perfbench/speed.py).
The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from tracer import Tracer

_RAISED = object()


def run_pass(workload, seed: int, pass_index: int, mode: str, started=None) -> dict:
    """Set up, run and check one pass of ``workload``; return its record.

    Set-up time counts from ``started`` (default: now) to inputs built, and
    is rescaled by the probes that follow it.  ``wall_s`` is the pass time
    at the reference speed (untraced only), ``raw_wall_s`` in wall seconds.
    """
    started = time.perf_counter() if started is None else started
    inputs = workload.setup(seed, pass_index)
    raw_setup_s = time.perf_counter() - started
    import speed  # imports fractions, which set-up pays for through liecohom

    setup_s = raw_setup_s * speed.REFERENCE_PROBE_S / speed.probe_s()
    if mode == "setup":
        return {"setup_s": setup_s, "raw_setup_s": raw_setup_s}
    ops = workload.ops(inputs)
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
    outputs = []
    meter = nullcontext() if tracer else speed.Speedometer()
    start = time.perf_counter()
    try:
        with meter:
            for op in ops:
                try:
                    with tracer.span(op.span) if tracer else nullcontext():
                        outputs.append(op.run())
                except Exception:  # a failed operation is counted, not fatal
                    traceback.print_exc(file=sys.stderr)
                    outputs.append(_RAISED)
        raw_wall_s = time.perf_counter() - start if tracer else meter.raw_s
    finally:
        if tracer:
            tracer.read_structure_caches()
            tracer.uninstall()
    failed = 0
    problems = []
    digests = []
    for op, out in zip(ops, outputs):
        if out is _RAISED:
            failed += 1
            problems.append(f"{op.label}: raised")
            digests.append(None)
            continue
        found = workload.check(inputs, op, out)
        if found:
            failed += 1
            problems.extend(f"{op.label}: {p}" for p in found)
        digests.append(workload.digest(out))
    return {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "wall_s": None if tracer else meter.scaled_s,
        "raw_wall_s": raw_wall_s,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "digests": digests,
        "layers": tracer.metrics() if tracer else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv: list[str]) -> int:
    name, seed, pass_index, mode = argv[0], int(argv[1]), int(argv[2]), argv[3]
    started = time.perf_counter()
    from workloads import WORKLOADS  # imports liecohom: part of set-up

    print(json.dumps(run_pass(WORKLOADS[name](), seed, pass_index, mode, started)))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main(sys.argv[1:]))
