"""The benchmark's workloads: inputs from a seed, the timed operations, and
the checks of their outputs.

Each workload builds its inputs in ``setup`` (timed as set-up), lists its
operations in ``ops`` (timed one after another as the pass), and checks each
operation's output in ``check`` (not timed).  Checks compare against golden
copies recorded at the seed commit and recompute results by routes other
than the engine's own guards.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from liecohom import analysis, cohomology, corpus, hodge, structure, verification
from liecohom.exterior import Form

GOLDEN = Path(__file__).resolve().parent / "golden"

# The Heisenberg-type ladder entry n=4: d f4 = f1^f2, all other generators closed.
LADDER_NAME = "heisenberg-4"
LADDER_TEXT = "algebra heisenberg-4\ndim 4\nd f4 = f1^f2\n"

# Random metrics per metric-sweep pass (about 2.5 s each at the seed commit).
SWEEP_METRICS = 3


@dataclass
class Op:
    label: str
    span: str  # name of the span the benchmark records around it when traced
    run: Callable[[], object]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- tables ------------------------------------------------------------------------


class Tables:
    """full_report, all four groups, identity metric, on the corpus and the
    n=4 ladder entry; every operation parses its own input (cold caches)."""

    name = "tables"

    def __init__(self, golden: Path = GOLDEN, entries=None):
        self.golden = golden
        self.entries = entries

    def setup(self, seed: int, pass_index: int):
        texts = [(e.name, e.source_text) for e in corpus.CORPUS.values()]
        texts.append((LADDER_NAME, LADDER_TEXT))
        if self.entries is not None:
            texts = [t for t in texts if t[0] in self.entries]
        return texts

    def ops(self, texts) -> list[Op]:
        return [Op(name, "bench.op", lambda t=text: report_json(t)) for name, text in texts]

    def check(self, texts, op: Op, output: str) -> list[str]:
        problems = []
        golden = self.golden / f"{op.label}.json"
        if not golden.is_file():
            problems.append("no golden copy")
        elif output != golden.read_text(encoding="utf-8"):
            problems.append("report JSON differs from the golden copy")
        problems.extend(dimension_invariants(json.loads(output)))
        return problems

    def digest(self, output: str) -> str:
        return digest(output)


def report_json(text: str) -> str:
    """The report as `liecohom cohomology FILE --metric identity --json` prints it."""
    s = structure.parse_lie(text).structure
    report = cohomology.full_report(s, hodge.HermitianMetric.identity(s.n))
    return json.dumps(report.to_dict(), indent=2) + "\n"


def dimension_invariants(data: dict) -> list[str]:
    """Dualities and inequalities every report's dimensions must satisfy."""
    n = data["n"]
    coh = data["cohomology"]

    def bigraded(kind):
        return {
            tuple(int(x) for x in key.split(",")): cell["dim"]
            for key, cell in coh[kind].items()
        }

    bc, a, dol = bigraded("bc"), bigraded("a"), bigraded("dolbeault")
    b = {int(k): cell["dim"] for k, cell in coh["derham"].items()}
    problems = []
    for p in range(n + 1):
        for q in range(n + 1):
            if bc[p, q] != bc[q, p]:
                problems.append(f"h_BC^{p},{q} != h_BC^{q},{p}")
            if a[p, q] != a[q, p]:
                problems.append(f"h_A^{p},{q} != h_A^{q},{p}")
            if bc[p, q] != a[n - p, n - q]:
                problems.append(f"h_BC^{p},{q} != h_A^{n - p},{n - q}")
            if dol[p, q] != dol[n - p, n - q]:
                problems.append(f"Serre duality fails at ({p},{q})")
    for k in range(2 * n + 1):
        cells = [(p, k - p) for p in range(n + 1) if 0 <= k - p <= n]
        if b[k] != b[2 * n - k]:
            problems.append(f"Poincare duality fails at k={k}")
        if sum(dol[c] for c in cells) < b[k]:
            problems.append(f"Froelicher inequality fails at k={k}")
        if sum(bc[c] + a[c] for c in cells) < 2 * b[k]:
            problems.append(f"h_BC^k + h_A^k < 2 b_k at k={k}")
    return problems


# -- metric-sweep ------------------------------------------------------------------------


@dataclass
class SweepInputs:
    s: object  # StructureEquations
    metrics: list
    aeppli_dims: dict  # (p, q) -> quotient Aeppli dimension, filled by check


@dataclass
class SweepOutput:
    metric_class: object
    checks: list
    decisions: list  # (args, AeppliDecision) of every decision made
    harmonic: list  # (args, forms) of every harmonic_forms call


class MetricSweep:
    """One n=4 ladder structure, parsed once; one operation per seeded random
    metric: classify it, then check the vanishing theorem for p = 1..n-1."""

    name = "metric-sweep"

    def setup(self, seed: int, pass_index: int) -> SweepInputs:
        s = structure.parse_lie(LADDER_TEXT).structure
        rng = random.Random(f"metric-sweep:{seed}:{pass_index}")
        metrics = [hodge.random_positive_metric(s.n, rng) for _ in range(SWEEP_METRICS)]
        return SweepInputs(s, metrics, {})

    def ops(self, inputs: SweepInputs) -> list[Op]:
        return [
            Op(f"metric-{i}", "bench.op", lambda h=h: sweep_metric(inputs.s, h))
            for i, h in enumerate(inputs.metrics)
        ]

    def check(self, inputs: SweepInputs, op: Op, out: SweepOutput) -> list[str]:
        s = inputs.s
        n = s.n
        problems = [
            f"p={c.p}: {c.status}" for c in out.checks if c.status != "CONSISTENT"
        ]
        if [c.p for c in out.checks] != list(range(1, n)):
            problems.append("vanishing checks do not cover p = 1..n-1")
        for (_, h, p), decision in out.decisions:
            omega = h.fundamental_form()
            power = Form.one(n)
            for _ in range(n - p):
                power = power.wedge(omega)
            if decision.vanishes:
                if s.del_(decision.mu) + s.delbar(decision.lam) != power:
                    problems.append(f"p={p}: del mu + delbar lam != omega^{n - p}")
            elif decision.obstruction is None and s.flags.unimodular:
                problems.append(f"p={p}: no obstruction for a non-vanishing class")
            elif decision.obstruction is not None:
                pairing = h.pairing(power, decision.obstruction)
                if not pairing or pairing != decision.pairing:
                    problems.append(f"p={p}: obstruction pairing is zero or differs")
        for (kind, _, _, p, q), forms in out.harmonic:
            if kind != "a":
                continue
            if (p, q) not in inputs.aeppli_dims:
                inputs.aeppli_dims[p, q] = cohomology.aeppli_cohomology(s, p, q).dim
            if len(forms) != inputs.aeppli_dims[p, q]:
                problems.append(f"harmonic Aeppli dimension at ({p},{q}) != quotient")
        return problems

    def digest(self, out: SweepOutput) -> str:
        mc = out.metric_class
        data = {
            "class": [mc.kaehler, mc.balanced, mc.gauduchon, mc.skt],
            "checks": [
                [c.p, c.hypothesis_defined, c.hypothesis_vanishes, c.closed_p0_dim,
                 c.status, c.note]
                for c in out.checks
            ],
            "decisions": [d.to_dict() for _, d in out.decisions],
        }
        return digest(json.dumps(data, sort_keys=True))


def sweep_metric(s, h) -> SweepOutput:
    with _recording(analysis, "aeppli_class_vanishes") as decisions, _recording(
        analysis, "harmonic_forms"
    ) as harmonic:
        metric_class = analysis.classify_metric(s, h)
        checks = [analysis.verify_vanishing_theorem(s, h, p) for p in range(1, s.n)]
    return SweepOutput(metric_class, checks, decisions, harmonic)


@contextmanager
def _recording(module, name: str):
    """Temporarily record the arguments and result of every call of a
    module-level function, so that the check sees the intermediate
    decisions without recomputing them."""
    orig = getattr(module, name)
    calls = []

    def recorded(*args):
        result = orig(*args)
        calls.append((args, result))
        return result

    setattr(module, name, recorded)
    try:
        yield calls
    finally:
        setattr(module, name, orig)


# -- verify-gate -----------------------------------------------------------------------


class VerifyGate:
    """The corpus expectation checks, then each verification criterion with
    the seed: the work of `liecohom verify all --seed SEED`."""

    name = "verify-gate"

    def setup(self, seed: int, pass_index: int):
        names = json.loads((GOLDEN / "verify_checks.json").read_text(encoding="utf-8"))
        return seed, names

    def ops(self, inputs) -> list[Op]:
        seed, names = inputs
        ops = [Op("corpus_checks", "verification.corpus_checks",
                  lambda: verification.corpus_checks("all"))]
        for name, func in verification.CRITERIA:
            ops.append(Op(name, f"verification.check.{name}", lambda f=func: [f(seed)]))
        # A recorded check that no longer runs fails as an operation of its own.
        labels = {op.label for op in ops}
        ops.extend(
            Op(label, "bench.op", lambda label=label: _missing_check(label))
            for label in names
            if label not in labels
        )
        return ops

    def check(self, inputs, op: Op, results) -> list[str]:
        _, names = inputs
        problems = [f"{r.name}: FAIL {r.detail}" for r in results if not r.passed]
        if [r.name for r in results] != names.get(op.label):
            problems.append(f"check names of {op.label} differ from the recorded list")
        return problems

    def digest(self, results) -> str:
        return digest(json.dumps([[r.name, r.passed, r.detail] for r in results]))


def _missing_check(label: str):
    raise RuntimeError(f"recorded check {label!r} is no longer run")


WORKLOADS = {w.name: w for w in (Tables, MetricSweep, VerifyGate)}
