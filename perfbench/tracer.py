"""Per-layer tracing of liecohom, installed from outside the library.

The tracer replaces chosen liecohom functions with wrappers.  A span wrapper
records one span per call (name, parent, start, end) in flat in-memory
arrays; a counter wrapper only counts calls.  A few spans also add counts
measured at the call (matrix cells, representatives kept, cache hits).
Self time of a span is its duration minus the time covered by its child
spans; ``summarize`` computes it once, after the traced pass.

A function is often bound under several names: ``cohomology`` and
``analysis`` import ``kernel_basis``, ``solve`` and ``_matrix_for`` by name,
``hodge`` imports ``rref``, and class bodies alias methods (``__rmul__ =
__mul__``, ``__xor__ = wedge``).  ``install`` therefore replaces every
binding of each original in every liecohom module and class, then checks
that none is left; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

# Span name -> functions it wraps, as (module, dotted attribute).
SPAN_TARGETS = {
    "linalg.rref": [("liecohom.linalg", "rref")],
    "linalg.subspace": [("liecohom.linalg", "Subspace.__init__")],
    "linalg.quotient": [("liecohom.linalg", "quotient_representatives")],
    "linalg.kernel": [("liecohom.linalg", "kernel_basis")],
    "linalg.solve": [("liecohom.linalg", "solve")],
    "linalg.matmul": [("liecohom.linalg", "Matrix.__matmul__")],
    "linalg.apply": [("liecohom.linalg", "Matrix.apply")],
    "structure.d": [
        ("liecohom.structure", "StructureEquations.d"),
        ("liecohom.structure", "StructureEquations.del_"),
        ("liecohom.structure", "StructureEquations.delbar"),
        ("liecohom.structure", "StructureEquations.del_delbar"),
    ],
    "exterior.wedge": [("liecohom.exterior", "Form.wedge")],
    "hodge.gram": [("liecohom.hodge", "HermitianMetric.gram")],
    "hodge.star": [("liecohom.hodge", "HermitianMetric.star")],
    "hodge.star_matrix": [("liecohom.hodge", "HermitianMetric._star_matrix")],
    "hodge.adjoint": [
        ("liecohom.hodge", "HermitianMetric.del_adjoint"),
        ("liecohom.hodge", "HermitianMetric.delbar_adjoint"),
    ],
    "cohomology.assembly": [("liecohom.cohomology", "_matrix_for")],
    "cohomology.groups.bc": [("liecohom.cohomology", "bc_cohomology")],
    "cohomology.groups.a": [("liecohom.cohomology", "aeppli_cohomology")],
    "cohomology.groups.dolbeault": [("liecohom.cohomology", "dolbeault_cohomology")],
    "cohomology.groups.derham": [("liecohom.cohomology", "de_rham_cohomology")],
    "cohomology.harmonic": [("liecohom.cohomology", "harmonic_space")],
    "cohomology.laplacian": [
        ("liecohom.cohomology", "bc_laplacian_matrix"),
        ("liecohom.cohomology", "aeppli_laplacian_matrix"),
    ],
    "cohomology.report": [("liecohom.cohomology", "full_report")],
    "analysis.aeppli_decision": [("liecohom.analysis", "aeppli_class_vanishes")],
    "analysis.classify": [("liecohom.analysis", "classify_metric")],
}

# Counter name -> functions whose calls it counts.
COUNT_TARGETS = {
    "scalars.mul": [("liecohom.scalars", "Scalar.__mul__")],
    "scalars.addsub": [
        ("liecohom.scalars", "Scalar.__add__"),
        ("liecohom.scalars", "Scalar.__sub__"),
        ("liecohom.scalars", "Scalar.__rsub__"),
    ],
    "scalars.div": [
        ("liecohom.scalars", "Scalar.__truediv__"),
        ("liecohom.scalars", "Scalar.__rtruediv__"),
    ],
    "scalars.zero_tests": [("liecohom.scalars", "Scalar.__bool__")],
    "hodge.det": [("liecohom.hodge", "_det")],
}

# Spans recorded by the benchmark itself around each verification operation.
CRITERIA = [
    "star-identity",
    "adjoint-annihilation",
    "sl2c-vanishing",
    "calabi-eckmann-tables",
    "secondary-kodaira",
    "skt-family",
    "structural-identities",
    "lefschetz-rank",
]

# Each ratio and the metric that is its base (the denominator).
RATIO_BASES = {
    "linalg.quotient.accept_ratio": "linalg.quotient.rows_scanned",
    "hodge.gram.hit_ratio": "hodge.gram.calls",
    "analysis.aeppli_decision.obstruction_ratio": "analysis.aeppli_decision.decided",
    "trace.overhead_ratio": "trace.untraced_wall_s",
}


def _metric(unit, kind, span=None, key=None):
    return {"unit": unit, "kind": kind, "span": span, "key": key}


# Per-layer metric name -> how it is read off a summary:
#   count: counted calls; calls: spans; self: self time; incl: outermost time;
#   extra: a count added at the call; ratio: extra numerator over its base.
PER_LAYER = {
    "scalars.mul": _metric("count", "count", "scalars.mul"),
    "scalars.addsub": _metric("count", "count", "scalars.addsub"),
    "scalars.div": _metric("count", "count", "scalars.div"),
    "scalars.zero_tests": _metric("count", "count", "scalars.zero_tests"),
    "linalg.rref.calls": _metric("count", "calls", "linalg.rref"),
    "linalg.rref.self_s": _metric("s", "self", "linalg.rref"),
    "linalg.rref.cells": _metric("count", "extra", key="linalg.rref.cells"),
    "linalg.subspace.builds": _metric("count", "calls", "linalg.subspace"),
    "linalg.subspace.self_s": _metric("s", "self", "linalg.subspace"),
    "linalg.quotient.calls": _metric("count", "calls", "linalg.quotient"),
    "linalg.quotient.s": _metric("s", "incl", "linalg.quotient"),
    "linalg.quotient.rows_scanned": _metric(
        "count", "extra", key="linalg.quotient.rows_scanned"
    ),
    "linalg.quotient.accept_ratio": _metric(
        "ratio", "ratio", key="linalg.quotient.accepted"
    ),
    "linalg.kernel.calls": _metric("count", "calls", "linalg.kernel"),
    "linalg.kernel.s": _metric("s", "incl", "linalg.kernel"),
    "linalg.solve.calls": _metric("count", "calls", "linalg.solve"),
    "linalg.solve.s": _metric("s", "incl", "linalg.solve"),
    "linalg.matmul.calls": _metric("count", "calls", "linalg.matmul"),
    "linalg.matmul.mults": _metric("count", "extra", key="linalg.matmul.mults"),
    "linalg.matmul.self_s": _metric("s", "self", "linalg.matmul"),
    "linalg.apply.calls": _metric("count", "calls", "linalg.apply"),
    "linalg.apply.self_s": _metric("s", "self", "linalg.apply"),
    "structure.d.calls": _metric("count", "calls", "structure.d"),
    "structure.d.self_s": _metric("s", "self", "structure.d"),
    "structure.d_mono.size": _metric("count", "extra", key="structure.d_mono.size"),
    "structure.op_matrix_cache.size": _metric(
        "count", "extra", key="structure.op_matrix_cache.size"
    ),
    "exterior.wedge.calls": _metric("count", "calls", "exterior.wedge"),
    "exterior.wedge.self_s": _metric("s", "self", "exterior.wedge"),
    "hodge.gram.calls": _metric("count", "calls", "hodge.gram"),
    "hodge.gram.self_s": _metric("s", "self", "hodge.gram"),
    "hodge.gram.hit_ratio": _metric("ratio", "ratio", key="hodge.gram.hits"),
    "hodge.det.calls": _metric("count", "count", "hodge.det"),
    "hodge.star.calls": _metric("count", "calls", "hodge.star"),
    "hodge.star.self_s": _metric("s", "self", "hodge.star"),
    "hodge.star_matrix.builds": _metric(
        "count", "extra", key="hodge.star_matrix.builds"
    ),
    "hodge.star_matrix.self_s": _metric("s", "self", "hodge.star_matrix"),
    "hodge.adjoint.calls": _metric("count", "calls", "hodge.adjoint"),
    "hodge.adjoint.s": _metric("s", "incl", "hodge.adjoint"),
    "cohomology.assembly.calls": _metric("count", "calls", "cohomology.assembly"),
    "cohomology.assembly.columns": _metric(
        "count", "extra", key="cohomology.assembly.columns"
    ),
    "cohomology.assembly.s": _metric("s", "incl", "cohomology.assembly"),
    "cohomology.groups.bc.s": _metric("s", "incl", "cohomology.groups.bc"),
    "cohomology.groups.a.s": _metric("s", "incl", "cohomology.groups.a"),
    "cohomology.groups.dolbeault.s": _metric(
        "s", "incl", "cohomology.groups.dolbeault"
    ),
    "cohomology.groups.derham.s": _metric("s", "incl", "cohomology.groups.derham"),
    "cohomology.harmonic.calls": _metric("count", "calls", "cohomology.harmonic"),
    "cohomology.harmonic.s": _metric("s", "incl", "cohomology.harmonic"),
    "cohomology.laplacian.s": _metric("s", "incl", "cohomology.laplacian"),
    "cohomology.report.s": _metric("s", "incl", "cohomology.report"),
    "analysis.aeppli_decision.calls": _metric(
        "count", "calls", "analysis.aeppli_decision"
    ),
    "analysis.aeppli_decision.decided": _metric(
        "count", "extra", key="analysis.aeppli_decision.decided"
    ),
    "analysis.aeppli_decision.s": _metric("s", "incl", "analysis.aeppli_decision"),
    "analysis.aeppli_decision.obstruction_ratio": _metric(
        "ratio", "ratio", key="analysis.aeppli_decision.obstructions"
    ),
    "analysis.classify.s": _metric("s", "incl", "analysis.classify"),
    **{
        f"verification.check.{c}.s": _metric("s", "incl", f"verification.check.{c}")
        for c in CRITERIA
    },
    "verification.corpus_checks.s": _metric("s", "incl", "verification.corpus_checks"),
    # Filled in by the run, which times a traced and an untraced pass.
    "trace.untraced_wall_s": _metric("s", "run"),
    "trace.overhead_ratio": _metric("ratio", "run"),
}


class Tracer:
    """Spans and counts of one traced pass; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.extra: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._originals: list[object] = []
        self._structures: dict[int, object] = {}

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def span(self, name: str):
        """Context manager recording one span; the benchmark wraps each
        operation in one."""
        return _SpanContext(self, self._name_id(name))

    def _open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name: str, orig, hook):
        name_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            note = hook.before(tracer, args) if hook else None
            idx = tracer._open(name_id)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook:
                hook.after(tracer, args, result, note)
            return result

        traced.__wrapped__ = orig
        return traced

    def _count_wrapper(self, name: str, orig):
        counts = self.counts
        counts[name] += 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        counted.__wrapped__ = orig
        return counted

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every target; raise if one is left bare."""
        modules = _liecohom_namespaces()
        for name, targets in COUNT_TARGETS.items():
            for module, attr in targets:
                wrap = lambda o, n=name: self._count_wrapper(n, o)  # noqa: E731
                self._wrap_all(modules, module, attr, wrap)
        for name, targets in SPAN_TARGETS.items():
            for module, attr in targets:
                wrap = lambda o, n=name: self._span_wrapper(  # noqa: E731
                    n, o, HOOKS.get(n)
                )
                self._wrap_all(modules, module, attr, wrap)
        left = [
            f"{_owner_name(owner)}.{key}"
            for owner in modules
            for key, value in vars(owner).items()
            if any(value is orig for orig in self._originals)
        ]
        if left:
            self.uninstall()
            raise RuntimeError(f"tracing left unwrapped bindings: {', '.join(left)}")
        if self.missing:
            print(f"tracer: targets not found: {', '.join(self.missing)}", file=sys.stderr)

    def _wrap_all(self, namespaces, module: str, attr: str, make) -> None:
        orig = _resolve(module, attr)
        if orig is None:
            self.missing.append(f"{module}.{attr}")
            return
        if any(orig is seen for seen in self._originals):
            return  # an alias already wrapped under another target
        self._originals.append(orig)
        wrapper = make(orig)
        for owner in namespaces:
            for key, value in list(vars(owner).items()):
                if value is orig:
                    self._patches.append((owner, key, orig))
                    setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def note_structure(self, s) -> None:
        self._structures[id(s)] = s

    def read_structure_caches(self) -> None:
        """Cache sizes of every structure seen, read at the end of the pass."""
        for s in self._structures.values():
            self.extra["structure.d_mono.size"] += len(getattr(s, "_d_mono", ()))
            self.extra["structure.op_matrix_cache.size"] += len(
                getattr(s, "_op_matrix_cache", ())
            )

    # -- summary -------------------------------------------------------------------

    def summary(self) -> dict:
        return summarize(
            [self.names[i] for i in self.span_name],
            self.span_parent,
            self.span_start,
            self.span_end,
        )

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the two the run fills in."""
        return layer_metrics(self.summary(), self.counts, self.extra)


class _SpanContext:
    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.idx = self.tracer._open(self.name_id)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


def summarize(names, parents, starts, ends) -> dict[str, dict]:
    """Per span name: calls, total self time, and outermost inclusive time.

    Spans are listed in the order they opened, so every parent precedes its
    children.  Inclusive time counts only spans with no ancestor of the same
    name, so a recursive layer is not counted twice.
    """
    count = len(names)
    child_time = [0.0] * count
    out: dict[str, dict] = {}
    for i in range(count - 1, -1, -1):
        dur = ends[i] - starts[i]
        p = parents[i]
        if p >= 0:
            child_time[p] += dur
        entry = out.setdefault(names[i], {"calls": 0, "self": 0.0, "incl": 0.0})
        entry["calls"] += 1
        entry["self"] += dur - child_time[i]
        while p >= 0 and names[p] != names[i]:
            p = parents[p]
        if p < 0:
            entry["incl"] += dur
    return out


def layer_metrics(summary: dict, counts: dict, extra: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, spec in PER_LAYER.items():
        kind = spec["kind"]
        if kind == "run":
            continue
        if kind == "count":
            value = counts.get(spec["span"], 0)
        elif kind in ("calls", "self", "incl"):
            value = summary.get(spec["span"], {}).get(kind, 0)
        elif kind == "extra":
            value = extra.get(spec["key"], 0)
        else:  # a ratio; its base is computed first (see the checks in tests)
            base = out[RATIO_BASES[name]]
            value = extra.get(spec["key"], 0) / base if base else 0.0
        out[name] = value
    return out


# -- hooks adding counts at the call -----------------------------------------------


class _Hook:
    def before(self, tracer, args):
        return None

    def after(self, tracer, args, result, note):
        pass


class _RrefCells(_Hook):
    def before(self, tracer, args):
        m = args[0]
        tracer.extra["linalg.rref.cells"] += m.nrows * m.ncols


class _QuotientAccept(_Hook):
    def after(self, tracer, args, result, note):
        tracer.extra["linalg.quotient.rows_scanned"] += len(args[0].rows)
        tracer.extra["linalg.quotient.accepted"] += len(result)


class _MatmulMults(_Hook):
    def before(self, tracer, args):
        return tracer.counts["scalars.mul"]

    def after(self, tracer, args, result, note):
        tracer.extra["linalg.matmul.mults"] += tracer.counts["scalars.mul"] - note


class _StructureSeen(_Hook):
    def before(self, tracer, args):
        tracer.note_structure(args[0])


class _CacheProbe(_Hook):
    """Counts calls whose (p, q) key was already in the named cache; a
    metric without that cache attribute counts every call as a miss."""

    def __init__(self, cache: str, key: str, count_misses: bool):
        self.cache = cache
        self.key = key
        self.count_misses = count_misses

    def before(self, tracer, args):
        h, p, q = args[:3]
        hit = (p, q) in getattr(h, self.cache, ())
        if hit != self.count_misses:
            tracer.extra[self.key] += 1


class _AssemblyColumns(_Hook):
    def before(self, tracer, args):
        tracer.extra["cohomology.assembly.columns"] += len(args[2])


class _DecisionOutcome(_Hook):
    def after(self, tracer, args, result, note):
        tracer.extra["analysis.aeppli_decision.decided"] += 1
        if result.obstruction is not None:
            tracer.extra["analysis.aeppli_decision.obstructions"] += 1


HOOKS = {
    "linalg.rref": _RrefCells(),
    "linalg.quotient": _QuotientAccept(),
    "linalg.matmul": _MatmulMults(),
    "structure.d": _StructureSeen(),
    "hodge.gram": _CacheProbe("_gram_cache", "hodge.gram.hits", count_misses=False),
    "hodge.star_matrix": _CacheProbe(
        "_star_cache", "hodge.star_matrix.builds", count_misses=True
    ),
    "cohomology.assembly": _AssemblyColumns(),
    "analysis.aeppli_decision": _DecisionOutcome(),
}


# -- namespaces ------------------------------------------------------------------------


def _liecohom_namespaces() -> list:
    """Every liecohom module plus every class defined in one."""
    modules = [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "liecohom" or name.startswith("liecohom."))
    ]
    classes = []
    for m in modules:
        for value in vars(m).values():
            if (
                isinstance(value, type)
                and value.__module__.startswith("liecohom")
                and value not in classes
            ):
                classes.append(value)
    return modules + classes


def _owner_name(owner) -> str:
    return getattr(owner, "__qualname__", None) or owner.__name__


def _resolve(module: str, attr: str):
    obj = sys.modules.get(module)
    for part in attr.split("."):
        if obj is None:
            return None
        obj = vars(obj).get(part) if isinstance(obj, type) else getattr(obj, part, None)
    return obj
