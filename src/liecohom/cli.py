"""Command-line front-end.

Inputs are `.lie` files or embedded corpus entries addressed as
``corpus:NAME``.  Exit codes: 0 success, 1 verification failure, 2 parse
error, 3 precondition violation (non-integrable structure, degenerate
metric, undefined Aeppli class, ...).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from . import corpus
from .analysis import aeppli_class_vanishes, classify_metric
from .cohomology import ALL_GROUPS, full_report
from .errors import (
    IntegrabilityError,
    LieCohomError,
    MetricError,
    ParseError,
    PreconditionError,
)
from .hodge import HermitianMetric
from .structure import LieFile, parse_lie, parse_metric, render_structure
from .verification import DEFAULT_SEED, run_all


def _corpus_entry(name: str) -> corpus.CorpusEntry:
    try:
        return corpus.get(name)
    except KeyError as exc:
        # str() of a KeyError is the repr of its message
        raise ParseError(exc.args[0]) from None


def _read_text(source: str, what: str) -> str:
    """The UTF-8 text of the file `source`; a missing, unreadable (a
    directory, say) or undecodable file is a ParseError naming `what`."""
    path = Path(source)
    if not path.exists():
        raise ParseError(f"no such {what}: {source}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{what} {source} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None
    except OSError as exc:
        raise ParseError(f"{what} {source} cannot be read: {exc.strerror or exc}") from None


def _load_input(source: str) -> LieFile:
    if source.startswith("corpus:"):
        return _corpus_entry(source.split(":", 1)[1]).load()
    return parse_lie(_read_text(source, "file"), name=Path(source).stem)


def _resolve_metric(choice: Optional[str], lie: LieFile) -> HermitianMetric:
    n = lie.structure.n
    if choice is None:
        return lie.metric or HermitianMetric.identity(n)
    if choice == "identity":
        return HermitianMetric.identity(n)
    return parse_metric(_read_text(choice, "metric file"), n)


def _emit(data: dict, as_json: bool, text_renderer) -> None:
    if as_json:
        print(json.dumps(data, indent=2))
    else:
        text_renderer(data)


def _flag_line(values: dict) -> str:
    """The pairs as ``key=value``, each value's text in lower case, joined
    by spaces."""
    return " ".join(f"{k}={str(v).lower()}" for k, v in values.items())


def cmd_parse(args) -> int:
    lie = _load_input(args.input)
    s = lie.structure
    print(render_structure(s))
    if lie.metric is not None:
        print("metric hermitian")
        for row in lie.metric.entries:
            print("  " + "  ".join(str(x) for x in row))
    print("flags: " + _flag_line(asdict(s.flags)))
    return 0


def _render_report_text(data: dict) -> None:
    print(f"algebra: {data['algebra']} (n={data['n']}, {data['level']} forms)")
    print("flags: " + _flag_line(data["flags"]))
    if data.get("metric_class"):
        print("metric: " + _flag_line(data["metric_class"]))
    titles = {
        "bc": "bott-chern",
        "a": "aeppli",
        "dolbeault": "dolbeault",
        "derham": "de rham",
    }
    for kind, table in data["cohomology"].items():
        print(f"{titles.get(kind, kind)}:")
        for key, cell in table.items():
            if cell["dim"] == 0:
                continue
            label = f"({key})" if "," in key else f"k={key}"
            reps = "  reps: " + ", ".join(cell["reps"]) if cell["reps"] else ""
            print(f"  {label}: dim {cell['dim']}{reps}")
    for decision in data.get("aeppli_decisions", []):
        line = f"aeppli class of omega^{data['n'] - decision['p']} (p={decision['p']}): "
        line += "vanishes" if decision["vanishes"] else "does not vanish"
        print(line)


def cmd_cohomology(args) -> int:
    lie = _load_input(args.input)
    groups = ALL_GROUPS if args.groups is None else tuple(g.strip() for g in args.groups.split(","))
    for g in groups:
        if g not in ALL_GROUPS:
            raise PreconditionError(
                f"unknown group {g!r}; choose from {', '.join(ALL_GROUPS)}"
            )
    metric = _resolve_metric(args.metric, lie)
    report = full_report(lie.structure, metric, groups=groups)
    _emit(report.to_dict(), args.json, _render_report_text)
    return 0


def cmd_classify(args) -> int:
    lie = _load_input(args.input)
    metric = _resolve_metric(args.metric, lie)
    mc = classify_metric(lie.structure, metric)
    data = {"algebra": lie.structure.name, "metric_class": asdict(mc)}

    def text(d):
        print(f"algebra: {d['algebra']}")
        for k, v in d["metric_class"].items():
            print(f"  {k}: {str(v).lower()}")

    _emit(data, args.json, text)
    return 0


def cmd_aeppli(args) -> int:
    lie = _load_input(args.input)
    metric = _resolve_metric(args.metric, lie)
    decision = aeppli_class_vanishes(lie.structure, metric, args.p)
    data = {"algebra": lie.structure.name, **decision.to_dict()}

    def text(d):
        n = lie.structure.n
        verdict = "vanishes" if d["vanishes"] else "does not vanish"
        print(f"[omega^{n - d['p']}]_A on {d['algebra']} (p={d['p']}): {verdict}")
        if d["witness"]:
            print(f"  mu     = {d['witness']['mu']}")
            print(f"  lambda = {d['witness']['lambda']}")
        if d["obstruction"]:
            print(f"  obstruction (harmonic): {d['obstruction']['form']}")
            print(f"  pairing: {d['obstruction']['pairing']}")

    _emit(data, args.json, text)
    return 0


def cmd_verify(args) -> int:
    scope = args.scope
    if scope != "all" and scope.startswith("corpus:"):
        scope = scope.split(":", 1)[1]
    if scope != "all":
        _corpus_entry(scope)
    results = run_all(scope=scope, seed=args.seed)
    failures = [r for r in results if not r.passed]
    if args.json:
        print(json.dumps([asdict(r) for r in results], indent=2))
    else:
        for r in results:
            print(r.line())
        print(
            f"\n{len(results) - len(failures)}/{len(results)} checks passed"
            + (f"; {len(failures)} FAILED" if failures else "")
        )
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liecohom",
        description="Exact cohomology of invariant forms on Lie-group "
        "quotients with invariant complex structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="echo normalized equations and flags")
    p.add_argument("input", help="a .lie file or corpus:NAME")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("cohomology", help="compute cohomology tables")
    p.add_argument("input")
    p.add_argument("--groups", default=None, help="comma list of bc,a,dolbeault,derham")
    p.add_argument("--metric", default=None, help="'identity' or a metric file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("classify", help="classify the metric")
    p.add_argument("input")
    p.add_argument("--metric", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("aeppli", help="decide Aeppli-class vanishing of omega^(n-p)")
    p.add_argument("input")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--metric", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_aeppli)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("scope", nargs="?", default="all", help="'all' or a corpus entry name")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, IntegrabilityError, MetricError) as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return 3
    except LieCohomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
