"""Outputs must stay byte-identical to the golden copies the benchmark keeps
in perfbench/golden/ (read here, never rewritten) and to the verify-suite,
n=5, n=6 ladder, n=4 harmonic Aeppli, harmonic-basis and seeded-draw goldens in
tests/golden/ (n=7 by its digest)."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from liecohom import corpus
from liecohom.analysis import aeppli_class_vanishes
from liecohom.cli import main
from liecohom.cohomology import harmonic_forms
from liecohom.errors import PreconditionError
from liecohom.exterior import _wedge_memo
from liecohom import verification
from liecohom.hodge import HermitianMetric, random_positive_metric
from liecohom.scalars import Scalar
from liecohom.structure import parse_structure, render_form
from liecohom.verification import CRITERIA, _random_form, _skt_tuples

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
TESTS_GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", corpus.names())
def test_cohomology_json_matches_golden(capsys, name):
    code = main(["cohomology", f"corpus:{name}", "--metric", "identity", "--json"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_corpus_check_names_match_golden(verify_all_json):
    # the corpus records of the verify run are those not named by a criterion
    names = json.loads((GOLDEN / "verify_checks.json").read_text(encoding="utf-8"))
    criteria = {name for name, _ in CRITERIA}
    records = json.loads(verify_all_json[1])
    corpus_names = [r["name"] for r in records if r["name"] not in criteria]
    assert corpus_names == names["corpus_checks"]


def test_recorded_check_names_are_the_corpus_checks_and_each_criterion(verify_all_json):
    # the benchmark's verify-gate compares each criterion's check names with
    # this record, so a new or renamed criterion must come with a new record
    names = json.loads((GOLDEN / "verify_checks.json").read_text(encoding="utf-8"))
    labels = [name for name, _ in CRITERIA]
    assert len(set(labels)) == len(labels)
    assert set(names) == {"corpus_checks", *labels}
    assert all(names[label] == [label] for label in labels)
    records = [r["name"] for r in json.loads(verify_all_json[1])]
    assert records[len(names["corpus_checks"]) :] == labels


@pytest.mark.parametrize("n", [4, 5, 6])
def test_heisenberg_ladder_json_matches_golden(capsys, tmp_path, n):
    # the ladder d fn = f1^f2; n=4 is the benchmark's copy, n=5 and n=6 (de
    # Rham degree 6 has 924 columns) are kept here
    lie = tmp_path / f"heisenberg-{n}.lie"
    lie.write_text(f"algebra heisenberg-{n}\ndim {n}\nd f{n} = f1^f2\n", encoding="utf-8")
    code = main(["cohomology", str(lie), "--metric", "identity", "--json"])
    assert code == 0
    folder = GOLDEN if n == 4 else TESTS_GOLDEN
    golden = (folder / f"heisenberg-{n}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_heisenberg_7_ladder_json_matches_digest(capsys, tmp_path):
    # the n=7 report is 1.6 MB, so it is pinned by the sha256 of its bytes
    lie = tmp_path / "heisenberg-7.lie"
    lie.write_text("algebra heisenberg-7\ndim 7\nd f7 = f1^f2\n", encoding="utf-8")
    code = main(["cohomology", str(lie), "--metric", "identity", "--json"])
    assert code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "d799c32ab7f3a770ce4188406004b8b4a4504abb69ce2ecc39108f2cb2702d70"


def test_heisenberg_8_ladder_json_matches_digest_with_a_bounded_wedge_memo(capsys, tmp_path):
    # the differential of the n=8 ladder makes 32,833 distinct monomial
    # products; they bypass the wedge memo, which stays within its bound
    _wedge_memo.cache_clear()
    lie = tmp_path / "heisenberg-8.lie"
    lie.write_text("algebra heisenberg-8\ndim 8\nd f8 = f1^f2\n", encoding="utf-8")
    code = main(["cohomology", str(lie), "--metric", "identity", "--json"])
    assert code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "737056af24a74744c1cac70a78efed2e7c6af1bbce215d7fb3cbe593f474af3b"
    info = _wedge_memo.cache_info()
    assert info.currsize <= 16 and info.maxsize == 1024


def test_verify_all_json_matches_golden(verify_all_json):
    # names, verdicts and details of every check, byte for byte
    code, out = verify_all_json
    assert code == 0
    golden = (TESTS_GOLDEN / "verify_all.json").read_text(encoding="utf-8")
    assert out == golden


def aeppli_ladder_json() -> str:
    """On the n=4 ladder, for three seeded non-real metrics and p = 1..3: the
    Aeppli decision on omega^(4-p) (its refusal where del delbar omega^(4-p)
    is not zero) and the rendered harmonic Aeppli basis in bidegree
    (4-p, 4-p), where the obstruction certificate is taken from."""
    s = parse_structure("algebra heisenberg-4\ndim 4\nd f4 = f1^f2\n")
    rng = random.Random(20261019)
    metrics = []
    while len(metrics) < 3:
        h = random_positive_metric(4, rng)
        if not all(x.is_real() for row in h.entries for x in row):
            metrics.append(h)
    records = []
    for h in metrics:
        for p in (1, 2, 3):
            try:
                decision = aeppli_class_vanishes(s, h, p).to_dict()
            except PreconditionError as exc:
                decision = str(exc)
            records.append({
                "metric": [[str(x) for x in row] for row in h.entries],
                "p": p,
                "decision": decision,
                "harmonic_a": [render_form(f) for f in harmonic_forms("a", s, h, 4 - p, 4 - p)],
            })
    return json.dumps(records, indent=2) + "\n"


def test_harmonic_aeppli_certificates_on_the_n4_ladder_match_golden():
    # the obstruction forms, their pairings and the harmonic bases behind
    # them, on metrics with non-real entries
    golden = (TESTS_GOLDEN / "aeppli-heisenberg-4.json").read_text(encoding="utf-8")
    assert aeppli_ladder_json() == golden


def harmonic_bases_json() -> str:
    """The rendered Bott-Chern and Aeppli harmonic bases at every bidegree of
    the corpus entries and the n=4 ladder, for the identity metric and for
    the first seeded random metric with a non-real entry."""
    structures = [corpus.get(name).load().structure for name in corpus.names()]
    structures.append(parse_structure("algebra heisenberg-4\ndim 4\nd f4 = f1^f2\n"))
    records = []
    for s in structures:
        n = s.n
        rng = random.Random(f"harmonic-bases:{s.name}")
        seeded = random_positive_metric(n, rng)
        while all(x.is_real() for row in seeded.entries for x in row):
            seeded = random_positive_metric(n, rng)
        for h in (HermitianMetric.identity(n), seeded):
            record = {"algebra": s.name, "metric": [[str(x) for x in row] for row in h.entries]}
            for kind in ("bc", "a"):
                record[kind] = {
                    f"{p},{q}": [render_form(f) for f in harmonic_forms(kind, s, h, p, q)]
                    for p in range(n + 1)
                    for q in range(n + 1)
                }
            records.append(record)
    return json.dumps(records, indent=2) + "\n"


def test_harmonic_bases_match_golden():
    # pins both theories' primary routes, Bott-Chern included, on metrics
    # with and without non-real entries
    golden = (TESTS_GOLDEN / "harmonic-bases.json").read_text(encoding="utf-8")
    assert harmonic_bases_json() == golden


class _CountingRandom(random.Random):
    """A Random that counts its ``randint`` calls."""

    calls = 0

    def randint(self, a, b):
        self.calls += 1
        return super().randint(a, b)


DRAW_SEEDS = (0, 1, 2, 5, 314159, 20260808)


def seeded_draws_json() -> str:
    """Every seeded draw the verification suite makes, as exact values in
    draw order, with the state each leaves behind (the next 32 random bits):

    * two successive ``random_positive_metric(n, rng)`` for n = 1..5 on each
      seed, with the number of candidates each drew (``randint`` calls over
      the 2 n^2 a candidate takes), so rejected and boosted draws are
      pinned too;
    * ``_random_form`` on a few bidegrees, ``_skt_tuples``, and the
      parameters that ``check_secondary_kodaira`` passes to
      ``from_form_parameters``."""
    def scalar(x):
        return str(Scalar.coerce(x))

    records = []
    for seed in DRAW_SEEDS:
        for n in range(1, 6):
            rng = _CountingRandom(seed)
            for _ in range(2):
                before = rng.calls
                h = random_positive_metric(n, rng)
                records.append({
                    "draw": "random_positive_metric",
                    "seed": seed,
                    "n": n,
                    "entries": [[scalar(x) for x in row] for row in h.entries],
                    "candidates": (rng.calls - before) // (2 * n * n),
                })
            records[-1]["next"] = rng.getrandbits(32)
        rng = random.Random(seed)
        forms = [_random_form(n, p, q, rng) for n, p, q in ((2, 1, 1), (3, 2, 1), (4, 2, 2), (4, 0, 3))]
        records.append({
            "draw": "_random_form",
            "seed": seed,
            "terms": [[[m.holo, m.anti, scalar(c)] for m, c in f.terms.items()] for f in forms],
            "next": rng.getrandbits(32),
        })
        records.append({
            "draw": "_skt_tuples",
            "seed": seed,
            "tuples": [[scalar(x) for x in t] for t in _skt_tuples(seed, 6)],
        })
    drawn = []
    original = verification.HermitianMetric.from_form_parameters

    def recording(n, squares, offdiag=None):
        drawn.append([scalar(x) for x in squares] + [scalar(offdiag[1, 2])])
        return original(n, squares, offdiag)

    verification.HermitianMetric.from_form_parameters = staticmethod(recording)
    try:
        verification.check_secondary_kodaira(20260808)
    finally:
        verification.HermitianMetric.from_form_parameters = staticmethod(original)
    records.append({"draw": "secondary-kodaira parameters", "seed": 20260808, "parameters": drawn})
    return json.dumps(records, indent=1) + "\n"


def test_seeded_draws_match_golden():
    # the Scalars each seeded draw builds, and the random calls it makes
    golden = (TESTS_GOLDEN / "seeded-draws.json").read_text(encoding="utf-8")
    assert seeded_draws_json() == golden
    records = json.loads(golden)
    # the pin covers candidates that were rejected and boosted
    assert max(r.get("candidates", 0) for r in records) >= 3
