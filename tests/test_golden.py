"""Outputs must stay byte-identical to the golden copies the benchmark keeps
in perfbench/golden/ (read here, never rewritten) and to the verify-suite
and n=5, n=6 ladder goldens in tests/golden/ (n=7 by its digest)."""

import hashlib
import json
from pathlib import Path

import pytest

from liecohom import corpus
from liecohom.cli import main
from liecohom.verification import CRITERIA

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


def test_verify_all_json_matches_golden(verify_all_json):
    # names, verdicts and details of every check, byte for byte
    code, out = verify_all_json
    assert code == 0
    golden = (TESTS_GOLDEN / "verify_all.json").read_text(encoding="utf-8")
    assert out == golden
