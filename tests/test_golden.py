"""Outputs must stay byte-identical to the golden copies the benchmark keeps
in perfbench/golden/ (read here, never rewritten) and to the verify-suite
golden in tests/golden/."""

import json
from pathlib import Path

import pytest

from liecohom import corpus
from liecohom.cli import main
from liecohom.verification import corpus_checks

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
TESTS_GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", corpus.names())
def test_cohomology_json_matches_golden(capsys, name):
    code = main(["cohomology", f"corpus:{name}", "--metric", "identity", "--json"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_corpus_check_names_match_golden():
    names = json.loads((GOLDEN / "verify_checks.json").read_text(encoding="utf-8"))
    assert [r.name for r in corpus_checks("all")] == names["corpus_checks"]


def test_heisenberg_4_ladder_json_matches_golden(capsys, tmp_path):
    lie = tmp_path / "heisenberg-4.lie"
    lie.write_text("algebra heisenberg-4\ndim 4\nd f4 = f1^f2\n", encoding="utf-8")
    code = main(["cohomology", str(lie), "--metric", "identity", "--json"])
    assert code == 0
    golden = (GOLDEN / "heisenberg-4.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_verify_all_json_matches_golden(verify_all_json):
    # names, verdicts and details of every check, byte for byte
    code, out = verify_all_json
    assert code == 0
    golden = (TESTS_GOLDEN / "verify_all.json").read_text(encoding="utf-8")
    assert out == golden
