import json

import pytest

from liecohom import corpus
from liecohom.cli import main

SL2C = """algebra sl2c
dim 3
d f1 = f2^f3
d f2 = -1*f1^f3
d f3 = f1^f2
metric identity
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_corpus_entry(capsys):
    code, out, _ = run(capsys, "parse", "corpus:sl2c")
    assert code == 0
    assert "d f1 = f2^f3" in out
    assert "integrable=true" in out


def test_parse_file(tmp_path, capsys):
    path = tmp_path / "sl2c.lie"
    path.write_text(SL2C)
    code, out, _ = run(capsys, "parse", str(path))
    assert code == 0 and "unimodular=true" in out


def test_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.lie"
    path.write_text("algebra broken\ndim 2\nd f1 = f9\n")
    code, _, err = run(capsys, "parse", str(path))
    assert code == 2
    assert "line 3" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "parse", "does-not-exist.lie")
    assert code == 2


def test_cohomology_json_bott_chern(capsys):
    code, out, _ = run(
        capsys, "cohomology", "corpus:calabi-eckmann", "--groups", "bc", "--json"
    )
    assert code == 0
    data = json.loads(out)
    bc = data["cohomology"]["bc"]
    assert bc["1,1"]["dim"] == 2
    assert bc["2,2"]["dim"] == 1
    assert bc["1,0"]["dim"] == 0
    assert data["level"] == "invariant"


def test_cohomology_json_round_trip(capsys):
    from liecohom.cohomology import CohomologyReport

    code, out, _ = run(capsys, "cohomology", "corpus:kodaira-secondary", "--json")
    assert code == 0
    data = json.loads(out)
    report = CohomologyReport.from_dict(data)
    assert report.to_dict() == data


def test_cohomology_deterministic(capsys):
    _, out1, _ = run(capsys, "cohomology", "corpus:sl2c", "--json")
    _, out2, _ = run(capsys, "cohomology", "corpus:sl2c", "--json")
    assert out1 == out2


def test_cohomology_non_integrable_exit_3(tmp_path, capsys):
    path = tmp_path / "nonint.lie"
    path.write_text("algebra nonint\ndim 3\nd f1 = F2^F3\n")
    code, _, err = run(capsys, "cohomology", str(path), "--groups", "bc")
    assert code == 3
    code, out, _ = run(capsys, "cohomology", str(path), "--groups", "derham")
    assert code == 0


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "corpus:sl2c")
    assert code == 0
    assert "balanced: true" in out
    assert "kaehler: false" in out


def test_classify_metric_override(tmp_path, capsys):
    metric = tmp_path / "metric.txt"
    metric.write_text("2 0 0\n0 1 0\n0 0 1\n")
    code, out, _ = run(
        capsys, "classify", "corpus:sl2c", "--metric", str(metric), "--json"
    )
    assert code == 0
    assert json.loads(out)["metric_class"]["balanced"] is True


def test_aeppli_witness(capsys):
    code, out, _ = run(capsys, "aeppli", "corpus:sl2c", "--p", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["vanishes"] is True
    assert data["witness"] is not None
    # the serialized witness parses back and reconstructs omega^2
    from liecohom import corpus
    from liecohom.structure import parse_form_expr

    lf = corpus.get("sl2c").load()
    mu = parse_form_expr(data["witness"]["mu"], 3)
    lam = parse_form_expr(data["witness"]["lambda"], 3)
    assert lf.structure.del_(mu) + lf.structure.delbar(lam) == lf.metric.omega_power(2)


def test_aeppli_obstruction(capsys):
    code, out, _ = run(capsys, "aeppli", "corpus:calabi-eckmann", "--p", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["vanishes"] is False
    assert data["obstruction"] is not None


def test_aeppli_undefined_class_exit_3(capsys):
    code, _, err = run(capsys, "aeppli", "corpus:sl2c", "--p", "2")
    assert code == 3
    assert "undefined" in err


def test_verify_single_entry(capsys):
    code, out, _ = run(capsys, "verify", "sl2c")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_unknown_scope(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == 2


def test_unknown_corpus_entry_same_message_for_every_command(capsys):
    want = (
        "parse error: unknown corpus entry 'nosuch'; available: "
        + ", ".join(corpus.names())
        + "\n"
    )
    for argv in (["cohomology", "corpus:nosuch"], ["verify", "nosuch"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", want)


# (metric block, exit code of `classify`, line of the error within the block)
METRIC_BLOCKS = [
    ("metric hermitian\n2 0 0\n0 1 0\n0 0 1\n", 0, None),
    ("metric bogus\n", 2, 1),
    ("metric identityfoo\n", 2, 1),
    ("metric identity extra\n", 2, 1),
    ("metric hermitian\n1 0 0\n0 1 0\n", 2, 3),  # a row missing
    ("metric hermitian\n1 0 0\n0 1 x\n0 0 1\n", 2, 3),
    ("metric hermitian\n1 0 0\n0 1 0 0\n0 0 1\n", 2, 3),
    ("metric hermitian\n1 1 0\n0 1 0\n0 0 1\n", 2, 1),  # not Hermitian
    ("metric hermitian\n1 2 0\n2 1 0\n0 0 1\n", 3, None),  # Hermitian, not positive
]

# Metric files only: the header is optional there, and nothing may follow the rows.
METRIC_FILES = [
    ("1 0 0\n0 1 0\n", 2, 2),
    ("1 0 0\n0 1 0\n0 0 1\n0 0 1\n", 2, 4),
    ("metric identity\n1 0 0\n", 2, 2),
    ("1 1i 0\n1i 1 0\n0 0 1\n", 2, 1),
    ("# nothing here\n", 2, 1),
]


def _assert_exit(code, err, want_code, want_line):
    assert code == want_code, err
    if want_line is not None:
        assert f"line {want_line}," in err


@pytest.mark.parametrize("text,want_code,want_line", METRIC_BLOCKS + METRIC_FILES)
def test_metric_file_errors(tmp_path, capsys, text, want_code, want_line):
    metric = tmp_path / "metric.txt"
    metric.write_text(text)
    code, _, err = run(capsys, "classify", "corpus:sl2c", "--metric", str(metric))
    _assert_exit(code, err, want_code, want_line)


@pytest.mark.parametrize("text,want_code,want_line", METRIC_BLOCKS)
def test_metric_block_errors_in_lie_file(tmp_path, capsys, text, want_code, want_line):
    structure = SL2C.replace("metric identity\n", "")
    path = tmp_path / "sl2c.lie"
    path.write_text(structure + text)
    code, _, err = run(capsys, "classify", str(path))
    offset = structure.count("\n")
    _assert_exit(code, err, want_code, want_line and want_line + offset)


@pytest.mark.parametrize(
    "text,minors",
    [
        ("1 0 0\n0 0 0\n0 0 1\n", "[1, 0, 0]"),
        ("1/2 0 0\n0 -1 0\n0 0 1\n", "[1/2, -1/2, -1/2]"),
        # singular, and indefinite with det h < 0
        ("1 0\n0 0\n", "[1, 0]"),
        ("1 0\n0 -1\n", "[1, -1]"),
    ],
)
def test_non_positive_metric_message_prints_rational_minors(tmp_path, capsys, text, minors):
    metric = tmp_path / "metric.txt"
    metric.write_text(text)
    algebra = {2: "kodaira-secondary", 3: "sl2c"}[text.count("\n")]
    want = f"precondition violation: metric is not positive definite; minors {minors}\n"
    for argv in (["cohomology"], ["classify"], ["aeppli", "--p", "1"]):
        code, out, err = run(capsys, *argv, f"corpus:{algebra}", "--metric", str(metric))
        assert (code, out, err) == (3, "", want)
