import json
import time

import pytest

from liecohom import corpus
from liecohom.cli import main
from liecohom.structure import MAX_DIM, parse_lie

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
    assert out == (
        "algebra sl2c\ndim 3\nd f1 = f2^f3\nd f2 = -f1^f3\nd f3 = f1^f2\n"
        "metric hermitian\n  1  0  0\n  0  1  0\n  0  0  1\n"
        "flags: integrable=true unimodular=true nilpotent=false\n"
    )


def test_parse_file(tmp_path, capsys):
    path = tmp_path / "sl2c.lie"
    path.write_text(SL2C)
    code, out, _ = run(capsys, "parse", str(path))
    assert code == 0 and "unimodular=true" in out


def test_algebra_name_with_punctuation(tmp_path, capsys):
    # `parse` has no JSON form; the report's JSON carries the same name
    path = tmp_path / "sl2c.lie"
    path.write_text(SL2C.replace("algebra sl2c", "algebra sl(2,C)  # the name"))
    code, out, _ = run(capsys, "parse", str(path))
    assert code == 0 and out.startswith("algebra sl(2,C)\ndim 3\n")
    code, out, _ = run(capsys, "cohomology", str(path), "--groups", "derham", "--json")
    assert code == 0 and json.loads(out)["algebra"] == "sl(2,C)"


def test_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.lie"
    path.write_text("algebra broken\ndim 2\nd f1 = f9\n")
    code, _, err = run(capsys, "parse", str(path))
    assert code == 2
    assert "line 3" in err


@pytest.mark.parametrize(
    "equation, col",
    [("d f1 = f" + "1" * 5000 + "^f2", 8), ("d f" + "1" * 5000 + " = f1^f2", 3)],
    ids=["factor", "assigned"],
)
def test_parse_overlong_generator_index_exit_2(tmp_path, capsys, equation, col):
    path = tmp_path / "long.lie"
    path.write_text(f"algebra long\ndim 2\n{equation}\n")
    code, out, err = run(capsys, "parse", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: line 3, col {col}: generator index too long")
    assert "Traceback" not in err


def test_parse_deeply_nested_scalars(tmp_path, capsys):
    nest = "(" * 3000 + "{}" + ")" * 3000
    path = tmp_path / "nested.lie"
    path.write_text(
        f"algebra nested\ndim 3\nd f3 = {nest.format('1/2')}*f1^f2\n"
        f"metric hermitian\n{nest.format(2)} 0 0\n0 1 0\n0 0 1\n"
    )
    code, out, _ = run(capsys, "parse", str(path))
    assert code == 0
    assert "d f3 = 1/2*f1^f2\n" in out and "metric hermitian\n  2  0  0\n" in out
    path.write_text(f"algebra nested\ndim 3\nd f3 = {nest.format('1/2')[:-1]}*f1^f2\n")
    code, out, err = run(capsys, "parse", str(path))
    assert (code, out) == (2, "")
    assert err == "parse error: line 3, col 6010: unexpected '*' inside scalar\n"


@pytest.mark.parametrize("dim", ["257", "99999999999999999999"])
def test_parse_refuses_a_dim_above_the_ceiling_at_once(tmp_path, capsys, dim):
    # one zero form per generator would be built before anything else failed
    path = tmp_path / "huge.lie"
    path.write_text(f"algebra huge\ndim {dim}\nmetric identity\n")
    start = time.perf_counter()
    code, _, err = run(capsys, "parse", str(path))
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert f"dim must be at most {MAX_DIM}" in err and "line 2" in err


def test_parse_accepts_the_dim_ceiling(capsys):
    lie = parse_lie(f"algebra big\ndim {MAX_DIM}\nmetric identity\n")
    assert lie.structure.n == lie.metric.n == MAX_DIM



@pytest.mark.parametrize(
    "text, where",
    [
        ("algebra a\ndim \u0663\n", "line 2, col 5"),
        ("algebra a\ndim 3\nd f3 = \u0662*f1^f2\n", "line 3, col 8"),
        ("algebra a\ndim 2\nmetric hermitian\n1 0\n0 \u0661\n", "line 5, col 3"),
    ],
    ids=["dim", "coefficient", "metric row"],
)
def test_parse_unicode_digit_exit_2(tmp_path, capsys, text, where):
    # numbers are ASCII: an Arabic-Indic digit is an unexpected character
    path = tmp_path / "digits.lie"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "parse", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: {where}: unexpected character") and "Traceback" not in err


def test_metric_file_unicode_digit_exit_2(tmp_path, capsys):
    metric = tmp_path / "metric.txt"
    metric.write_text("1 0 0\n0 1 0\n0 0 \u0661\n", encoding="utf-8")
    code, out, err = run(capsys, "classify", "corpus:sl2c", "--metric", str(metric))
    assert (code, out) == (2, "")
    assert "line 3, col 5: unexpected character" in err and "Traceback" not in err

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


@pytest.mark.parametrize("name", ["kodaira-secondary", "iwasawa"])
def test_report_groups_hold_the_printed_cells(capsys, name):
    # the report's tables are the cells `cohomology --json` prints, as they are
    from liecohom.cohomology import full_report
    from liecohom.hodge import HermitianMetric

    code, out, _ = run(capsys, "cohomology", f"corpus:{name}", "--json")
    assert code == 0
    lf = corpus.get(name).load()
    s = lf.structure
    report = full_report(s, lf.metric or HermitianMetric.identity(s.n))
    assert report.groups == json.loads(out)["cohomology"]


def test_a_repeated_group_is_computed_once(capsys, monkeypatch):
    import liecohom.cohomology as cohomology

    calls = []
    de_rham = cohomology.de_rham_cohomology
    monkeypatch.setattr(
        cohomology, "de_rham_cohomology", lambda s, k: calls.append(k) or de_rham(s, k)
    )
    _, once, _ = run(capsys, "cohomology", "corpus:iwasawa", "--groups", "derham")
    assert len(calls) == 7
    calls.clear()
    code, twice, _ = run(capsys, "cohomology", "corpus:iwasawa", "--groups", "derham,derham")
    assert code == 0 and twice == once
    assert len(calls) == 7


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


@pytest.mark.parametrize("groups", ["", " ", "bc,,a"])
def test_cohomology_empty_group_name_exit_3(capsys, groups):
    # an empty --groups names the empty group; it does not mean every group
    code, out, err = run(capsys, "cohomology", "corpus:sl2c", "--groups", groups)
    assert code == 3 and out == ""
    assert "unknown group ''" in err


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


def test_aeppli_at_n_1_has_no_p_exit_3(tmp_path, capsys):
    path = tmp_path / "line.lie"
    path.write_text("algebra line\ndim 1\n")
    code, out, err = run(capsys, "aeppli", str(path), "--p", "1")
    assert code == 3 and out == ""
    assert "n = 1 has no p with 1 <= p <= n-1" in err
    assert "1..0" not in err


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
        # a zero pivot followed by a nonzero minor
        ("0 1\n1 0\n", "[0, -1]"),
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


def _unreadable(tmp_path, kind):
    """A path whose text cannot be read: a directory, or bytes that are not UTF-8."""
    if kind == "directory":
        path = tmp_path / "folder.lie"
        path.mkdir()
        return path, "cannot be read: "
    path = tmp_path / "latin.lie"
    path.write_bytes(b"\xff\xfe")
    return path, "not UTF-8 text"


@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
def test_unreadable_input_exit_2(tmp_path, capsys, kind):
    path, reason = _unreadable(tmp_path, kind)
    for argv in (["parse"], ["cohomology"], ["classify"], ["aeppli", "--p", "1"]):
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, ""), err
        assert err.startswith("parse error: ") and reason in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
def test_unreadable_metric_exit_2(tmp_path, capsys, kind):
    path, reason = _unreadable(tmp_path, kind)
    for argv in (["cohomology"], ["classify"], ["aeppli", "--p", "1"]):
        code, out, err = run(capsys, *argv, "corpus:sl2c", "--metric", str(path))
        assert (code, out) == (2, ""), err
        assert err.startswith("parse error: metric file ") and reason in err
