"""The acceptance gate: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s`` or ``-v`` to see them).  Every equality in
these checks is exact Gaussian-rational arithmetic; there are no
tolerances to tune.  The checks are those of ``liecohom verify all``: the
suite runs once per session (the ``verify_all_json`` fixture) and each test
reads its own records from that run.
"""

import json

from liecohom.verification import CRITERIA, CheckResult


def _records(verify_all_json) -> list[CheckResult]:
    code, out = verify_all_json
    return [CheckResult(**r) for r in json.loads(out)]


def _gate(verify_all_json, name):
    (result,) = [r for r in _records(verify_all_json) if r.name == name]
    print(result.line())
    assert result.passed, result.line()


def test_criterion_1_star_identity(verify_all_json):
    # *(omega^(n-p) ^ psi) == c(n,p) conj(psi) for every basis (p,0)-form,
    # n in {2,3,4}, identity + 20 seeded random positive metrics, exact
    _gate(verify_all_json, "star-identity")


def test_criterion_2_adjoints_annihilate(verify_all_json):
    # del* and delbar* kill omega^(n-p) ^ psi for d-closed (p,0)-forms psi
    # on every corpus algebra and every seeded metric
    _gate(verify_all_json, "adjoint-annihilation")


def test_criterion_3_sl2c(verify_all_json):
    # H_BC^(1,0) = 0; d omega^2 = 0; the Aeppli class of omega^2 vanishes
    # with a witness that reconstructs it exactly; implication CONSISTENT
    _gate(verify_all_json, "sl2c-vanishing")


def test_criterion_4_calabi_eckmann(verify_all_json):
    # the full Bott-Chern table, harmonicity of the listed representatives,
    # H_A^(2,2) spanned by the two product monomial classes, the negative
    # pairing, and the failing Aeppli vanishing for p=1
    _gate(verify_all_json, "calabi-eckmann-tables")


def test_criterion_5_secondary_kodaira(verify_all_json):
    # H_BC^(1,0)=0, H_BC^(1,1)=<f1^F1>, *(f1^F1)=-f2^F2, H_A^(1,1)=<[f2^F2]>,
    # and [omega]_A != 0 for 20 seeded constant-parameter positive metrics
    _gate(verify_all_json, "secondary-kodaira")


def test_criterion_6_skt_family(verify_all_json):
    # 50 seeded parameter tuples: the scalar pluriclosed condition matches
    # the engine's del-delbar test exactly; whenever it holds, f1^f2 stays
    # closed and [omega]_A != 0
    _gate(verify_all_json, "skt-family")


def test_criterion_7_structural_suite(verify_all_json):
    # d^2 = 0, del/delbar identities, Leibniz on 100 random pairs per
    # algebra, the star defining relation exhaustively for n <= 3,
    # adjointness on unimodular algebras, star duality of dimensions,
    # quotient == harmonic dimensions, Euler characteristic zero
    _gate(verify_all_json, "structural-identities")


def test_criterion_8_lefschetz_rank(verify_all_json):
    # omega^(n-p) wedge is injective on (p,0)-forms: rank C(n,p) for all
    # corpus metrics, seeded metrics, and p
    _gate(verify_all_json, "lefschetz-rank")


def test_corpus_expectations(verify_all_json):
    # every frozen expectation of every corpus entry
    criteria = {name for name, _ in CRITERIA}
    results = [r for r in _records(verify_all_json) if r.name not in criteria]
    assert results
    for r in results:
        print(r.line())
    failures = [r.line() for r in results if not r.passed]
    assert not failures, "\n".join(failures)
