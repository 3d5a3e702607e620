import random
import re
from fractions import Fraction

import pytest

from liecohom import corpus
from liecohom.analysis import generate_skt_family
from liecohom.errors import IntegrabilityError, JacobiViolation, ParseError
from liecohom.exterior import Form, basis, total_basis
from liecohom.linalg import Subspace
from liecohom.scalars import HALF, I, ONE, ZERO, Scalar
from liecohom.structure import (
    StructureEquations,
    parse_form_expr,
    parse_lie,
    parse_metric,
    parse_scalar,
    parse_structure,
    render_form,
    render_structure,
)
from liecohom.verification import DEFAULT_SEED, _skt_tuples

SL2C = """\
algebra sl2c
dim 3
d f1 = f2^f3
d f2 = -1*f1^f3
d f3 = f1^f2
"""

CALABI_ECKMANN = """\
algebra calabi-eckmann
dim 3
d f1 = 1i*f1^f3 + 1i*f1^F3
d f2 = f2^f3 - f2^F3
d f3 = (0-1i)*f1^F1 + f2^F2
"""

KODAIRA = """\
algebra kodaira-secondary
dim 2
d f1 = -1/2*f1^f2 + 1/2*f1^F2
d f2 = 1/2i*f1^F1
"""

# one-dimensional affine algebra: integrable but NOT unimodular
AFFINE = """\
algebra affine
dim 1
d f1 = f1^F1
"""


def mono(n, h, a, c=ONE):
    return Form.monomial(n, h, a, c)


# -- parsing ---------------------------------------------------------------------


def test_parse_sl2c():
    s = parse_structure(SL2C)
    assert s.n == 3 and s.name == "sl2c"
    assert s.dgen[0] == mono(3, [2, 3], [])
    assert s.dgen[1] == mono(3, [1, 3], [], -ONE)
    assert s.flags.integrable


def test_parse_calabi_eckmann_line():
    s = parse_structure(CALABI_ECKMANN)
    assert s.dgen[2] == mono(3, [1], [1], Scalar(0, -1)) + mono(3, [2], [2])
    assert s.flags.integrable


def test_parse_pure_02_is_non_integrable():
    s = parse_structure("algebra nonint\ndim 3\nd f1 = F2^F3\n")
    assert not s.flags.integrable


def test_omitted_generators_are_closed():
    s = parse_structure("algebra iwasawa\ndim 3\nd f3 = f1^f2\n")
    assert s.dgen[0].is_zero() and s.dgen[1].is_zero()


def test_parse_monomial_reordering():
    # the parser wedges generators in the written order, with signs
    f = parse_form_expr("F1^f2", 3)
    assert f == mono(3, [2], [1], -ONE)


def test_parse_zero_expression():
    s = parse_structure("algebra abelian\ndim 2\nd f1 = 0\n")
    assert s.dgen[0].is_zero()


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_structure("algebra broken\ndim 2\nd f1 = f2 ^^ f1\n")
    assert err.value.line == 3 and err.value.col is not None


def test_index_out_of_range():
    with pytest.raises(ParseError):
        parse_structure("algebra broken\ndim 2\nd f1 = f2^f3\n")


def test_duplicate_generator_rejected():
    with pytest.raises(ParseError):
        parse_structure("algebra broken\ndim 2\nd f1 = 0\nd f1 = 0\n")


def test_jacobi_violation_names_generator():
    text = "algebra broken\ndim 3\nd f1 = f2^f3\nd f2 = f1^f2\n"
    with pytest.raises(JacobiViolation) as err:
        parse_structure(text)
    assert "f1" in str(err.value)
    assert (err.value.line, err.value.col) == (3, 3)  # at the equation of f1


def test_missing_dim_rejected():
    with pytest.raises(ParseError):
        parse_structure("algebra broken\nd f1 = 0\n")


def test_metric_blocks():
    lf = parse_lie(SL2C + "metric identity\n")
    assert lf.metric is not None and lf.metric.n == 3
    text = KODAIRA + "metric hermitian\n2 1i\n-1i 1\n"
    lf = parse_lie(text)
    assert lf.metric.entries[0][1] == I
    with pytest.raises(ParseError):
        parse_lie(KODAIRA + "metric hermitian\n2 1i\n1i 1\n")  # not Hermitian


def test_render_round_trip():
    for text in (SL2C, CALABI_ECKMANN, KODAIRA):
        s = parse_structure(text)
        again = parse_structure(render_structure(s))
        assert again.dgen == s.dgen


def test_render_form_round_trip_random():
    rng = random.Random(9)
    n = 3
    mons = basis(n, 1, 1) + basis(n, 2, 0)
    for _ in range(25):
        terms = {
            mons[rng.randrange(len(mons))]: Scalar(
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            )
            for _ in range(3)
        }
        f = Form(n, terms)
        assert parse_form_expr(render_form(f), n) == f


# -- the differential ---------------------------------------------------------------


def test_sl2c_d_of_f12_vanishes():
    s = parse_structure(SL2C)
    assert s.d(mono(3, [1, 2], [])).is_zero()


def test_sl2c_d_mixed_monomial():
    # hand antiderivation: d(f1^F1) = f2^f3^F1 - f1^F2^F3
    # (the second sign is forced by d^2 = 0 and d(conj) = conj(d))
    s = parse_structure(SL2C)
    assert s.d(mono(3, [1], [1])) == mono(3, [2, 3], [1]) - mono(3, [1], [2, 3])


def test_kodaira_d_generator():
    s = parse_structure(KODAIRA)
    assert s.d(mono(2, [2], [])) == mono(2, [1], [1], Scalar(0, Fraction(1, 2)))


def test_d_squared_zero_on_every_monomial():
    for text in (SL2C, CALABI_ECKMANN, KODAIRA, AFFINE):
        s = parse_structure(text)
        for k in range(2 * s.n + 1):
            for m in total_basis(s.n, k):
                assert s.d(s.d(Form(s.n, {m: ONE}))).is_zero()


def test_d_commutes_with_conjugation():
    rng = random.Random(11)
    s = parse_structure(CALABI_ECKMANN)
    for _ in range(20):
        p, q = rng.randint(0, 3), rng.randint(0, 3)
        mons = basis(3, p, q)
        if not mons:
            continue
        a = Form(3, {mons[rng.randrange(len(mons))]: Scalar(rng.randint(-2, 2), 1)})
        assert s.d(a.conjugate()) == s.d(a).conjugate()


def test_leibniz_random_pairs():
    rng = random.Random(12)
    s = parse_structure(SL2C)
    mons_by_degree = {k: total_basis(3, k) for k in range(7)}
    for _ in range(50):
        ka = rng.randint(0, 4)
        kb = rng.randint(0, 4)
        if not mons_by_degree[ka] or not mons_by_degree[kb]:
            continue
        a = Form(3, {mons_by_degree[ka][rng.randrange(len(mons_by_degree[ka]))]: Scalar(2, -1)})
        b = Form(3, {mons_by_degree[kb][rng.randrange(len(mons_by_degree[kb]))]: Scalar(1, 3)})
        sign_a = -ONE if ka % 2 else ONE
        assert s.d(a.wedge(b)) == s.d(a).wedge(b) + a.wedge(s.d(b)).scale(sign_a)


# -- del and delbar ---------------------------------------------------------------------


def test_sl2c_holomorphic_coframe():
    s = parse_structure(SL2C)
    assert s.delbar(mono(3, [1], [])).is_zero()


def test_calabi_eckmann_split():
    s = parse_structure(CALABI_ECKMANN)
    psi1 = mono(3, [1], [])
    assert s.del_(psi1) == mono(3, [1, 3], [], I)
    assert s.delbar(psi1) == mono(3, [1], [3], I)


def test_d_equals_del_plus_delbar():
    s = parse_structure(CALABI_ECKMANN)
    for p in range(4):
        for q in range(4):
            for m in basis(3, p, q):
                a = Form(3, {m: ONE})
                assert s.d(a) == s.del_(a) + s.delbar(a)


def test_del_squared_zero_random():
    rng = random.Random(13)
    for text in (SL2C, CALABI_ECKMANN, KODAIRA):
        s = parse_structure(text)
        for _ in range(10):
            p, q = rng.randint(0, s.n), rng.randint(0, s.n)
            mons = basis(s.n, p, q)
            if not mons:
                continue
            a = Form(s.n, {mons[rng.randrange(len(mons))]: Scalar(1, 1)})
            assert s.del_(s.del_(a)).is_zero()
            assert s.delbar(s.delbar(a)).is_zero()


def test_non_integrable_refuses_split():
    s = parse_structure("algebra nonint\ndim 3\nd f1 = F2^F3\n")
    with pytest.raises(IntegrabilityError):
        s.del_(mono(3, [1], []))
    # de Rham style work is still allowed
    assert s.d(mono(3, [1], [])) == mono(3, [], [2, 3])


# -- flags --------------------------------------------------------------------------------


def test_flags_sl2c():
    s = parse_structure(SL2C)
    assert s.flags.integrable and s.flags.unimodular and not s.flags.nilpotent


def test_flags_kodaira():
    s = parse_structure(KODAIRA)
    assert s.flags.integrable and s.flags.unimodular and not s.flags.nilpotent


def test_flags_nilpotent_entries():
    iwasawa = parse_structure("algebra iwasawa\ndim 3\nd f3 = f1^f2\n")
    assert iwasawa.flags.nilpotent and iwasawa.flags.unimodular
    skt = parse_structure("algebra skt\ndim 3\nd f3 = F2^f2 + 1i*f1^F1\n")
    assert skt.flags.nilpotent


def test_affine_not_unimodular():
    s = parse_structure(AFFINE)
    assert s.flags.integrable
    assert not s.flags.unimodular
    assert not s.flags.nilpotent


def test_unimodularity_matches_top_degree_exactness():
    # independent characterization: trace(ad) = 0 for all generators
    # iff d kills every (2n-1)-form
    for text in (SL2C, CALABI_ECKMANN, KODAIRA, AFFINE):
        s = parse_structure(text)
        kills_all = all(
            s.d(Form(s.n, {m: ONE})).is_zero() for m in total_basis(s.n, 2 * s.n - 1)
        )
        assert kills_all == s.flags.unimodular


# -- the bracket table against the 2-form evaluation route ------------------------------


def _ref_bracket(s, a, b):
    """[e_a, e_b]_k = -(d e^k)(e_a, e_b), each 2-form evaluated on the pair of
    basis vectors through 0/1 deltas of its factors."""

    def delta(factor, x):
        idx, is_conj = factor
        return int(x == (s.n + idx - 1 if is_conj else idx - 1))

    out = []
    for g in s.dgen + s.dgen_conj:
        value = ZERO
        for m, coeff in g.terms.items():
            f1, f2 = [(i, False) for i in m.holo] + [(j, True) for j in m.anti]
            pairing = delta(f1, a) * delta(f2, b) - delta(f1, b) * delta(f2, a)
            if pairing:
                value = value + coeff * pairing
        out.append(-value)
    return tuple(out)


def _ref_flags(brackets, dim):
    """(unimodular, nilpotent) from the full bracket map: every trace of ad
    is zero; the lower central series reaches zero."""
    unimodular = all(
        not sum((brackets[a, b][b] for b in range(dim)), ZERO) for a in range(dim)
    )

    def ad(a, v):
        out = [ZERO] * dim
        for b, vb in enumerate(v):
            if vb:
                out = [x + vb * y for x, y in zip(out, brackets[a, b])]
        return out

    def span(vectors):
        return Subspace(dim, [{j: x for j, x in enumerate(v) if x} for v in vectors])

    def dense(row):
        return [row.get(j, ZERO) for j in range(dim)]

    layer = span(brackets[a, b] for a in range(dim) for b in range(a + 1, dim))
    while layer.dim:
        next_layer = span(ad(a, dense(v)) for a in range(dim) for v in layer.rows)
        if next_layer.dim == layer.dim:
            return unimodular, False
        layer = next_layer
    return unimodular, True


_COEFFS = [ONE, -ONE, I, -I, HALF, Scalar(2), Scalar(1, 1)]


def _random_valid_structures(count, seed):
    """Sparse random equations over n in {2, 3}, redrawn until d^2 = 0."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice([2, 3])
        mons = basis(n, 2, 0) + basis(n, 1, 1) + basis(n, 0, 2)
        dgen = [
            Form(n, {rng.choice(mons): rng.choice(_COEFFS) for _ in range(rng.choice([0, 1, 1, 2, 3]))})
            for _ in range(n)
        ]
        try:
            out.append(StructureEquations(n, dgen, name=f"random-{len(out)}"))
        except JacobiViolation:
            pass
    return out


def test_bracket_table_and_flags_match_reference_route():
    structures = [corpus.CORPUS[name].load().structure for name in corpus.names()]
    structures.append(parse_structure(AFFINE))
    structures += [
        parse_structure(f"algebra heisenberg-{n}\ndim {n}\nd f{n} = f1^f2\n") for n in (3, 4, 5)
    ]
    structures += [generate_skt_family(*t) for t in _skt_tuples(DEFAULT_SEED, 50)]
    structures += _random_valid_structures(200, 5)
    seen = set()
    for s in structures:
        dim = 2 * s.n
        table = s._bracket_table()
        assert all(a < b and v and all(v.values()) for (a, b), v in table.items()), s.name
        brackets = {(a, b): _ref_bracket(s, a, b) for a in range(dim) for b in range(dim)}
        for (a, b), want in brackets.items():
            if (a, b) in table:
                got = tuple(table[a, b].get(k, ZERO) for k in range(dim))
            elif (b, a) in table:
                got = tuple(-table[b, a].get(k, ZERO) for k in range(dim))
            else:
                got = (ZERO,) * dim
            assert got == want, (s.name, render_structure(s), a, b)
        unimodular, nilpotent = _ref_flags(brackets, dim)
        assert (s.flags.unimodular, s.flags.nilpotent) == (unimodular, nilpotent), (
            render_structure(s)
        )
        seen.add(s.flags)
    for flag in ("integrable", "unimodular", "nilpotent"):
        assert {getattr(f, flag) for f in seen} == {True, False}, flag


# -- d on monomials against the Leibniz expansion over Forms ------------------------


def _ref_d_monomial(s, mono):
    """d of a monomial as the sum over its factors x_k of
    (-1)^k prefix ^ d(x_k) ^ suffix, with Form wedges and Form sums."""
    p = len(mono.holo)
    out = Form.zero(s.n)
    for k, idx in enumerate(mono.holo + mono.anti):
        if k < p:
            dfac = s.dgen[idx - 1]
            prefix, suffix = (mono.holo[:k], ()), (mono.holo[k + 1 :], mono.anti)
        else:
            dfac = s.dgen_conj[idx - 1]
            y = k - p
            prefix, suffix = (mono.holo, mono.anti[:y]), ((), mono.anti[y + 1 :])
        piece = Form.monomial(s.n, *prefix).wedge(dfac).wedge(Form.monomial(s.n, *suffix))
        out = out + (piece if k % 2 == 0 else -piece)
    return out


def test_d_monomial_matches_leibniz_reference():
    structures = [corpus.CORPUS[name].load().structure for name in corpus.names()]
    structures.append(parse_structure(AFFINE))
    structures.append(parse_structure("algebra nonint\ndim 3\nd f1 = F2^F3\n"))
    structures += [
        parse_structure(f"algebra heisenberg-{n}\ndim {n}\nd f{n} = f1^f2\n")
        for n in (2, 3, 4, 5)
    ]
    structures += _random_valid_structures(40, 17)
    assert {s.flags.integrable for s in structures} == {True, False}
    for s in structures:
        for k in range(2 * s.n + 1):
            for m in total_basis(s.n, k):
                assert s._d_monomial(m) == _ref_d_monomial(s, m), (render_structure(s), m)


# -- parser fuzzing: every outcome is a value or a positioned ParseError ---------

# the `.lie` token alphabet: keywords, generators, symbols, numbers (zero
# denominators included), blanks, comments and newlines; concatenation also
# fuses neighbours into longer words and numbers
LIE_ALPHABET = [
    "algebra", "dim", "d", "metric", "identity", "hermitian", "x",
    "f1", "f2", "f3", "f4", "F1", "F2", "F4", "f0", "f5", "F9",
    "^", "+", "-", "/", "i", "(", ")", "=", "*", "#",
    "0", "1", "2", "3", "4", "1/2", "1/0", "0/0", "3i", "1/0i",
    " ", " ", "\n",
]


def _small_dims(text):
    # dim <= 4 keeps each draw cheap
    return all(int(k) <= 4 for k in re.findall(r"dim\s*(\d+)", text))


def _parses_or_raises_positioned(parse, *args):
    try:
        parse(*args)
    except ParseError as exc:  # JacobiViolation included
        assert exc.line is not None and exc.col is not None, (args, exc)


def test_parsers_fuzzed_over_the_token_alphabet():
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings, strategies as st

    soup = st.lists(st.sampled_from(LIE_ALPHABET), max_size=24).map("".join)
    line = st.lists(st.sampled_from([t for t in LIE_ALPHABET if t != "\n"]), max_size=12).map(
        "".join
    )
    header = st.sampled_from(["", "algebra a\n", "algebra a\ndim 2\n", "algebra a\ndim 3\n"])
    wedges = st.sampled_from(["f1^f2", "f2^f3", "f1^F2", "F1^F3", "1/2i*f3^F3", "-f1^F1"])
    rhs = st.one_of(line, st.lists(wedges, min_size=1, max_size=3).map(" + ".join))
    statement = st.one_of(
        st.tuples(st.sampled_from(["d f1 = ", "d f2 = ", "d f3 = ", "d f4 = "]), rhs),
        st.tuples(st.sampled_from(["metric ", "metric hermitian\n", "metric identity"]), line),
        st.tuples(st.just(""), line),
    ).map("".join)
    equation = st.tuples(
        st.sampled_from(["d f1 = ", "d f2 = ", "d f3 = "]),
        st.lists(wedges, min_size=1, max_size=3).map(" + ".join),
    ).map("".join)
    lie_text = st.one_of(
        soup,
        st.tuples(header, st.lists(statement, max_size=5).map("\n".join)).map("".join),
        # well-formed equations: reaches the Jacobi check and the flags
        st.lists(equation, max_size=3).map(lambda eqs: "\n".join(["algebra a", "dim 3"] + eqs)),
    )

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(lie_text, soup, line, st.integers(1, 4))
    def check(text, other, row, n):
        assume(_small_dims(text))
        _parses_or_raises_positioned(parse_lie, text)
        _parses_or_raises_positioned(parse_scalar, row)
        _parses_or_raises_positioned(parse_form_expr, row, n)
        _parses_or_raises_positioned(parse_form_expr, other, n)
        _parses_or_raises_positioned(parse_metric, other, n)
        _parses_or_raises_positioned(parse_metric, "metric hermitian\n" + "\n".join([row] * n), n)

    check()


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_scalar, "1" * 5000),
        (parse_scalar, "1/" + "1" * 5000),
        (parse_lie, "algebra a\ndim " + "1" * 5000),
        (parse_lie, "algebra a\ndim 2\nd f2 = " + "3" * 5000 + "*f1^F1"),
    ],
    ids=["integer", "denominator", "dim", "coefficient"],
)
def test_overlong_numbers_are_parse_errors(parse, text):
    # more digits than int() converts: a positioned ParseError, no ValueError
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line is not None and "too long" in str(err.value)
