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
    render_monomial,
    render_row,
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


@pytest.mark.parametrize("name", ["S^3 x S^3", "sl(2,C)", "a.b"])
def test_algebra_name_is_the_rest_of_the_line(name):
    # NAME is read as written, up to the comment, blanks trimmed: characters
    # that start no token are part of it
    s = parse_structure(f"  algebra \t{name}  # a comment, with a '.'\ndim 3\nd f3 = f1^f2\n")
    assert s.name == name
    again = parse_structure(render_structure(s))
    assert (again.name, again.dgen) == (name, s.dgen)
    assert render_structure(again) == render_structure(s)


def test_algebra_name_stops_at_the_comment():
    with pytest.raises(ParseError) as err:
        parse_structure("algebra # sl(2,C)\ndim 1\n")
    assert (err.value.line, err.value.col) == (1, 1) and "missing algebra name" in str(err.value)
    # a character that starts no token still fails on any other line
    with pytest.raises(ParseError) as err:
        parse_structure("algebra sl(2,C)\ndim 3\nd f3 = f1.f2\n")
    assert (err.value.line, err.value.col) == (3, 10)
    assert "unexpected character '.'" in str(err.value)


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


def test_render_row_matches_render_form_random():
    # rows over bases in render order, with degree-0, non-real, non-unit
    # and +-1 entries, render as the forms they are the coordinates of
    from liecohom.cohomology import row_to_form

    rng = random.Random(10)
    pool = [ONE, -ONE, I, -I, HALF, -HALF, Scalar(2), Scalar(1, 1), Scalar(-1, 2), Scalar(0, -3)]
    for _ in range(200):
        n = rng.randint(1, 3)
        everything = [m for k in range(2 * n + 1) for m in total_basis(n, k)]
        mons = rng.sample(everything, rng.randint(1, len(everything)))
        mons.sort(key=lambda m: m.sort_key())
        names = tuple(render_monomial(m) for m in mons)
        keys = rng.sample(range(len(mons)), rng.randint(0, min(len(mons), 5)))
        row = {j: rng.choice(pool) for j in keys}
        if mons[0].degree == 0 and rng.random() < 0.5:
            row[0] = rng.choice(pool)
        assert render_row(row, names) == render_form(row_to_form(n, row, mons)), (row, names)
    assert render_row({}, ("f1",)) == "0"


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


# -- del and delbar against the per-bidegree projections of d ---------------------

_SPLIT_COEFFS = [ONE, -ONE, I, HALF, Scalar(2, -3)]


def _split_reference(s, a, side):
    """del a (side 0) or delbar a (side 1) by the per-bidegree route: d of
    each bidegree component, projected one degree up on that side."""
    out = Form.zero(s.n)
    for (p, q), comp in a.components().items():
        out = out + s.d(comp).project(p + 1 - side, q + side)
    return out


def _random_mixed_form(s, rng, terms=4):
    mons = [m for k in range(2 * s.n) for m in total_basis(s.n, k)]
    return Form(s.n, {rng.choice(mons): rng.choice(_SPLIT_COEFFS) for _ in range(terms)})


def assert_split_matches_projections(s, rng, draws=4):
    """Check del and delbar against ``_split_reference`` on mixed-bidegree
    forms: random forms, d of random forms (d d = 0, so the d terms of
    their monomials cancel) and sums of both.  Returns whether some form's
    d terms cancelled."""
    cancelled = False
    for _ in range(draws):
        r, exact = _random_mixed_form(s, rng), s.d(_random_mixed_form(s, rng))
        for a in (r, exact, r + exact):
            assert s.del_(a) == _split_reference(s, a, 0), render_form(a)
            assert s.delbar(a) == _split_reference(s, a, 1), render_form(a)
        cancelled |= any(s._d_monomial(m).terms for m in exact.terms)
    return cancelled


def test_del_and_delbar_match_per_bidegree_projections():
    from test_cohomology import _ORACLE_STRUCTURES

    structures = [corpus.CORPUS[name].load().structure for name in corpus.names()]
    structures.append(_ORACLE_STRUCTURES["dense-ladder-4"]())
    rng = random.Random(31)
    cancelled = False
    for s in structures:
        if s.flags.integrable:
            cancelled |= assert_split_matches_projections(s, rng)
    assert cancelled
    nonint = parse_structure("algebra nonint\ndim 3\nd f1 = F2^F3\n")
    s = structures[-1]  # dense-ladder-4, integrable
    for split in (nonint.del_, nonint.delbar):
        with pytest.raises(IntegrabilityError):
            split(mono(3, [1], []))
    for split in (s.del_, s.delbar):
        with pytest.raises(ValueError):
            split(mono(s.n + 1, [1], [2]))


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
        ad = s._ad_matrices()
        brackets = {(a, b): _ref_bracket(s, a, b) for a in range(dim) for b in range(dim)}
        # ad(e_c) exists exactly when some bracket with e_c is nonzero, and
        # it stores nonzero entries only
        assert set(ad) == {a for (a, _), v in brackets.items() if any(v)}, s.name
        for m in ad.values():
            assert m.shape == (dim, dim) and all(all(row.values()) for row in m.rows), s.name
        for (c, b), want in brackets.items():
            row = ad[c].rows[b] if c in ad else {}
            got = tuple(row.get(k, ZERO) for k in range(dim))
            assert got == want, (s.name, render_structure(s), c, b)
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
    " ", " ", "\n", "\u0661",  # ARABIC-INDIC DIGIT ONE: not a number here
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
        (parse_lie, "algebra a\ndim 2\nd f1 = f" + "1" * 5000 + "^f2"),
        (parse_lie, "algebra a\ndim 2\nd f" + "1" * 5000 + " = f1^f2"),
        (lambda text: parse_form_expr(text, 2), "F" + "9" * 5000),
    ],
    ids=["integer", "denominator", "dim", "coefficient", "factor index", "assigned index",
         "expression index"],
)
def test_overlong_numbers_are_parse_errors(parse, text):
    # more digits than int() converts: a positioned ParseError, no ValueError
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line is not None and "too long" in str(err.value)


def test_a_conjugate_generator_is_never_assigned_however_long_its_index():
    # the letter is checked before the index is converted
    with pytest.raises(ParseError, match="only holomorphic generators fK may be assigned"):
        parse_lie("algebra a\ndim 2\nd F" + "1" * 5000 + " = f1^f2")


def _nested(text, depth):
    return "(" * depth + text + ")" * depth


@pytest.mark.parametrize("text", ["1", "-1/2", "(1/2-3i)", "-i", "(2 - (3i) + (1/3))", "+(-1)"])
def test_deeply_nested_scalars_parse_to_their_value(text):
    # a parenthesized group costs no recursion, so nesting has no depth limit
    want = parse_scalar(text)
    assert parse_scalar(_nested(text, 3000)) == want
    assert parse_scalar("-" + _nested(text, 3000)) == -want
    assert parse_scalar("(" + _nested(text, 3000) + "+" + _nested(text, 2999) + ")") == want + want
    lie = parse_lie(f"algebra a\ndim 3\nd f3 = {_nested(text, 3000)}*f1^f2\n")
    assert lie.structure.dgen[2] == parse_form_expr(f"{text}*f1^f2", 3)
    metric = parse_metric(f"{_nested('2', 3000)} 0\n0 {_nested('1', 3000)}\n", 2)
    assert metric.entries == ((Scalar(2), ZERO), (ZERO, ONE))


@pytest.mark.parametrize(
    "text, message, col",
    [
        (_nested("1", 3000)[:-1], "unclosed '(' in scalar", 1),
        (_nested("1", 3000) + ")", "trailing input ')'", 6002),
        (_nested("1 x", 3000), "unexpected 'x' inside scalar", 3003),
        ("(" * 3000 + ")" * 3000, "expected a scalar, found ')'", 3001),
    ],
    ids=["unclosed", "extra close", "stray word", "empty"],
)
def test_deeply_nested_malformed_scalars_are_positioned_parse_errors(text, message, col):
    with pytest.raises(ParseError) as err:
        parse_scalar(text)
    assert (err.value.line, err.value.col) == (1, col) and message in str(err.value)


# -- one input per ParseError raise site of the parser: (line, col) and text ---


def _form2(text):
    return parse_form_expr(text, 2)


def _metric2(text):
    return parse_metric(text, 2)


RAISE_SITES = [
    # (parser, input, line, col, message substring)
    (parse_scalar, "1 ? 2", 1, 3, "unexpected character '?'"),
    (parse_lie, "algebra a\ndim", 2, 4, "unexpected end of line"),
    (parse_lie, "algebra a\ndim x", 2, 5, "expected 'num', found 'x'"),
    (parse_scalar, "1 2", 1, 3, "trailing input '2'"),
    (parse_scalar, "1/0", 1, 1, "zero denominator in '1/0'"),
    (parse_scalar, "1" * 5000, 1, 1, "number too long (5000 characters)"),
    (_form2, "f1^f2 +", 1, 8, "expected a scalar"),
    (parse_scalar, "-", 1, 2, "dangling sign"),
    (parse_scalar, "*", 1, 1, "expected a scalar, found '*'"),
    (parse_scalar, "(1", 1, 1, "unclosed '(' in scalar"),
    (parse_scalar, "(1 2)", 1, 4, "unexpected '2' inside scalar"),
    (_form2, "f" + "1" * 5000, 1, 1, "generator index too long (5000 digits)"),
    (_form2, "f3", 1, 1, "generator index 3 out of 1..2"),
    (_form2, "2*x", 1, 3, "expected a generator fJ or FJ, found 'x'"),
    (_form2, "f1 f2", 1, 4, "expected '+', '-' or end, found 'f2'"),
    (_metric2, "metric bogus", 1, 8, "metric kind must be 'identity' or 'hermitian'"),
    (_metric2, "metric hermitian\n1 0", 2, 1, "metric matrix ended early: 1 row(s) missing"),
    (_metric2, "1 1\n0 1", 1, 1, "invalid metric"),
    (_metric2, "# none", 1, 1, "empty metric"),
    (_metric2, "metric identity\n1", 2, 1, "unexpected input after the metric"),
    (parse_lie, "algebra a\n= 1", 2, 1, "unexpected '='"),
    (parse_lie, "algebra", 1, 1, "missing algebra name"),
    (parse_lie, "algebra a\ndim 1/2", 2, 5, "dim must be an integer"),
    (parse_lie, "algebra a\ndim 2\ndim 2", 3, 5, "duplicate dim declaration"),
    (parse_lie, "algebra a\ndim " + "1" * 4999, 2, 5, "number too long (4999 characters)"),
    (parse_lie, "algebra a\ndim 0", 2, 5, "dim must be at least 1"),
    (parse_lie, "algebra a\ndim 257", 2, 5, "dim must be at most 256"),
    (parse_lie, "algebra a\nd f1 = 0", 2, 1, "dim must be declared before equations"),
    (parse_lie, "algebra a\ndim 2\nd F1 = f1^f2", 3, 3, "only holomorphic generators fK"),
    (parse_lie, "algebra a\ndim 2\nd f2 = 0\nd f2 = 0", 4, 3, "duplicate definition of d f2"),
    (parse_lie, "algebra a\ndim 2\nd f2 = f1", 3, 3, "d f2 must have total degree 2"),
    (parse_lie, "algebra a\nmetric identity", 2, 1, "dim must be declared before the metric"),
    (parse_lie, "algebra a\nfoo", 2, 1, "unknown statement 'foo'"),
    (parse_lie, "algebra a\n", 1, 1, "missing 'dim N' declaration"),
    (parse_lie, "dim 2\n", 1, 1, "missing 'algebra NAME' declaration"),
    (parse_lie, "algebra a\ndim 3\nd f1 = f2^f3\nd f2 = f1^f2", 3, 3, "Jacobi violation: d(d f1)"),
]

# an imaginary number keeps its text: its 'i' is quoted and ends the line
IMAGINARY_NUMBERS = {
    "dim 3i": (parse_lie, "algebra a\ndim 3i", 2, 5, "dim must be an integer"),
    "1/0i": (parse_scalar, "1/0i", 1, 1, "zero denominator in '1/0i'"),
    "metric row 3i": (_metric2, "metric hermitian\n3i\n3i", 2, 3, "expected a scalar"),
    "metric file 2i": (_metric2, "2i", 1, 3, "expected a scalar"),
}


@pytest.mark.parametrize(
    "parse, text, line, col, message",
    RAISE_SITES + list(IMAGINARY_NUMBERS.values()),
    ids=[row[4] for row in RAISE_SITES] + list(IMAGINARY_NUMBERS),
)
def test_each_raise_site_reports_its_position(parse, text, line, col, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (line, col) and message in str(err.value)


@pytest.mark.parametrize(
    "parse, text, line, col",
    [
        (parse_scalar, "\u0661\u0662", 1, 1),
        (parse_lie, "algebra a\ndim \u0663", 2, 5),
        (parse_lie, "algebra a\ndim 3\nd f3 = \u0662*f1^f2", 3, 8),
        (_metric2, "\u0661 0\n0 1", 1, 1),
    ],
    ids=["scalar", "dim", "coefficient", "metric row"],
)
def test_numbers_are_ascii_digits(parse, text, line, col):
    # Arabic-Indic digits are decimal digits to Unicode, but not to the grammar
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert "unexpected character" in str(err.value)
