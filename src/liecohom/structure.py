"""Structure equations, the `.lie` text format, and the differential.

A structure file declares the differential of each holomorphic coframe
generator; the differential of a conjugate generator is never user input,
it is the conjugate of the declared one (d is a real operator).  The
differential extends to all invariant forms as the unique antiderivation,
and splits as d = del + delbar on integrable structures.

Grammar (UTF-8, line oriented, `#` starts a comment):

    algebra NAME
    dim N                # 1 <= N <= MAX_DIM
    d fK = EXPR          # omitted generators have d fK = 0
    metric identity
    metric hermitian     # followed by N lines of N scalars, row-major

    EXPR  := ['-'] TERM (('+'|'-') TERM)*
    TERM  := [COEF '*'] MONO | COEF
    MONO  := GEN ('^' GEN)*          GEN := fJ | FJ   (FJ = conjugate)
    COEF  := '(' A [('+'|'-') B 'i'] ')' | A | B'i' | 'i'
             with A, B rationals like -1/2   (so `1/2i` means (1/2)*i)

Numbers (N, J, K, A, B) are written in the ASCII digits 0-9.  Outside a
comment, a character that starts no token, a Unicode digit such as `١`
included, is a ParseError "unexpected character" at its column.
"""

from __future__ import annotations

import itertools
import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    IntegrabilityError,
    JacobiViolation,
    MetricError,
    ParseError,
)
from .exterior import BasisMonomial, Form, monomial_wedge
from .linalg import Matrix, Row, Subspace
from .scalars import ONE, ZERO, Scalar, format_scalar


# The largest `dim` a `.lie` file may declare: far above any n whose tables
# the engine can compute, low enough that parsing one, which builds one form
# per generator (and an n x n metric), ends at once.
MAX_DIM = 256


@dataclass(frozen=True)
class AlgebraFlags:
    integrable: bool
    unimodular: bool
    nilpotent: bool


class StructureEquations:
    """Validated structure equations of a complex Lie coalgebra.

    Immutable after construction; d**2 = 0 is verified on every generator
    at construction time, so downstream code may assume it.
    """

    def __init__(self, n: int, dgen: Sequence[Form], name: str = "unnamed"):
        if len(dgen) != n:
            raise ValueError(f"expected {n} generator differentials, got {len(dgen)}")
        for k, g in enumerate(dgen, start=1):
            if g.n != n:
                raise ValueError(f"d f{k} lives over the wrong coframe size")
            bad = [bd for bd in g.bidegrees() if sum(bd) != 2]
            if bad:
                raise ValueError(f"d f{k} must be homogeneous of degree 2, found {bad}")
        self.n = n
        self.name = name
        self.dgen = tuple(dgen)
        self.dgen_conj = tuple(g.conjugate() for g in dgen)
        self._d_mono: dict[BasisMonomial, Form] = {}
        self._op_matrix_cache: dict = {}
        self._closed_p0: dict = {}  # p -> analysis.closed_p0_space(self, p)
        self._quotient_dims: dict = {}  # (kind, p, q) -> dim of that bc/a quotient
        for k in range(1, n + 1):
            if not self.d(self.dgen[k - 1]).is_zero():
                raise JacobiViolation(
                    f"Jacobi violation: d(d f{k}) != 0 for generator f{k}", generator=k
                )
        ad = self._ad_matrices()
        self.flags = AlgebraFlags(
            integrable=self._compute_integrable(),
            # tr ad(e_c), over the diagonal entries that are stored
            unimodular=not any(
                sum((row[b] for b, row in enumerate(m.rows) if b in row), ZERO)
                for m in ad.values()
            ),
            nilpotent=self._compute_nilpotent(ad),
        )

    # -- differential -----------------------------------------------------

    def _d_monomial(self, mono: BasisMonomial) -> Form:
        """d of one basis monomial, cached.  With x its first factor and m
        the rest, mono = x^m, and d(x^m) = dx^m - x^dm over the cached d of
        m; ``monomial_wedge`` places each term of both products."""
        cached = self._d_mono.get(mono)
        if cached is not None:
            return cached
        if mono.holo:
            x = BasisMonomial(mono.holo[:1], ())
            rest = BasisMonomial(mono.holo[1:], mono.anti)
            dx = self.dgen[mono.holo[0] - 1]
        elif mono.anti:
            x = BasisMonomial((), mono.anti[:1])
            rest = BasisMonomial((), mono.anti[1:])
            dx = self.dgen_conj[mono.anti[0] - 1]
        else:
            out = self._d_mono[mono] = Form.zero(self.n)  # d of a constant
            return out
        # (placement, sign of the product, coefficient)
        placed = [(monomial_wedge(m, rest), 1, c) for m, c in dx.terms.items()]
        placed += [(monomial_wedge(x, m), -1, c) for m, c in self._d_monomial(rest).terms.items()]
        terms: dict[BasisMonomial, Scalar] = {}
        for hit, sign, c in placed:
            if hit is None:
                continue
            key = hit[1]
            coeff = c if hit[0] == sign else -c
            acc = terms.get(key)
            acc = coeff if acc is None else acc + coeff
            if acc:
                terms[key] = acc
            else:
                del terms[key]
        out = Form(self.n, terms, _validated=True)
        self._d_mono[mono] = out
        return out

    def d(self, a: Form) -> Form:
        """Exterior differential: the antiderivation extending the equations."""
        return self._d_terms(a, None)

    def _d_terms(self, a: Form, side: int | None) -> Form:
        """d a in one pass over the cached d of a's monomials; with ``side``
        0 (1), only the terms raising the (anti-)holomorphic degree."""
        if a.n != self.n:
            raise ValueError(f"form over n={a.n}, structure over n={self.n}")
        terms: dict[BasisMonomial, Scalar] = {}
        for mono, coeff in a.terms.items():
            dm = self._d_monomial(mono).terms.items()
            if side is not None:
                raised = len(mono[side]) + 1
                dm = [(m, c) for m, c in dm if len(m[side]) == raised]
            for m, c in dm:
                acc = terms.get(m)
                acc = coeff * c if acc is None else acc + coeff * c
                if acc:
                    terms[m] = acc
                else:
                    del terms[m]
        return Form(self.n, terms, _validated=True)

    def _require_integrable(self):
        if not self.flags.integrable:
            raise IntegrabilityError(
                f"algebra {self.name!r} is not integrable; del/delbar are undefined"
            )

    def del_(self, a: Form) -> Form:
        """(1,0)-part of d on integrable structures, where d maps (p, q)
        into (p+1, q) + (p, q+1): the terms of d a raising p, in one pass."""
        self._require_integrable()
        return self._d_terms(a, 0)

    def delbar(self, a: Form) -> Form:
        """(0,1)-part of d on integrable structures: the terms of d a
        raising q, in one pass."""
        self._require_integrable()
        return self._d_terms(a, 1)

    def del_delbar(self, a: Form) -> Form:
        return self.del_(self.delbar(a))

    # -- flags --------------------------------------------------------------

    def _compute_integrable(self) -> bool:
        return all(g.project(0, 2).is_zero() for g in self.dgen)

    # The real Lie algebra behind the coframe is recovered through the
    # pairing d(alpha)(x, y) = -alpha([x, y]).  We work in the complexified
    # algebra with basis Z_1..Z_n, conj(Z_1)..conj(Z_n) dual to f's and F's;
    # basis vector index a in 0..2n-1 means Z_{a+1} for a < n, else the
    # conjugate generator.  Unimodularity / nilpotency of the real algebra
    # and of its complexification coincide, so no real basis is needed.
    #
    # The brackets are read off the equations: a canonical monomial of
    # degree 2 has its factors at basis indices a < b (f_i -> i-1 before
    # F_j -> n+j-1), it evaluates to 1 on (e_a, e_b), so a term c*m of
    # d e^k gives [e_a, e_b]_k = -c and [e_b, e_a]_k = c.  Both flags read
    # the matrices ad(e_c), whose row b is [e_c, e_b]: unimodular when every
    # trace is zero, nilpotent when the lower central series reaches zero.

    def _ad_matrices(self) -> dict[int, Matrix]:
        """ad(e_c) for each basis vector e_c with a nonzero bracket, keyed c;
        row b is [e_c, e_b] as a sparse row {k: [e_c, e_b]_k}.  Each entry is
        written by exactly one term of the equations."""
        dim = 2 * self.n
        rows: defaultdict[int, list[Row]] = defaultdict(lambda: [{} for _ in range(dim)])
        for k, g in enumerate(self.dgen + self.dgen_conj):
            for mono, coeff in g.terms.items():
                a, b = [i - 1 for i in mono.holo] + [self.n + j - 1 for j in mono.anti]
                rows[a][b][k] = -coeff
                rows[b][a][k] = coeff
        return {c: Matrix.sparse(r, dim) for c, r in rows.items()}

    def _compute_nilpotent(self, ad: dict[int, Matrix]) -> bool:
        dim = 2 * self.n
        # [g, g] is spanned by the rows b > c of the ad(e_c), the others
        # being their negatives; row i of v @ ad(e_c) is [e_c, v_i], so the
        # rows of those products span [g, layer]
        layer = Subspace(dim, [row for c, m in ad.items() for row in m.rows[c + 1 :] if row])
        while layer.dim:
            v = Matrix.sparse(layer.rows, dim)
            next_layer = Subspace(dim, [row for m in ad.values() for row in (v @ m).rows if row])
            if next_layer.dim == layer.dim:
                return False  # lower central series stabilized above zero
            layer = next_layer
        return True

    def __repr__(self):
        return f"StructureEquations({self.name!r}, n={self.n})"


# ---------------------------------------------------------------------------
# Lexer / parser for the `.lie` format and for form expressions
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<num>[0-9]+(?:/[0-9]+)?i?)
      | (?P<word>[A-Za-z][A-Za-z0-9_]*)
      | (?P<sym>[-+*^()=])
      | (?P<other>\S)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num', 'word', or the symbol itself
    text: str
    line: int
    col: int


def _tokenize_line(text: str, line_no: int) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):  # blanks match no group and are skipped
        if m.lastgroup == "other":
            raise ParseError(f"unexpected character {m.group()!r}", line_no, m.start() + 1)
        kind = m.group() if m.lastgroup == "sym" else m.lastgroup
        tokens.append(_Token(kind, m.group(), line_no, m.start() + 1))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[_Token], line_no: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line_no

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of line", self.line, self._end_col())
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def expect_end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)

    def _end_col(self) -> int:
        return self.tokens[-1].col + len(self.tokens[-1].text) if self.tokens else 1


def _number(tok: _Token) -> Scalar:
    """The value of a `num` token or of the word 'i': its rational, times i
    when the text ends in 'i' (a bare 'i' is 1*i)."""
    rational = tok.text.removesuffix("i") or "1"
    try:
        return Scalar(rational) if rational == tok.text else Scalar(0, rational)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {tok.text!r}", tok.line, tok.col) from None
    except ValueError:  # more digits than int() converts
        raise _too_long(tok) from None


def _too_long(tok: _Token) -> ParseError:
    return ParseError(f"number too long ({len(tok.text)} characters)", tok.line, tok.col)


def _sign(ts: _TokenStream) -> Optional[Scalar]:
    """Consume an optional '+' or '-': ONE or -ONE, or None if there is none."""
    tok = ts.peek()
    if tok is None or tok.kind not in ("+", "-"):
        return None
    ts.next()
    return ONE if tok.kind == "+" else -ONE


def _parse_scalar_atom(ts: _TokenStream, allow_sign: bool = True) -> Scalar:
    """One COEF, with an optional leading sign when `allow_sign`.  A '('
    opens a group, a sum of signed COEFs up to its ')'; the open groups are
    kept on a stack, so nesting depth costs no recursion."""
    groups: list[tuple[Scalar, _Token, Scalar]] = []  # (sign, '(' token, sum so far)
    while True:
        sign = _sign(ts) if allow_sign else None
        allow_sign = True
        tok = ts.peek()
        if tok is None:
            message = "expected a scalar" if sign is None else "dangling sign"
            raise ParseError(message, ts.line, ts._end_col())
        ts.next()
        sign = sign or ONE
        if tok.kind == "(":
            groups.append((sign, tok, ZERO))
            continue
        if tok.kind != "num" and tok.text != "i":
            raise ParseError(f"expected a scalar, found {tok.text!r}", tok.line, tok.col)
        value = sign * _number(tok)
        # add the value to the innermost group; each ')' closes one group,
        # whose signed sum is added to the next one out
        while groups:
            sign, open_tok, total = groups.pop()
            total = total + value
            nxt = ts.peek()
            if nxt is None:
                raise ParseError("unclosed '(' in scalar", open_tok.line, open_tok.col)
            if nxt.kind in ("+", "-"):
                groups.append((sign, open_tok, total))
                break
            if nxt.kind != ")":
                raise ParseError(f"unexpected {nxt.text!r} inside scalar", nxt.line, nxt.col)
            ts.next()
            value = sign * total
        else:
            return value


_GENERATOR_RE = re.compile(r"([fF])([0-9]+)")


def _generator(tok: Optional[_Token], n: int, letters: str = "fF") -> Optional[tuple[str, int]]:
    """(letter, index) of a generator token fJ or FJ whose letter is one of
    `letters`, or None for any other token; an index too long for int() or
    outside 1..n is a ParseError at the token."""
    m = _GENERATOR_RE.fullmatch(tok.text) if tok is not None and tok.kind == "word" else None
    if m is None or m.group(1) not in letters:
        return None
    digits = m.group(2)
    try:
        idx = int(digits)
    except ValueError:  # more digits than int() converts
        raise ParseError(
            f"generator index too long ({len(digits)} digits)", tok.line, tok.col
        ) from None
    if not (1 <= idx <= n):
        raise ParseError(f"generator index {idx} out of 1..{n}", tok.line, tok.col)
    return m.group(1), idx


def _parse_monomial(ts: _TokenStream, n: int) -> Form:
    """GEN ('^' GEN)*: the wedge of the generators in the order written."""
    out = None
    while True:
        tok = ts.expect("word")
        gen = _generator(tok, n)
        if gen is None:
            raise ParseError(
                f"expected a generator fJ or FJ, found {tok.text!r}", tok.line, tok.col
            )
        letter, idx = gen
        factor = Form.monomial(n, [idx], []) if letter == "f" else Form.monomial(n, [], [idx])
        out = factor if out is None else out.wedge(factor)
        tok = ts.peek()
        if tok is None or tok.kind != "^":
            return out
        ts.next()


def _parse_term(ts: _TokenStream, n: int) -> Form:
    if _generator(ts.peek(), n) is not None:
        return _parse_monomial(ts, n)
    coeff = _parse_scalar_atom(ts, allow_sign=False)
    nxt = ts.peek()
    if nxt is not None and nxt.kind == "*":
        ts.next()
        return _parse_monomial(ts, n).scale(coeff)
    return Form.one(n).scale(coeff)


def _parse_expr(ts: _TokenStream, n: int) -> Form:
    out = Form.zero(n)
    sign = _sign(ts) or ONE
    while True:
        out = out + _parse_term(ts, n).scale(sign)
        tok = ts.peek()
        if tok is None:
            return out
        sign = _sign(ts)
        if sign is None:
            raise ParseError(f"expected '+', '-' or end, found {tok.text!r}", tok.line, tok.col)


def parse_form_expr(text: str, n: int, line_no: int = 1) -> Form:
    """Parse a standalone form expression (the DSL's EXPR production)."""
    ts = _TokenStream(_tokenize_line(text, line_no), line_no)
    form = _parse_expr(ts, n)
    ts.expect_end()
    return form


def parse_scalar(text: str) -> Scalar:
    """Parse a scalar literal like ``-1/2``, ``3i`` or ``(1/2-3i)``."""
    ts = _TokenStream(_tokenize_line(text, 1), 1)
    value = _parse_scalar_atom(ts, allow_sign=True)
    ts.expect_end()
    return value


@dataclass
class LieFile:
    structure: StructureEquations
    metric: object  # Optional[HermitianMetric]; untyped to avoid a cycle


def _content_lines(text: str):
    """Yield (line number, comment-free text, token stream) for every line
    that holds more than a comment."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0]
        if content.strip():
            yield line_no, content, _TokenStream(_tokenize_line(content, line_no), line_no)


def _read_metric(ts: _TokenStream, lines, n: int, last_line: int):
    """The metric block whose 'metric' keyword `ts` has just consumed: either
    'metric identity', or 'metric hermitian' and then n rows taken from
    `lines`."""
    kind = ts.expect("word")
    if kind.text not in ("identity", "hermitian"):
        raise ParseError(
            f"metric kind must be 'identity' or 'hermitian', found {kind.text!r}",
            kind.line,
            kind.col,
        )
    ts.expect_end()
    if kind.text == "identity":
        from .hodge import HermitianMetric  # deferred to avoid an import cycle

        return HermitianMetric.identity(n)
    return _read_metric_rows(lines, n, last_line, kind.line)


def _read_metric_rows(lines, n: int, last_line: int, block_line: int):
    """The metric of the next n rows of `lines`; a matrix that is not
    Hermitian is a parse error at `block_line`."""
    from .hodge import HermitianMetric  # deferred to avoid an import cycle

    rows = []
    for _, _, ts in lines:
        rows.append([_parse_scalar_atom(ts, allow_sign=True) for _ in range(n)])
        ts.expect_end()
        if len(rows) == n:
            try:
                return HermitianMetric(rows)
            except MetricError as exc:
                raise ParseError(f"invalid metric: {exc}", block_line, 1) from exc
    raise ParseError(
        f"metric matrix ended early: {n - len(rows)} row(s) missing", last_line, 1
    )


def parse_metric(text: str, n: int):
    """Parse a metric for an n-dimensional coframe: 'metric identity', or n
    rows of n scalars with an optional 'metric hermitian' header line.

    Malformed input, a wrong number of rows and a matrix that is not
    Hermitian raise ParseError; positivity is checked where it is needed.
    """
    last_line = len(text.splitlines()) or 1
    lines = _content_lines(text)
    first = next(lines, None)
    if first is None:
        raise ParseError("empty metric", last_line, 1)
    line_no, _, ts = first
    if ts.peek().text == "metric":
        ts.next()
        metric = _read_metric(ts, lines, n, last_line)
    else:
        metric = _read_metric_rows(itertools.chain([first], lines), n, last_line, line_no)
    extra = next(lines, None)
    if extra is not None:
        raise ParseError("unexpected input after the metric", extra[0], 1)
    return metric


def parse_lie(text: str, name: Optional[str] = None) -> LieFile:
    """Parse a `.lie` file into structure equations plus an optional metric."""
    last_line = len(text.splitlines()) or 1
    algebra_name = name
    n: Optional[int] = None
    equations: dict[int, Form] = {}
    positions: dict[int, _Token] = {}
    metric = None

    lines = _content_lines(text)
    for line_no, content, ts in lines:
        head = ts.next()
        if head.kind != "word":
            raise ParseError(f"unexpected {head.text!r}", head.line, head.col)
        if head.text == "algebra":
            rest = content.strip()[len("algebra") :].strip()
            if not rest:
                raise ParseError("missing algebra name", head.line, head.col)
            algebra_name = rest
        elif head.text == "dim":
            tok = ts.expect("num")
            if not tok.text.isdigit():  # a fraction or an imaginary number
                raise ParseError("dim must be an integer", tok.line, tok.col)
            if n is not None:
                raise ParseError("duplicate dim declaration", tok.line, tok.col)
            try:
                n = int(tok.text)
            except ValueError:  # more digits than int() converts
                raise _too_long(tok) from None
            if n < 1:
                raise ParseError("dim must be at least 1", tok.line, tok.col)
            if n > MAX_DIM:
                raise ParseError(f"dim must be at most {MAX_DIM}", tok.line, tok.col)
            ts.expect_end()
        elif head.text == "d":
            if n is None:
                raise ParseError("dim must be declared before equations", head.line, head.col)
            gen_tok = ts.expect("word")
            gen = _generator(gen_tok, n, letters="f")
            if gen is None:
                raise ParseError(
                    f"only holomorphic generators fK may be assigned, found {gen_tok.text!r}",
                    gen_tok.line,
                    gen_tok.col,
                )
            k = gen[1]
            if k in equations:
                raise ParseError(f"duplicate definition of d f{k}", gen_tok.line, gen_tok.col)
            ts.expect("=")
            value = _parse_expr(ts, n)
            ts.expect_end()
            bad = [bd for bd in value.bidegrees() if sum(bd) != 2]
            if bad:
                raise ParseError(
                    f"d f{k} must have total degree 2, found bidegrees {bad}",
                    gen_tok.line,
                    gen_tok.col,
                )
            equations[k] = value
            positions[k] = gen_tok
        elif head.text == "metric":
            if n is None:
                raise ParseError("dim must be declared before the metric", head.line, head.col)
            metric = _read_metric(ts, lines, n, last_line)
        else:
            raise ParseError(f"unknown statement {head.text!r}", head.line, head.col)

    if n is None:
        raise ParseError("missing 'dim N' declaration", last_line, 1)
    if algebra_name is None:
        raise ParseError("missing 'algebra NAME' declaration", last_line, 1)
    dgen = [equations.get(k, Form.zero(n)) for k in range(1, n + 1)]
    try:
        structure = StructureEquations(n, dgen, name=algebra_name)
    except JacobiViolation as exc:
        # a generator with no equation is closed, so the offender has one
        tok = positions[exc.generator]
        raise JacobiViolation(str(exc), tok.line, tok.col, exc.generator) from None
    return LieFile(structure=structure, metric=metric)


def parse_structure(text: str, name: Optional[str] = None) -> StructureEquations:
    return parse_lie(text, name=name).structure


# ---------------------------------------------------------------------------
# Rendering back to the DSL (used for reports and JSON serialization)
# ---------------------------------------------------------------------------


def render_monomial(mono: BasisMonomial) -> str:
    parts = [f"f{i}" for i in mono.holo] + [f"F{j}" for j in mono.anti]
    return "^".join(parts)


def _render_terms(terms) -> str:
    """DSL text for (monomial text, nonzero coefficient) pairs in render
    order; the degree-0 monomial renders as the empty text."""
    chunks = []
    for mono_txt, coeff in terms:
        if not mono_txt:
            txt = format_scalar(coeff)
        elif coeff == ONE:
            txt = mono_txt
        elif coeff == -ONE:
            txt = "-" + mono_txt
        else:
            txt = format_scalar(coeff) + "*" + mono_txt
        if chunks:
            txt = " - " + txt[1:] if txt.startswith("-") else " + " + txt
        chunks.append(txt)
    return "".join(chunks) or "0"


def render_form(form: Form) -> str:
    """Deterministic DSL text for a form; parses back to the same form."""
    return _render_terms((render_monomial(m), c) for m, c in form.sorted_terms())


def render_row(row: Row, names: Sequence[str]) -> str:
    """The text ``render_form`` gives the form with coefficients `row` over
    a basis in render order whose rendered monomials are `names`."""
    return _render_terms((names[j], x) for j, x in sorted(row.items()))


def render_structure(s: StructureEquations) -> str:
    lines = [f"algebra {s.name}", f"dim {s.n}"]
    for k in range(1, s.n + 1):
        lines.append(f"d f{k} = {render_form(s.dgen[k - 1])}")
    return "\n".join(lines)
