r"""Exact cohomology of the invariant complex.

Dimensions and representatives are computed from the quotient definitions

    H_BC = (ker del  /\  ker delbar) / im(del delbar)
    H_A  = ker(del delbar) / (im del + im delbar)

by exact row reduction; these are metric-free and are the engine's source
of truth.  With a metric on a unimodular algebra the same spaces are also
computed as kernels of the fourth-order Bott-Chern / Aeppli Laplacians,
through the three-condition characterizations of their kernels, each
adjoint condition read through the star (ker P* = ker conj(M N), with no
adjoint matrix built).  A guard that builds no adjoint either checks each
such space on every call: the direct operators kill it, it is
Gram-orthogonal to the quotient's denominator, and its dimension is the
quotient's (Schweitzer's Hodge isomorphism, arXiv:0709.3528).

Everything refers to the invariant (Lie-algebra level) complex.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

from .errors import IntegrabilityError, PreconditionError
from .exterior import BasisMonomial, Form, basis, bidegrees_of_total, total_basis
from .hodge import HermitianMetric
from .linalg import (
    Matrix,
    Row,
    Subspace,
    hstack,
    kernel_basis,
    quotient_representatives,
    solve,
    vstack,
)
from .scalars import Scalar
from .structure import StructureEquations, render_monomial, render_row


# -- coordinates -------------------------------------------------------------


def form_to_row(form: Form, mons) -> Row:
    return {j: c for j, m in enumerate(mons) if (c := form.terms.get(m))}


def row_to_form(n: int, row: Row, mons) -> Form:
    return Form(n, {mons[j]: c for j, c in sorted(row.items())}, _validated=True)


def _matrix_for(column: Callable[[BasisMonomial], Form], n: int, src, dst) -> Matrix:
    """The matrix over the bases `src` -> `dst` whose column j holds the
    coefficients of ``column(src[j])``, the image of the j-th source
    monomial.  A term of an image outside `dst` is an engine defect and
    raises KeyError.  The operator table passes ``s._d_monomial``; the
    routes kept on purpose as independent checks pass a one-line wrapper
    around their Form-level operator.  `n` is not read here: it keeps
    `src` the third argument, where the benchmark tracer counts columns."""
    index = {m: i for i, m in enumerate(dst)}
    rows: list[dict[int, Scalar]] = [{} for _ in dst]
    for j, mono in enumerate(src):
        for m, c in column(mono).terms.items():
            rows[index[m]][j] = c
    return Matrix.sparse(rows, len(src))


# Bidegree shifts of the bigraded operators.
_OP_SHIFT = {
    "del": (1, 0),
    "delbar": (0, 1),
    "deldelbar": (1, 1),
    "del_adj": (-1, 0),
    "delbar_adj": (0, -1),
}


def _chain_shift(ops: list[str]) -> tuple[int, int]:
    """Bidegree shift of a composite of first-order operators."""
    return (sum(_OP_SHIFT[o][0] for o in ops), sum(_OP_SHIFT[o][1] for o in ops))


def _clip(n: int, p: int, q: int):
    return () if not (0 <= p <= n and 0 <= q <= n) else basis(n, p, q)


_ADJOINTS = ("del_adj", "delbar_adj")


def _require_buildable(
    name: str, s: StructureEquations, p: int, q: int, h: Optional[HermitianMetric]
) -> None:
    """Raise what building the `name` matrix out of (p, q) would refuse, in
    the order the build meets it: for an adjoint a missing metric, a metric
    over another n, and on a nonempty source a metric that is not positive;
    then, for every operator but d, a structure that is not integrable when
    a del or delbar it is made of has a nonempty source (the adjoint's del
    or delbar out of (n-p, n-q), deldelbar's del out of (p, q+1) and delbar
    out of (p, q))."""
    n = s.n
    src = 0 <= p <= n and 0 <= q <= n  # a nonempty source space
    if name in _ADJOINTS:
        if h is None:
            raise PreconditionError(f"operator {name} needs a metric")
        h.require_size(n)
        if src:
            h.require_positive()  # as the star of each source monomial would
    if not s.flags.integrable and name != "d":
        if src or name == "deldelbar" and 0 <= p <= n and 0 <= q + 1 <= n:
            s._require_integrable()


def _single_matrix(
    name: str,
    s: StructureEquations,
    p: int,
    q: int,
    h: Optional[HermitianMetric],
    rows: Optional[Sequence[int]] = None,
) -> Matrix:
    """The one builder and cache (``s._op_matrix_cache``) of the matrices of
    d, del, delbar, deldelbar and the adjoints out of the (p, q) space.

    d is assembled once per (p, q), from the per-monomial differentials
    ``s._d_monomial``, into the full space of degree p+q+1; it needs no
    integrability.  del and delbar are the (p+1, q) and (p, q+1) row
    blocks of that d entry (sharing its rows), which is all of d on an
    integrable structure; on any other structure they raise
    IntegrabilityError unless the source space is empty.  deldelbar is
    the cached del at (p, q+1) times the cached delbar at (p, q).  The
    adjoint of P = del or delbar, a -> -*(P *a), is built by
    ``HermitianMetric.adjoint_matrix`` from the cached P out of (n-p, n-q),
    as ``hodge``'s module docstring states.  No Form is built here:
    ``analysis.closed_p0_space`` assembles its d matrix through the
    Form-level ``s.d`` on purpose, as the independent route that checks
    H_BC^(p,0) against this one.

    Rows on demand: for an adjoint, `rows` names the target rows a caller
    reads (every row when None); ``chain_matrix`` states which rows a chain
    reads (its row rule).  An adjoint can be built row by row (``hodge``),
    so each row is built once per (name, p, q, metric): the cache holds the
    {row: Row} built so far until every row is, and then the whole Matrix,
    as it holds every other operator.  The returned Matrix has every row
    built so far and the others empty."""
    key = (name, p, q, h if name in _ADJOINTS else None)
    cached = s._op_matrix_cache.get(key)
    if isinstance(cached, Matrix):
        return cached  # built, so its guards held
    _require_buildable(name, s, p, q, h)
    n = s.n
    src = _clip(n, p, q)
    if name == "d":
        out = _matrix_for(s._d_monomial, n, src, total_basis(n, p + q + 1))
    elif name == "deldelbar":
        out = _single_matrix("del", s, p, q + 1, None) @ _single_matrix("delbar", s, p, q, None)
    else:
        dp, dq = _OP_SHIFT[name]
        dst = _clip(n, p + dp, q + dq)
        if name in ("del", "delbar"):
            if src:
                # the rows of d are in total_basis order: bidegrees by descending p
                k = p + q + 1
                start = sum(
                    len(basis(n, b, c)) for b, c in bidegrees_of_total(n, k) if b > p + dp
                )
                d = _single_matrix("d", s, p, q, None)
                out = Matrix.sparse(d.rows[start : start + len(dst)], len(src))
            else:
                out = Matrix.zeros(len(dst), 0)
        else:
            # a -> -*(D *a) with the conjugate-linear star
            d = _single_matrix(name[: -len("_adj")], s, n - p, n - q, None)
            if d.is_zero():
                out = Matrix.zeros(len(dst), len(src))
            else:
                built = cached or {}
                wanted = range(len(dst)) if rows is None else rows
                missing = [i for i in wanted if i not in built]
                if missing:
                    part = h.adjoint_matrix(d, (p, q), (p + dp, q + dq), missing)
                    built.update(zip(missing, part.rows))
                out = Matrix.sparse([built.get(i, {}) for i in range(len(dst))], len(src))
                if len(built) < len(dst):
                    s._op_matrix_cache[key] = built
                    return out
    s._op_matrix_cache[key] = out
    return out


def chain_matrix(
    ops: list[str],
    s: StructureEquations,
    p: int,
    q: int,
    h: Optional[HermitianMetric] = None,
) -> Matrix:
    """Matrix of a composite written left-to-right (applied right-to-left),
    as an endo/exo-morphism out of the (p, q) space.

    The guard pass runs right to left, as the factors are applied: each
    factor's guards, then, for a metric-free factor (del, delbar,
    deldelbar), its cached matrix.  If one of those is zero, so is the
    chain, and its zero matrix is returned once every guard has run and
    before any adjoint is built; so a refusal is raised as it is, never
    turned into a zero matrix.

    The row rule: the product is then evaluated left to right, and every
    factor after the first is built only on the rows that the product to
    its left reads, its nonzero columns.  Column k of that product meets
    row k of the factor alone, so the other rows never enter the product.
    Only an adjoint can be built on some rows (``_single_matrix``); the
    metric-free factors are whole already."""
    sources, zero = [], False
    cur_p, cur_q = p, q
    for name in reversed(ops):
        _require_buildable(name, s, cur_p, cur_q, h)
        if name not in _ADJOINTS:
            zero = zero or _single_matrix(name, s, cur_p, cur_q, None).is_zero()
        sources.insert(0, (cur_p, cur_q))  # sources[i] is the source of ops[i]
        dp, dq = _OP_SHIFT[name]
        cur_p += dp
        cur_q += dq
    if zero:
        return Matrix.zeros(len(_clip(s.n, cur_p, cur_q)), len(_clip(s.n, p, q)))
    total = _single_matrix(ops[0], s, *sources[0], h)
    for name, source in zip(ops[1:], sources[1:]):
        total = total @ _single_matrix(name, s, *source, h, sorted(set().union(*total.rows)))
    return total


# The Bott-Chern and Aeppli harmonic theories, one table each:
#   harmonic   -- (direct, starred): the quotient is ker direct / im starred
#                 and the harmonic space the common kernel of `direct` and
#                 of the adjoints of `starred` (del_adj delbar_adj =
#                 +-*(del delbar)* for Bott-Chern);
#   laplacian  -- the fourth-order Laplacian's terms, built only as the tests'
#                 oracle (``bc_laplacian_matrix``, ``aeppli_laplacian_matrix``);
#   blocks     -- (witness name, chain) of the Hodge-type decomposition, in
#                 the order second-order piece, first_a, first_b.
_THEORIES = {
    "bc": {
        "harmonic": (("del", "delbar"), ("deldelbar",)),
        "laplacian": [
            ["deldelbar", "delbar_adj", "del_adj"],
            ["delbar_adj", "del_adj", "deldelbar"],
            ["delbar_adj", "del", "del_adj", "delbar"],
            ["del_adj", "delbar", "delbar_adj", "del"],
            ["delbar_adj", "delbar"],
            ["del_adj", "del"],
        ],
        "blocks": [
            ("gamma", ["deldelbar"]),
            ("alpha", ["del_adj"]),
            ("beta", ["delbar_adj"]),
        ],
    },
    "a": {
        "harmonic": (("deldelbar",), ("del", "delbar")),
        "laplacian": [
            ["del", "del_adj"],
            ["delbar", "delbar_adj"],
            ["delbar_adj", "del_adj", "deldelbar"],
            ["deldelbar", "delbar_adj", "del_adj"],
            ["del", "delbar_adj", "delbar", "del_adj"],
            ["delbar", "del_adj", "del", "delbar_adj"],
        ],
        "blocks": [
            ("eta", ["del_adj", "delbar_adj"]),
            ("mu", ["del"]),
            ("lam", ["delbar"]),
        ],
    },
}


def _theory(kind: str) -> dict:
    if kind not in _THEORIES:
        raise ValueError("kind must be 'bc' or 'a'")
    return _THEORIES[kind]


def bc_laplacian_matrix(s: StructureEquations, h: HermitianMetric, p: int, q: int) -> Matrix:
    first, *rest = (chain_matrix(t, s, p, q, h) for t in _THEORIES["bc"]["laplacian"])
    return sum(rest, first)


def aeppli_laplacian_matrix(s: StructureEquations, h: HermitianMetric, p: int, q: int) -> Matrix:
    first, *rest = (chain_matrix(t, s, p, q, h) for t in _THEORIES["a"]["laplacian"])
    return sum(rest, first)


def operator_matrix(
    name: str,
    s: StructureEquations,
    p: int,
    q: int,
    h: Optional[HermitianMetric] = None,
) -> Matrix:
    """The exact matrix of a named operator out of the (p, q) space: one
    column per monomial of ``basis(n, p, q)``, one row per monomial of the
    target, ``total_basis(n, p+q+1)`` for d and the shifted bidegree's
    basis for the others (empty out of range).

    Names: d, del, delbar, del_adj, delbar_adj, deldelbar; any other raises
    ValueError.  The adjoints need a metric over the structure's n and are
    cached per metric, the others per structure; bigraded operators need an
    integrable structure (d does not).
    """
    if name != "d" and name not in _OP_SHIFT:
        raise ValueError(f"unknown operator {name!r}")
    return _single_matrix(name, s, p, q, h)


def d_matrix_total(s: StructureEquations, k: int) -> Matrix:
    """d on the full degree-k space, in the canonical total-degree basis:
    the cached (p, q) blocks side by side, in ``total_basis`` order."""
    return hstack([_single_matrix("d", s, p, q, None) for p, q in bidegrees_of_total(s.n, k)])


# -- quotient cohomologies ----------------------------------------------------


@dataclass
class CohomologyGroup:
    """A quotient numerator / (span of the image rows) in the coordinates
    of `mons`, the (p, q) basis (or the degree-p total basis for de Rham,
    where q is -1).  `rows` are the numerator's echelon rows that represent
    the quotient, one per dimension, so ``dim`` is their count.  The
    representatives as Forms and the denominator as a ``Subspace`` are
    built from them on first access only; a report renders the rows
    themselves."""

    kind: str
    p: int
    q: int
    numerator: Subspace
    rows: list[Row]
    mons: Sequence[BasisMonomial]
    images: Sequence[Row]
    n: int

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def representatives(self) -> list[Form]:
        return [row_to_form(self.n, v, self.mons) for v in self.rows]

    @cached_property
    def denominator(self) -> Subspace:
        return Subspace(len(self.mons), self.images)


def _quotient(
    kind: str, n: int, p: int, q: int, mons,
    kernel_of: list[Matrix], image_of: list[Matrix],
) -> CohomologyGroup:
    """(common kernel of `kernel_of`) / (span of the columns of `image_of`),
    from two eliminations: the kernel's and the images' coordinates'."""
    numerator = kernel_basis(vstack(kernel_of))
    images = [row for m in image_of for row in m.transpose().rows]
    try:
        reps = quotient_representatives(numerator, images)
    except PreconditionError as exc:
        where = f"({p},{q})" if q >= 0 else f"degree {p}"
        raise PreconditionError(f"{kind} cohomology at {where}: {exc}") from None
    return CohomologyGroup(kind, p, q, numerator, reps, mons, images, n)


def _images(kind: str, s: StructureEquations, p: int, q: int) -> list[Matrix]:
    """The matrices whose columns span the (p, q) quotient's denominator."""
    shifts = [(op, *_OP_SHIFT[op]) for op in _theory(kind)["harmonic"][1]]
    return [_single_matrix(op, s, p - a, q - b, None) for op, a, b in shifts if a <= p and b <= q]


def _bigraded_quotient(kind: str, s: StructureEquations, p: int, q: int) -> CohomologyGroup:
    """The Bott-Chern or Aeppli quotient, its dimension kept per structure
    (``s._quotient_dims``) for the harmonic guard."""
    kernel_of = [_single_matrix(op, s, p, q, None) for op in _theory(kind)["harmonic"][0]]
    group = _quotient(kind, s.n, p, q, basis(s.n, p, q), kernel_of, _images(kind, s, p, q))
    s._quotient_dims[kind, p, q] = group.dim
    return group


def bc_cohomology(s: StructureEquations, p: int, q: int) -> CohomologyGroup:
    """(ker del /\\ ker delbar) / im(del delbar) on (p, q)-forms."""
    return _bigraded_quotient("bc", s, p, q)


def aeppli_cohomology(s: StructureEquations, p: int, q: int) -> CohomologyGroup:
    """ker(del delbar) / (im del + im delbar) on (p, q)-forms."""
    return _bigraded_quotient("a", s, p, q)


def dolbeault_cohomology(s: StructureEquations, p: int, q: int) -> CohomologyGroup:
    """ker delbar / im delbar on (p, q)-forms."""
    image_of = [_single_matrix("delbar", s, p, q - 1, None)] if q else []
    kernel_of = [_single_matrix("delbar", s, p, q, None)]
    return _quotient("dolbeault", s.n, p, q, basis(s.n, p, q), kernel_of, image_of)


def de_rham_cohomology(s: StructureEquations, k: int) -> CohomologyGroup:
    """ker d / im d on complex invariant k-forms (works without integrability)."""
    if not 0 <= k <= 2 * s.n:
        raise ValueError(f"degree {k} out of range for n={s.n}")
    # the columns of d on degree k-1 are those of its (p, q) blocks in turn
    image_of = [_single_matrix("d", s, p, q, None) for p, q in bidegrees_of_total(s.n, k - 1)]
    return _quotient(
        "derham", s.n, k, -1, total_basis(s.n, k), [d_matrix_total(s, k)], image_of
    )


# -- harmonic spaces ------------------------------------------------------------


def harmonic_space(
    kind: str, s: StructureEquations, h: HermitianMetric, p: int, q: int
) -> Subspace:
    """Harmonic (p, q)-forms for the Bott-Chern ('bc') or Aeppli ('a') theory.

    The kernel of the stacked first/second-order conditions (del u = 0,
    delbar u = 0, del_adj delbar_adj u = 0 for Bott-Chern; del_adj v = 0,
    delbar_adj v = 0, del delbar v = 0 for Aeppli), each adjoint condition
    read through the star as ker P* = ker conj(M N), M the matrix of P out
    of (n-p, n-q) and N the star numerators of (p, q)
    (``HermitianMetric.adjoint_kernel_rows``; del_adj delbar_adj is
    +-*(del delbar)*), with no adjoint matrix built, and checked on every
    call by ``_harmonic_guard``.
    """
    if not s.flags.integrable:
        raise IntegrabilityError("harmonic spaces need an integrable structure")
    if not s.flags.unimodular:
        raise PreconditionError(
            "harmonic spaces are refused on non-unimodular algebras: the "
            "adjoint identities behind the kernel characterizations only "
            "hold at the invariant level when trace(ad) = 0"
        )
    h.require_size(s.n)
    h.require_positive()
    direct, starred = _theory(kind)["harmonic"]
    n = s.n
    width = len(basis(n, p, q))  # refuses a bidegree out of range
    rows = [row for op in direct for row in _single_matrix(op, s, p, q, None).rows]
    for op in starred:
        rows += h.adjoint_kernel_rows(_single_matrix(op, s, n - p, n - q, None), (p, q))
    space = kernel_basis(Matrix.sparse(rows, width))
    _harmonic_guard(kind, s, h, p, q, space)
    return space


def _harmonic_guard(
    kind: str, s: StructureEquations, h: HermitianMetric, p: int, q: int, space: Subspace
) -> None:
    """Raise unless `space` is the (p, q) harmonic space of `kind` under h:
    (a) direct kills it and (b) it is Gram-orthogonal to the image columns
    of starred (``HermitianMetric._gram_sums``, not the star numerators
    read for it), so it lies in the harmonic space ker direct /\\
    (im starred)^perp; (c) its dimension is the metric-free quotient's,
    kept per structure, which by Schweitzer's Hodge isomorphism is the
    harmonic space's."""
    if (kind, p, q) not in s._quotient_dims:
        (bc_cohomology if kind == "bc" else aeppli_cohomology)(s, p, q)
    direct = [_single_matrix(op, s, p, q, None) for op in _theory(kind)["harmonic"][0]]
    columns = [c for m in _images(kind, s, p, q) for c in m.transpose().rows if c]
    if (
        space.dim != s._quotient_dims[kind, p, q]
        or any(m.apply(v) for m in direct for v in space.rows)
        or any(re or im for re, im, _ in h._gram_sums(p, q, space.rows, columns))
    ):
        raise RuntimeError(
            f"harmonic characterization mismatch at ({p},{q}) for {kind}; engine defect"
        )


def harmonic_forms(
    kind: str, s: StructureEquations, h: HermitianMetric, p: int, q: int
) -> list[Form]:
    space = harmonic_space(kind, s, h, p, q)
    return [row_to_form(s.n, v, basis(s.n, p, q)) for v in space.rows]


def harmonic_projection(
    kind: str, s: StructureEquations, h: HermitianMetric, a: Form
) -> Form:
    """Orthogonal projection onto the harmonic space of a's bidegree."""
    bd = a.pure_bidegree()
    if bd is None:
        if a.is_zero():
            return a
        raise PreconditionError("harmonic projection expects a pure-bidegree form")
    reps = harmonic_forms(kind, s, h, *bd)
    if not reps:
        return Form.zero(s.n)
    k = len(reps)
    gram = Matrix.sparse(
        [{i: g for i in range(k) if (g := h.pairing(reps[i], reps[j]))} for j in range(k)], k
    )
    rhs = {j: c for j in range(k) if (c := h.pairing(a, reps[j]))}
    coeffs = solve(gram, rhs)
    if coeffs is None:
        raise RuntimeError("harmonic Gram system unsolvable; engine defect")
    out = Form.zero(s.n)
    for i, c in coeffs.items():
        out = out + reps[i].scale(c)
    return out


# -- Hodge-type decompositions ---------------------------------------------------


@dataclass
class Decomposition:
    """a = harmonic + second_order + first_order_a + first_order_b, with
    potential witnesses.  For the Bott-Chern shape the pieces are
    (del delbar gamma, del_adj alpha, delbar_adj beta); for the Aeppli shape
    (del_adj delbar_adj eta, del mu, delbar lam)."""

    kind: str
    harmonic: Form
    second_order: Form
    first_a: Form
    first_b: Form
    witnesses: dict[str, Form] = field(default_factory=dict)

    def total(self) -> Form:
        return self.harmonic + self.second_order + self.first_a + self.first_b


def _decompose(
    kind: str, s: StructureEquations, h: HermitianMetric, a: Form
) -> Decomposition:
    bd = a.pure_bidegree()
    if bd is None and not a.is_zero():
        raise PreconditionError("decomposition expects a pure-bidegree form")
    if a.is_zero():
        z = Form.zero(s.n)
        return Decomposition(kind, z, z, z, z)
    p, q = bd
    n = s.n
    mons = basis(n, p, q)
    harm = harmonic_projection(kind, s, h, a)
    rest = a - harm
    blocks = _theory(kind)["blocks"]
    sources = [(p - dp, q - dq) for dp, dq in (_chain_shift(ops) for _, ops in blocks)]
    mats = [chain_matrix(ops, s, *src, h) for (_, ops), src in zip(blocks, sources)]
    system = hstack(mats)
    sol = solve(system, form_to_row(rest, mons))
    if sol is None:
        raise RuntimeError("decomposition system unsolvable; engine defect")
    offset = 0
    witnesses: dict[str, Form] = {}
    parts: list[Form] = []
    for (name, _), mat, src in zip(blocks, mats, sources):
        end = offset + mat.ncols
        piece = {j - offset: x for j, x in sol.items() if offset <= j < end}
        offset = end
        witnesses[name] = row_to_form(n, piece, _clip(n, *src))
        parts.append(row_to_form(n, mat.apply(piece), mons))
    out = Decomposition(kind, harm, parts[0], parts[1], parts[2], witnesses)
    if out.total() != a:
        raise RuntimeError("decomposition does not reassemble; engine defect")
    return out


def decompose_bc(s: StructureEquations, h: HermitianMetric, a: Form) -> Decomposition:
    return _decompose("bc", s, h, a)


def decompose_aeppli(s: StructureEquations, h: HermitianMetric, a: Form) -> Decomposition:
    return _decompose("a", s, h, a)


# -- full report -------------------------------------------------------------------


@dataclass
class CohomologyReport:
    """The cohomology tables of one structure, and the metric's class and
    Aeppli decisions when a metric was given.  ``groups[kind]`` maps each
    cell's key, "p,q" for a bigraded group and "k" for de Rham degree k, to
    the cell as ``cohomology --json`` prints it: {"dim": d, "reps": [the
    rendered representatives]}.  Every group is of invariant forms, which
    ``to_dict`` writes as the level."""

    algebra: str
    n: int
    flags: dict
    groups: dict
    metric_class: Optional[dict] = None
    aeppli_decisions: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "n": self.n,
            "flags": self.flags,
            "metric_class": self.metric_class,
            "cohomology": self.groups,
            "aeppli_decisions": self.aeppli_decisions,
            "level": "invariant",
        }


ALL_GROUPS = ("bc", "a", "dolbeault", "derham")


def full_report(
    s: StructureEquations,
    h: Optional[HermitianMetric] = None,
    groups=ALL_GROUPS,
) -> CohomologyReport:
    """Dimensions and representatives for the requested cohomologies, one
    ``_cell`` per bidegree (or degree, for de Rham) in the report's cell
    format, in the order they are printed.

    Bigraded groups need integrability; de Rham never does.  The metric,
    when supplied, only feeds the metric classification and the Aeppli
    obstruction certificates (quotient dimensions are metric-free).
    """
    n = s.n
    tables: dict[str, dict] = {}
    for kind in dict.fromkeys(groups):  # a repeated group is computed once
        if kind == "derham":
            tables[kind] = {str(k): _cell(de_rham_cohomology(s, k)) for k in range(2 * n + 1)}
            continue
        if not s.flags.integrable:
            raise IntegrabilityError(
                f"cohomology {kind!r} needs an integrable structure"
            )
        func = {"bc": bc_cohomology, "a": aeppli_cohomology, "dolbeault": dolbeault_cohomology}[kind]
        tables[kind] = {
            f"{p},{q}": _cell(func(s, p, q))
            for p in range(n + 1)
            for q in range(n + 1)
        }
    metric_class = None
    decisions: list[dict] = []
    if h is not None and s.flags.integrable:
        from .analysis import aeppli_class_vanishes, classify_metric

        mc = classify_metric(s, h)
        metric_class = asdict(mc)
        for p in range(1, n):
            try:
                decision = aeppli_class_vanishes(s, h, p)
            except PreconditionError:
                continue  # the class of omega^(n-p) is undefined for this metric
            decisions.append(decision.to_dict())
    return CohomologyReport(
        algebra=s.name, n=n, flags=asdict(s.flags), groups=tables,
        metric_class=metric_class, aeppli_decisions=decisions,
    )


@lru_cache(maxsize=None)
def _monomial_names(n: int, p: int, q: int) -> tuple[str, ...]:
    """The rendered monomials of the (p, q) basis, or of the degree-p total
    basis (its bidegree blocks in turn) when q is -1, in basis order, which
    is render order."""
    if q < 0:
        return tuple(name for b, c in bidegrees_of_total(n, p) for name in _monomial_names(n, b, c))
    return tuple(map(render_monomial, basis(n, p, q)))


def _cell(group: CohomologyGroup) -> dict:
    names = _monomial_names(group.n, group.p, group.q)
    return {"dim": group.dim, "reps": [render_row(v, names) for v in group.rows]}
