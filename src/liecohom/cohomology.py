r"""Exact cohomology of the invariant complex.

Dimensions and representatives are computed from the quotient definitions

    H_BC = (ker del  /\  ker delbar) / im(del delbar)
    H_A  = ker(del delbar) / (im del + im delbar)

by exact row reduction; these are metric-free and are the engine's source
of truth.  With a metric on a unimodular algebra the same spaces are also
computed as kernels of the fourth-order Bott-Chern / Aeppli Laplacians,
through the three-condition characterizations of their kernels, and the
two routes are required to agree.

Everything refers to the invariant (Lie-algebra level) complex.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from .errors import IntegrabilityError, PreconditionError
from .exterior import BasisMonomial, Form, basis, bidegrees_of_total, total_basis
from .hodge import HermitianMetric
from .linalg import (
    Matrix,
    Row,
    Subspace,
    Vector,
    hstack,
    kernel_basis,
    quotient_representatives,
    solve,
    vstack,
)
from .scalars import ZERO, Scalar
from .structure import StructureEquations, render_form


# -- coordinates -------------------------------------------------------------


def form_to_vector(form: Form, mons) -> Vector:
    return tuple(form.terms.get(m, ZERO) for m in mons)


def vector_to_form(n: int, v: Vector, mons) -> Form:
    return Form(n, {m: c for m, c in zip(mons, v) if c}, _validated=True)


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


def _single_matrix(
    name: str,
    s: StructureEquations,
    p: int,
    q: int,
    h: Optional[HermitianMetric],
) -> Matrix:
    """The one builder and cache (``s._op_matrix_cache``) of the matrices of
    d, del, delbar, deldelbar and the adjoints out of the (p, q) space.

    d is assembled once per (p, q), from the per-monomial differentials
    ``s._d_monomial``, into the full space of degree p+q+1; it needs no
    integrability.  del and delbar are the (p+1, q) and (p, q+1) row
    blocks of that d entry (sharing its rows), which is all of d on an
    integrable structure; on any other structure they raise
    IntegrabilityError unless the source space is empty.  deldelbar is
    the cached del at (p, q+1) times the cached delbar at (p, q), and the
    adjoints are composed from the star matrices and the conjugate d
    blocks.  No Form is built here: ``analysis.closed_p0_space`` assembles
    its d matrix through the Form-level ``s.d`` on purpose, as the
    independent route that checks H_BC^(p,0) against this one."""
    needs_metric = name in ("del_adj", "delbar_adj")
    if needs_metric and h is None:
        raise PreconditionError(f"operator {name} needs a metric")
    key = (name, p, q, h if needs_metric else None)
    cached = s._op_matrix_cache.get(key)
    if cached is not None:
        return cached
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
                s._require_integrable()
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
            # a -> -*(D *a) with the conjugate-linear star: -S' conj(D) conj(S)
            if src:
                h.require_positive()  # as the star of each source monomial would
            d = _single_matrix(name[: -len("_adj")], s, n - p, n - q, None)
            if d.is_zero():
                out = Matrix.zeros(len(dst), len(src))
            else:
                star_back = h._star_matrix(n - p - dp, n - q - dq)
                out = -(star_back @ d.conjugate() @ h._star_matrix(p, q).conjugate())
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
    as an endo/exo-morphism out of the (p, q) space."""
    cur_p, cur_q = p, q
    total: Optional[Matrix] = None
    for name in reversed(ops):
        m = _single_matrix(name, s, cur_p, cur_q, h)
        dp, dq = _OP_SHIFT[name]
        cur_p += dp
        cur_q += dq
        total = m if total is None else m @ total
    assert total is not None
    return total


@dataclass(frozen=True)
class OperatorMatrix:
    """An operator matrix tagged with its source/target bidegree bases."""

    name: str
    source: tuple[int, int]
    target: tuple[int, int] | int  # total degree for d
    matrix: Matrix


# The Bott-Chern and Aeppli harmonic theories, one table each:
#   kernel     -- operator chains whose common kernel is the harmonic space;
#   laplacian  -- the terms of the fourth-order Laplacian;
#   blocks     -- (witness name, chain) of the Hodge-type decomposition, in
#                 the order second-order piece, first_a, first_b.
_THEORIES = {
    "bc": {
        "kernel": [["del"], ["delbar"], ["del_adj", "delbar_adj"]],
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
        "kernel": [["del_adj"], ["delbar_adj"], ["deldelbar"]],
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


def _chain_sum(chains, s: StructureEquations, h, p: int, q: int) -> Matrix:
    terms = [chain_matrix(t, s, p, q, h) for t in chains]
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out


def bc_laplacian_matrix(
    s: StructureEquations, h: HermitianMetric, p: int, q: int
) -> Matrix:
    return _chain_sum(_THEORIES["bc"]["laplacian"], s, h, p, q)


def aeppli_laplacian_matrix(
    s: StructureEquations, h: HermitianMetric, p: int, q: int
) -> Matrix:
    return _chain_sum(_THEORIES["a"]["laplacian"], s, h, p, q)


def operator_matrix(
    name: str,
    s: StructureEquations,
    p: int,
    q: int,
    h: Optional[HermitianMetric] = None,
) -> OperatorMatrix:
    """Exact matrix of a named operator out of the (p, q) space.

    Names: d, del, delbar, del_adj, delbar_adj, deldelbar, lap_bc, lap_a.
    d targets the full space of total degree p+q+1 (``target`` is that
    degree).  Starred and Laplacian operators need a metric; bigraded
    operators need an integrable structure (d does not).  All but the
    Laplacians are cached: per structure for the metric-free names, per
    metric for the adjoints.
    """
    if name in ("lap_bc", "lap_a"):
        if h is None:
            raise PreconditionError(f"{name} needs a metric")
        lap = bc_laplacian_matrix if name == "lap_bc" else aeppli_laplacian_matrix
        return OperatorMatrix(name, (p, q), (p, q), lap(s, h, p, q))
    if name == "d":
        target = p + q + 1
    elif name in _OP_SHIFT:
        target = (p + _OP_SHIFT[name][0], q + _OP_SHIFT[name][1])
    else:
        raise ValueError(f"unknown operator {name!r}")
    return OperatorMatrix(name, (p, q), target, _single_matrix(name, s, p, q, h))


def d_matrix_total(s: StructureEquations, k: int) -> Matrix:
    """d on the full degree-k space, in the canonical total-degree basis:
    the cached (p, q) blocks side by side, in ``total_basis`` order."""
    return hstack([_single_matrix("d", s, p, q, None) for p, q in bidegrees_of_total(s.n, k)])


# -- quotient cohomologies ----------------------------------------------------


@dataclass
class CohomologyGroup:
    kind: str
    p: int
    q: int
    dim: int
    representatives: list[Form]
    numerator: Subspace
    denominator: Subspace


def _quotient(
    kind: str, n: int, p: int, q: int, mons,
    kernel_of: list[Matrix], image_of: list[Matrix],
) -> CohomologyGroup:
    """(common kernel of `kernel_of`) / (span of the columns of `image_of`)."""
    numerator = Subspace(len(mons), kernel_basis(vstack(kernel_of)).rows)
    images = vstack([m.transpose() for m in image_of]).rows if image_of else ()
    denominator = Subspace(len(mons), images)
    try:
        reps = quotient_representatives(numerator, denominator)
    except PreconditionError as exc:
        where = f"({p},{q})" if q >= 0 else f"degree {p}"
        raise PreconditionError(f"{kind} cohomology at {where}: {exc}") from None
    return CohomologyGroup(
        kind, p, q, numerator.dim - denominator.dim,
        [row_to_form(n, v, mons) for v in reps], numerator, denominator,
    )


def bc_cohomology(s: StructureEquations, p: int, q: int) -> CohomologyGroup:
    """(ker del /\\ ker delbar) / im(del delbar) on (p, q)-forms."""
    kernel_of = [_single_matrix(op, s, p, q, None) for op in ("del", "delbar")]
    image_of = [_single_matrix("deldelbar", s, p - 1, q - 1, None)] if p and q else []
    return _quotient("bc", s.n, p, q, basis(s.n, p, q), kernel_of, image_of)


def aeppli_cohomology(s: StructureEquations, p: int, q: int) -> CohomologyGroup:
    """ker(del delbar) / (im del + im delbar) on (p, q)-forms."""
    image_of = [_single_matrix("del", s, p - 1, q, None)] if p else []
    if q:
        image_of.append(_single_matrix("delbar", s, p, q - 1, None))
    kernel_of = [_single_matrix("deldelbar", s, p, q, None)]
    return _quotient("a", s.n, p, q, basis(s.n, p, q), kernel_of, image_of)


def dolbeault_cohomology(s: StructureEquations, p: int, q: int) -> CohomologyGroup:
    """ker delbar / im delbar on (p, q)-forms."""
    image_of = [_single_matrix("delbar", s, p, q - 1, None)] if q else []
    kernel_of = [_single_matrix("delbar", s, p, q, None)]
    return _quotient("dolbeault", s.n, p, q, basis(s.n, p, q), kernel_of, image_of)


def de_rham_cohomology(s: StructureEquations, k: int) -> CohomologyGroup:
    """ker d / im d on complex invariant k-forms (works without integrability)."""
    image_of = [d_matrix_total(s, k - 1)] if k else []
    return _quotient(
        "derham", s.n, k, -1, total_basis(s.n, k), [d_matrix_total(s, k)], image_of
    )


# -- harmonic spaces ------------------------------------------------------------


def _require_harmonic_preconditions(s: StructureEquations, h: HermitianMetric):
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


def harmonic_space(
    kind: str, s: StructureEquations, h: HermitianMetric, p: int, q: int
) -> Subspace:
    """Harmonic (p, q)-forms for the Bott-Chern ('bc') or Aeppli ('a') theory.

    Primary route: the kernel of the stacked first/second-order conditions
    (del u = 0, delbar u = 0, del_adj delbar_adj u = 0 for Bott-Chern;
    del_adj v = 0, delbar_adj v = 0, del delbar v = 0 for Aeppli).
    Cross-check: the kernel of the full fourth-order Laplacian matrix.
    The two must agree exactly; a mismatch is an engine defect.
    """
    _require_harmonic_preconditions(s, h)
    theory = _theory(kind)
    dim_pq = len(basis(s.n, p, q))
    stack = vstack([chain_matrix(ops, s, p, q, h) for ops in theory["kernel"]])
    lap = operator_matrix(f"lap_{kind}", s, p, q, h).matrix
    primary = Subspace(dim_pq, kernel_basis(stack).rows)
    check = Subspace(dim_pq, kernel_basis(lap).rows)
    if primary != check:
        raise RuntimeError(
            f"harmonic characterization mismatch at ({p},{q}) for {kind}; engine defect"
        )
    return primary


def harmonic_forms(
    kind: str, s: StructureEquations, h: HermitianMetric, p: int, q: int
) -> list[Form]:
    mons = basis(s.n, p, q)
    space = harmonic_space(kind, s, h, p, q)
    return [row_to_form(s.n, v, mons) for v in space.rows]


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
    gram = Matrix(
        [[h.pairing(reps[i], reps[j]) for i in range(k)] for j in range(k)], ncols=k
    )
    rhs = tuple(h.pairing(a, reps[j]) for j in range(k))
    coeffs = solve(gram, rhs)
    if coeffs is None:
        raise RuntimeError("harmonic Gram system unsolvable; engine defect")
    out = Form.zero(s.n)
    for c, rep in zip(coeffs, reps):
        out = out + rep.scale(c)
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
    sol = solve(system, form_to_vector(rest, mons))
    if sol is None:
        raise RuntimeError("decomposition system unsolvable; engine defect")
    offset = 0
    witnesses: dict[str, Form] = {}
    parts: list[Form] = []
    for (name, _), mat, src in zip(blocks, mats, sources):
        piece_coords = sol[offset : offset + mat.ncols]
        offset += mat.ncols
        witnesses[name] = vector_to_form(n, piece_coords, _clip(n, *src))
        parts.append(vector_to_form(n, mat.apply(piece_coords), mons))
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
    algebra: str
    n: int
    flags: dict
    groups: dict  # kind -> {(p,q) or k: (dim, [rep strings])}
    metric_class: Optional[dict] = None
    aeppli_decisions: list = field(default_factory=list)
    level: str = "invariant"

    def to_dict(self) -> dict:
        cohomology = {}
        for kind, table in self.groups.items():
            sub = {}
            for key, (dim, reps) in table.items():
                name = f"{key[0]},{key[1]}" if isinstance(key, tuple) else str(key)
                sub[name] = {"dim": dim, "reps": list(reps)}
            cohomology[kind] = sub
        return {
            "algebra": self.algebra,
            "n": self.n,
            "flags": dict(self.flags),
            "metric_class": dict(self.metric_class) if self.metric_class else None,
            "cohomology": cohomology,
            "aeppli_decisions": [dict(d) for d in self.aeppli_decisions],
            "level": self.level,
        }

    @staticmethod
    def from_dict(data: dict) -> "CohomologyReport":
        groups = {}
        for kind, sub in data["cohomology"].items():
            table = {}
            for name, cell in sub.items():
                if "," in name:
                    p, q = name.split(",")
                    key = (int(p), int(q))
                else:
                    key = int(name)
                table[key] = (cell["dim"], list(cell["reps"]))
            groups[kind] = table
        return CohomologyReport(
            algebra=data["algebra"],
            n=data["n"],
            flags=dict(data["flags"]),
            groups=groups,
            metric_class=dict(data["metric_class"]) if data.get("metric_class") else None,
            aeppli_decisions=[dict(d) for d in data.get("aeppli_decisions", [])],
            level=data.get("level", "invariant"),
        )


ALL_GROUPS = ("bc", "a", "dolbeault", "derham")


def full_report(
    s: StructureEquations,
    h: Optional[HermitianMetric] = None,
    groups=ALL_GROUPS,
) -> CohomologyReport:
    """Dimensions and representatives for the requested cohomologies.

    Bigraded groups need integrability; de Rham never does.  The metric,
    when supplied, only feeds the metric classification and the Aeppli
    obstruction certificates (quotient dimensions are metric-free).
    """
    n = s.n
    tables: dict[str, dict] = {}
    for kind in groups:
        if kind == "derham":
            tables[kind] = {
                k: _cell(de_rham_cohomology(s, k)) for k in range(2 * n + 1)
            }
            continue
        if not s.flags.integrable:
            raise IntegrabilityError(
                f"cohomology {kind!r} needs an integrable structure"
            )
        func = {
            "bc": bc_cohomology,
            "a": aeppli_cohomology,
            "dolbeault": dolbeault_cohomology,
        }[kind]
        tables[kind] = {
            (p, q): _cell(func(s, p, q))
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


def _cell(group: CohomologyGroup):
    return (group.dim, [render_form(f) for f in group.representatives])
