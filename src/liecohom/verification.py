"""The verification suite: structural identities, literature tables, and
the star/adjoint lemmas, run over the embedded corpus with seeded random
metrics.  Every check is exact; there are no tolerances anywhere.

The star identity is asserted with the constant

    c(n, p) = (-1)^(p(p+1)/2) * (-i)^p * (n-p)!

which is forced by the defining relation of the anti-linear star together
with <f_j, f_j> = 2 and vol = omega^n / n! (three independent derivations
agree: solving the defining relation, the classical primitive-form star
formula, and a real-coordinate computation; the suite re-verifies it for
every n, p and randomized metric).
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass

from .analysis import (
    aeppli_class_vanishes,
    classify_metric,
    closed_p0_forms,
    closed_p0_space,
    generate_skt_family,
    salamon_h10_check,
    skt_condition,
    verify_vanishing_theorem,
)
from .cohomology import (
    _matrix_for,
    aeppli_cohomology,
    bc_cohomology,
    chain_matrix,
    de_rham_cohomology,
    dolbeault_cohomology,
    form_to_row,
    harmonic_space,
    row_to_form,
)
from .corpus import CORPUS, CorpusEntry
from .exterior import Form, basis
from .hodge import HermitianMetric, _random_gaussian, random_positive_metric
from .linalg import Subspace, rank
from .scalars import ONE, Scalar, from_parts
from .structure import StructureEquations, render_form

DEFAULT_SEED = 20260808


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f" -- {self.detail}" if self.detail else ""
        return f"[{status}] {self.name}{suffix}"


def star_identity_constant(n: int, p: int) -> Scalar:
    """c(n,p) = (-1)^(p(p+1)/2) (-i)^p (n-p)!  (derivation-verified)."""
    sign = Scalar(-1) ** ((p * (p + 1)) // 2)
    return sign * Scalar(0, -1) ** p * Scalar(math.factorial(n - p))


def _seeded_metrics(n: int, count: int, rng: random.Random) -> list[HermitianMetric]:
    return [random_positive_metric(n, rng) for _ in range(count)]


def _random_form(n: int, p: int, q: int, rng: random.Random) -> Form:
    """A seeded (p, q)-form of at most three terms."""
    mons = basis(n, p, q)
    if not mons:
        return Form.zero(n)
    out: dict = {}
    for _ in range(min(3, len(mons))):
        m = mons[rng.randrange(len(mons))]
        out[m] = _random_gaussian(rng, 3, 3)
    return Form(n, {m: c for m, c in out.items() if c}, _validated=True)


def _random_pure_form(n: int, rng: random.Random, max_degree: int) -> Form:
    while True:
        p = rng.randint(0, n)
        q = rng.randint(0, n)
        if p + q <= max_degree:
            return _random_form(n, p, q, rng)


_Loaded = tuple[CorpusEntry, StructureEquations, HermitianMetric]
_CORPUS_CACHE: dict[str, _Loaded] = {}


def _loaded(name: str) -> _Loaded:
    """The corpus entry `name`, its structure and its metric (the identity
    when it lists none), loaded once per process."""
    if name not in _CORPUS_CACHE:
        entry = CORPUS[name]
        lf = entry.load()
        s = lf.structure
        _CORPUS_CACHE[name] = (entry, s, lf.metric or HermitianMetric.identity(s.n))
    return _CORPUS_CACHE[name]


def _loaded_corpus() -> list[_Loaded]:
    return [_loaded(name) for name in CORPUS]


# -- criterion 1: the star identity ------------------------------------------------


def check_star_identity(seed: int = DEFAULT_SEED) -> CheckResult:
    """*(omega^(n-p) ^ psi) == c(n,p) conj(psi) for every basis (p,0)-form,
    n in 2..4, identity plus 20 seeded positive metrics, exact equality."""
    rng = random.Random(seed)
    cases = 0
    for n in (2, 3, 4):
        metrics = [HermitianMetric.identity(n)] + _seeded_metrics(n, 20, rng)
        for h in metrics:
            for p in range(1, n):
                c = star_identity_constant(n, p)
                wnp = h.omega_power(n - p)
                for mono in basis(n, p, 0):
                    psi = Form(n, {mono: ONE}, _validated=True)
                    lhs = h.star(wnp.wedge(psi))
                    rhs = psi.conjugate().scale(c)
                    if lhs != rhs:
                        return CheckResult(
                            "star-identity", False,
                            f"n={n} p={p} psi={render_form(psi)}: "
                            f"got {render_form(lhs)}, want {render_form(rhs)}",
                        )
                    cases += 1
    return CheckResult(
        "star-identity", True,
        f"{cases} cases exact over n=2..4, identity + 20 seeded metrics each",
    )


# -- criterion 2: adjoints kill omega^(n-p) ^ (closed (p,0)-form) -------------------


def check_adjoint_annihilation(seed: int = DEFAULT_SEED) -> CheckResult:
    rng = random.Random(seed)
    metric_pool: dict[int, list[HermitianMetric]] = {}
    cases = 0
    for entry, s, _ in _loaded_corpus():
        n = s.n
        if n not in metric_pool:
            metric_pool[n] = [HermitianMetric.identity(n)] + _seeded_metrics(n, 20, rng)
        for p in range(1, n):
            closed = closed_p0_forms(s, p)
            if not closed:
                continue
            for h in metric_pool[n]:
                wnp = h.omega_power(n - p)
                for psi in closed:
                    target = wnp.wedge(psi)
                    da = h.del_adjoint(target, s)
                    dba = h.delbar_adjoint(target, s)
                    if not (da.is_zero() and dba.is_zero()):
                        return CheckResult(
                            "adjoint-annihilation", False,
                            f"{entry.name} p={p}: adjoints do not kill "
                            f"omega^{n - p} ^ {render_form(psi)}",
                        )
                    cases += 1
    return CheckResult(
        "adjoint-annihilation", True,
        f"{cases} (algebra, metric, closed form) cases exact",
    )


# -- criterion 3: the sl2c walkthrough ----------------------------------------------


def check_sl2c() -> CheckResult:
    _, s, h = _loaded("sl2c")
    problems = []
    if bc_cohomology(s, 1, 0).dim != 0:
        problems.append("H_BC^(1,0) != 0")
    if not s.d(h.omega_power(2)).is_zero():
        problems.append("d omega^2 != 0")
    decision = aeppli_class_vanishes(s, h, 1)
    if not decision.vanishes:
        problems.append("[omega^2]_A does not vanish")
    else:
        if s.del_(decision.mu) + s.delbar(decision.lam) != h.omega_power(2):
            problems.append("witness does not reconstruct omega^2")
    check = verify_vanishing_theorem(s, h, 1)
    if check.status != "CONSISTENT" or not check.hypothesis_vanishes:
        problems.append(f"vanishing check: {check.status}")
    if problems:
        return CheckResult("sl2c-vanishing", False, "; ".join(problems))
    return CheckResult(
        "sl2c-vanishing", True,
        "H_BC^(1,0)=0, d omega^2=0, Aeppli witness exact, implication CONSISTENT",
    )


# -- criterion 4: the Calabi-Eckmann tables ------------------------------------------


def _ce_listed_representatives(n: int = 3) -> dict[tuple[int, int], list[Form]]:
    def mono(h, a, c=ONE):
        return Form.monomial(n, h, a, c)

    i = Scalar(0, 1)
    return {
        (0, 0): [Form.one(n)],
        (1, 1): [mono([1], [1]), mono([2], [2])],
        (2, 1): [mono([2, 3], [2]) + mono([1, 3], [1], i)],
        (1, 2): [mono([2], [2, 3]) - mono([1], [1, 3], i)],
        (2, 2): [mono([1, 2], [1, 2])],
        (3, 2): [mono([1, 2, 3], [1, 2])],
        (2, 3): [mono([1, 2], [1, 2, 3])],
        (3, 3): [mono([1, 2, 3], [1, 2, 3])],
    }


def check_calabi_eckmann() -> CheckResult:
    entry, s, h = _loaded("calabi-eckmann")
    n = s.n
    expected_dims = dict(entry.expected["bc_dims"].value)
    problems = []
    for p in range(n + 1):
        for q in range(n + 1):
            want = expected_dims.get((p, q), 0)
            got = bc_cohomology(s, p, q).dim
            if got != want:
                problems.append(f"BC({p},{q}) dim {got} != {want}")
    listed = _ce_listed_representatives(n)
    for (p, q), reps in listed.items():
        space = harmonic_space("bc", s, h, p, q)
        mons = basis(n, p, q)
        for rep in reps:
            if not space.contains(form_to_row(rep, mons)):
                problems.append(f"listed rep at ({p},{q}) not harmonic")
        if space.dim != expected_dims.get((p, q), 0):
            problems.append(f"harmonic BC({p},{q}) dim != table")
    # Aeppli (2,2): dimension 2 and the two product monomials span the quotient
    group = aeppli_cohomology(s, 2, 2)
    if group.dim != 2:
        problems.append(f"H_A^(2,2) dim {group.dim} != 2")
    mons22 = basis(n, 2, 2)
    psi1133 = Form.monomial(n, [1], [1]).wedge(Form.monomial(n, [3], [3]))
    psi2233 = Form.monomial(n, [2], [2]).wedge(Form.monomial(n, [3], [3]))
    span = group.denominator
    for rep in (psi1133, psi2233):
        v = form_to_row(rep, mons22)
        if not group.numerator.contains(v):
            problems.append("product monomial rep not (del delbar)-closed")
        if span.contains(v):
            problems.append("product monomial rep is exact; class zero")
        span = Subspace(span.ambient, list(span.rows) + [v])
    if span.dim != group.denominator.dim + 2:
        problems.append("product monomials do not span H_A^(2,2)")
    pairing = h.pairing(h.omega_power(2), psi2233)
    if not (pairing.is_real() and pairing.re < 0):
        problems.append(f"<omega^2, psi^(2 2b 3 3b)> = {pairing} not negative")
    decision = aeppli_class_vanishes(s, h, 1)
    if decision.vanishes:
        problems.append("[omega^2]_A unexpectedly vanishes")
    if problems:
        return CheckResult("calabi-eckmann-tables", False, "; ".join(problems))
    gau = classify_metric(s, h).gauduchon
    return CheckResult(
        "calabi-eckmann-tables", True,
        "published table reproduced; listed representatives harmonic; "
        f"pairing {pairing} < 0; standard metric gauduchon={gau} (engine-decided)",
    )


# -- criterion 5: the secondary Kodaira surface ---------------------------------------


def check_secondary_kodaira(seed: int = DEFAULT_SEED) -> CheckResult:
    _, s, h = _loaded("kodaira-secondary")
    n = s.n
    problems = []
    if bc_cohomology(s, 1, 0).dim != 0:
        problems.append("H_BC^(1,0) != 0")
    bc11 = bc_cohomology(s, 1, 1)
    if bc11.dim != 1 or bc11.representatives != [Form.monomial(n, [1], [1])]:
        problems.append("H_BC^(1,1) is not spanned by f1^F1")
    if h.star(Form.monomial(n, [1], [1])) != -Form.monomial(n, [2], [2]):
        problems.append("*(f1^F1) != -f2^F2")
    a11 = aeppli_cohomology(s, 1, 1)
    v = form_to_row(Form.monomial(n, [2], [2]), basis(n, 1, 1))
    if a11.dim != 1 or not a11.numerator.contains(v) or a11.denominator.contains(v):
        problems.append("H_A^(1,1) is not spanned by the class of f2^F2")
    rng = random.Random(seed)
    tested = 0
    while tested < 20:
        a2 = from_parts(rng.randint(1, 4), 0, rng.randint(1, 2))
        c2 = from_parts(rng.randint(1, 4), 0, rng.randint(1, 2))
        b = _random_gaussian(rng, 2, 3)
        hm = HermitianMetric.from_form_parameters(n, [a2, c2], {(1, 2): b})
        if not hm.is_positive():
            continue
        tested += 1
        decision = aeppli_class_vanishes(s, hm, 1)
        if decision.vanishes:
            problems.append(f"[omega]_A vanished for parameters ({a2},{c2},{b})")
            break
    if problems:
        return CheckResult("secondary-kodaira", False, "; ".join(problems))
    return CheckResult(
        "secondary-kodaira", True,
        "H_BC^(1,0)=0, H_BC^(1,1)=<f1^F1>, *(f1^F1)=-f2^F2, H_A^(1,1)=<[f2^F2]>, "
        "[omega]_A nonzero for 20 seeded parameter metrics",
    )


# -- criterion 6: the SKT family equivalence -------------------------------------------


def _skt_tuples(seed: int, count: int) -> list[tuple]:
    """Half generic tuples, half constructed to satisfy the pluriclosed
    condition (generic rational tuples essentially never do)."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        if k % 2 == 0:
            out.append(tuple(_random_gaussian(rng, 2, 2) for _ in range(5)))
        else:
            a, d, e = (_random_gaussian(rng, 2, 2) for _ in range(3))
            b = ONE
            s = a.abs2() + d.abs2() + e.abs2()
            # 2 Re(conj(B) C) = -s with B = 1 forces Re(C) = -s/2
            im, den = rng.randint(-2, 2), rng.randint(1, 2)
            c = from_parts(-s.numerator * den, 2 * s.denominator * im, 2 * s.denominator * den)
            out.append((a, b, c, d, e))
    return out


def check_skt_family(seed: int = DEFAULT_SEED) -> CheckResult:
    identity3 = HermitianMetric.identity(3)
    satisfied = 0
    for nums in _skt_tuples(seed, 50):
        a, b, c, d, e = nums
        s = generate_skt_family(a, b, c, d, e)
        condition = skt_condition(a, b, c, d, e)
        engine = s.del_delbar(identity3.fundamental_form()).is_zero()
        if condition != engine:
            return CheckResult(
                "skt-family", False,
                f"condition/engine disagree at (A,B,C,D,E)={nums}",
            )
        if condition:
            satisfied += 1
            f1f2 = Form.monomial(3, [1, 2], [])
            v = form_to_row(f1f2, basis(3, 2, 0))
            if not closed_p0_space(s, 2).contains(v):
                return CheckResult(
                    "skt-family", False, f"f1^f2 not closed at {nums}"
                )
            decision = aeppli_class_vanishes(s, identity3, 2)
            if decision.vanishes:
                return CheckResult(
                    "skt-family", False, f"[omega]_A vanished at {nums}"
                )
    return CheckResult(
        "skt-family", True,
        f"50 seeded tuples: condition == engine pluriclosed test exactly; "
        f"{satisfied} satisfied it and all kept f1^f2 closed with [omega]_A != 0",
    )


# -- criterion 7: structural identity suite ---------------------------------------------


def _check_operator_identities(s: StructureEquations) -> list[str]:
    problems = []
    n = s.n
    for p in range(n + 1):
        for q in range(n + 1):
            for mono in basis(n, p, q):
                if not s.d(s.d(Form(n, {mono: ONE}, _validated=True))).is_zero():
                    problems.append(f"d^2 != 0 on ({p},{q}) monomial")
            if not s.flags.integrable:
                continue
            if not chain_matrix(["del", "del"], s, p, q).is_zero():
                problems.append(f"del^2 != 0 at ({p},{q})")
            if not chain_matrix(["delbar", "delbar"], s, p, q).is_zero():
                problems.append(f"delbar^2 != 0 at ({p},{q})")
            anti = chain_matrix(["deldelbar"], s, p, q) + chain_matrix(["delbar", "del"], s, p, q)
            if not anti.is_zero():
                problems.append(f"del delbar + delbar del != 0 at ({p},{q})")
    return problems


def _check_leibniz(s: StructureEquations, rng: random.Random, pairs: int) -> list[str]:
    n = s.n
    for _ in range(pairs):
        a = _random_pure_form(n, rng, max_degree=2 * n - 1)
        b = _random_pure_form(n, rng, max_degree=2 * n - 1)
        bd = a.pure_bidegree()
        deg = sum(bd) if bd else 0
        lhs = s.d(a.wedge(b))
        rhs = s.d(a).wedge(b) + (a.wedge(s.d(b)) if deg % 2 == 0 else -(a.wedge(s.d(b))))
        if lhs != rhs:
            return [f"Leibniz fails on random pair in {s.name}"]
    return []


def _check_star_defining(s_n: int, h: HermitianMetric) -> list[str]:
    vol = h.volume_form()
    n = s_n
    for p in range(n + 1):
        for q in range(n + 1):
            mons = basis(n, p, q)
            monomials = [Form(n, {m: ONE}, _validated=True) for m in mons]
            starred = [h.star(beta) for beta in monomials]
            for alpha in monomials:
                for beta, stb in zip(monomials, starred):
                    if alpha.wedge(stb) != vol.scale(h.inner(alpha, beta)):
                        return [f"defining relation fails at ({p},{q})"]
    return []


def _check_adjointness(
    s: StructureEquations, h: HermitianMetric, rng: random.Random
) -> list[str]:
    n = s.n
    for _ in range(20):
        p = rng.randint(0, n - 1)
        q = rng.randint(0, n)
        a = _random_form(n, p, q, rng)
        b = _random_form(n, p + 1, q, rng)
        if h.pairing(s.del_(a), b) != h.pairing(a, h.del_adjoint(b, s)):
            return [f"del adjointness fails on {s.name}"]
        p = rng.randint(0, n)
        q = rng.randint(0, n - 1)
        a = _random_form(n, p, q, rng)
        b = _random_form(n, p, q + 1, rng)
        if h.pairing(s.delbar(a), b) != h.pairing(a, h.delbar_adjoint(b, s)):
            return [f"delbar adjointness fails on {s.name}"]
    return []


def check_structural_identities(seed: int = DEFAULT_SEED) -> CheckResult:
    rng = random.Random(seed)
    problems: list[str] = []
    # the defining relation of the star depends only on (n, metric)
    for n in (2, 3):
        problems += _check_star_defining(n, HermitianMetric.identity(n))
        problems += _check_star_defining(n, random_positive_metric(n, rng))
    for entry, s, h in _loaded_corpus():
        n = s.n
        problems += _check_operator_identities(s)
        problems += _check_leibniz(s, rng, 100)
        problems += _check_adjointness(s, h, rng)
        # star duality + quotient-vs-harmonic agreement + Euler characteristic
        bidegrees = [(p, q) for p in range(n + 1) for q in range(n + 1)]
        bc_dims = {pq: bc_cohomology(s, *pq).dim for pq in bidegrees}
        a_dims = {pq: aeppli_cohomology(s, *pq).dim for pq in bidegrees}
        bc_harmonic = {pq: harmonic_space("bc", s, h, *pq) for pq in bidegrees}
        a_harmonic = {pq: harmonic_space("a", s, h, *pq) for pq in bidegrees}
        for p, q in bidegrees:
            hb = bc_harmonic[(p, q)]
            if hb.dim != bc_dims[p, q] or a_harmonic[(p, q)].dim != a_dims[p, q]:
                problems.append(f"{entry.name}: quotient/harmonic mismatch at ({p},{q})")
            # the star maps one harmonic theory onto the other
            mons = basis(n, p, q)
            dual_mons = basis(n, n - p, n - q)
            dual = a_harmonic[(n - p, n - q)]
            for v in hb.rows:
                starred = h.star(row_to_form(n, v, mons))
                if not dual.contains(form_to_row(starred, dual_mons)):
                    problems.append(
                        f"{entry.name}: star image of harmonic BC not Aeppli-harmonic"
                    )
        for (p, q), dim in bc_dims.items():
            if dim != a_dims[(n - p, n - q)]:
                problems.append(f"{entry.name}: star duality fails at ({p},{q})")
        euler = sum(
            (-1) ** k * de_rham_cohomology(s, k).dim for k in range(2 * n + 1)
        )
        if euler != 0:
            problems.append(f"{entry.name}: de Rham Euler characteristic {euler} != 0")
        for p in range(n + 1):
            if bc_dims[(p, 0)] != closed_p0_space(s, p).dim:
                problems.append(f"{entry.name}: H_BC^({p},0) != closed (p,0) space")
    if problems:
        return CheckResult("structural-identities", False, "; ".join(problems[:8]))
    return CheckResult(
        "structural-identities", True,
        "d^2, del/delbar identities, Leibniz, star defining relation, "
        "adjointness, star duality, quotient==harmonic, Euler characteristic: all exact",
    )


# -- criterion 8: Lefschetz injectivity ----------------------------------------------


def check_lefschetz_rank(seed: int = DEFAULT_SEED) -> CheckResult:
    rng = random.Random(seed)
    cases = 0
    pool: dict[int, list[HermitianMetric]] = {}
    for entry, s, h in _loaded_corpus():
        n = s.n
        if n not in pool:
            pool[n] = [HermitianMetric.identity(n)] + _seeded_metrics(n, 10, rng)
        metrics = [h] + pool[n]
        for hm in metrics:
            for p in range(1, n):
                src = basis(n, p, 0)
                dst = basis(n, n, n - p)
                m = _matrix_for(
                    lambda mono: hm.lefschetz(Form(n, {mono: ONE}, _validated=True), n - p),
                    n, src, dst,
                )
                want = len(src)
                if rank(m) != want:
                    return CheckResult(
                        "lefschetz-rank", False,
                        f"{entry.name}: omega^{n - p} wedge on ({p},0) not injective",
                    )
                cases += 1
    return CheckResult(
        "lefschetz-rank", True,
        f"full rank C(n,p) in {cases} (algebra, metric, p) cases",
    )


# -- corpus expectation checks (used by the command-line verifier) ---------------------


def _dims(group, s: StructureEquations, cells) -> dict:
    return {(p, q): group(s, p, q).dim for p, q in cells}


def _reps(group, s: StructureEquations, cells) -> dict:
    return {
        (p, q): [render_form(f) for f in group(s, p, q).representatives]
        for p, q in cells
    }


def _f1f2_closed(s: StructureEquations) -> bool:
    v = form_to_row(Form.monomial(s.n, [1, 2], []), basis(s.n, 2, 0))
    return closed_p0_space(s, 2).contains(v)


# Expectation key -> (check label, computes from (s, h, expected value) the
# value that must equal it, whether that value is the check's detail).
# Checks are emitted in this order.  A key mapped to None is a modifier:
# `X_complete` makes the table of `X` cover every bidegree, unlisted ones 0.
_EXPECTATION_CHECKS = {
    "flags": ("flags", lambda s, h, want: asdict(s.flags), True),
    "bc_dims": ("bott-chern dims", lambda s, h, want: _dims(bc_cohomology, s, want), False),
    "bc_dims_complete": None,
    "bc_reps": (
        "bott-chern representatives", lambda s, h, want: _reps(bc_cohomology, s, want), False
    ),
    "aeppli_dims": (
        "aeppli dims", lambda s, h, want: _dims(aeppli_cohomology, s, want), False
    ),
    "aeppli_reps": (
        "aeppli representatives", lambda s, h, want: _reps(aeppli_cohomology, s, want), False
    ),
    "dolbeault_dims": (
        "dolbeault dims", lambda s, h, want: _dims(dolbeault_cohomology, s, want), False
    ),
    "derham_dims": (
        "de rham dims", lambda s, h, want: {k: de_rham_cohomology(s, k).dim for k in want}, False
    ),
    "metric_class": ("metric class", lambda s, h, want: asdict(classify_metric(s, h)), True),
    "skt_identity": (
        "pluriclosed identity metric", lambda s, h, want: classify_metric(s, h).skt, False
    ),
    "closed_10_dim": (
        "closed (1,0) dimension", lambda s, h, want: closed_p0_space(s, 1).dim, False
    ),
    "bc20_contains_f1f2": ("f1^f2 closed", lambda s, h, want: _f1f2_closed(s), False),
    "star_f1F1": (
        "star of f1^F1",
        lambda s, h, want: render_form(h.star(Form.monomial(s.n, [1], [1]))),
        True,
    ),
    "aeppli_vanishes": (
        "aeppli class decisions",
        lambda s, h, want: {p: aeppli_class_vanishes(s, h, p).vanishes for p in want},
        False,
    ),
}


def _expected(exp: dict, key: str, n: int):
    want = exp[key].value
    complete = exp.get(f"{key}_complete")
    if complete is not None and complete.value:
        want = {(p, q): want.get((p, q), 0) for p in range(n + 1) for q in range(n + 1)}
    return want


def _check_entry_expectations(name: str) -> list[CheckResult]:
    entry, s, h = _loaded(name)
    results = []

    def record(label: str, ok: bool, detail: str = ""):
        results.append(CheckResult(f"{entry.name}: {label}", ok, detail))

    exp = entry.expected
    for key, check in _EXPECTATION_CHECKS.items():
        if key in exp and check is not None:
            label, compute, show = check
            want = _expected(exp, key, s.n)
            got = compute(s, h, want)
            record(label, got == want, f"{got}" if show else "")
    for key in exp:
        if key not in _EXPECTATION_CHECKS:
            record(f"unknown expectation {key!r}", False, "no check reads this key")
    # theorem-level consistency for every p where the class is defined
    for p in range(1, s.n):
        check = verify_vanishing_theorem(s, h, p)
        record(
            f"vanishing implication p={p}",
            check.status == "CONSISTENT",
            check.note or check.status,
        )
    if s.flags.nilpotent:
        report = salamon_h10_check(s, [h])
        record(
            "nilpotent closed (1,0) direction",
            report.closed_10_dim >= 1
            and all(c["consistent"] for c in report.metric_checks),
        )
    return results


def corpus_checks(scope: str = "all") -> list[CheckResult]:
    out: list[CheckResult] = []
    for name in CORPUS if scope == "all" else [scope]:
        out.extend(_check_entry_expectations(name))
    return out


CRITERIA = [
    ("star-identity", check_star_identity),
    ("adjoint-annihilation", check_adjoint_annihilation),
    ("sl2c-vanishing", lambda seed: check_sl2c()),
    ("calabi-eckmann-tables", lambda seed: check_calabi_eckmann()),
    ("secondary-kodaira", check_secondary_kodaira),
    ("skt-family", check_skt_family),
    ("structural-identities", check_structural_identities),
    ("lefschetz-rank", check_lefschetz_rank),
]


def run_criteria(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    return [func(seed) for _, func in CRITERIA]


def run_all(scope: str = "all", seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Corpus expectation checks plus the full criteria suite."""
    results = corpus_checks(scope)
    if scope == "all":
        results.extend(run_criteria(seed))
    return results
