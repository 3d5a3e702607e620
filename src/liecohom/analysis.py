"""Metric classification and vanishing analysis.

Decides the standard metric classes by exact vanishing of the defining
forms, decides whether the Aeppli class of omega^(n-p) vanishes (with an
explicit potential pair or a harmonic obstruction certificate), and
machine-checks the implication

    [omega^(n-p)]_A = 0   =>   no nonzero d-closed invariant (p,0)-forms

on concrete inputs, together with its two nilmanifold corollaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .cohomology import (
    _matrix_for,
    chain_matrix,
    form_to_row,
    harmonic_forms,
    row_to_form,
)
from .errors import PreconditionError
from .exterior import Form, basis, total_basis
from .hodge import HermitianMetric
from .linalg import Subspace, hstack, kernel_basis, solve
from .scalars import ONE, Scalar
from .structure import StructureEquations, render_form


@dataclass(frozen=True)
class MetricClass:
    kaehler: bool      # d omega = 0
    balanced: bool     # d omega^(n-1) = 0
    gauduchon: bool    # del delbar omega^(n-1) = 0
    skt: bool          # del delbar omega = 0


def classify_metric(s: StructureEquations, h: HermitianMetric) -> MetricClass:
    h.require_positive()
    h.require_size(s.n)
    omega = h.fundamental_form()
    top_minus = h.omega_power(s.n - 1)
    return MetricClass(
        kaehler=s.d(omega).is_zero(),
        balanced=s.d(top_minus).is_zero(),
        gauduchon=s.del_delbar(top_minus).is_zero(),
        skt=s.del_delbar(omega).is_zero(),
    )


@dataclass
class AeppliDecision:
    """Outcome of deciding [omega^(n-p)]_A = 0 over invariant forms.

    If it vanishes, ``mu`` and ``lam`` satisfy del mu + delbar lam =
    omega^(n-p) exactly (mu of bidegree (n-p-1, n-p), lam of (n-p, n-p-1),
    as forced by the target bidegree).  Otherwise ``obstruction`` is a
    harmonic Aeppli (n-p, n-p)-form with exactly-nonzero pairing against
    omega^(n-p), computed when the algebra is unimodular.
    """

    p: int
    vanishes: bool
    mu: Optional[Form] = None
    lam: Optional[Form] = None
    obstruction: Optional[Form] = None
    pairing: Optional[Scalar] = None

    def to_dict(self) -> dict:
        witness = None
        if self.vanishes:
            witness = {"mu": render_form(self.mu), "lambda": render_form(self.lam)}
        obstruction = None
        if self.obstruction is not None:
            obstruction = {
                "form": render_form(self.obstruction),
                "pairing": str(self.pairing),
            }
        return {
            "p": self.p,
            "vanishes": self.vanishes,
            "witness": witness,
            "obstruction": obstruction,
        }


def aeppli_class_vanishes(
    s: StructureEquations, h: HermitianMetric, p: int
) -> AeppliDecision:
    """Exact solvability of omega^(n-p) = del mu + delbar lam.

    Precondition: del delbar omega^(n-p) = 0, otherwise the Aeppli class
    does not exist.  The decision itself is metric-free linear algebra once
    omega is fixed; the obstruction certificate additionally uses harmonic
    theory and is attached only on unimodular algebras.
    """
    n = s.n
    if not (1 <= p <= n - 1):
        raise PreconditionError(f"p must be in 1..{n - 1}")
    if not s.flags.integrable:
        raise PreconditionError("Aeppli classes need an integrable structure")
    h.require_size(n)
    h.require_positive()
    m = n - p
    w = h.omega_power(m)
    if not s.del_delbar(w).is_zero():
        raise PreconditionError(
            f"del delbar omega^{m} != 0: the Aeppli class of omega^{m} is undefined"
        )
    mons = basis(n, m, m)
    mu_src = basis(n, m - 1, m)
    lam_src = basis(n, m, m - 1)
    del_m = chain_matrix(["del"], s, m - 1, m)
    delbar_m = chain_matrix(["delbar"], s, m, m - 1)
    system = hstack([del_m, delbar_m])
    sol = solve(system, form_to_row(w, mons))
    if sol is not None:
        pair = row_to_form(n, sol, mu_src + lam_src)
        mu, lam = pair.project(m - 1, m), pair.project(m, m - 1)
        if s.del_(mu) + s.delbar(lam) != w:
            raise RuntimeError("Aeppli witness does not reconstruct; engine defect")
        return AeppliDecision(p=p, vanishes=True, mu=mu, lam=lam)
    decision = AeppliDecision(p=p, vanishes=False)
    if s.flags.unimodular:
        for candidate in harmonic_forms("a", s, h, m, m):
            pairing = h.pairing(w, candidate)
            if pairing:
                decision.obstruction = candidate
                decision.pairing = pairing
                break
        else:
            raise RuntimeError(
                "class does not vanish but omega^(n-p) pairs to zero with every "
                "harmonic Aeppli form; engine defect"
            )
    return decision


@dataclass
class VanishingCheck:
    p: int
    hypothesis_defined: bool
    hypothesis_vanishes: bool
    closed_p0_dim: int
    status: str  # CONSISTENT | COUNTEREXAMPLE-AT-INVARIANT-LEVEL
    note: str = ""


def closed_p0_space(s: StructureEquations, p: int) -> Subspace:
    """d-closed invariant (p,0)-forms; equals invariant Bott-Chern H^(p,0).

    The d matrix is assembled through the Form-level ``s.d``, not the
    operator table, so this is the independent route that checks H_BC^(p,0).
    It does not depend on a metric, so each structure computes it once per p
    and keeps it (``s._closed_p0``, apart from the operator matrices)."""
    space = s._closed_p0.get(p)
    if space is None:
        n = s.n
        mons = basis(n, p, 0)
        mat = _matrix_for(
            lambda m: s.d(Form(n, {m: ONE}, _validated=True)), n, mons, total_basis(n, p + 1)
        )
        space = s._closed_p0[p] = kernel_basis(mat)
    return space


def closed_p0_forms(s: StructureEquations, p: int) -> list[Form]:
    mons = basis(s.n, p, 0)
    return [row_to_form(s.n, v, mons) for v in closed_p0_space(s, p).rows]


def verify_vanishing_theorem(
    s: StructureEquations, h: HermitianMetric, p: int
) -> VanishingCheck:
    """Check the implication: if the Aeppli class of omega^(n-p) vanishes
    then there is no nonzero d-closed invariant (p,0)-form.

    A COUNTEREXAMPLE-AT-INVARIANT-LEVEL can only mean an engine defect (or
    an invariant/manifold gap) and is treated as a hard failure by the
    verification suite.  A false hypothesis is vacuously consistent; the
    condition is sufficient, not necessary; a wrong-size metric and a p
    outside 1..n-1 (where the class of omega^(n-p) is not defined) are
    refused.
    """
    if not (1 <= p <= s.n - 1):
        raise PreconditionError(f"p must be in 1..{s.n - 1}")
    h.require_size(s.n)
    closed_dim = closed_p0_space(s, p).dim
    try:
        decision = aeppli_class_vanishes(s, h, p)
    except PreconditionError as exc:
        return VanishingCheck(
            p=p,
            hypothesis_defined=False,
            hypothesis_vanishes=False,
            closed_p0_dim=closed_dim,
            status="CONSISTENT",
            note=f"hypothesis undefined ({exc}); implication vacuous",
        )
    if decision.vanishes:
        if closed_dim == 0:
            return VanishingCheck(p, True, True, 0, "CONSISTENT")
        return VanishingCheck(
            p, True, True, closed_dim, "COUNTEREXAMPLE-AT-INVARIANT-LEVEL",
            note="vanishing Aeppli class but nonzero closed (p,0)-forms",
        )
    note = "hypothesis false; implication vacuous"
    if closed_dim == 0:
        note += " (conclusion holds anyway: the condition is sufficient, not necessary)"
    return VanishingCheck(p, True, False, closed_dim, "CONSISTENT", note)


@dataclass
class SalamonReport:
    """The dimension of the d-closed invariant (1,0)-forms, and per metric
    checked {"gauduchon", "consistent"} plus "aeppli_vanishes" where the
    metric is Gauduchon."""

    closed_10_dim: int
    metric_checks: list[dict] = field(default_factory=list)


def salamon_h10_check(
    s: StructureEquations, metrics: Sequence[HermitianMetric] = ()
) -> SalamonReport:
    """On a nilpotent integrable algebra there is a closed (1,0)-coframe
    direction, hence nonzero closed (1,0)-forms; consequently the Aeppli
    class of omega^(n-1) cannot vanish for any Gauduchon metric.  Asserts
    the first fact and cross-checks the second on the supplied metrics.
    """
    if not s.flags.nilpotent:
        raise PreconditionError("refused: the algebra is not nilpotent")
    if not s.flags.integrable:
        raise PreconditionError("refused: the structure is not integrable")
    space = closed_p0_space(s, 1)
    if space.dim == 0:
        raise RuntimeError(
            "nilpotent integrable algebra with no closed (1,0)-form; engine defect"
        )
    checks = []
    for h in metrics:
        mc = classify_metric(s, h)
        entry = {"gauduchon": mc.gauduchon, "consistent": True}
        if mc.gauduchon:
            decision = aeppli_class_vanishes(s, h, 1)
            entry["aeppli_vanishes"] = decision.vanishes
            entry["consistent"] = not decision.vanishes
        checks.append(entry)
    return SalamonReport(closed_10_dim=space.dim, metric_checks=checks)


# -- the six-dimensional SKT nilmanifold family ------------------------------------


def skt_condition(a, b, c, d, e) -> bool:
    """|A|^2 + |D|^2 + |E|^2 + 2 Re(conj(B) C) == 0, exactly."""
    a, b, c, d, e = (Scalar.coerce(x) for x in (a, b, c, d, e))
    value = a.abs2() + d.abs2() + e.abs2() + 2 * (b.conjugate() * c).re
    return value == 0


def generate_skt_family(a, b, c, d, e) -> StructureEquations:
    """The 2-step nilpotent family with two closed generators and

    d f3 = A F1^f2 + B F2^f2 + C f1^F1 + D f1^F2 + E f1^f2.
    """
    a, b, c, d, e = (Scalar.coerce(x) for x in (a, b, c, d, e))
    n = 3
    f1 = Form.monomial(n, [1], [])
    f2 = Form.monomial(n, [2], [])
    F1 = Form.monomial(n, [], [1])
    F2 = Form.monomial(n, [], [2])
    df3 = (
        F1.wedge(f2).scale(a)
        + F2.wedge(f2).scale(b)
        + f1.wedge(F1).scale(c)
        + f1.wedge(F2).scale(d)
        + f1.wedge(f2).scale(e)
    )
    return StructureEquations(
        n, [Form.zero(n), Form.zero(n), df3], name="skt-family"
    )
