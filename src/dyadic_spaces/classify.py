"""Symbolic classification of space parameters.

Maps a parameter tuple to the classical space it coincides with, the rule
that applies, and any known strict-inclusion facts.  Boundary detection is
exact when the parameters arrive as rationals; float inputs fall back to a
1e-12 tolerance and the report notes the inexact comparison.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Rational
from typing import Any

from ._log2 import INF, exact_inv, num, nums
from .seqspace import check_exponents
from .witness import GrowthReport, certify_separation

_FLOAT_TOL = 1e-12


class Verdict(str, Enum):
    TRIVIAL_POLYNOMIALS = "trivial_polynomials"
    CLASSICAL_F = "classical_F"
    CLASSICAL_B = "classical_B"
    F_INF_Q = "F_inf_q"
    F_INF_INF = "F_inf_inf"
    B_INF_INF = "B_inf_inf"
    MORREY_E = "morrey_E"
    MORREY_N = "morrey_N"
    MORREY_N_SUPERSET = "morrey_N_superset"
    STRICT_SUPERSET_B_INF_Q = "strict_superset_B_inf_q"
    Q_ALPHA = "q_alpha"
    NO_KNOWN_COINCIDENCE = "no_known_coincidence"


@dataclass(frozen=True)
class SpaceDescriptor:
    """A space to classify; for the CMO family ``tau`` carries the index r."""

    family: str  # "F_type" | "B_type" | "CMO" | "BBMO"
    s: Any
    tau: Any
    p: Any
    q: Any
    homogeneous: bool = True
    dim: int = 1


@dataclass(frozen=True)
class ClassificationReport:
    verdict: Verdict
    rule: str
    target_params: tuple[tuple[str, Any], ...] | None
    notes: tuple[str, ...] = ()
    q_alpha: bool = False

    @property
    def target(self) -> dict | None:
        return dict(self.target_params) if self.target_params is not None else None

    def to_json_dict(self) -> dict:
        target = None
        if self.target_params is not None:
            target = {k: _jsonable(v) for k, v in self.target_params}
        return {
            "verdict": self.verdict.value,
            "rule": self.rule,
            "target_params": target,
            "notes": list(self.notes),
            "q_alpha": self.q_alpha,
        }


def _jsonable(v):
    if isinstance(v, Fraction):
        return float(v)
    return v


class _Cmp:
    """Comparison of parameters normalised by ``num``: two rationals compare
    exactly, any other pair as floats within a relative tolerance of 1e-12.
    Records whether the tolerance was ever decisive."""

    def __init__(self):
        self.tolerance_used = False

    def eq(self, a, b) -> bool:
        if isinstance(a, Rational) and isinstance(b, Rational):
            return a == b
        a, b = float(a), float(b)
        if a != b and math.isclose(a, b, rel_tol=_FLOAT_TOL, abs_tol=_FLOAT_TOL):
            self.tolerance_used = True
            return True
        return a == b

    def lt(self, a, b) -> bool:
        return not self.eq(a, b) and a < b

    def gt(self, a, b) -> bool:
        return self.lt(b, a)


_INCLUSION_CHAIN_NOTES = (
    "B^s_(inf,q) is a proper subspace of B^(s,1/p)_(p,q) [Proposition 1(iii)]",
    "B^(s,1/p)_(p,q) is contained in B^(s,1/q)_(q,q) when p >= q; "
    "strictness unknown [Proposition 1(iii)]",
    "B^(s,1/q)_(q,q) is contained in B^(s,1/p)_(p,q) when p <= q; "
    "strictness unknown [Proposition 1(iii)]",
)


def classify(d: SpaceDescriptor) -> ClassificationReport:
    """Total, disjoint rule set over well-formed descriptors."""
    fam = d.family
    if fam == "CMO":
        return classify_cmo(d.s, d.q, d.tau, dim=d.dim, homogeneous=d.homogeneous)
    if fam not in ("F_type", "B_type", "BBMO"):
        raise ValueError(f"unknown family {fam!r}")
    p, q = num(d.p), num(d.q)
    check_exponents(p, q, f_type=fam == "F_type")
    inv_p = exact_inv(p)
    if fam == "BBMO":  # the B-type space at Morrey exponent 1/p
        fam, tau = "B_type", inv_p
    else:
        tau = num(d.tau)
    s = num(d.s)
    d = SpaceDescriptor(fam, s, tau, p, q, d.homogeneous, d.dim)

    cmp = _Cmp()
    notes: list[str] = []
    q_alpha = _q_alpha_condition(cmp, d)
    if q_alpha:
        notes.append(
            "coincides with the Q space of exponent alpha = s [Proposition 1(v)]"
        )

    thm_f = "Theorem 2(i)" if not d.homogeneous else "Theorem 1(i)"
    thm_b = "Theorem 2(ii)" if not d.homogeneous else "Theorem 1(ii)"

    if cmp.lt(tau, 0):
        report = ClassificationReport(
            Verdict.TRIVIAL_POLYNOMIALS,
            "Proposition 1(iv)",
            (("space", "polynomials"),),
            ("the norm vanishes identically; only polynomials belong",),
        )
    elif cmp.eq(tau, 0):
        verdict = Verdict.CLASSICAL_F if fam == "F_type" else Verdict.CLASSICAL_B
        report = ClassificationReport(
            verdict,
            "Proposition 1(i)",
            (("s", s), ("p", p), ("q", q)),
        )
    elif fam == "F_type":
        if cmp.lt(tau, inv_p):
            report = ClassificationReport(
                Verdict.MORREY_E,
                "Proposition 1(vi)",
                (("s", s), ("u", 1 / (inv_p - tau)), ("p", p), ("q", q)),
            )
        elif cmp.eq(tau, inv_p) and q != INF:
            report = ClassificationReport(
                Verdict.F_INF_Q, "Proposition 1(ii)", (("s", s), ("q", q))
            )
        else:  # tau > 1/p, or tau = 1/p with q = inf
            report = _inf_inf_report(Verdict.F_INF_INF, thm_f, d, inv_p)
    else:  # B_type
        if cmp.lt(tau, inv_p):
            if q == INF:
                report = ClassificationReport(
                    Verdict.MORREY_N,
                    "Proposition 1(vi)",
                    (("s", s), ("u", 1 / (inv_p - tau)), ("p", p), ("q", q)),
                )
            else:
                report = ClassificationReport(
                    Verdict.MORREY_N_SUPERSET,
                    "Proposition 1(vi)",
                    None,
                    (
                        "the Besov-Morrey space with 1/u = 1/p - tau is a proper "
                        "subspace; no coincidence holds [Proposition 1(vi)]",
                    ),
                )
        elif cmp.eq(tau, inv_p) and q != INF:
            report = ClassificationReport(
                Verdict.STRICT_SUPERSET_B_INF_Q,
                "Proposition 1(iii)",
                None,
                _INCLUSION_CHAIN_NOTES,
            )
        else:
            rule = "Corollary 2" if cmp.eq(tau, inv_p) else thm_b
            report = _inf_inf_report(Verdict.B_INF_INF, rule, d, inv_p)

    if q_alpha or notes or cmp.tolerance_used:
        extra = list(report.notes) + notes
        if cmp.tolerance_used:
            extra.append(
                "warning: boundary comparison used float tolerance 1e-12; "
                "pass rationals for exact classification"
            )
        report = ClassificationReport(
            report.verdict, report.rule, report.target_params, tuple(extra), q_alpha
        )
    return report


def _inf_inf_report(verdict: Verdict, rule: str, d: SpaceDescriptor, inv_p):
    delta = d.tau - inv_p
    s_eff = d.s + d.dim * delta
    notes = ()
    if not d.homogeneous and s_eff > 0:
        notes = (
            "for positive effective smoothness the inhomogeneous collapse "
            "identifies the space with the Hoelder-Zygmund scale [Theorem 2]",
        )
    return ClassificationReport(
        verdict,
        rule,
        (
            ("s_eff", s_eff),
            ("dim", d.dim),
            ("tau_minus_inv_p", delta),
        ),
        notes,
    )


def _q_alpha_condition(cmp: _Cmp, d: SpaceDescriptor) -> bool:
    if d.family != "F_type" or not d.homogeneous:
        return False
    if not (cmp.eq(d.p, 2) and cmp.eq(d.q, 2)):
        return False
    upper = min(1.0, d.dim / 2.0)
    if not (cmp.gt(d.s, 0) and cmp.lt(d.s, upper)):
        return False
    return cmp.eq(d.tau, Fraction(1, 2) - d.s * Fraction(1, d.dim))


def classify_cmo(s, q, r, dim: int = 1, homogeneous: bool = True) -> ClassificationReport:
    """Carleson-scale classification; delegates to the F rules at tau = r/q.

    For finite q the report is exactly the delegate's (the delegation identity
    is literal); q = inf is handled directly since the delegate would need an
    F-space at p = inf.
    """
    q, r = num(q), num(r)
    check_exponents(q, q)  # the delegate's p and q
    if q == INF:
        cmp = _Cmp()
        if cmp.eq(r, 1) or cmp.gt(r, 1):
            # effective smoothness s + n(r-1)/q collapses to s at q = inf
            return ClassificationReport(
                Verdict.F_INF_INF,
                "Corollary 3",
                (("s_eff", num(s)), ("dim", dim), ("tau_minus_inv_p", 0)),
            )
        return ClassificationReport(
            Verdict.NO_KNOWN_COINCIDENCE,
            "Definition 4(i)",
            None,
            ("no coincidence is on record for q = inf with r < 1",),
        )
    return classify(SpaceDescriptor("F_type", s, r / q, q, q, homogeneous, dim))


def cmo_param_of(tau, p, q):
    """The Carleson index r matching Morrey exponent tau: r = tau*q + 1 - q/p."""
    tau, p, q = num(tau), num(p), num(q)
    check_exponents(p, q)
    if q == INF:
        raise ValueError("the index mapping is undefined at q = inf")
    return tau * q - q * exact_inv(p) + 1


@dataclass(frozen=True)
class RefutationBundle:
    divergent: GrowthReport
    bounded: GrowthReport
    claim_side: ClassificationReport
    diagonal_side: ClassificationReport
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "divergent": self.divergent.to_json_dict(),
            "bounded": self.bounded.to_json_dict(),
            "claim_side": self.claim_side.to_json_dict(),
            "diagonal_side": self.diagonal_side.to_json_dict(),
            "notes": list(self.notes),
        }


def refute_claim(
    s, tau, p, q, dim: int = 1, depths: tuple[int, ...] | None = None
) -> RefutationBundle:
    """Certify numerically that the Morrey-weighted norm at (s, tau, p, q) is
    not equivalent to the diagonal norm at exponent tau + 1/q - 1/p.

    Parameters where the claimed equivalence actually holds are rejected with
    a message citing the rule that proves it.
    """
    s, tau, p, q = num(s), num(tau), num(p), num(q)
    # the region is decided on nums(); the messages and the reports take the
    # parameters one at a time, as given
    tau_d, p_d, q_d = nums(tau, p, q)
    check_exponents(p, q, tau, f_type=True)
    if q_d <= p_d:
        raise ValueError(
            f"rejected: the counterexample requires q > p (got p={p}, q={q}); "
            "at p = q the two norms are identical"
        )
    inv_p = exact_inv(p_d)
    if tau_d > inv_p:
        raise ValueError(
            f"rejected: for tau > 1/p the claimed equivalence is true "
            f"(Corollary 4); tau={tau} exceeds 1/p={float(inv_p):g}"
        )
    if tau_d == inv_p:
        raise ValueError(
            "rejected: at tau = 1/p the claimed equivalence is true "
            "(Proposition 1(ii))"
        )
    if tau_d <= 0:
        raise ValueError(
            f"rejected: the counterexample construction requires tau > 0, got {tau}"
        )
    if tau_d > inv_p - exact_inv(q_d):
        raise ValueError(
            "rejected: tau in (1/p - 1/q, 1/p) is outside the certified "
            "counterexample range (Proposition 4 hypotheses)"
        )
    divergent, bounded = certify_separation(s, p, q, tau, n=dim, depths=depths, family="f")
    claim_side = classify(SpaceDescriptor("F_type", s, tau, p, q, True, dim))
    tau_prime = tau + (exact_inv(q) - exact_inv(p))
    diagonal_side = classify(SpaceDescriptor("B_type", s, tau_prime, q, q, True, dim))
    notes = (
        "the diagonal-exponent norm grows without bound on the tower while "
        "the Morrey-weighted norm stays below its geometric bound; the two "
        "spaces are not equivalent [Proposition 4, Remark 5]",
    )
    return RefutationBundle(divergent, bounded, claim_side, diagonal_side, notes)
