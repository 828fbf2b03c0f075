"""Nested-tower counterexample sequences and growth certification.

The tower witness places one coefficient on each cube [0, 2**-j)**n for
j = 0..J, with magnitude |R_j| ** (s/n + 1/2 + tau - 1/p).  On this family
the coarse-exponent Besov norm grows without bound in J while the target
norm stays under an explicit geometric-series bound, certifying that the two
scales cannot be equivalent.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._log2 import INF, NEG_INF, exact_inv, geometric_tail_log2, inv, log2_sum, nums
from .dyadic import DyadicCube
from .seqspace import CubeSequence, Family, Forest, ParamError, SpaceParams, check_exponents

DEFAULT_DEPTHS_1D = (4, 8, 16, 32, 64)
DEFAULT_DEPTHS_ND = (4, 8, 16)

# The depth bound: every norm of a depth-J tower expands about J**2 / 2
# (cube, node) pairs.  One certification takes 2.5-3.4 s at depth 8192 and
# 9-10.4 s at 16384 (the CLI, start-up included, on a shared 2-vCPU x86-64
# virtual machine: Intel Xeon, Python 3.11.7, numpy 2.4.6); deeper towers
# are refused before any is built.  A list of depths is one forest, whose
# pairs add up over its towers, so a list is refused when its sum of J**2
# exceeds that of two towers at the bound (16384,16384 took 17.4 s).
DEPTH_BOUND = 1 << 14
DEPTH_SQUARES_BOUND = 2 * DEPTH_BOUND**2

# Float noise of a log-norm sequence, relative to its largest magnitude.  The
# rise from the first to the last depth and the fitted slope must both exceed
# it before "diverges" is claimed, whatever the sign of the values.
_DIVERGENCE_MARGIN = 1e-12
# Fraction of the known theoretical growth exponent the fit must reach.
_FIT_FRACTION = 0.8


@dataclass(frozen=True)
class TowerWitness:
    s: float
    tau: float
    p: float
    dim: int
    depth: int
    sequence: CubeSequence


@dataclass(frozen=True)
class GrowthReport:
    """Norm growth of a witness family along a truncation-depth schedule."""

    space: str
    depths: tuple[int, ...]
    log2_values: tuple[float, ...]
    fitted_exponent: float
    verdict: str  # "bounded" | "diverges"
    theoretical_exponent: float | None = None
    bound_log2: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "space": self.space,
            "depths": list(self.depths),
            "log2_values": list(self.log2_values),
            "fitted_exponent": self.fitted_exponent,
            "verdict": self.verdict,
            "theoretical_exponent": self.theoretical_exponent,
            "bound_log2": self.bound_log2,
        }


def build_tower(s: float, tau: float, p: float, n: int, J: int) -> TowerWitness:
    """Truncated nested tower with magnitudes computed in the log domain."""
    if J < 0:
        raise ValueError("J must be >= 0")
    exponent = float(s) + n / 2.0 + n * (float(tau) - inv(p))
    log2t = np.array([-j * exponent for j in range(J + 1)])
    if not (log2t < INF).all():
        raise ValueError(f"non-finite log2 magnitudes in the tower at exponent {exponent}")
    # every cube of the tower has the path 0 below the root
    seq = CubeSequence._from_paths(DyadicCube.unit(n), J, [0] * (J + 1), range(J + 1), log2t)
    return TowerWitness(float(s), float(tau), float(p), n, J, seq)


def tower_b_closed_form(tau: float, p: float, q: float, n: int, J: int) -> float:
    """log2 of the coarse-exponent Besov norm of the depth-J tower.

    For q < inf this is sup_k 2**(k n a') * (sum_{j=k..J} 2**(-j n a))**(1/q)
    with a = (tau - 1/p) q + 1 and a' = tau + 1/q - 1/p; at q = inf the inner
    sum becomes a supremum.  The value does not depend on s.
    """
    tau, p, q = float(tau), float(p), float(q)
    delta = tau - inv(p)
    if q == INF:
        # weights grow toward depth J whenever delta < 0
        return max(
            k * n * delta + max(-j * n * delta for j in range(k, J + 1))
            for k in range(J + 1)
        )
    a = delta * q + 1.0
    a_prime = tau + 1.0 / q - inv(p)
    best = NEG_INF
    for k in range(J + 1):
        tail = log2_sum(np.array([-j * n * a for j in range(k, J + 1)]))
        best = max(best, k * n * a_prime + tail / q)
    return best


def separation_f_bound_log2(tau: float, p: float, n: int) -> float:
    """log2 of the uniform geometric-series bound for the F-side tower norm."""
    return geometric_tail_log2(n * float(tau), float(p))


def separation_b_bound_log2(tau: float, q: float, n: int) -> float:
    """log2 of the uniform bound for the B-side tower norm (0 when q = inf)."""
    if float(q) == INF:
        return 0.0
    return geometric_tail_log2(n * float(tau), float(q))


def _fit_exponent(depths, log2_values) -> float:
    """Least-squares slope of log2 norm against log2 depth, over the depths
    above 0 (depth 0 has no log2); 0.0 unless two of them differ, as no
    slope fits a single depth."""
    depths = np.asarray(depths, dtype=float)
    fit = depths > 0
    if len(set(depths[fit].tolist())) < 2:
        return 0.0
    return float(np.polyfit(np.log2(depths[fit]), np.asarray(log2_values)[fit], 1)[0])


def _divergence_report(space, depths, values, theoretical) -> GrowthReport:
    fitted = _fit_exponent(depths, values)
    noise = _DIVERGENCE_MARGIN * max(1.0, *(abs(v) for v in values))
    ok = values[-1] - values[0] > noise and fitted > noise
    if theoretical is not None:
        ok = ok and fitted >= _FIT_FRACTION * theoretical
    return GrowthReport(
        space,
        tuple(depths),
        tuple(values),
        fitted,
        "diverges" if ok else "bounded",
        theoretical_exponent=theoretical,
    )


def _bounded_report(space, depths, values, bound_log2) -> GrowthReport:
    fitted = _fit_exponent(depths, values)
    within = all(v <= bound_log2 + 1e-9 for v in values)
    return GrowthReport(
        space,
        tuple(depths),
        tuple(values),
        fitted,
        "bounded" if within else "diverges",
        bound_log2=bound_log2,
    )


def validate_separation_params(s, p, q, tau, family: str = "f") -> None:
    """Hypothesis region of the counterexample construction, decided exactly
    when p, q and tau are all rationals (see ``nums``), after the rules of
    every space (``check_exponents``).  Messages print the values as given."""
    pn, qn, taun = nums(p, q, tau)
    check_exponents(p, q, tau, f_type=family == "f")
    if qn <= pn:
        raise ValueError(f"the counterexample needs q > p, got p={p}, q={q}")
    if qn == INF:
        lo_ok = taun > 0 if family == "f" else taun >= 0
        if not (lo_ok and taun < exact_inv(pn)):
            raise ValueError(
                f"with q = inf the counterexample needs tau in "
                f"{'(0, 1/p)' if family == 'f' else '[0, 1/p)'}, got tau={tau}"
            )
    elif not 0 < taun <= exact_inv(pn) - exact_inv(qn):
        raise ValueError(f"the counterexample needs tau in (0, 1/p - 1/q], got tau={tau}")


def certify_separation(
    s: float,
    p: float,
    q: float,
    tau: float,
    n: int = 1,
    depths: tuple[int, ...] | None = None,
    family: str = "f",
) -> tuple[GrowthReport, GrowthReport]:
    """Grow the tower and certify (divergent coarse norm, bounded target norm).

    ``family`` selects the bounded side: "f" for the Triebel-Lizorkin-type
    target, "b" for the Besov-type target.
    """
    if family not in ("f", "b"):
        raise ValueError(f"family must be 'f' or 'b', got {family!r}")
    validate_separation_params(s, p, q, tau, family)
    s, p, q, tau = float(s), float(p), float(q), float(tau)
    if depths is None:
        depths = DEFAULT_DEPTHS_1D if n == 1 else DEFAULT_DEPTHS_ND
    depths = tuple(int(J) for J in depths)
    for J in depths:
        if not 0 <= J <= DEPTH_BOUND:
            raise ParamError(
                f"tower depth {J} outside 0..{DEPTH_BOUND}", rule="depth bound"
            )
    squares = sum(J * J for J in depths)
    if squares > DEPTH_SQUARES_BOUND:
        raise ParamError(
            f"{len(depths)} tower depths with squares summing to {squares}, over the "
            f"bound of {DEPTH_SQUARES_BOUND} (two towers at depth {DEPTH_BOUND})",
            rule="depth bound",
        )

    tau_prime = tau + inv(q) - inv(p)
    coarse = SpaceParams(Family.B_TYPE, s, tau_prime, q, q)
    target = SpaceParams(Family.F_TYPE if family == "f" else Family.B_TYPE, s, tau, p, q)
    # the towers share the unit root, so the schedule is one forest, a
    # segment per depth: one compile and one kernel call per side
    towers = Forest(build_tower(s, tau, p, n, J).sequence for J in depths)
    div_vals = towers.log2_norms(coarse, allow_negative_tau=True).tolist()
    tgt_vals = towers.log2_norms(target).tolist()

    if q < INF and abs(tau - (inv(p) - 1.0 / q)) < 1e-12:
        theoretical = 1.0 / q  # norm is exactly (J+1)**(1/q) at the boundary
    else:
        theoretical = None
    div_name = f"b^(s,{tau_prime:g})_({q:g},{q:g})"
    divergent = _divergence_report(div_name, depths, div_vals, theoretical)

    if family == "f":
        bound = separation_f_bound_log2(tau, p, n)
    else:
        bound = separation_b_bound_log2(tau, q, n)
    tgt_name = f"{family}^(s,{tau:g})_({p:g},{q:g})"
    bounded = _bounded_report(tgt_name, depths, tgt_vals, bound)
    return divergent, bounded

