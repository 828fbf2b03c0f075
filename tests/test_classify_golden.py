"""Golden digest of the classifier: the sha256 of a fixed grid of calls.

Every ``classify``, ``classify_cmo`` and ``cmo_param_of`` call of the grid
below is written as the repr of its arguments and of its result (or of the
error it raises), so a change to any verdict, rule, note, target value or the
exact/float type of a target value shows here.  The grid mixes ints,
Fractions, floats, +inf and floats within 1e-12 of a rule boundary, over all
four families, both homogeneities and dims 1 and 2.
"""
import hashlib
import math
from fractions import Fraction as F

from dyadic_spaces import SpaceDescriptor, classify, classify_cmo, cmo_param_of

INF = math.inf
S = [0, F(1, 2), 0.25, 1e-13]
TAU = [-1, 0, F(1, 4), F(1, 3), F(1, 2), 1, 2, 0.5, 0.5 + 4e-13, 1 / 3 + 1e-13, 1e-13, INF]
P = [F(1, 2), 1, 2, 3, 0.5, 2 + 1e-12, 3.0, INF]
Q = [1, 2, 4, 2 - 1e-13, INF]
SHA256 = "225cb921248f22b4a9881f4d089a744f23f856f5008b1b575a08280ea8af95ca"


def _outcome(fn, *args, **kwargs) -> str:
    try:
        return repr(fn(*args, **kwargs))
    except ValueError as exc:
        return f"ValueError: {exc}"


def _lines():
    for hom in (True, False):
        for dim in (1, 2):
            for s in S:
                for q in Q:
                    for r in TAU:
                        yield f"CMO {s!r} {q!r} {r!r} {hom} {dim}: " + _outcome(
                            classify_cmo, s, q, r, dim=dim, homogeneous=hom
                        )
                    for p in P:
                        desc = SpaceDescriptor("BBMO", s, None, p, q, hom, dim)
                        yield f"{desc!r}: {_outcome(classify, desc)}"
                        for fam in ("F_type", "B_type"):
                            for tau in TAU:
                                desc = SpaceDescriptor(fam, s, tau, p, q, hom, dim)
                                yield f"{desc!r}: {_outcome(classify, desc)}"
    for tau in TAU:
        for p in P:
            for q in Q:
                yield f"r({tau!r}, {p!r}, {q!r}): {_outcome(cmo_param_of, tau, p, q)}"


def test_classifier_grid_sha256():
    digest = hashlib.sha256("\n".join(_lines()).encode()).hexdigest()
    assert digest == SHA256
