"""Two-sided norm comparisons with explicit constants.

The collapse of the Morrey-weighted scales onto the infinity-infinity scale
holds with lower constant exactly 1 and upper constant

    C = (1 - 2**(-n (tau - 1/p) q)) ** (-1/q)      (q < inf, tau > 1/p)
    C = 1                                          (q = inf, tau >= 1/p)

obtained by summing the geometric tail of per-level weights.  This module
verifies the bounds sample-by-sample, together with the exact identities
between the Carleson-style norms and their Morrey-weighted counterparts and
the constant-1 Hoelder embeddings.

Each check takes one sequence, a list of them or a ``Forest``, and
evaluates the samples as one forest: a compile and one kernel call per norm
for the whole set, with every sample's log2 norm in one array.  One
report driver, ``_report``, turns those arrays into every check's ratios,
worst ratios and CSV rows by array operations, each ratio by the scalar
``log2_to_linear``.  ``_collapse`` checks a list of tau, as ``sweep`` runs
one (p, q) of its grid, from one kernel per root for all of them.
``random_sample_set`` draws its samples straight into a forest, with one
sort per root and no ``CubeSequence`` per sample, so what is left of its
time is mostly numpy's random draws.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Sequence

import numpy as np

from ._geometry import Geometry, depth_first
from ._log2 import INF, NEG_INF, geometric_tail_log2, inv, log2_to_linear
from .dyadic import DyadicCube
from .seqspace import CubeSequence, Family, Forest, ParamError, SpaceParams, check_exponents


def identity_tolerance(p: float, q: float) -> float:
    """Relative tolerance for identity checks.

    Powering by large exponent ratios amplifies rounding, so the tolerance
    relaxes from 1e-12 to 1e-9 once the exponent ratio exceeds 8.  Raises
    ``ParamError`` unless both exponents are positive (``check_exponents``).
    """
    check_exponents(p, q)
    p, q = float(p), float(q)
    if p == INF or q == INF:
        return 1e-12
    ratio = max(p / q, q / p)
    return 1e-9 if ratio > 8 else 1e-12


def collapse_upper_constant_log2(s, tau, p, q, n: int) -> float:
    """log2 of the upper constant of the infinity-infinity collapse."""
    tau, p, q = float(tau), float(p), float(q)
    delta = tau - inv(p)
    if q == INF:
        if delta < 0:
            raise ParamError("q = inf requires tau >= 1/p", rule="Theorem 1")
        return 0.0
    if delta <= 0:
        raise ParamError("q < inf requires tau > 1/p", rule="Theorem 1")
    return geometric_tail_log2(n * delta, q)


@dataclass
class EquivalenceReport:
    """Outcome of a two-sided comparison over one or many sample sequences."""

    check: str
    lower_ok: bool
    upper_ok: bool
    lower_constant: float
    upper_constant: float
    worst_ratio_low: float
    worst_ratio_high: float
    samples: int
    tol: float
    vacuous: int = 0
    rows: list[tuple[int, float, float]] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return self.lower_ok and self.upper_ok


def _forest(t) -> Forest:
    """The samples of a check, one sequence or many, as a ``Forest``."""
    if isinstance(t, Forest):
        return t
    return Forest([t] if isinstance(t, CubeSequence) else t)


def _uniform_dim(forest: Forest) -> int:
    """Ambient dimension shared by a batch (the constants depend on it)."""
    dims = {root.dim for root in forest.roots}
    if len(dims) > 1:
        raise ValueError(f"mixed dimensions in one comparison batch: {sorted(dims)}")
    return dims.pop() if dims else 1


def _report(
    check: str,
    num: np.ndarray,
    den: np.ndarray,
    lower_constant: float,
    upper_constant: float,
    tol: float,
    ordered: bool = False,
) -> EquivalenceReport:
    """Check lower (1 - tol) <= ratio <= upper (1 + tol) over every sample.

    ``num`` and ``den`` hold log2 norms, a row per sample and a column per
    ratio, one or two.  Sample i has the ratio 2**(num[i, c] - den[i, c])
    of each column c, in order, but none where both sides are -inf; a
    sample without ratios is vacuous.  A sample's CSV row holds its first
    and its last ratio, or with ``ordered`` the two sorted.  When every
    sample is vacuous, both worst ratios read ``lower_constant``.
    """
    kept = (num != NEG_INF) | (den != NEG_INF)
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN ratio, as 2.0 ** nan
        exponents = (num - den)[kept]
    ratios = list(map(log2_to_linear, exponents.tolist()))  # sample by sample
    table = np.zeros(num.shape)
    table[kept] = ratios
    first = np.where(kept[:, 0], table[:, 0], table[:, -1])
    last = np.where(kept[:, -1], table[:, -1], table[:, 0])
    if ordered:  # as ``sorted`` orders two values: swapped when the second is less
        swap = last < first
        first, last = np.where(swap, last, first), np.where(swap, first, last)
    i = np.flatnonzero(kept.any(axis=1))
    rows = list(zip(i.tolist(), first[i].tolist(), last[i].tolist()))
    if rows:  # from +-inf, as a running extreme starts: a NaN ratio never wins
        worst_low, worst_high = min(INF, *ratios), max(NEG_INF, *ratios)
    else:
        worst_low = worst_high = lower_constant
    n = num.shape[0]
    return EquivalenceReport(
        check,
        worst_low >= lower_constant * (1.0 - tol),
        worst_high <= upper_constant * (1.0 + tol),
        lower_constant,
        upper_constant,
        worst_low,
        worst_high,
        n,
        tol,
        n - len(rows),
        rows,
    )


def _collapse(
    check: str, t, s, taus: list, p, q, family: Family, tol: float, homogeneous: bool = True
) -> list[EquivalenceReport]:
    """Collapse onto the infinity-infinity scale: 1 <= norm / f_inf_inf <= C,
    a report for each of ``taus``, from one kernel per root of the forest.

    The inhomogeneous scale has no coarser frequencies to compare against, so
    there every sequence must be supported at levels >= 0.
    """
    forest = _forest(t)
    if not homogeneous and any(geo.m and geo.level.min() < 0 for _, geo in forest._groups):
        raise ParamError(
            "inhomogeneous comparison requires support at levels >= 0",
            rule="Definition 5",
        )
    rows = [SpaceParams(family, s, tau, p, q, homogeneous=homogeneous) for tau in taus]
    for params in rows:
        check_exponents(params.p, params.q, params.tau)  # tau < 0 before the region rule
    n_dim = _uniform_dim(forest)
    upper, inf_inf = [], []
    for params in rows:
        c_log2 = collapse_upper_constant_log2(params.s, params.tau, params.p, params.q, n_dim)
        s_eff = params.s + n_dim * (params.tau - inv(params.p))
        upper.append(log2_to_linear(c_log2))
        inf_inf.append(SpaceParams(Family.F_INF_INF, s_eff, 0, INF, INF))
    return [
        _report(check, num[:, None], forest.log2_norms(den)[:, None], 1.0, c, tol)
        for num, den, c in zip(forest.log2_norm_rows(rows), inf_inf, upper)
    ]


def check_collapse_f(t, s, tau, p, q, tol: float = 1e-9) -> EquivalenceReport:
    """Two-sided collapse check for the Triebel-Lizorkin-type scale."""
    return _collapse("collapse_f", t, s, [tau], p, q, Family.F_TYPE, tol)[0]


def check_collapse_b(t, s, tau, p, q, tol: float = 1e-9) -> EquivalenceReport:
    """Two-sided collapse check for the Besov-type scale (p = inf allowed)."""
    return _collapse("collapse_b", t, s, [tau], p, q, Family.B_TYPE, tol)[0]


def check_collapse_inhomogeneous(t, s, tau, p, q, family: str = "f", tol: float = 1e-9) -> EquivalenceReport:
    """Inhomogeneous collapse check; constants identical to the homogeneous case.

    Sequences must be supported at levels >= 0.
    """
    fam = Family.F_TYPE if family == "f" else Family.B_TYPE
    return _collapse(
        f"collapse_inhomogeneous_{family}", t, s, [tau], p, q, fam, tol, homogeneous=False
    )[0]


def check_holder_embeddings(t, s, tau, p, q, tol: float | None = None) -> EquivalenceReport:
    """Constant-1 embeddings into the diagonal scale at shifted Morrey exponent.

    For q > p, both the F-type and the B-type norms at (s, tau, p, q) are
    dominated by the diagonal Besov-type norm at exponent tau + 1/q - 1/p;
    Hoelder's inequality on the cube carries the measure factor into the
    exponent shift, with constant exactly 1.  Each sample's ratios are
    (F, B), in that order.
    """
    params_b = SpaceParams(Family.B_TYPE, s, tau, p, q)
    if not params_b.q > params_b.p:
        raise ParamError(f"the embedding needs q > p, got p={p}, q={q}")
    params_f = SpaceParams(Family.F_TYPE, s, tau, p, q)  # q > p makes p finite
    if tol is None:
        tol = identity_tolerance(params_b.p, params_b.q)
    tau_shift = params_b.tau + inv(params_b.q) - inv(params_b.p)
    diag = SpaceParams(Family.B_TYPE, s, tau_shift, q, q)
    forest = _forest(t)
    rhs = forest.log2_norms(diag, allow_negative_tau=True)
    f = forest.log2_norms(params_f)
    b = forest.log2_norms(params_b)
    return _report(
        "holder_embeddings", np.column_stack([f, b]), np.column_stack([rhs, rhs]), 0.0, 1.0, tol
    )


def check_exact_identities(t, s, p, q, r, tol: float | None = None) -> EquivalenceReport:
    """Exact identities: Carleson-style norms equal their Morrey-weighted twins.

    Each sample's ratios are sorted, so its CSV row reads (min, max) over the
    two identity pairs.
    """
    cmo = SpaceParams(Family.CMO, s, r, q, q)
    bbmo = SpaceParams(Family.BBMO, s, 0, p, q)
    if tol is None:
        tol = identity_tolerance(bbmo.p, bbmo.q)
    if cmo.q == INF:
        twin = SpaceParams(Family.F_INF_INF, s, 0, INF, INF)
    else:
        twin = SpaceParams(Family.F_TYPE, s, cmo.tau / cmo.q, q, q)
    forest = _forest(t)
    a = forest.log2_norms(cmo)
    b = forest.log2_norms(twin)
    c = forest.log2_norms(bbmo)
    d = forest.log2_norms(SpaceParams(Family.B_TYPE, s, inv(bbmo.p), p, q))
    return _report(
        "exact_identities", np.column_stack([a, c]), np.column_stack([b, d]), 1.0, 1.0, tol,
        ordered=True,
    )


# ---------------------------------------------------------------------------
# sample generation
# ---------------------------------------------------------------------------


# The sample bound: a sample set holds at most this many nodes in all.  Each
# level of a sample is refused before its draw when its children could take
# the set past the bound, and a set of more samples than the bound (each
# has its root) is refused before any draw.  Sample sets peak at about
# 350 bytes a node on a 64-bit CPython, so the bound keeps one under 400 MB.
SAMPLE_NODE_BOUND = 1 << 20


def check_sample_count(count: int) -> None:
    """Refuse a set of more samples than the sample bound, each having its root."""
    if count > SAMPLE_NODE_BOUND:
        raise ParamError(
            f"{count} samples need at least {count} nodes, over the bound of "
            f"{SAMPLE_NODE_BOUND}", rule="sample bound"
        )


def _check_dims(dims) -> None:
    """Refuse no dimensions, or one that is not a positive int (a bool is not one)."""
    if not dims:
        raise ValueError(f"dims must name at least one dimension, got {dims!r}")
    if not all(isinstance(d, Integral) and not isinstance(d, bool) and d > 0 for d in dims):
        raise ValueError(f"dims must be positive ints, got {dims!r}")


def _check_retain(retain: float) -> None:
    """Refuse a survival probability outside [0, 1], NaN included."""
    if not 0.0 <= retain <= 1.0:
        raise ValueError(f"retain must lie in [0, 1], got {retain}")


def _grow(
    rng: np.random.Generator, n: int, max_depth: int, retain: float, node_bound: int
) -> tuple[list[int], list[int]]:
    """The Z-order paths below the root and the depths of a random subtree
    of the n-dimensional dyadic tree, grown a level at a time: one
    ``rng.random`` draw per level, a value per child in child-code order,
    each child surviving when its value is below ``retain``.  A level whose
    children could take the tree past ``node_bound`` nodes is refused before
    its draw [sample bound]."""
    codes = range(1 << n)
    frontier, paths, depths = [0], [0], [0]
    for depth in range(1, max_depth + 1):
        size = len(frontier) << n
        if len(paths) + size > node_bound:
            raise ParamError(
                f"level {depth} of a sample could take it to {len(paths) + size} nodes, "
                f"over the {node_bound} left to it", rule="sample bound"
            )
        draws = rng.random(size=size).tolist()
        children = [p << n | c for p in frontier for c in codes]
        frontier = [c for c, x in zip(children, draws) if x < retain]
        if not frontier:
            break
        paths += frontier
        depths += [depth] * len(frontier)
    return paths, depths


def random_sequence(
    rng: np.random.Generator,
    dim: int,
    max_depth: int,
    retain: float = 0.6,
    log2_low: float = -20.0,
    log2_high: float = 20.0,
    root: DyadicCube | None = None,
    node_bound: int = SAMPLE_NODE_BOUND,
) -> CubeSequence:
    """Random subtree of the dyadic tree under the root.

    The root is always kept; each child of a kept cube survives with
    probability ``retain`` down to the depth bound.  Magnitudes are log2-
    uniform over [log2_low, log2_high], exercising extreme dynamic range.
    The tree grows a level at a time as Z-order paths below the root, a
    child's path being its parent's shifted by ``dim`` bits with the child
    code below (``_grow``), then one ``rng.uniform`` draw gives every node
    its magnitude.  A level whose children could take the tree past
    ``node_bound`` nodes is refused before its draw [sample bound].  The
    paths go straight to the keyed constructor, with no re-validation.
    Raises ValueError, before any draw, for a ``dim`` that is not a positive
    int, a negative depth or a ``retain`` outside [0, 1].
    """
    _check_dims((dim,))
    if max_depth < 0:
        raise ValueError(f"depth must be >= 0, got {max_depth}")
    _check_retain(retain)
    if root is None:
        root = DyadicCube.unit(dim)
    elif root.dim != dim:
        raise ValueError(f"the root {root} has dimension {root.dim}, not dim {dim}")
    paths, depths = _grow(rng, dim, max_depth, retain, node_bound)
    log2t = rng.uniform(log2_low, log2_high, size=len(paths))
    return CubeSequence._from_paths(root, max_depth, paths, depths, log2t)


def random_sample_set(
    seed: int,
    count: int,
    dims: Sequence[int] = (1, 2),
    depth_1d: int = 10,
    depth_nd: int = 5,
    retain: float = 0.6,
) -> Forest:
    """Deterministic batch of random sequences cycling over the dimensions,
    at most ``SAMPLE_NODE_BOUND`` nodes in all [sample bound], as a
    ``Forest``.

    Sample i has dimension ``dims[i % len(dims)]``, a depth bound drawn by
    one ``rng.integers`` up to its cap, and the draws of ``random_sequence``
    under the unit cube.  The records of the samples under each root are
    sorted once, by (sample, key, depth) in one ``depth_first`` call, and
    those arrays compile into the forest's geometry at its first norm call;
    a sample's own ``CubeSequence`` is built only when the forest is
    indexed.  Raises ValueError, before any draw, for a negative count, no
    dimensions, a dimension that is not a positive int (a bool is not one),
    a negative depth cap or a ``retain`` outside [0, 1].
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    _check_dims(dims)
    _check_retain(retain)
    check_sample_count(count)
    if min(depth_1d if dim == 1 else depth_nd for dim in dims) < 0:
        raise ValueError(f"depth caps must be >= 0, got {depth_1d} and {depth_nd}")
    rng = np.random.default_rng(seed)
    sets = {dim: _SampleSet(DyadicCube.unit(dim)) for dim in dims}
    where = []  # each sample's set and its segment there
    below = SAMPLE_NODE_BOUND - count  # the nodes left below the samples' roots
    for i in range(count):
        dim = dims[i % len(dims)]
        depth_cap = depth_1d if dim == 1 else depth_nd
        depth = int(rng.integers(0, depth_cap + 1))
        paths, depths = _grow(rng, dim, depth, retain, 1 + below)
        below -= len(paths) - 1
        log2t = rng.uniform(-20.0, 20.0, size=len(paths))
        where.append(sets[dim].add(i, depth, paths, depths, log2t))
    sorted_sets = [s.sort() for s in sets.values() if s.idx]
    return Forest._of(
        count, lambda i: where[i][0].sample(where[i][1]),
        [s.root for s in sorted_sets], [(s.idx, s.geometry) for s in sorted_sets],
    )


class _SampleSet:
    """The samples of a set under one root.  They are drawn one at a time
    into set-wide lists of paths, depths, sample numbers and log2
    magnitudes; ``sort`` then orders the records by (sample, key, depth) in
    one ``depth_first`` call, the keys as wide as the deepest record: the
    arrays of the forest's geometry."""

    def __init__(self, root: DyadicCube):
        self.root = root
        self.idx, self.max_depth = [], []  # each sample's position in the set, depth bound
        self._paths, self._depths, self._segment, self._log2t = [], [], [], []

    def add(self, i, max_depth, paths, depths, log2t) -> tuple["_SampleSet", int]:
        """Add the records of the set's sample i; returns this set and the
        sample's segment in it."""
        s = len(self.idx)
        self.idx.append(i)
        self.max_depth.append(max_depth)
        self._paths += paths
        self._depths += depths
        self._segment += [s] * len(paths)
        self._log2t.append(log2t)
        return self, s

    def sort(self) -> "_SampleSet":
        log2t = np.concatenate(self._log2t)
        self.width, self.key, self.depth, order = depth_first(
            self.root, self._paths, self._depths, log2t > NEG_INF, self._segment
        )
        self.log2t = log2t[order]
        segment = np.asarray(self._segment, dtype=np.int64)[order]
        self.seg_lo = np.searchsorted(segment, np.arange(len(self.idx) + 1))
        del self._paths, self._depths, self._segment, self._log2t
        self._geometry = None
        return self

    def geometry(self) -> Geometry:
        """The set's geometry, compiled on the first call and shared by
        every forest of the set."""
        if self._geometry is None:
            self._geometry = Geometry.from_sorted(
                self.root, self.width, self.key, self.depth, self.log2t, self.seg_lo
            )
        return self._geometry

    def sample(self, s: int) -> CubeSequence:
        """Sample s as ``random_sequence`` gives it: its keys narrowed to
        its own deepest record."""
        a, b = self.seg_lo[s : s + 2].tolist()
        depth = self.depth[a:b]
        width = max(depth)  # each sample has its root
        shift = self.root.dim * (self.width - width)
        key = [k >> shift for k in self.key[a:b]]
        return CubeSequence(self.root, self.max_depth[s], width, key, depth, self.log2t[a:b])

