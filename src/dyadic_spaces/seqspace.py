"""Sequence-space norms on finitely supported dyadic coefficient fields.

Evaluates the discrete Triebel-Lizorkin-type and Besov-type norms, their
infinity-infinity collapse, and the generalized Carleson-measure style norms,
for coefficient fields supported on finitely many dyadic cubes.

The outer supremum over cubes P is taken over every dyadic subcube of the
root that contains at least one support cube, plus the root itself; for
nonnegative Morrey exponents this set realizes the supremum over all dyadic
cubes (the value at any strict ancestor of the root is dominated by the value
at the root).  All arithmetic runs in the base-2 log domain.

The same argument compresses the set inside the root.  Only the root, the m
support cubes and the branch points (cubes with support under two or more
children) are evaluated: at most 2m candidates, whatever the depth.  Every
other cube in the set lies in a chain gap, between a candidate and its
nearest candidate ancestor, and contains exactly the support of the
candidate below it.  On a gap the value is therefore slope * level + X, with
X computed once per gap and the slope tau*n (F, B), r*n/q (CMO) or n/p
(BBMO, from its per-level average).  The gap's supremum sits at one end: the
coarsest cube when the slope is <= 0, else the finest, replaced by the
coarsest gap cube whose value rounds to the same float, so that ties still
go to the coarsest level, then the smallest index.

Each kernel (module ``_kernels``) evaluates the contents of all candidates
in one batched call.  The B, CMO and BBMO kernels expand (candidate, support
node) pairs, in batches of at most 2**12 pairs, and reduce them by segmented
sums and maxima, max-factored per segment: about m log m pairs on saturated
trees.  The F kernel sweeps the support depths once, touching each (support
ancestor, node) pair once, then sums each candidate's tops.  A long leaf
chain (``Geometry.chains``: one-child nodes down to a leaf, as a whole
tower) holds one node per level, and its ranges need neither: the B, CMO
and BBMO contents of all of them come from one suffix log-sum along the
chain, and F at q = inf from one stack of prefix maxima.  A tower thus
costs O(m) in every kernel but F at finite q, whose sweep still touches
about m**2 / 2 pairs on it.  No table of nodes by levels is ever built, so
memory stays O(m) plus the fixed pair batch, whatever the depth.

A sample set is evaluated as one forest, after the segmented scan of
Blelloch ("Vector Models for Data-Parallel Computing", 1990).  ``Forest``
compiles the sequences under a root into one ``Geometry``, a segment per
sequence; each kernel runs once over all segments, and a segmented maximum
gives each sequence's log2 norm, so a norm call's fixed costs are paid once
per set.  A sequence's own ``geometry`` is a forest of one; the norm
functions decode the attained cube from it, as the cube at the attained
level on the path to a node: a candidate's first node, or the support
node itself on the infinity-infinity scales.

Every input reaches the geometry through one sort, ``_geometry.depth_first``,
of records given as Z-order paths below the root with their depths and log2
magnitudes: by (key, depth), duplicates showing as equal neighbours, zeros
dropped.  ``from_records``, the one validating constructor, checks (level,
index, log2 magnitude) records, as lists or int64 arrays, in one body (root,
depth bound, index length, finite magnitudes, the key-memory bound) and
builds their paths with ``_geometry.morton_paths``.  ``random_sequence``,
``build_tower`` and the analyzer's ``coefficients`` build their paths
themselves and go through ``CubeSequence._from_paths``;
``random_sample_set`` sorts a whole set's records by (sample, key, depth)
straight into a forest.  Whether paths and sort run on int64 arrays or on
Python ints is ``_geometry``'s choice alone.  A sequence keeps the sorted
keys of its nonzero records, as wide as the deepest, with their depths and
log2 magnitudes; the cube views and ``save_jsonl`` decode the keys into
indices on use.

``load_jsonl`` reads a file as ``save_jsonl`` writes it, whatever its
record count, with one regex pass over its record lines (``_scan``),
handing int64 and float arrays to ``from_records``; every other file it
reads one JSON value a line.  The scan accepts only lines on which the two
agree, so every refusal, message and line number is the line loop's.
"""
from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._geometry import Geometry, depth_first, key_indices, morton_paths
from ._kernels import _BKernel, _FKernel
from ._log2 import INF, NEG_INF, log2_to_linear
from .dyadic import (
    _SAFE_BITS, DyadicCube, SupportTree, decimal_to_int, int_to_decimal, json_dumps,
)

class Family(str, Enum):
    F_TYPE = "F_type"
    B_TYPE = "B_type"
    CMO = "CMO"
    BBMO = "BBMO"
    F_INF_INF = "F_inf_inf"
    B_INF_INF = "B_inf_inf"


class ParamError(ValueError):
    """Invalid space parameters; ``rule`` names the violated constraint."""

    def __init__(self, message: str, rule: str | None = None):
        if rule:
            message = f"{message} [{rule}]"
        super().__init__(message)
        self.rule = rule


class SequenceFormatError(ValueError):
    """Malformed coefficient-sequence file."""


def check_exponents(p, q, tau=0, f_type: bool = False) -> None:
    """The exponent rules of every space, with one message each whichever
    entry point checks them: q > 0 and p > 0 (inf allowed; q first, as a
    CMO record's p is its q), p < inf on the F-type scale and tau >= 0.
    Values compare as given, rationals exactly, and print as given."""
    if not q > 0:
        raise ParamError(f"q must be positive, got {q}")
    if not p > 0:
        raise ParamError(f"p must be positive, got {p}")
    if f_type and p == INF:
        raise ParamError("the F-type scale requires p < inf", rule="Definition 1(i)")
    if tau < 0:
        raise ParamError(
            "tau < 0 collapses the space to polynomials; use the classifier",
            rule="Proposition 1(iv)",
        )


@dataclass(frozen=True)
class SpaceParams:
    """Parameter tuple (family, s, tau, p, q) with extended p, q in (0, inf];
    s, tau, p and q are stored as floats.

    Every norm family takes its parameters as one such record.  For CMO,
    ``tau`` carries the index r and p = q; BBMO reads no tau (its Morrey
    exponent is 1/p); the infinity-infinity scales read only s, the
    effective smoothness.  Only F and B read ``homogeneous``.
    """

    family: Family
    s: float
    tau: float
    p: float
    q: float
    homogeneous: bool = True

    def __post_init__(self):
        s, tau, p, q = float(self.s), float(self.tau), float(self.p), float(self.q)
        check_exponents(self.p, self.q, f_type=self.family == Family.F_TYPE)
        if self.family == Family.CMO and tau < 0:
            raise ParamError(f"r must be >= 0, got {self.tau}", rule="Proposition 1(iv)")
        if not (math.isfinite(s) and math.isfinite(tau)):
            raise ParamError("s and tau must be finite reals")
        for name, value in (("s", s), ("tau", tau), ("p", p), ("q", q)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class NormValue:
    """A norm carried in the log2 domain with a linear-scale view."""

    log2_value: float
    linear_value: float
    attained_at: DyadicCube

    @classmethod
    def from_log2(cls, v: float, cube: DyadicCube) -> "NormValue":
        return cls(v, log2_to_linear(v), cube)

    @property
    def is_zero(self) -> bool:
        return self.log2_value == NEG_INF


# The key-memory bound: each of m records, zero ones too, gets a Morton key
# dim * depth bits wide for the duplicate check, depth being that of the
# deepest record, so the keys alone take m * dim * depth bits; a sequence
# needing more than this (128 MiB) is refused.
KEY_BITS_BOUND = 1 << 30


def _level_array(levels, j0: int) -> np.ndarray:
    """Record levels as an int64 array when they and the root level ``j0``
    lie inside +-2**62, so that their depths below the root cannot
    overflow; otherwise as an array of Python ints (an int64 would wrap
    silently), which a later check always refuses."""
    try:
        array = np.asarray(levels, dtype=np.int64)
    except OverflowError:  # a level past int64
        return np.array(list(levels), dtype=object)
    bounds = [j0, int(array.min()), int(array.max())] if array.size else [j0]
    if max(map(abs, bounds)) >> 62:
        return np.array(array.tolist(), dtype=object)
    return array


class CubeSequence:
    """Finitely supported map from dyadic cubes to coefficient magnitudes.

    Only magnitudes are stored: every implemented norm depends on the
    coefficients through their absolute values alone.  They are held as the
    arrays the geometry compiles, in depth-first order: each node's Morton
    key and depth below the root, and its log2 magnitude.  The cube views
    (``support``, ``log2_value``, ``tree``) are built on first use.
    """

    def __init__(
        self, root: DyadicCube, max_depth: int, width: int, key: list[int],
        node_depth: list[int], log2t: np.ndarray,
    ):
        self.root = root
        self.max_depth = max_depth
        self._width = width
        self._key = key
        self._node_depth = node_depth
        self._log2t = log2t
        self._log2: dict[DyadicCube, float] | None = None
        self._tree: SupportTree | None = None
        self._geometry: Geometry | None = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        root: DyadicCube,
        levels: Sequence[int],
        indices: Sequence[Sequence[int]],
        log2_values: Sequence[float],
        max_depth: int | None = None,
    ) -> "CubeSequence":
        """The sequence of the records (level, index, log2 magnitude).

        Every record must lie in the root, at most ``max_depth`` levels
        below it (default: the deepest record's depth), with an index of
        ``root.dim`` integers, once only, and with a log2 magnitude that is
        finite or -inf; -inf is a zero magnitude, validated and then
        dropped.  The records' paths go to ``_from_paths``; zero records
        count toward the key-memory bound, as their keys are built for the
        duplicate check.  Raises ValueError naming the rule a record breaks.

        ``levels`` and ``indices`` may also be int64 arrays, of shapes (m,)
        and (m, root.dim), as ``load_jsonl`` scans them.  Either way the
        levels are checked as an int64 array when they and the root level
        lie inside +-2**62, and as Python ints otherwise; ``morton_paths``
        and ``depth_first`` choose their own int64 or Python-int branch.
        """
        n, j0, m = root.dim, root.level, len(levels)
        levels = _level_array(levels, j0)

        def record(i: int) -> DyadicCube:  # a record as a cube, for messages
            return DyadicCube(n, levels[i], tuple(indices[i]))

        depth = levels - j0
        D = int(depth.max()) if m else 0  # < 0 when every record lies above the root
        if max_depth is None:
            max_depth = D
        if max_depth < 0:
            raise ValueError(f"depth must be >= 0, got {max_depth}")
        lengths_ok = (indices.shape[1:] == (n,) if isinstance(indices, np.ndarray)
                      else all(len(k) == n for k in indices))
        if not lengths_ok:
            i = next(i for i, k in enumerate(indices) if len(k) != n)
            raise ValueError(
                f"index length {len(indices[i])} != dim {n} in a record at level {levels[i]}"
            )
        if m and (depth.min() < 0 or D > max_depth):
            i = int(np.flatnonzero((depth < 0) | (depth > min(D, max_depth)))[0])
            if depth[i] < 0:
                raise ValueError(f"{record(i)} lies outside the root {root}")
            raise ValueError(f"{record(i)} lies below level {j0 + max_depth}, the depth bound")
        if m * n * D > KEY_BITS_BOUND:
            raise ValueError(
                f"{m} records {D} levels deep need {m * n * D} bits of keys, over "
                f"the bound of 2**30 [key-memory bound]"
            )
        if (abs(j0) + D) >> 62:  # the geometry's int64 levels would overflow
            raise ValueError(f"levels {j0}..{j0 + D} pass the level bound of +-2**62 [level bound]")
        log2t = np.array(log2_values, dtype=float)
        if not (log2t < INF).all():
            i = int(np.flatnonzero(~(log2t < INF))[0])
            raise ValueError(f"non-finite log2 magnitude {log2t[i]} at {record(i)}")
        paths = morton_paths(root, indices, depth)
        if paths is None:
            cube = next(c for c in map(record, range(m)) if not root.contains(c))
            raise ValueError(f"{cube} lies outside the root {root}")
        return cls._from_paths(root, max_depth, paths, depth, log2t)

    @classmethod
    def _from_paths(cls, root, max_depth, paths, depths, log2t) -> "CubeSequence":
        """The sequence of records given as Z-order paths below the root,
        sorted by ``depth_first``; zero records are dropped."""
        width, key, depth, order = depth_first(root, paths, depths, log2t > NEG_INF)
        return cls(root, max_depth, width, key, depth, log2t[order])

    @classmethod
    def from_values(
        cls,
        values: Mapping[DyadicCube, float],
        root: DyadicCube | None = None,
        max_depth: int | None = None,
    ) -> "CubeSequence":
        mags = [float(v) for v in values.values()]
        if not all(0.0 <= v < INF for v in mags):
            cube, v = next((c, v) for c, v in zip(values, mags) if not 0.0 <= v < INF)
            raise ValueError(f"magnitude must be finite and >= 0, got {v} at {cube}")
        log2_values = [math.log2(v) if v > 0 else NEG_INF for v in mags]
        return cls._from_cubes(list(values), log2_values, root, max_depth)

    @classmethod
    def from_log2_values(
        cls,
        log2_values: Mapping[DyadicCube, float],
        root: DyadicCube | None = None,
        max_depth: int | None = None,
    ) -> "CubeSequence":
        """The sequence of the given log2 magnitudes; -inf is a zero."""
        return cls._from_cubes(list(log2_values), list(log2_values.values()), root, max_depth)

    @classmethod
    def _from_cubes(cls, cubes, log2_values, root, max_depth) -> "CubeSequence":
        if root is None:
            if not cubes:
                raise ValueError("an empty sequence needs an explicit root")
            root = DyadicCube.unit(cubes[0].dim)
        levels = [c.level for c in cubes]
        indices = [c.index for c in cubes]
        return cls.from_records(root, levels, indices, log2_values, max_depth)

    # -- views ----------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.root.dim

    def _records(self) -> list[tuple[int, tuple[int, ...], float]]:
        """(level, index, log2 magnitude) of every node, in (level, index) order."""
        index = key_indices(self.root, self._width, self._key, self._node_depth)
        j0 = self.root.level
        return sorted(zip([j0 + d for d in self._node_depth], index, self._log2t.tolist()))

    def _entries(self) -> dict[DyadicCube, float]:
        """Cube -> log2 magnitude, in (level, index) order; built once."""
        if self._log2 is None:
            n = self.dim
            self._log2 = {DyadicCube(n, j, k): v for j, k, v in self._records()}
        return self._log2

    @property
    def tree(self) -> SupportTree:
        """The support as a ``SupportTree`` under the root."""
        if self._tree is None:
            self._tree = SupportTree(self.root, frozenset(self._entries()), self.max_depth)
        return self._tree

    @property
    def support(self) -> tuple[DyadicCube, ...]:
        return tuple(self._entries())

    def log2_value(self, cube: DyadicCube) -> float:
        return self._entries().get(cube, NEG_INF)

    @property
    def _segment(self) -> tuple:
        """The arrays a ``Geometry`` compiles, as one segment of a forest."""
        return self._width, self._key, self._node_depth, self._log2t

    @property
    def geometry(self) -> Geometry:
        """The compiled geometry of this sequence: a forest of one."""
        if self._geometry is None:
            self._geometry = Geometry(self.root, [self._segment])
        return self._geometry

    def __len__(self) -> int:
        return len(self._key)

    def __repr__(self) -> str:
        return f"CubeSequence(dim={self.dim}, entries={len(self)}, root={self.root})"


# ---------------------------------------------------------------------------
# suprema
# ---------------------------------------------------------------------------


def _argmax(values: np.ndarray, levels: np.ndarray, cube_of) -> tuple[float, DyadicCube]:
    """The maximum and the cube attaining it.  Ties go to the coarsest level,
    then the lexicographically smallest index; only the tied entries at that
    level are built as cubes."""
    best = values.max()
    tied = np.flatnonzero(values == best)
    if tied.size > 1:
        tied = tied[levels[tied] == levels[tied].min()]
    return float(best), min(map(cube_of, tied.tolist()), key=DyadicCube.sort_key)


class _Maxima:
    """The values of the cubes evaluated for the suprema over a forest.

    Entry i is the cube at ``level[i]`` on the path from the root to node
    ``node[ref[i]]``; ``starts`` splits the refs into segments.  The maximum
    per segment is a segmented reduction; only ``norm_value`` decodes a
    cube, from its node.
    """

    def __init__(self, geo: Geometry, values, level, ref, node, starts):
        self.geo, self.values, self.level = geo, values, level
        self.ref, self.node, self.starts = ref, node, starts

    def log2_values(self) -> np.ndarray:
        """The supremum of every segment; -inf for one without cubes."""
        best = np.full(self.starts.size - 1, NEG_INF)
        segments = np.searchsorted(self.starts, self.ref, "right") - 1
        np.maximum.at(best, segments, self.values)
        return best

    def norm_value(self) -> NormValue:
        """The supremum of a forest of one and the cube attaining it, ties
        going to the coarsest level, then the smallest index."""
        geo, values, level, ref = self.geo, self.values, self.level, self.ref
        if values.size == 0:
            return NormValue.from_log2(NEG_INF, geo.root)
        return NormValue.from_log2(*_argmax(
            values, level, lambda i: geo.cube(int(self.node[ref[i]]), int(level[i]))
        ))


def _suprema(geo: Geometry, kern, slopes, homogeneous: bool = True) -> list[_Maxima]:
    """Supremum of ``kern`` at each of ``slopes`` over every dyadic subcube
    of the root that contains support, plus the root, for each segment;
    level >= 0 only when inhomogeneous.

    The contents of all candidates of all segments come from one batched
    kernel call, which every slope shares; each content serves the chain gap
    above its candidate too.  On a gap the value ``slope * l + content`` is
    monotone in the level l (float rounding is monotone as well), so the
    gap's supremum sits at its coarsest level when slope <= 0.  When slope
    > 0 it sits at the finest level, and bisection finds the coarsest gap
    level that rounds to the same value, which the tie rule prefers.
    """
    cand, lo, hi, level, gap_lo = geo.candidates(homogeneous)
    content = kern.contents(lo, hi, level)
    gaps = np.flatnonzero(gap_lo < level)
    if gaps.size:
        gap_hi, x = level[gaps] - 1, content[gaps]
        gap_cand = np.concatenate([cand, cand[gaps]])
    out = []
    for slope in slopes:
        values, lev, ref = slope * level + content, level, cand
        if gaps.size:
            lo, hi = gap_lo[gaps], gap_hi
            if slope > 0:
                target = slope * hi + x
                while True:
                    open_ = lo < hi
                    if not open_.any():
                        break
                    mid = (lo + hi) // 2
                    tie = slope * mid + x == target
                    hi = np.where(open_ & tie, mid, hi)
                    lo = np.where(open_ & ~tie, mid + 1, lo)
            values = np.concatenate([values, slope * lo + x])
            lev, ref = np.concatenate([level, lo]), gap_cand
        out.append(_Maxima(geo, values, lev, ref, geo.cand_lo, geo.seg_cand))
    return out


def _kernel(params: SpaceParams, geo: Geometry):
    """The kernel of the norm that ``params`` names, over ``geo``."""
    fam, s, tau, p, q = params.family, params.s, params.tau, params.p, params.q
    if fam == Family.F_TYPE:
        return _FKernel(geo, s, tau, p, q)
    if fam == Family.B_TYPE:
        return _BKernel(geo, s, p, q, tau * geo.dim, params.homogeneous)
    if fam == Family.CMO:  # tau is r, and p = q
        return _BKernel(geo, s, q, q, 0.0 if q == INF else tau * geo.dim / q)
    if fam == Family.BBMO:
        return _BKernel(geo, s, p, q, 0.0 if p == INF else geo.dim / p)
    raise ParamError(f"the {Family(fam).value} scale has no kernel")


def _maxima(
    rows: Sequence[SpaceParams], geo: Geometry, allow_negative_tau: bool = False
) -> list[_Maxima]:
    """The values that the supremum of each norm of ``rows`` runs over, for
    a forest of one or of many.  The rows name one norm, differing in tau
    alone when there are several: one kernel serves every tau of an F or B
    norm, since tau changes only the slope of the supremum.  The
    infinity-infinity scales take the support cubes alone; F and B refuse
    tau < 0 unless it is allowed."""
    first = rows[0]
    if len(rows) > 1 and (
        first.family not in (Family.F_TYPE, Family.B_TYPE)
        or len({(r.family, r.s, r.p, r.q, r.homogeneous) for r in rows}) > 1
    ):
        raise ValueError("the rows must name one F or B norm differing in tau alone")
    if first.family in (Family.F_INF_INF, Family.B_INF_INF):
        node = np.arange(geo.m)
        values = geo.level_f * (first.s + geo.dim / 2.0) + geo.log2t
        return [_Maxima(geo, values, geo.level, node, node, geo.seg_lo)]
    if first.family not in (Family.F_TYPE, Family.B_TYPE):
        kern = _kernel(first, geo)
        return _suprema(geo, kern, [kern.slope])
    if not allow_negative_tau:
        for r in rows:
            check_exponents(r.p, r.q, r.tau)
    slopes = [r.tau * geo.dim for r in rows]  # as ``_kernel`` gives each
    return _suprema(geo, _kernel(first, geo), slopes, first.homogeneous)


def _norm_value(
    t: CubeSequence, params: SpaceParams, family: Family, allow_negative_tau: bool = False
) -> NormValue:
    if params.family != family:
        raise ParamError(f"the {family.value} norm got a {Family(params.family).value} record")
    return _maxima([params], t.geometry, allow_negative_tau)[0].norm_value()


def f_type_norm(
    t: CubeSequence, params: SpaceParams, *, allow_negative_tau: bool = False
) -> NormValue:
    """Discrete Triebel-Lizorkin-type norm of a coefficient field."""
    return _norm_value(t, params, Family.F_TYPE, allow_negative_tau)


def b_type_norm(
    t: CubeSequence, params: SpaceParams, *, allow_negative_tau: bool = False
) -> NormValue:
    """Discrete Besov-type norm of a coefficient field.

    Same-level cubes are disjoint, so each per-level integral reduces exactly
    to a weighted power sum over the level; the evaluator uses that reduction.
    """
    return _norm_value(t, params, Family.B_TYPE, allow_negative_tau)


def f_inf_inf_norm(t: CubeSequence, s_eff: float) -> NormValue:
    """sup over support cubes of |Q|**(-s_eff/n - 1/2) |t_Q|.

    The same formula serves both infinity-infinity scales.
    """
    return _norm_value(t, SpaceParams(Family.F_INF_INF, s_eff, 0, INF, INF), Family.F_INF_INF)


def cmo_norm(t: CubeSequence, s: float, q: float, r: float) -> NormValue:
    """Generalized Carleson-measure norm.

    Evaluated by exact term-wise integration: the integral over P of the
    summed q-th powers is the plain weighted sum of |Q| over support cubes
    inside P, so no shell decomposition is needed.  At q = inf the usual
    modification degenerates to the weighted supremum and r drops out.
    """
    return _norm_value(t, SpaceParams(Family.CMO, s, r, q, q), Family.CMO)


def bbmo_norm(t: CubeSequence, s: float, p: float, q: float) -> NormValue:
    """Besov-flavoured BMO norm: per-level averages over P, then an l^q sum.

    Must agree with the B-type norm at Morrey exponent 1/p.  The per-level
    average over P is 2**(n l) times the level sum; its factor 2**(n l / p)
    is the slope, which leaves the B-type content.
    """
    return _norm_value(t, SpaceParams(Family.BBMO, s, 0, p, q), Family.BBMO)


def norm(t: CubeSequence, params: SpaceParams, **kwargs) -> NormValue:
    """The norm of any family, through that family's norm function above.

    Each function is looked up by its module name at call time, so a wrapper
    bound to that name (a tracer counting kernel calls) sees the call.
    """
    fam = params.family
    if fam == Family.F_TYPE:
        return f_type_norm(t, params, **kwargs)
    if fam == Family.B_TYPE:
        return b_type_norm(t, params, **kwargs)
    if fam == Family.CMO:
        return cmo_norm(t, params.s, params.q, params.tau)
    if fam == Family.BBMO:
        return bbmo_norm(t, params.s, params.p, params.q)
    return f_inf_inf_norm(t, params.s)


class Forest(Sequence):
    """A read-only sequence of samples compiled as one batch: those under
    each root form one ``Geometry``, a segment per sample (a lone sequence
    keeps its own), so a norm costs one kernel call per root.  A forest
    ``random_sample_set`` draws compiles at its first norm call and builds
    a sample's sequence when indexed; ``Forest(forest)`` shares it."""

    def __init__(self, sequences: Iterable[CubeSequence]):
        if isinstance(sequences, Forest):
            vars(self).update(vars(sequences))
            return
        seqs = list(sequences)
        groups: dict[DyadicCube, list[int]] = {}
        for i, seq in enumerate(seqs):
            groups.setdefault(seq.root, []).append(i)
        self._len, self._sample, self.roots = len(seqs), seqs.__getitem__, list(groups)
        self._groups = [
            (idx, Geometry(root, [seqs[i]._segment for i in idx])
             if len(idx) > 1 else seqs[idx[0]].geometry)
            for root, idx in groups.items()
        ]

    @classmethod
    def _of(cls, count: int, sample, roots: list[DyadicCube], parts: list) -> "Forest":
        """``count`` samples, ``sample(i)`` building the i-th, and per root
        the sample positions and a function compiling their geometry, called
        at the first norm."""
        forest = cls.__new__(cls)
        forest._len, forest._sample, forest.roots, forest._parts = count, sample, roots, parts
        return forest

    @functools.cached_property
    def _groups(self) -> list[tuple[list[int], Geometry]]:
        return [(idx, build()) for idx, build in self._parts]

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int | slice) -> CubeSequence | list[CubeSequence]:
        """Sample i, or the list of the samples a slice selects."""
        at = range(self._len)[i]
        return list(map(self._sample, at)) if isinstance(i, slice) else self._sample(at)

    def log2_norms(self, params: SpaceParams, allow_negative_tau: bool = False) -> np.ndarray:
        """log2 of the norm ``params`` names for every sample, in order,
        each equal to the ``log2_value`` of that family's norm function."""
        return self.log2_norm_rows([params], allow_negative_tau)[0]

    def log2_norm_rows(
        self, rows: Sequence[SpaceParams], allow_negative_tau: bool = False
    ) -> np.ndarray:
        """``log2_norms`` at each of ``rows``, a row each.  Several rows must
        name one F or B norm differing in tau alone; one kernel per root
        serves them all."""
        out = np.full((len(rows), self._len), NEG_INF)
        for idx, geo in self._groups:
            for i, maxima in enumerate(_maxima(rows, geo, allow_negative_tau)):
                out[i, idx] = maxima.log2_values()
        return out


# ---------------------------------------------------------------------------
# JSON Lines interchange
# ---------------------------------------------------------------------------
#
# Integers past Python's int-string digit limit (cube indices below level
# about 14000) are written and read in pieces, by ``dyadic.int_to_decimal``
# and ``dyadic.decimal_to_int``.  A line this short holds no integer beyond
# the digit limit:
_SAFE_LINE = _SAFE_BITS // 4
_DECODER = json.JSONDecoder()
_DECODER_BIG = json.JSONDecoder(parse_int=decimal_to_int)


def save_jsonl(t: CubeSequence, path: str | Path) -> None:
    """Write header + one record per cube; log2 magnitudes round-trip exactly.

    A record is written by one format string, as ``json_dumps`` with
    sorted keys would write it: ``v`` is Infinity past the float range."""
    root = t.root
    header = {"dim": t.dim, "root": {"j": root.level, "k": list(root.index)}, "depth": t.max_depth}
    lines = [json_dumps(header, sort_keys=True)]
    for level, index, lv in t._records():  # lv is finite
        k = ", ".join(map(int_to_decimal, index))
        v = log2_to_linear(lv)
        v = "Infinity" if v == INF else repr(v)
        lines.append(f'{{"j": {int_to_decimal(level)}, "k": [{k}], "log2v": {lv!r}, "v": {v}}}')
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _float(rec: dict, name: str) -> float:
    """A record's number ``name`` as a float."""
    try:
        return float(rec[name])
    except OverflowError:  # an integer past the float range
        raise ValueError(f'"{name}" is too large for a float') from None


def _log2_field(rec: dict) -> float:
    """A record's log2 magnitude: ``log2v``, else log2 of ``v`` (-inf at 0)."""
    if "log2v" in rec:
        return _float(rec, "log2v")
    v = _float(rec, "v")
    if not 0.0 <= v < INF:
        raise ValueError(f"bad magnitude {v}")
    return math.log2(v) if v > 0 else NEG_INF


def _header(header) -> tuple[DyadicCube, int]:
    """The root cube and depth bound of a header record."""
    if type(header) is not dict:
        raise ValueError("the header must be a JSON object")
    dim, depth, root = header["dim"], header["depth"], header["root"]
    level, index = (root["j"], root["k"]) if type(root) is dict else (None, None)
    if not (type(index) is list and set(map(type, [dim, depth, level, *index])) <= {int}):
        raise ValueError('the header needs integers "dim", "depth" and root "j", '
                         'and a list of integers root "k"')
    return DyadicCube(dim, level, tuple(index)), depth


def _decode(line: str):
    """The one JSON value a stripped line holds."""
    decoder = _DECODER if len(line) <= _SAFE_LINE else _DECODER_BIG
    value, end = decoder.raw_decode(line)
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, end)
    return value


# The record line ``save_jsonl`` writes, in ASCII digits only (``\d`` would
# match digits that ``int`` reads but JSON refuses).  Integers have at most
# 18 digits, so that they fit an int64, and ``log2v`` needs a fraction or an
# exponent (or is NaN or an infinity), so that ``float`` of its text is what
# the line loop reads: an integer ``log2v`` such as -0 or 10**400 reads
# otherwise there.
_INT = r"-?(?:0|[1-9][0-9]{0,17})"
_EXP = r"[eE][-+]?[0-9]+"
_FLOAT = rf"{_INT}(?:\.[0-9]+(?:{_EXP})?|{_EXP})|NaN|-?Infinity"
_NUMBER = rf"{_INT}(?:\.[0-9]+)?(?:{_EXP})?|NaN|-?Infinity"


@functools.lru_cache(maxsize=None)
def _record_line(dim: int) -> re.Pattern:
    """One record line of a dim-dimensional file as ``save_jsonl`` writes
    it, with its newline, capturing j, each axis of k and log2v."""
    k = ", ".join([f"({_INT})"] * dim)
    return re.compile(
        rf'^\{{"j": ({_INT}), "k": \[{k}\], "log2v": ({_FLOAT}), "v": (?:{_NUMBER})\}}\n', re.M
    )


def _scan(text: str) -> tuple | None:
    """The header and records of a file as ``save_jsonl`` writes it, the
    records as int64 levels (m,) and indices (m, dim) and float log2
    magnitudes, with one regex pass over the records; None for any other
    file.

    The first line must be one line to ``splitlines`` too and hold a valid
    header, and every later line, each ending in a newline, must match
    ``_record_line``: then the line loop reads the same values, and finds
    nothing to refuse before ``from_records``.  The pattern grows with the
    dim, so a dim over 61, which has no int64 keys below the root, takes
    the line loop."""
    head, _, body = text.partition("\n")
    m = body.count("\n")
    if len(head.splitlines()) != 1:
        return None
    try:
        root, depth = _header(_decode(head.strip()))
    except (KeyError, TypeError, ValueError):
        return None
    n = root.dim
    if n > 61 or m and not _record_line(n).match(body):  # the first record settles most files
        return None
    rows = _record_line(n).findall(body)
    if len(rows) != m or body[-1:] not in ("", "\n"):
        return None
    cols = list(zip(*rows)) or [()] * (n + 2)
    ints = np.array([list(map(int, c)) for c in cols[:-1]], dtype=np.int64).reshape(n + 1, m)
    return root, depth, ints[0], ints[1:].T, np.fromiter(map(float, cols[-1]), float, m)


def _read_lines(path: str | Path, text: str) -> tuple:
    """The header and records of any file, one JSON value a line."""
    root = depth = None
    levels, indices, log2v = [], [], []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:  # the line must hold one JSON value alone
            rec = _decode(line)
            if root is None:
                root, depth = _header(rec)
                continue
            if type(rec) is not dict:
                raise TypeError("a record must be a JSON object")
            j, k = rec["j"], rec["k"]
            if not (type(j) is int and type(k) is list and all(type(x) is int for x in k)):
                raise TypeError('"j" must be an integer and "k" a list of integers')
            lv = _log2_field(rec)
        except (KeyError, TypeError, ValueError) as exc:
            what = f"missing {exc}" if isinstance(exc, KeyError) else exc
            raise SequenceFormatError(f"{path}: line {number}: {what}") from exc
        levels.append(j)
        indices.append(k)
        log2v.append(lv)
    if root is None:
        raise SequenceFormatError(f"{path}: empty sequence file")
    return root, depth, levels, indices, log2v


def load_jsonl(path: str | Path) -> CubeSequence:
    """The sequence of a JSONL file: a header line, then one record a line.

    A level must be an integer, an index a list of integers, and a record
    needs ``log2v`` or ``v``.  Raises SequenceFormatError naming the
    1-based line of the first line that breaks a rule.  A file as
    ``save_jsonl`` writes it is read by ``_scan``, any other line by line;
    both give the same sequence.
    """
    text = Path(path).read_text(encoding="utf-8")
    root, depth, levels, indices, log2v = _scan(text) or _read_lines(path, text)
    try:
        return CubeSequence.from_records(root, levels, indices, log2v, depth)
    except ValueError as exc:
        raise SequenceFormatError(f"{path}: {exc}") from exc
