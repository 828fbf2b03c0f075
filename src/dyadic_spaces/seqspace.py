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
"""
from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from ._log2 import NEG_INF, log2_sum, log2_to_linear
from .dyadic import DyadicCube, SupportTree

INF = math.inf


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


@dataclass(frozen=True)
class SpaceParams:
    """Parameter tuple (family, s, tau, p, q) with extended p, q in (0, inf]."""

    family: Family
    s: float
    tau: float
    p: float
    q: float
    homogeneous: bool = True

    def __post_init__(self):
        p = float(self.p)
        q = float(self.q)
        if not p > 0:
            raise ParamError(f"p must be positive, got {self.p}")
        if not q > 0:
            raise ParamError(f"q must be positive, got {self.q}")
        if self.family == Family.F_TYPE and p == INF:
            raise ParamError(
                "the F-type scale requires p < inf", rule="Definition 1(i)"
            )
        if math.isnan(float(self.s)) or math.isnan(float(self.tau)):
            raise ParamError("s and tau must be finite reals")


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


def _morton(rel: Iterable[int], depth: int, dim: int) -> int:
    """Z-order code of a relative index: the child codes of the path from
    the root, most significant first, dimension 0 in the lowest bit of each."""
    if dim == 1:
        return next(iter(rel))
    if depth == 0:
        return 0
    bits = [format(k, f"0{depth}b") for k in reversed(tuple(rel))]
    return int("".join(map("".join, zip(*bits))), 2)


class _Geometry:
    """Compiled support geometry shared by all norm evaluations of a sequence.

    Support nodes are kept in depth-first order.  Each node gets a Morton
    key: its path from the root as a Z-order code, shifted left to the full
    width of ``depth * dim`` bits (``depth`` is that of the deepest node), so
    that sorting by (key, node depth) gives the depth-first order and a
    node's subtree is a contiguous range.

    The candidate set for the outer supremum is the root, the support nodes
    and the branch points (cubes whose children lead to two or more support
    subtrees), at most 2m cubes.  Every other dyadic subcube of the root
    that contains support lies in a chain gap: strictly between a candidate
    and its nearest candidate ancestor, with exactly the support of the
    candidate below it.  Candidates are stored as arrays (``cand_level``,
    ``cand_lo``, ``cand_hi``, ``cand_key``), with ``gap_lo`` the coarsest
    level of the gap above each candidate; the gap ends just above the
    candidate's own level.
    """

    def __init__(self, root: DyadicCube, entries: list[tuple[DyadicCube, float]]):
        self.root = root
        n = self.dim = root.dim
        j0 = self.min_level = root.level
        m = self.m = len(entries)
        self.max_level = max((q.level for q, _ in entries), default=j0)
        D = self.depth = self.max_level - j0
        depth = [q.level - j0 for q, _ in entries]
        rel = [
            [k - (r << d) for k, r in zip(q.index, root.index)]
            for (q, _), d in zip(entries, depth)
        ]
        keys = [_morton(r, d, n) << n * (D - d) for r, d in zip(rel, depth)]
        order = sorted(range(m), key=lambda i: (keys[i], depth[i]))
        self.nodes = [entries[i][0] for i in order]
        self.key = [keys[i] for i in order]
        self.node_depth = [depth[i] for i in order]
        self.level = np.array(self.node_depth, dtype=np.int64) + j0
        self.level_f = self.level.astype(float)
        self.log2t = np.array([entries[i][1] for i in order], dtype=float)
        self.log2vol = -self.level_f * n
        self._compile()
        self.mu_log2 = self._shell_measures()

    def _compile(self) -> None:
        """One stack pass over the depth-first keys.

        Yields the support parent of every node and the compressed candidate
        tree, whose ranges [lo, hi) end each candidate's subtree: a branch
        point is the lowest common ancestor of two depth-first-adjacent
        nodes, found from the bit length of their key XOR.
        """
        n, m, D = self.dim, self.m, self.depth
        keys, depth = self.key, self.node_depth
        parent = [-1] * m
        c_depth, c_key, c_lo, c_hi, c_up = [0], [0], [0], [m], [-1]
        first = 1 if m and depth[0] == 0 else 0  # is the root a support node?
        # stack entries: (candidate, depth, key, nearest support node at or
        # above); they form the candidate chain above the last node
        stack = [(0, 0, 0, first - 1)]
        for i in range(first, m):
            k, d = keys[i], depth[i]
            top = stack[-1]
            lca = min(d, top[1], (n * D - (k ^ top[2]).bit_length()) // n)
            if lca < top[1]:
                while stack[-1][1] > lca:
                    last = stack.pop()
                    c_hi[last[0]] = i
                    c_up[last[0]] = stack[-1][0]
                if stack[-1][1] < lca:  # new branch point between the two
                    cid = len(c_depth)
                    shift = n * (D - lca)
                    bkey = k >> shift << shift
                    c_depth.append(lca)
                    c_key.append(bkey)
                    c_lo.append(c_lo[last[0]])
                    c_hi.append(m)
                    c_up.append(-1)
                    c_up[last[0]] = cid
                    stack.append((cid, lca, bkey, stack[-1][3]))
            parent[i] = stack[-1][3]
            c_up.append(-1)
            c_hi.append(m)
            c_lo.append(i)
            c_key.append(k)
            c_depth.append(d)
            stack.append((len(c_depth) - 1, d, k, i))
        for below, above in zip(stack, stack[1:]):
            c_up[above[0]] = below[0]
        self.parent = np.array(parent, dtype=np.int64)
        self.cand_level = np.array(c_depth, dtype=np.int64) + self.min_level
        self.cand_lo = np.array(c_lo, dtype=np.int64)
        self.cand_hi = np.array(c_hi, dtype=np.int64)
        self.cand_key = c_key
        up = np.array(c_up, dtype=np.int64)
        self.gap_lo = np.where(up >= 0, self.cand_level[up] + 1, self.cand_level)

    def candidates(self, homogeneous: bool) -> tuple:
        """The candidates of the homogeneous supremum (all of them) or of the
        inhomogeneous one (levels >= 0, gaps cut at level 0): their indices,
        (lo, hi, level) content arguments, levels and gap starts."""
        level = self.cand_level
        if homogeneous:
            cand, gap_lo = np.arange(level.size), self.gap_lo
        else:
            cand = np.flatnonzero(level >= 0)
            level, gap_lo = level[cand], np.maximum(self.gap_lo[cand], 0)
        spans = zip(self.cand_lo[cand].tolist(), self.cand_hi[cand].tolist(), level.tolist())
        return cand, spans, level, gap_lo

    def _shell_measures(self) -> np.ndarray:
        """log2 of each node's volume minus the volume of its support
        children, exact in integer arithmetic at the finest child's scale."""
        n = self.dim
        depth = self.node_depth
        shifts: dict[int, list[int]] = {}
        for c, par in enumerate(self.parent.tolist()):
            if par >= 0:
                shifts.setdefault(par, []).append(n * (depth[c] - depth[par]))
        mu = self.log2vol.copy()
        for par, sh in shifts.items():
            top = max(sh)
            rest = (1 << top) - sum(1 << (top - s) for s in sh)
            mu[par] = math.log2(rest) - top + mu[par] if rest > 0 else NEG_INF
        return mu

    def cube(self, key: int, level: int) -> DyadicCube:
        """The cube at ``level`` on the path from the root to the key's node."""
        n, root = self.dim, self.root
        d = level - self.min_level
        code = key >> n * (self.depth - d)
        if n == 1:
            rel = (code,)
        else:
            bits = format(code, f"0{d * n}b") if d else ""
            rel = tuple(int(bits[n - 1 - i :: n] or "0", 2) for i in range(n))
        return DyadicCube(n, level, tuple((r << d) + k for r, k in zip(root.index, rel)))

    def locate(self, cube: DyadicCube) -> tuple[int, int] | None:
        """Depth-first range [lo, hi) of the support nodes inside an arbitrary
        cube; None when the cube is disjoint from the root."""
        if cube.contains(self.root):
            return 0, self.m
        if not self.root.contains(cube):
            return None
        n, d = self.dim, cube.level - self.min_level
        if d > self.depth:  # finer than every support node
            return 0, 0
        rel = [k - (r << d) for k, r in zip(cube.index, self.root.index)]
        shift = n * (self.depth - d)
        key = _morton(rel, d, n) << shift
        lo = bisect_left(self.key, key)
        lo = bisect_left(self.node_depth, d, lo, bisect_right(self.key, key, lo))
        return lo, bisect_left(self.key, key + (1 << shift), lo)

    def tops(self, lo: int, hi: int) -> np.ndarray:
        """Indices of the support nodes of a range directly under its cube."""
        return lo + np.nonzero(self.parent[lo:hi] < lo)[0]


class CubeSequence:
    """Finitely supported map from dyadic cubes to coefficient magnitudes.

    Only magnitudes are stored: every implemented norm depends on the
    coefficients through their absolute values alone.
    """

    def __init__(self, tree: SupportTree, log2_values: Mapping[DyadicCube, float]):
        self.tree = tree
        items = {}
        for cube, lv in log2_values.items():
            lv = float(lv)
            if lv == NEG_INF:
                continue
            if not math.isfinite(lv):
                raise ValueError(f"non-finite log2 magnitude {lv} at {cube}")
            if cube not in tree.nodes:
                raise ValueError(f"value attached to {cube} outside the support tree")
            items[cube] = lv
        self._log2 = dict(sorted(items.items(), key=lambda kv: kv[0].sort_key()))
        self._geometry: _Geometry | None = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_values(
        cls,
        values: Mapping[DyadicCube, float],
        root: DyadicCube | None = None,
        max_depth: int | None = None,
    ) -> "CubeSequence":
        log2_values = {}
        for cube, v in values.items():
            v = float(v)
            if v < 0 or not math.isfinite(v):
                raise ValueError(f"magnitude must be finite and >= 0, got {v} at {cube}")
            if v > 0:
                log2_values[cube] = math.log2(v)
        return cls.from_log2_values(log2_values, root, max_depth, keys=values.keys())

    @classmethod
    def from_log2_values(
        cls,
        log2_values: Mapping[DyadicCube, float],
        root: DyadicCube | None = None,
        max_depth: int | None = None,
        keys: Iterable[DyadicCube] | None = None,
    ) -> "CubeSequence":
        nodes = set(keys) if keys is not None else set(log2_values.keys())
        if root is None and not nodes:
            raise ValueError("an empty sequence needs an explicit root")
        tree = SupportTree.build(nodes, root=root, max_depth=max_depth)
        return cls(tree, log2_values)

    @classmethod
    def zero(cls, root: DyadicCube) -> "CubeSequence":
        return cls(SupportTree(root, frozenset(), 0), {})

    # -- views ----------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.tree.root.dim

    @property
    def root(self) -> DyadicCube:
        return self.tree.root

    @property
    def support(self) -> tuple[DyadicCube, ...]:
        return tuple(self._log2.keys())

    @property
    def log2_magnitudes(self) -> dict[DyadicCube, float]:
        return dict(self._log2)

    def log2_value(self, cube: DyadicCube) -> float:
        return self._log2.get(cube, NEG_INF)

    def value(self, cube: DyadicCube) -> float:
        return log2_to_linear(self.log2_value(cube))

    @property
    def is_zero(self) -> bool:
        return not self._log2

    def min_support_level(self) -> int | None:
        return min((q.level for q in self._log2), default=None)

    # -- derived sequences ------------------------------------------------------

    def scaled_log2(self, shift: float) -> "CubeSequence":
        """The sequence with every magnitude multiplied by 2**shift."""
        return CubeSequence(self.tree, {q: v + shift for q, v in self._log2.items()})

    def with_entry(self, cube: DyadicCube, log2_value: float) -> "CubeSequence":
        values = dict(self._log2)
        values[cube] = log2_value
        root = self.root if self.root.contains(cube) else None
        return CubeSequence.from_log2_values(values, root=root)

    @property
    def geometry(self) -> _Geometry:
        if self._geometry is None:
            self._geometry = _Geometry(self.root, list(self._log2.items()))
        return self._geometry

    def __len__(self) -> int:
        return len(self._log2)

    def __repr__(self) -> str:
        return f"CubeSequence(dim={self.dim}, entries={len(self)}, root={self.root})"


# ---------------------------------------------------------------------------
# evaluation kernels
# ---------------------------------------------------------------------------
#
# A kernel splits the value of the outer supremum at a cube P of level l into
# ``slope * l + content(lo, hi, l)``, where [lo, hi) is the depth-first range
# of the support nodes inside P.  Along a chain gap the range is fixed and no
# support level lies between the gap's levels, so the content is constant
# there and the value is monotone in the level.


class _FKernel:
    """The F-type expression for fixed parameters, as slope and content.

    Chain sums are re-accumulated from the candidate downward on every call
    (sums of positive terms only); subtracting an above-candidate prefix from
    a global chain sum would cancel catastrophically on deep towers.
    """

    def __init__(self, geo: _Geometry, s: float, tau: float, p: float, q: float):
        self.geo = geo
        self.slope = tau * geo.dim
        self.p = p
        self.q = q
        n = geo.dim
        logw = geo.level_f * (s + n / 2.0) + geo.log2t
        if q == INF:
            L = geo.max_level - geo.min_level + 1
            M = np.full((geo.m, L), NEG_INF)
            for i in range(geo.m):
                par = int(geo.parent[i])
                if par >= 0:
                    M[i] = M[par]
                rel = int(geo.level[i]) - geo.min_level
                np.maximum(M[i, : rel + 1], logw[i], out=M[i, : rel + 1])
            self.chain_max = M
        else:
            self.logwq = (q * logw).tolist()
            self.parent_list = geo.parent.tolist()
            self.mu_list = geo.mu_log2.tolist()
            self._rsub = [NEG_INF] * geo.m
            self._terms = np.empty(geo.m)

    def content(self, lo: int, hi: int, level: int) -> float:
        geo, p, q = self.geo, self.p, self.q
        if lo == hi:
            return NEG_INF
        if q == INF:
            rel = max(level, geo.min_level) - geo.min_level
            mu = geo.mu_log2[lo:hi]
            terms = mu + p * self.chain_max[lo:hi, rel]
        else:
            ppow = p / q
            rsub = self._rsub
            logwq = self.logwq
            parent = self.parent_list
            mu_list = self.mu_list
            terms_buf = self._terms
            log2 = math.log2
            for i in range(lo, hi):
                par = parent[i]
                base = rsub[par] if par >= lo else NEG_INF
                w = logwq[i]
                if base == NEG_INF:
                    v = w
                elif base >= w:
                    v = base + log2(1.0 + 2.0 ** (w - base))
                else:
                    v = w + log2(1.0 + 2.0 ** (base - w))
                rsub[i] = v
                mu_i = mu_list[i]
                terms_buf[i] = mu_i + ppow * v if mu_i != NEG_INF else NEG_INF
            terms = terms_buf[lo:hi]
        logI = log2_sum(terms)
        if logI == NEG_INF:
            return NEG_INF
        return logI / p


class _LevelTable:
    """Per-node subtree aggregates by level, shared by the B-style kernels.

    ``sums`` holds linear-domain level sums of 2**(weight) shifted by a global
    maximum (max-factored); ``maxes`` holds log-domain level maxima.
    """

    def __init__(self, geo: _Geometry, z: np.ndarray, want_max: bool):
        self.geo = geo
        L = geo.max_level - geo.min_level + 1
        self.L = L
        rel = (geo.level - geo.min_level).astype(np.int64)
        if want_max:
            SV = np.full((geo.m, L), NEG_INF)
            for i in range(geo.m - 1, -1, -1):
                r = int(rel[i])
                if z[i] > SV[i, r]:
                    SV[i, r] = z[i]
                par = int(geo.parent[i])
                if par >= 0:
                    np.maximum(SV[par], SV[i], out=SV[par])
            self.table = SV
            self.shift = 0.0
        else:
            self.shift = float(z.max()) if geo.m else 0.0
            lin = np.exp2(z - self.shift)
            SV = np.zeros((geo.m, L))
            for i in range(geo.m - 1, -1, -1):
                SV[i, rel[i]] += lin[i]
                par = int(geo.parent[i])
                if par >= 0:
                    SV[par] += SV[i]
            self.table = SV
        self.want_max = want_max

    def level_vector(self, lo: int, hi: int) -> np.ndarray | None:
        """Aggregate over the range's forest tops; None when empty."""
        tops = self.geo.tops(lo, hi)
        if tops.size == 0:
            return None
        rows = self.table[tops]
        return rows.max(axis=0) if self.want_max else rows.sum(axis=0)

    def level_logs(self, vec: np.ndarray) -> np.ndarray:
        """Per-level log2 values from an aggregated vector."""
        if self.want_max:
            return vec
        out = np.full(vec.shape, NEG_INF)
        pos = vec > 0
        out[pos] = np.log2(vec[pos]) + self.shift
        return out


def _aggregate_levels(level_logs: np.ndarray, q: float) -> float:
    if level_logs.size == 0:
        return NEG_INF
    if q == INF:
        return float(level_logs.max())
    return log2_sum(q * level_logs) / q


class _BKernel:
    """The B-type expression for fixed parameters, as slope and content.

    The inhomogeneous variant sums only the levels >= 0.
    """

    def __init__(
        self, geo: _Geometry, s: float, tau: float, p: float, q: float,
        homogeneous: bool = True,
    ):
        self.geo = geo
        self.slope = tau * geo.dim
        self.p = p
        self.q = q
        self.homogeneous = homogeneous
        n = geo.dim
        logw = geo.level_f * (s + n / 2.0) + geo.log2t
        if p == INF:
            self.table = _LevelTable(geo, logw, want_max=True)
        else:
            self.table = _LevelTable(geo, p * logw + geo.log2vol, want_max=False)

    def content(self, lo: int, hi: int, level: int) -> float:
        geo, p, q = self.geo, self.p, self.q
        vec = self.table.level_vector(lo, hi)
        if vec is None:
            return NEG_INF
        start = level if self.homogeneous else max(level, 0)
        vec = vec[max(start - geo.min_level, 0) :]
        level_logs = self.table.level_logs(vec)
        if p != INF:
            level_logs = level_logs / p
        return _aggregate_levels(level_logs, q)


def _argmax(values: np.ndarray, levels: np.ndarray, cube_of) -> tuple[float, DyadicCube]:
    """The maximum and the cube attaining it.  Ties go to the coarsest level,
    then the lexicographically smallest index; only the tied entries at that
    level are built as cubes."""
    best = values.max()
    tied = np.flatnonzero(values == best)
    if tied.size > 1:
        tied = tied[levels[tied] == levels[tied].min()]
    return float(best), min(map(cube_of, tied.tolist()), key=DyadicCube.sort_key)


def _supremum(geo: _Geometry, kern, homogeneous: bool = True) -> NormValue:
    """Supremum of ``kern`` over every dyadic subcube of the root that
    contains support, plus the root; level >= 0 only when inhomogeneous.

    Each candidate's content is computed once and serves the chain gap above
    it too.  On a gap the value ``slope * l + content`` is monotone in the
    level l (float rounding is monotone as well), so the gap's supremum sits
    at its coarsest level when slope <= 0.  When slope > 0 it sits at the
    finest level, and bisection finds the coarsest gap level that rounds to
    the same value, which the tie rule prefers.
    """
    cand, spans, level, gap_lo = geo.candidates(homogeneous)
    content = np.array([kern.content(*span) for span in spans], dtype=float)
    if content.size == 0:
        return NormValue.from_log2(NEG_INF, geo.root)
    slope = kern.slope
    values = slope * level + content
    gaps = np.flatnonzero(gap_lo < level)
    if gaps.size:
        lo, hi, x = gap_lo[gaps], level[gaps] - 1, content[gaps]
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
        level = np.concatenate([level, lo])
        cand = np.concatenate([cand, cand[gaps]])
    best, cube = _argmax(
        values, level, lambda i: geo.cube(geo.cand_key[cand[i]], int(level[i]))
    )
    return NormValue.from_log2(best, cube)


def _check_tau(tau: float, allow_negative_tau: bool):
    if tau < 0 and not allow_negative_tau:
        raise ParamError(
            "tau < 0 collapses the space to polynomials; use the classifier",
            rule="Proposition 1(iv)",
        )


def f_type_norm(
    t: CubeSequence, params: SpaceParams, *, allow_negative_tau: bool = False
) -> NormValue:
    """Discrete Triebel-Lizorkin-type norm of a coefficient field."""
    if params.family != Family.F_TYPE:
        raise ParamError(f"f_type_norm requires the F-type family, got {params.family}")
    s, tau, p, q = float(params.s), float(params.tau), float(params.p), float(params.q)
    _check_tau(tau, allow_negative_tau)
    geo = t.geometry
    return _supremum(geo, _FKernel(geo, s, tau, p, q), params.homogeneous)


def b_type_norm(
    t: CubeSequence, params: SpaceParams, *, allow_negative_tau: bool = False
) -> NormValue:
    """Discrete Besov-type norm of a coefficient field.

    Same-level cubes are disjoint, so each per-level integral reduces exactly
    to a weighted power sum over the level; the evaluator uses that reduction.
    """
    if params.family != Family.B_TYPE:
        raise ParamError(f"b_type_norm requires the B-type family, got {params.family}")
    s, tau, p, q = float(params.s), float(params.tau), float(params.p), float(params.q)
    _check_tau(tau, allow_negative_tau)
    geo = t.geometry
    kern = _BKernel(geo, s, tau, p, q, params.homogeneous)
    return _supremum(geo, kern, params.homogeneous)


def f_inf_inf_norm(t: CubeSequence, s_eff: float) -> NormValue:
    """sup over support cubes of |Q|**(-s_eff/n - 1/2) |t_Q|.

    The same formula serves both infinity-infinity scales.
    """
    geo = t.geometry
    if geo.m == 0:
        return NormValue.from_log2(NEG_INF, geo.root)
    arr = geo.level_f * (float(s_eff) + geo.dim / 2.0) + geo.log2t
    return NormValue.from_log2(*_argmax(arr, geo.level, geo.nodes.__getitem__))


b_inf_inf_norm = f_inf_inf_norm


class _CMOKernel:
    """The CMO expression for fixed parameters, as slope and content."""

    def __init__(self, geo: _Geometry, s: float, q: float, r: float):
        n = geo.dim
        self.q = q
        logw = geo.level_f * (s + n / 2.0) + geo.log2t
        if q == INF:
            self.slope = 0.0
            self.table = _LevelTable(geo, logw, want_max=True)
        else:
            self.slope = r * n / q
            self.table = _LevelTable(geo, q * logw + geo.log2vol, want_max=False)

    def content(self, lo: int, hi: int, level: int) -> float:
        vec = self.table.level_vector(lo, hi)
        if vec is None:
            return NEG_INF
        if self.q == INF:
            return float(vec.max())
        tot = float(vec.sum())
        if tot <= 0:
            return NEG_INF
        return (math.log2(tot) + self.table.shift) / self.q


def cmo_norm(t: CubeSequence, s: float, q: float, r: float) -> NormValue:
    """Generalized Carleson-measure norm.

    Evaluated by exact term-wise integration: the integral over P of the
    summed q-th powers is the plain weighted sum of |Q| over support cubes
    inside P, so no shell decomposition is needed.  At q = inf the usual
    modification degenerates to the weighted supremum and r drops out.
    """
    s, q, r = float(s), float(q), float(r)
    if not q > 0:
        raise ParamError(f"q must be positive, got {q}")
    if r < 0:
        raise ParamError(
            "r < 0 is classifier territory (the space degenerates)",
            rule="Proposition 1(iv)",
        )
    geo = t.geometry
    return _supremum(geo, _CMOKernel(geo, s, q, r))


class _BBMOKernel:
    """The BBMO expression for fixed parameters, as slope and content.

    The per-level average over P is 2**(n l) times the level sum; its factor
    2**(n l / p) is the slope.
    """

    def __init__(self, geo: _Geometry, s: float, p: float, q: float):
        n = geo.dim
        self.geo = geo
        self.p = p
        self.q = q
        logw = geo.level_f * (s + n / 2.0) + geo.log2t
        if p == INF:
            self.slope = 0.0
            self.table = _LevelTable(geo, logw, want_max=True)
        else:
            self.slope = n / p
            self.table = _LevelTable(geo, p * logw + geo.log2vol, want_max=False)

    def content(self, lo: int, hi: int, level: int) -> float:
        p, q = self.p, self.q
        vec = self.table.level_vector(lo, hi)
        if vec is None:
            return NEG_INF
        level_logs = self.table.level_logs(vec[max(level - self.geo.min_level, 0) :])
        if p == INF:
            return _aggregate_levels(level_logs, q)
        if q == INF:
            return float(level_logs.max()) / p
        return log2_sum((q / p) * level_logs) / q


def bbmo_norm(t: CubeSequence, s: float, p: float, q: float) -> NormValue:
    """Besov-flavoured BMO norm: per-level averages over P, then an l^q sum.

    Must agree with the B-type norm at Morrey exponent 1/p; the arrangement
    here keeps the |P| factor of each level average in the slope.
    """
    s, p, q = float(s), float(p), float(q)
    if not p > 0 or not q > 0:
        raise ParamError(f"p and q must be positive, got p={p}, q={q}")
    geo = t.geometry
    return _supremum(geo, _BBMOKernel(geo, s, p, q))


def norm(t: CubeSequence, params: SpaceParams, **kwargs) -> NormValue:
    """Family dispatch; F_inf_inf/B_inf_inf read the effective smoothness off s."""
    if params.family == Family.F_TYPE:
        return f_type_norm(t, params, **kwargs)
    if params.family == Family.B_TYPE:
        return b_type_norm(t, params, **kwargs)
    if params.family in (Family.F_INF_INF, Family.B_INF_INF):
        return f_inf_inf_norm(t, params.s)
    raise ParamError(f"norm() does not dispatch family {params.family}")


def candidate_value(t: CubeSequence, params: SpaceParams, region: DyadicCube) -> float:
    """The single-cube term of the outer supremum, as a log2 value.

    Accepts any dyadic cube that is comparable to the root (inside it, equal
    to it, or an ancestor of it); cubes disjoint from the root give -inf.
    """
    geo = t.geometry
    span = geo.locate(region)
    if span is None:
        return NEG_INF
    s, tau, p, q = float(params.s), float(params.tau), float(params.p), float(params.q)
    if params.family == Family.F_TYPE:
        kern = _FKernel(geo, s, tau, p, q)
    elif params.family == Family.B_TYPE:
        kern = _BKernel(geo, s, tau, p, q, params.homogeneous)
    else:
        raise ParamError(f"candidate_value supports F/B families, got {params.family}")
    return kern.slope * region.level + kern.content(*span, region.level)


# ---------------------------------------------------------------------------
# JSON Lines interchange
# ---------------------------------------------------------------------------


def save_jsonl(t: CubeSequence, path: str | Path) -> None:
    """Write header + one record per cube; log2 magnitudes round-trip exactly."""
    root = t.root
    lines = [
        json.dumps(
            {
                "dim": t.dim,
                "root": {"j": root.level, "k": list(root.index)},
                "depth": t.tree.max_depth,
            },
            sort_keys=True,
        )
    ]
    for cube, lv in t.log2_magnitudes.items():
        lines.append(
            json.dumps(
                {
                    "j": cube.level,
                    "k": list(cube.index),
                    "v": log2_to_linear(lv),
                    "log2v": lv,
                },
                sort_keys=True,
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_jsonl(path: str | Path) -> CubeSequence:
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SequenceFormatError(f"{path}: empty sequence file")
    try:
        header = json.loads(lines[0])
        dim = int(header["dim"])
        root = DyadicCube(dim, int(header["root"]["j"]), tuple(header["root"]["k"]))
        depth = int(header["depth"])
        log2_values: dict[DyadicCube, float] = {}
        seen: set[DyadicCube] = set()
        for ln in lines[1:]:
            rec = json.loads(ln)
            cube = DyadicCube(dim, int(rec["j"]), tuple(rec["k"]))
            if cube in seen:
                raise SequenceFormatError(f"{path}: duplicate record for {cube}")
            seen.add(cube)
            if "log2v" in rec:
                lv = float(rec["log2v"])
            else:
                v = float(rec["v"])
                if v < 0 or not math.isfinite(v):
                    raise SequenceFormatError(f"{path}: bad magnitude {v}")
                lv = math.log2(v) if v > 0 else NEG_INF
            if lv != NEG_INF:
                log2_values[cube] = lv
    except SequenceFormatError:
        raise
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        raise SequenceFormatError(f"{path}: {exc}") from exc
    try:
        return CubeSequence.from_log2_values(log2_values, root=root, max_depth=depth)
    except ValueError as exc:
        raise SequenceFormatError(f"{path}: {exc}") from exc
