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

Each kernel evaluates the contents of all candidates in one batched call.
The B, CMO and BBMO kernels expand (candidate, support node) pairs, in
batches of at most 2**12 pairs, and reduce them by segmented sums and
maxima, max-factored per segment: about m log m pairs on saturated trees and
m**2 / 2 on towers.  The F kernel sweeps the support depths once, touching
each (support ancestor, node) pair once, then sums each candidate's tops.
No table of nodes by levels is ever built, so memory stays O(m) plus the
fixed pair batch, whatever the depth.
"""
from __future__ import annotations

import json
import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from ._log2 import INF, NEG_INF, log2_to_linear
from .dyadic import DyadicCube, SupportTree

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

        Yields the support parent and support depth (the number of support
        ancestors) of every node and the compressed candidate
        tree, whose ranges [lo, hi) end each candidate's subtree: a branch
        point is the lowest common ancestor of two depth-first-adjacent
        nodes, found from the bit length of their key XOR.
        """
        n, m, D = self.dim, self.m, self.depth
        keys, depth = self.key, self.node_depth
        parent = [-1] * m
        sdepth = [0] * m + [-1]  # the entry at index -1 serves the parentless
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
            parent[i] = par = stack[-1][3]
            sdepth[i] = sdepth[par] + 1
            c_up.append(-1)
            c_hi.append(m)
            c_lo.append(i)
            c_key.append(k)
            c_depth.append(d)
            stack.append((len(c_depth) - 1, d, k, i))
        for below, above in zip(stack, stack[1:]):
            c_up[above[0]] = below[0]
        self.parent = np.array(parent, dtype=np.int64)
        self.sdepth = np.array(sdepth[:m], dtype=np.int64)
        self.cand_level = np.array(c_depth, dtype=np.int64) + self.min_level
        self.cand_lo = np.array(c_lo, dtype=np.int64)
        self.cand_hi = np.array(c_hi, dtype=np.int64)
        self.cand_key = c_key
        up = np.array(c_up, dtype=np.int64)
        self.gap_lo = np.where(up >= 0, self.cand_level[up] + 1, self.cand_level)

    def candidates(self, homogeneous: bool) -> tuple:
        """The candidates of the homogeneous supremum (all of them) or of the
        inhomogeneous one (levels >= 0, gaps cut at level 0): their indices,
        depth-first ranges [lo, hi), levels and gap starts."""
        level = self.cand_level
        if homogeneous:
            cand, gap_lo = np.arange(level.size), self.gap_lo
        else:
            cand = np.flatnonzero(level >= 0)
            level, gap_lo = level[cand], np.maximum(self.gap_lo[cand], 0)
        return cand, self.cand_lo[cand], self.cand_hi[cand], level, gap_lo

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
# ``slope * l + content``, where the content depends on P through the
# depth-first range [lo, hi) of the support nodes inside P (and on l only
# through the inhomogeneous level-0 cut).  Along a chain gap the range is
# fixed and no support level lies between the gap's levels, so the content is
# constant there and the value is monotone in the level.
#
# ``contents(lo, hi, level)`` evaluates a batch of cubes in one vectorised
# pass, in which each (cube, support node inside it) pair is one array
# element.  The work is proportional to the pairs, about m log m on saturated
# trees and m**2 / 2 on towers, and never to m times the number of levels.

# Pairs expanded at once; one cube whose range is larger forms a batch alone.
# At 8 bytes an element this keeps each transient array at 32 KiB.
_PAIR_CHUNK = 1 << 12


def _batched(lo: np.ndarray, hi: np.ndarray, reduce) -> np.ndarray:
    """One value per range [lo, hi); -inf for the empty ones.

    The nonempty ranges are expanded into (cube, node) pairs, a run of
    consecutive cubes at a time, and ``reduce(idx, owner, node, starts)``
    gives the run's values: ``idx`` holds the run's cube indices, ``owner``
    and ``node`` each pair's position in the run and its node, and
    ``starts`` where each cube's pairs begin.
    """
    out = np.full(lo.size, NEG_INF)
    sizes = hi - lo
    nonempty = np.flatnonzero(sizes)
    ends = np.cumsum(sizes[nonempty])
    a = 0
    while a < nonempty.size:
        base = int(ends[a - 1]) if a else 0
        b = max(int(np.searchsorted(ends, base + _PAIR_CHUNK, "right")), a + 1)
        idx = nonempty[a:b]
        size = sizes[idx]
        starts = ends[a:b] - size - base
        owner = np.repeat(np.arange(idx.size), size)
        node = np.arange(int(ends[b - 1]) - base) + np.repeat(lo[idx] - starts, size)
        out[idx] = reduce(idx, owner, node, starts)
        a = b
    return out


def _seg_max(vals: np.ndarray, starts: np.ndarray, owner: np.ndarray) -> np.ndarray:
    return np.maximum.reduceat(vals, starts)


def _seg_log2_sum(vals: np.ndarray, starts: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """log2 of the sum of 2**vals over each segment (``owner`` numbers the
    segment of every element), max-factored per segment: positive terms only."""
    top = np.maximum.reduceat(vals, starts)
    top[top == NEG_INF] = 0.0  # an all -inf segment sums to 0, so stays -inf
    with np.errstate(divide="ignore"):
        return top + np.log2(np.add.reduceat(np.exp2(vals - top[owner]), starts))


class _FKernel:
    """The F-type expression for fixed parameters, as slope and contents.

    The content of a support node t is the log-sum, over the nodes i of its
    subtree whose shell has positive measure, of mu_i + (p/q) R_i(t), where
    R_i(t) sums the q-th powers of the weights on the chain from i up to t
    (the chain maximum at q = inf).  One sweep over the support depths,
    deepest first, extends every chain by one ancestor per step, so each
    (ancestor, node) pair is touched once and only positive terms are ever
    added: subtracting a prefix of a global chain sum would cancel
    catastrophically on deep towers.  The sweep does one step per support
    depth and O(m) memory.  The tops of any cube's range share one support
    depth, and its content is the log-sum of theirs.
    """

    def __init__(self, geo: _Geometry, s: float, tau: float, p: float, q: float):
        self.geo = geo
        self.slope = tau * geo.dim
        self.p = p
        logw = geo.level_f * (s + geo.dim / 2.0) + geo.log2t
        if q == INF:
            combine, w, power = np.maximum, logw, p
        else:
            combine, w, power = np.logaddexp2, q * logw, p / q
        sdepth = geo.sdepth
        live = np.flatnonzero(geo.mu_log2 > NEG_INF)
        live = live[np.argsort(-sdepth[live], kind="stable")]  # deepest first
        # the live nodes at support depth >= d are live[:active[d]]
        active = np.cumsum(np.bincount(sdepth[live], minlength=1)[::-1])[::-1]
        anc, chain, shell = live.copy(), w[live], geo.mu_log2[live]
        top = np.full(geo.m, NEG_INF)
        total = np.zeros(geo.m)
        for d in range(active.size - 1, -1, -1):
            k = active[d]
            if d + 1 < active.size:  # move the deeper chains up to depth d
                old = active[d + 1]
                up = geo.parent[anc[:old]]
                anc[:old] = up
                chain[:old] = combine(chain[:old], w[up])
            terms = shell[:k] + power * chain[:k]
            np.maximum.at(top, anc[:k], terms)
            np.add.at(total, anc[:k], np.exp2(terms - top[anc[:k]]))
        with np.errstate(divide="ignore"):
            node_content = top + np.log2(total)
        # support nodes ordered by (support depth, depth-first index), so
        # that the tops of a range are one slice
        by_depth = np.argsort(sdepth, kind="stable")
        self.depth_key = sdepth[by_depth] * geo.m + by_depth
        self.node_content = node_content[by_depth]

    def contents(self, lo: np.ndarray, hi: np.ndarray, level: np.ndarray) -> np.ndarray:
        m = self.geo.m
        if m == 0:
            return np.full(lo.size, NEG_INF)
        base = self.geo.sdepth[np.minimum(lo, m - 1)] * m
        key = self.depth_key
        values = self.node_content

        def reduce(idx, owner, node, starts):
            return _seg_log2_sum(values[node], starts, owner)

        tops = _batched(np.searchsorted(key, base + lo), np.searchsorted(key, base + hi), reduce)
        return tops / self.p


class _BKernel:
    """The B-type expression for fixed parameters, as slope and contents.

    The content aggregates the weights inside P per level, by sums of p-th
    powers (p < inf) or maxima (p = inf), then takes the l^q norm of the
    level aggregates.  The inhomogeneous variant drops the levels < 0.  The
    BBMO and CMO contents are this one with other slopes; when p = q the two
    stages collapse into one sum or maximum over all nodes.
    """

    def __init__(
        self, geo: _Geometry, s: float, p: float, q: float, slope: float,
        homogeneous: bool = True,
    ):
        self.geo = geo
        self.slope = slope
        self.p = p
        self.q = q
        self.homogeneous = homogeneous
        logw = geo.level_f * (s + geo.dim / 2.0) + geo.log2t
        self.z = logw if p == INF else p * logw + geo.log2vol

    def contents(self, lo: np.ndarray, hi: np.ndarray, level: np.ndarray) -> np.ndarray:
        geo, p, q = self.geo, self.p, self.q
        per_level = _seg_max if p == INF else _seg_log2_sum
        p_root = 1.0 if p == INF else p  # log2 of an l^p norm: power sum / p
        width = geo.depth + 1
        cut = np.maximum(level, 0) if not self.homogeneous and (level < 0).any() else None

        def reduce(idx, owner, node, starts):
            vals, lev = self.z[node], geo.level[node]
            if cut is not None:
                vals[lev < cut[idx][owner]] = NEG_INF
            if p == q:
                return per_level(vals, starts, owner) / p_root
            # group each cube's pairs by level; stable, so that a group keeps
            # the depth-first order of its nodes
            key = owner * width + (lev - geo.min_level)
            order = np.argsort(key, kind="stable")
            key, vals, owner = key[order], vals[order], owner[order]
            first = np.flatnonzero(np.diff(key, prepend=-1))
            if first.size < key.size:  # some level holds several nodes
                group = np.repeat(np.arange(first.size), np.diff(first, append=key.size))
                vals, owner = per_level(vals, first, group), owner[first]
            agg = vals / p_root
            starts = np.flatnonzero(np.diff(owner, prepend=-1))
            if q == INF:
                return _seg_max(agg, starts, owner)
            return _seg_log2_sum(q * agg, starts, owner) / q

        return _batched(lo, hi, reduce)


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

    The contents of all candidates come from one batched kernel call; each
    serves the chain gap above its candidate too.  On a gap the value
    ``slope * l + content`` is monotone in the level l (float rounding is
    monotone as well), so the gap's supremum sits at its coarsest level when
    slope <= 0.  When slope > 0 it sits at the
    finest level, and bisection finds the coarsest gap level that rounds to
    the same value, which the tie rule prefers.
    """
    cand, lo, hi, level, gap_lo = geo.candidates(homogeneous)
    content = kern.contents(lo, hi, level)
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
    kern = _BKernel(geo, s, p, q, tau * geo.dim, params.homogeneous)
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
    slope = 0.0 if q == INF else r * geo.dim / q
    return _supremum(geo, _BKernel(geo, s, q, q, slope))


def bbmo_norm(t: CubeSequence, s: float, p: float, q: float) -> NormValue:
    """Besov-flavoured BMO norm: per-level averages over P, then an l^q sum.

    Must agree with the B-type norm at Morrey exponent 1/p.  The per-level
    average over P is 2**(n l) times the level sum; its factor 2**(n l / p)
    is the slope, which leaves the B-type content.
    """
    s, p, q = float(s), float(p), float(q)
    if not p > 0 or not q > 0:
        raise ParamError(f"p and q must be positive, got p={p}, q={q}")
    geo = t.geometry
    slope = 0.0 if p == INF else geo.dim / p
    return _supremum(geo, _BKernel(geo, s, p, q, slope))


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
        kern = _BKernel(geo, s, p, q, tau * geo.dim, params.homogeneous)
    else:
        raise ParamError(f"candidate_value supports F/B families, got {params.family}")
    lo, hi, level = (np.array([x]) for x in (*span, region.level))
    return float(kern.slope * region.level + kern.contents(lo, hi, level)[0])


# ---------------------------------------------------------------------------
# JSON Lines interchange
# ---------------------------------------------------------------------------
#
# Python refuses int <-> decimal string conversions beyond a digit limit
# (4300 by default), and the index of a cube at level 20000 has about 6000
# digits.  Such integers are converted in pieces, which leaves the
# process-wide limit alone.

_DIGITS = 4000  # decimal digits per piece
_PIECE = 10**_DIGITS
_SAFE_BITS = 13000  # at most 3914 digits: converted in one piece


def int_to_decimal(k: int) -> str:
    """Decimal text of an integer of any size."""
    if k < 0:
        return "-" + int_to_decimal(-k)
    pieces = []
    while k >= _PIECE:
        k, r = divmod(k, _PIECE)
        pieces.append(str(r).zfill(_DIGITS))
    pieces.append(str(k))
    return "".join(reversed(pieces))


def decimal_to_int(text: str) -> int:
    """The integer of a decimal text of any length."""
    digits = text.lstrip("+-")
    value = 0
    for i in range(0, len(digits), _DIGITS):
        piece = digits[i : i + _DIGITS]
        value = value * 10 ** len(piece) + int(piece)
    return -value if text.startswith("-") else value


def json_dumps(obj, **kwargs) -> str:
    """``json.dumps`` that also writes integers of any size."""
    try:
        return json.dumps(obj, **kwargs)
    except ValueError:  # an integer beyond the limit, or raised again below
        pass
    big: list[int] = []

    def swap(o):
        if isinstance(o, dict):
            return {k: swap(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [swap(v) for v in o]
        if isinstance(o, int) and o.bit_length() > _SAFE_BITS:
            big.append(o)
            return f"\0{len(big) - 1}"  # a NUL cannot occur in a real string here
        return o

    text = json.dumps(swap(obj), **kwargs)
    if big:
        text = re.sub(r'"\\u0000(\d+)"', lambda m: int_to_decimal(big[int(m[1])]), text)
    return text


def _json_loads(line: str):
    # a line this short holds no integer beyond the digit limit
    if len(line) <= _SAFE_BITS // 4:
        return json.loads(line)
    return json.loads(line, parse_int=decimal_to_int)


def save_jsonl(t: CubeSequence, path: str | Path) -> None:
    """Write header + one record per cube; log2 magnitudes round-trip exactly."""
    root = t.root
    lines = [
        json_dumps(
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
            json_dumps(
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
        header = _json_loads(lines[0])
        dim = int(header["dim"])
        root = DyadicCube(dim, int(header["root"]["j"]), tuple(header["root"]["k"]))
        depth = int(header["depth"])
        log2_values: dict[DyadicCube, float] = {}
        seen: set[DyadicCube] = set()
        for ln in lines[1:]:
            rec = _json_loads(ln)
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
