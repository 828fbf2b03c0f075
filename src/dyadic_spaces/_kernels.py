"""Norm evaluation kernels over a compiled ``Geometry``.

A kernel splits the value of the outer supremum at a cube P of level l into
``slope * l + content``, where the content depends on P through the
depth-first range [lo, hi) of the support nodes inside P (and on l only
through the inhomogeneous level-0 cut).  Along a chain gap the range is
fixed and no support level lies between the gap's levels, so the content is
constant there and the value is monotone in the level.

``contents(lo, hi, level)`` evaluates a batch of cubes in one vectorised
pass, in which each (cube, support node inside it) pair is one array
element.  The work is proportional to the pairs, about m log m on saturated
trees and m**2 / 2 on towers, and never to m times the number of levels.
"""
from __future__ import annotations

import numpy as np

from ._geometry import Geometry
from ._log2 import INF, NEG_INF

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

    def __init__(self, geo: Geometry, s: float, tau: float, p: float, q: float):
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
        self, geo: Geometry, s: float, p: float, q: float, slope: float,
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
