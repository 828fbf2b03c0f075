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
trees, and never to m times the number of levels.

A range that is a suffix of a long leaf chain (``Geometry.chains``) holds
one node per level, so it needs no pairs: the B, BBMO and CMO contents of
every suffix of a chain come from one accumulate along it, from the leaf
up, and the F contents at q = inf from one stack of prefix maxima along it
(the all-nearest-smaller-values stack of Berkman, Schieber and Vishkin, J.
Algorithms, 1993).  A tower, one chain, then costs O(m) in these kernels,
where pairs would number m**2 / 2; F at finite q still sweeps its chains.
Each pass depends on its own chain alone, so a sequence in a forest gets
the bits it gets alone.
"""
from __future__ import annotations

import math

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


_LOG2_E = 1.0 / math.log(2.0)


def _log2_add(a: float, b: float) -> float:
    """log2(2**a + 2**b), two positive terms."""
    if a < b:
        a, b = b, a
    return a if b == NEG_INF else a + math.log1p(2.0 ** (b - a)) * _LOG2_E


def _chain_stack(w: list[float], mu: list[float], p: float) -> tuple[list[float], list]:
    """F contents at q = inf of every node t of a leaf chain, the log-sum
    over the nodes i at or below t of mu_i + p * max(w_t..w_i), and the
    blocks left at the top.

    Walking up from the leaf, the nodes below t fall into blocks of equal
    prefix maximum W, which grows toward the leaf; a block holds W, the
    log-sum of its mu and ``cum``, the log-sum of p W + mass over it and
    every block below.  Node t absorbs each block with W <= w_t, pushes one
    block for w_t, and its content is that block's ``cum``: every node is
    pushed and popped once, and only positive terms are added."""
    out = [0.0] * len(w)
    blocks: list[tuple[float, float, float]] = []
    for t in range(len(w) - 1, -1, -1):
        W, mass = w[t], mu[t]
        while blocks and blocks[-1][0] <= W:
            mass = _log2_add(mass, blocks.pop()[1])
        out[t] = cum = _log2_add(p * W + mass, blocks[-1][2] if blocks else NEG_INF)
        blocks.append((W, mass, cum))
    return out, blocks


def _sweep(geo: Geometry, anc, chain, shell, entry, w, combine, power) -> np.ndarray:
    """The content of every node from the rows of the F sweep.

    A row enters at support depth ``entry`` at node ``anc``, with the chain
    value ``chain`` accumulated up to that node and the log2 measure
    ``shell`` of its shell (or block of shells).  One step per support
    depth, deepest first, moves every row that entered below the step's
    depth up one ancestor, so each (ancestor, row) pair is touched once."""
    order = np.argsort(-entry, kind="stable")  # deepest first
    anc, chain, shell = anc[order], chain[order], shell[order]
    # the rows entering at support depth >= d are the first active[d]
    active = np.cumsum(np.bincount(entry, minlength=1)[::-1])[::-1]
    top = np.full(geo.m, NEG_INF)
    total = np.zeros(geo.m)
    for d in range(active.size - 1, -1, -1):
        k = active[d]
        if d + 1 < active.size:  # move the deeper rows up to depth d
            old = active[d + 1]
            up = geo.parent[anc[:old]]
            anc[:old] = up
            chain[:old] = combine(chain[:old], w[up])
        terms = shell[:k] + power * chain[:k]
        np.maximum.at(top, anc[:k], terms)
        np.add.at(total, anc[:k], np.exp2(terms - top[anc[:k]]))
    with np.errstate(divide="ignore"):
        return top + np.log2(total)


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

    At q = inf the nodes of each leaf chain take ``_chain_stack`` instead,
    and the blocks left at the chain's top enter the sweep at the top's
    parent as rows, each with its prefix maximum W for chain value, so the
    nodes above get the same terms; a chain whose top has no parent, as a
    tower, leaves the sweep nothing.
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
        sdepth, mu = geo.sdepth, geo.mu_log2
        live = mu > NEG_INF
        chains = zip(*(x.tolist() for x in geo.chains)) if q == INF else ()
        chained, up, block_w, block_mu = {}, [], [], []
        for a, b in chains:
            live[a:b] = False
            chained[a], blocks = _chain_stack(w[a:b].tolist(), mu[a:b].tolist(), p)
            above = int(geo.parent[a])
            if above >= 0:  # a chain node's shell is never empty: every block is live
                for W, mass, _ in blocks:
                    up.append(above)
                    block_w.append(max(W, w[above]))
                    block_mu.append(mass)
        rows = np.flatnonzero(live)
        anc = np.concatenate([rows, np.array(up, dtype=np.int64)])
        if anc.size:
            node_content = _sweep(
                geo, anc, np.concatenate([w[rows], block_w]),
                np.concatenate([mu[rows], block_mu]), sdepth[anc], w, combine, power,
            )
        else:
            node_content = np.full(geo.m, NEG_INF)
        for a, values in chained.items():
            node_content[a : a + len(values)] = values
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

    On a suffix of a leaf chain each level holds one node, whose aggregate
    is its own z / p; the content of every suffix of the chain is then one
    suffix log-sum (a maximum at q = inf) of q z / p, read from ``suffix``
    wherever no level cut applies.  Every other range expands pairs.
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
        self.suffix = None
        first, end = geo.chains
        if first.size:
            agg = self.z if p in (q, INF) else self.z / p
            terms = agg if q in (p, INF) else q * agg
            accumulate = np.maximum.accumulate if q == INF else np.logaddexp2.accumulate
            self.suffix = np.full(geo.m, NEG_INF)
            for a, b in zip(first.tolist(), end.tolist()):
                self.suffix[a:b] = accumulate(terms[a:b][::-1])[::-1]
            if q < INF:
                self.suffix /= q

    def contents(self, lo: np.ndarray, hi: np.ndarray, level: np.ndarray) -> np.ndarray:
        if self.suffix is None:
            return self._pairs(lo, hi, level)
        chain = self.geo.in_chain(lo, hi)
        if not self.homogeneous:
            chain &= level >= 0
        out = np.empty(lo.size)
        out[chain] = self.suffix[lo[chain]]
        rest = np.flatnonzero(~chain)
        if rest.size:
            out[rest] = self._pairs(lo[rest], hi[rest], level[rest])
        return out

    def _pairs(self, lo: np.ndarray, hi: np.ndarray, level: np.ndarray) -> np.ndarray:
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
