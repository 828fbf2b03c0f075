"""Morton keys and the compiled support geometry of coefficient sequences.

A support node's key is its path from the root as a Z-order code: the child
codes from the root down, most significant first, dimension 0 in the lowest
bit of each.  ``morton_paths`` builds the paths of indices, and
``depth_first`` shifts paths to one common width, the depth of the deepest
record, so that sorting by (key, depth) gives the depth-first order; given a
segment number per record, one sort orders the records of many sequences,
segment by segment.  Both take lists or int64 arrays.

``Geometry`` compiles the sorted keys into the candidate tree of the norm
suprema, from a list of sequences or from the sorted arrays of a forest
(``Geometry.from_sorted``).  The tree is integer arrays of node indices and
levels; ``Geometry.cube`` decodes a cube from a node's key on demand, and no
other module reads a key.  The path building, the sort and the compile
each have two branches that give the same result, and each chooses its own:
a Python one for keys of any width, and a numpy one on int64 arrays
(``_morton_paths_int64``, ``_depth_first_int64``, ``_compile_arrays``),
taken when the keys fit in a machine word from ``_NUMPY_SHELLS`` records up
(``_NUMPY_COMPILE`` nodes up for the compile).  This module is the only
place that makes that choice.
"""
from __future__ import annotations

import math
import operator
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Sequence

import numpy as np

from ._log2 import NEG_INF
from .dyadic import DyadicCube


# Below this many nodes, numpy's fixed set-up costs more than a Python loop:
# smaller inputs build their paths, sort and sum their shell measures in
# Python alone.
_NUMPY_SHELLS = 40
# The array compile costs about 0.1-0.2 ms whatever the size, and overtakes
# the stack pass at about 128 nodes.
_NUMPY_COMPILE = 128
# Leaf chains shorter than this are left to the kernels' pair expansion and
# depth sweep.  On a lone tower the pass along the chain wins from 8 nodes
# on.  In a forest of 4096 nodes of equal towers it costs a Python loop per
# chain: the B pass wins from about 12 nodes at p != q and 24 at p = q,
# while the depth sweep, vectorised across the towers, keeps F at q = inf
# ahead of the Python stack past 64 nodes (1.6 against 2.9 ms at 32).
_MIN_CHAIN = 32


@lru_cache(maxsize=None)
def spread_table(dim: int) -> tuple[list[int], list[bytes]]:
    """Every byte with its bit b moved to bit dim * b, as ints and as
    dim-byte little-endian strings."""
    spread = [0]
    for b in range(1, 256):
        spread.append(spread[b >> 1] << dim | b & 1)
    return spread, [x.to_bytes(dim, "little") for x in spread]


def spread(x: int, dim: int) -> int:
    """x >= 0 with its bit b moved to bit dim * b."""
    ints, pieces = spread_table(dim)
    if x < 256:
        return ints[x]
    raw = x.to_bytes((x.bit_length() + 7) // 8, "little")
    return int.from_bytes(b"".join([pieces[b] for b in raw]), "little")


def _ints(x):
    """Python ints of an int64 array (numpy scalars would wrap on a wide
    shift); a list or range as it is."""
    return x.tolist() if isinstance(x, np.ndarray) else x


def _int64(x) -> np.ndarray:
    """An int64 array of an array, list or range (``np.fromiter`` converts
    the last two faster than ``np.asarray``)."""
    if isinstance(x, np.ndarray):
        return x.astype(np.int64, copy=False)
    return np.fromiter(x, np.int64, len(x))


def morton_paths(
    root: DyadicCube, indices: Sequence[Sequence[int]], depth: Sequence[int]
) -> Sequence[int] | None:
    """The Z-order path of every index at its depth below the root; None when
    an index does not lie under the root.  ``indices`` and ``depth`` may be
    lists or int64 arrays, of shapes (m, dim) and (m,).  From
    ``_NUMPY_SHELLS`` records up, paths of at most 62 bits under a root
    whose index fits in 62 bits take ``_morton_paths_int64`` and come back
    as an int64 array, unless an index is past int64; any other records
    take Python ints."""
    n, m = root.dim, len(depth)
    if (m >= _NUMPY_SHELLS and n * int(np.max(depth, initial=0)) <= 62
            and not max(map(abs, root.index)) >> 62):
        try:
            indices64 = np.asarray(indices, dtype=np.int64).reshape(m, n)
        except OverflowError:  # an index past int64
            pass
        else:
            return _morton_paths_int64(root, indices64, _int64(depth))
    indices, depth = _ints(indices), _ints(depth)
    path = [0] * m
    for axis, r in enumerate(root.index):  # one axis at a time
        rel = [k[axis] - (r << d) for k, d in zip(indices, depth)]
        if any(map(operator.rshift, rel, depth)):  # rel < 0 or rel >= 2**d
            return None
        if n > 1:
            table = spread_table(n)[0]
            rel = [(table[x] if x < 256 else spread(x, n)) << axis for x in rel]
        path = list(map(operator.or_, path, rel))
    return path


def _morton_paths_int64(
    root: DyadicCube, indices: np.ndarray, depth: np.ndarray
) -> np.ndarray | None:
    """``morton_paths`` on int64 arrays: indices of shape (m, dim) at depths
    0..D with dim * D <= 62, under a root whose index fits in 62 bits.  Each
    axis is spread a byte at a time through ``spread_table``."""
    n = root.dim
    path = np.zeros(depth.size, dtype=np.int64)
    table = np.array(spread_table(n)[0], dtype=np.int64)
    nbytes = (int(depth.max(initial=0)) + 7) // 8
    for axis, r in enumerate(root.index):
        k = indices[:, axis]
        if not (k >> depth == r).all():  # 0 <= k - (r << d) < 2**d fails
            return None
        rel = k & ((np.int64(1) << depth) - 1)
        if n == 1:
            return rel
        for b in range(nbytes):
            path |= table[rel >> 8 * b & 255] << n * 8 * b + axis
    return path


def depth_first(
    root: DyadicCube, paths: Sequence[int], depths: Sequence[int], keep: np.ndarray,
    segment: Sequence[int] | None = None,
) -> tuple[int, list[int], list[int], Sequence[int]]:
    """Records given as Z-order paths below the root, in depth-first order.

    One sort by (key, depth), the keys as wide as the deepest record; a
    duplicate shows as two equal neighbours and raises ValueError.  The
    records where ``keep`` is false are then dropped and the keys narrowed
    to the deepest record kept.  Returns that width, the keys and depths of
    the records kept, and their input positions (an int64 array from the
    int64 sort, a list otherwise; either indexes an array).  Given a
    ``segment`` number per record, the sort is by (segment, key, depth):
    one sort for the records of many sequences, each sequence a segment in
    its own depth-first order, their keys as wide as the deepest of all.  The
    paths, depths and segments may be lists or int64 arrays.  From
    ``_NUMPY_SHELLS`` records up, (segment, key, depth) triples that fit in
    62 bits take ``_depth_first_int64``, with the same result."""
    n, m = root.dim, len(depths)
    D = int(depths.max(initial=0)) if isinstance(depths, np.ndarray) else max(depths, default=0)
    shift = D.bit_length()  # a pair is key << shift | depth
    low = n * D + shift  # a triple is segment << low | pair
    top = 0 if segment is None else int(max(segment, default=0)).bit_length()
    if m >= _NUMPY_SHELLS and top + low <= 62:
        return _depth_first_int64(
            root, _int64(paths), _int64(depths), keep, D, shift,
            None if segment is None else _int64(segment),
        )
    paths, depths, segment = _ints(paths), _ints(depths), _ints(segment)
    pair = [p << (n * (D - d) + shift) | d for p, d in zip(paths, depths)]
    if segment is not None:
        pair = [s << low | x for s, x in zip(segment, pair)]
    order = sorted(range(m), key=pair.__getitem__)
    pair = [pair[i] for i in order]
    if any(map(operator.eq, pair, pair[1:])):
        dup = next(x for x, y in zip(pair, pair[1:]) if x == y)
        raise _duplicate(root, D, shift, dup & (1 << low) - 1)
    if not keep.all():
        keep = keep.tolist()
        kept = [t for t, i in enumerate(order) if keep[i]]
        order, pair = [order[t] for t in kept], [pair[t] for t in kept]
        width = max([depths[i] for i in order], default=0)
        shift, D = shift + n * (D - width), width
    if segment is not None:
        mask = (1 << n * D) - 1
        return D, [x >> shift & mask for x in pair], [depths[i] for i in order], order
    return D, [x >> shift for x in pair], [depths[i] for i in order], order


def _depth_first_int64(root, paths, depth, keep, D, shift, segment=None):
    """``depth_first`` on int64 arrays of paths, depths and segments, the
    triples as one int64 array: one argsort."""
    n = root.dim
    low = n * D + shift
    pair = paths << n * (D - depth) + shift | depth
    if segment is not None:
        pair |= segment << low
    order = np.argsort(pair, kind="stable")
    pair = pair[order]
    dup = np.flatnonzero(pair[1:] == pair[:-1])
    if dup.size:
        raise _duplicate(root, D, shift, int(pair[dup[0]]) & (1 << low) - 1)
    if not keep.all():
        kept = keep[order]
        order, pair = order[kept], pair[kept]
        width = int(depth[order].max(initial=0))
        shift, D = shift + n * (D - width), width
    key = pair >> shift
    if segment is not None:
        key &= (1 << n * D) - 1
    return D, key.tolist(), depth[order].tolist(), order


def _duplicate(root: DyadicCube, width: int, shift: int, pair: int) -> ValueError:
    """The error for a record given twice, from its (key, depth) pair."""
    cube = key_cube(root, width, pair >> shift, root.level + (pair & (1 << shift) - 1))
    return ValueError(f"duplicate record for {cube}")


def _unspread(code: int, d: int, n: int) -> tuple[int, ...]:
    """The n axes of a Z-order code d levels long."""
    bits = format(code, f"0{d * n}b") if d else ""
    return tuple(int(bits[n - 1 - i :: n] or "0", 2) for i in range(n))


def key_cube(root: DyadicCube, width: int, key: int, level: int) -> DyadicCube:
    """The cube at ``level`` on the path from the root to a node whose key
    is ``key``, the keys being ``width`` levels wide."""
    n = root.dim
    d = level - root.level
    code = key >> n * (width - d)
    rel = (code,) if n == 1 else _unspread(code, d, n)
    return DyadicCube(n, level, tuple((r << d) + k for r, k in zip(root.index, rel)))


def key_indices(
    root: DyadicCube, width: int, key: Sequence[int], depth: Sequence[int]
) -> list[tuple[int, ...]]:
    """The index of every node from its key and depth below the root, the
    keys being ``width`` levels wide: the inverse of ``morton_paths``."""
    n = root.dim
    code = list(map(operator.rshift, key, [n * (width - d) for d in depth]))
    if n == 1:
        rel = [code]
    else:
        rel = list(zip(*map(_unspread, code, depth, repeat(n)))) or [[]] * n
    axes = [
        list(map(operator.add, [r << d for d in depth], x)) for r, x in zip(root.index, rel)
    ]
    return list(zip(*axes))


class Geometry:
    """Compiled support geometry of a forest: one or more sequences under
    one root, each a segment, evaluated together by every norm kernel.

    Support nodes are kept in depth-first order, as ``CubeSequence`` stores
    them, one segment after another.  Each node has a Morton key: its path
    from the root as a Z-order code, shifted left to the full width of
    ``depth * dim`` bits (``depth`` is that of the deepest record in the
    forest), so that sorting a segment by (key, node depth) gives its
    depth-first order and a node's subtree is a contiguous range.  Segment s
    holds the nodes ``[seg_lo[s], seg_lo[s + 1])`` and the candidates
    ``[seg_cand[s], seg_cand[s + 1])``.

    The candidate set for the outer supremum of a segment is the root, its
    support nodes and its branch points (cubes whose children lead to two or
    more support subtrees), at most 2m cubes.  Every other dyadic subcube of
    the root that contains support lies in a chain gap: strictly between a
    candidate and its nearest candidate ancestor, with exactly the support
    of the candidate below it.  Candidates are stored as integer arrays
    (``cand_level``, ``cand_lo``, ``cand_hi``), with ``gap_lo`` the coarsest
    level of the gap above each candidate; the gap ends just above the
    candidate's own level.  A candidate, and every cube of its gap, is the
    cube at its level on the path to its first node ``cand_lo``, which
    ``cube`` decodes: the keys are read nowhere else.

    A leaf chain is a run of nodes, consecutive in depth-first order, each
    the only support child of the one before, that ends at a leaf; each of
    its nodes' subtrees is a suffix of the run.  ``chains`` holds the maximal
    ones of at least ``_MIN_CHAIN`` nodes, which the kernels evaluate in one
    pass each.
    """

    def __init__(
        self, root: DyadicCube,
        segments: Sequence[tuple[int, list[int], list[int], np.ndarray]],
    ):
        """``segments`` holds the (key width, keys, depths, log2 magnitudes)
        of each sequence, in depth-first order; they are concatenated into
        the form ``from_sorted`` takes, the keys widened to the deepest."""
        n = root.dim
        width = max(w for w, *_ in segments)
        if len(segments) == 1:
            _, key, node_depth, log2t = segments[0]
        else:
            key = [k << n * (width - w) for w, keys, *_ in segments for k in keys]
            node_depth = [d for _, _, depth, _ in segments for d in depth]
            log2t = np.concatenate([t for *_, t in segments])
        seg_lo = np.cumsum([0] + [len(keys) for _, keys, *_ in segments])
        self._build(root, width, key, node_depth, log2t, seg_lo)

    @classmethod
    def from_sorted(
        cls, root: DyadicCube, width: int, key: list[int], node_depth: list[int],
        log2t: np.ndarray, seg_lo: np.ndarray,
    ) -> "Geometry":
        """The geometry of nodes already in depth-first order, segment by
        segment: their keys, all ``width`` levels wide, depths and log2
        magnitudes, segment s holding the nodes ``[seg_lo[s], seg_lo[s + 1])``."""
        geo = cls.__new__(cls)
        geo._build(root, width, key, node_depth, log2t, seg_lo)
        return geo

    def _build(self, root, width, key, node_depth, log2t, seg_lo) -> None:
        self.root = root
        self.dim = root.dim
        j0 = self.min_level = root.level
        self.depth, self.key, self.node_depth, self.log2t = width, key, node_depth, log2t
        self.m = len(key)
        self.seg_lo = seg_lo
        self.level = np.array(node_depth, dtype=np.int64) + j0
        self.max_level = int(self.level.max()) if self.m else j0
        self.level_f = self.level.astype(float)
        self.log2vol = -self.level_f * self.dim
        self._compile()
        self.mu_log2 = self._shell_measures()

    def _compile(self) -> None:
        """The support parent and support depth (the number of support
        ancestors) of every node, and the compressed candidate tree, whose
        ranges [lo, hi) end each candidate's subtree.  Each segment starts
        at a root candidate of its own; a segment's candidates follow in
        depth-first order, each branch point just before the node whose
        arrival reveals it.  A branch point is the lowest common ancestor
        (LCA) of two depth-first-adjacent nodes, found from the bit length
        of their key XOR.

        Geometries of at least ``_NUMPY_COMPILE`` nodes whose (segment, key,
        depth) triples pack into an int64 take the array pass; every other
        geometry, and wide keys in particular, the stack pass.  Both give
        the same arrays."""
        nD = self.dim * self.depth
        packed = (len(self.seg_lo) - 1).bit_length() + nD + self.depth.bit_length()
        if self.m >= _NUMPY_COMPILE and nD <= 52 and packed <= 62:
            self._compile_arrays()
        else:
            self._compile_stack()

    def _compile_stack(self) -> None:
        """One stack pass over the depth-first keys of each segment, any key
        width: the stack holds the candidate chain above the last node."""
        n, m, D = self.dim, self.m, self.depth
        keys, depth = self.key, self.node_depth
        parent = [-1] * m
        sdepth = [0] * m + [-1]  # the entry at index -1 serves the parentless
        c_depth, c_lo, c_hi, c_up, seg_cand = [], [], [], [], []
        for a, b in zip(self.seg_lo.tolist(), self.seg_lo[1:].tolist()):
            seg_cand.append(len(c_depth))
            c_depth.append(0)
            c_lo.append(a)
            c_hi.append(b)
            c_up.append(-1)
            root_node = a < b and depth[a] == 0  # is the root a support node?
            # stack entries: (candidate, depth, key, nearest support node at
            # or above); they form the candidate chain above the last node
            stack = [(seg_cand[-1], 0, 0, a if root_node else -1)]
            for i in range(a + root_node, b):
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
                        c_lo.append(c_lo[last[0]])
                        c_hi.append(b)
                        c_up.append(-1)
                        c_up[last[0]] = cid
                        stack.append((cid, lca, bkey, stack[-1][3]))
                parent[i] = par = stack[-1][3]
                sdepth[i] = sdepth[par] + 1
                c_up.append(-1)
                c_hi.append(b)
                c_lo.append(i)
                c_depth.append(d)
                stack.append((len(c_depth) - 1, d, k, i))
            for below, above in zip(stack, stack[1:]):
                c_up[above[0]] = below[0]
        seg_cand.append(len(c_depth))
        self.seg_cand = np.array(seg_cand, dtype=np.int64)
        self.parent = np.array(parent, dtype=np.int64)
        self.sdepth = np.array(sdepth[:m], dtype=np.int64)
        self.cand_level = np.array(c_depth, dtype=np.int64) + self.min_level
        self.cand_lo = np.array(c_lo, dtype=np.int64)
        self.cand_hi = np.array(c_hi, dtype=np.int64)
        up = np.array(c_up, dtype=np.int64)
        self.gap_lo = np.where(up >= 0, self.cand_level[up] + 1, self.cand_level)

    def _compile_arrays(self) -> None:
        """The stack pass's arrays from sorted int64 arrays, for keys of at
        most 52 bits (so a float holds their XOR exactly) that pack with
        their segment and depth into 62 bits.

        P packs each node as (segment, key, depth); the nodes are stored in
        that order, so P is sorted, and the support nodes inside a cube are
        the range of P between two searchsorted bounds.  L[i] is the depth
        of the LCA of nodes i - 1 and i, 0 at segment edges.  The pair
        reveals a branch point at depth L when 0 < L and node i - 1 lies
        deeper than L, unless a support node sits there; a branch point
        revealed by several pairs is kept at the first.  A candidate's
        nearest candidate ancestor is the deeper of its LCAs with the nodes
        just outside its range, at depth max(L[lo], L[hi]).  A node's
        support depth is the number of node ranges covering it, less its
        own, and its support parent the last earlier node one support depth
        up.  (LCAs from preorder neighbours follow Bender and Farach-Colton,
        "The LCA Problem Revisited", LATIN 2000.)"""
        n, m, D, j0 = self.dim, self.m, self.depth, self.min_level
        nD, b = n * D, D.bit_length()
        seg_lo = self.seg_lo
        nseg = seg_lo.size - 1
        key = np.fromiter(self.key, np.int64, m)
        depth = self.level - j0
        base = np.repeat(np.arange(nseg, dtype=np.int64), np.diff(seg_lo)) << nD | key
        P = base << b | depth

        def end(base, depth):  # the end of the nodes inside each cube
            return np.searchsorted(P, (base + (np.int64(1) << n * (D - depth))) << b)

        end_n = end(base, depth)
        L = np.zeros(m + 1, dtype=np.int64)
        bits = np.frexp((key[1:] ^ key[:-1]).astype(float))[1]
        L[1:m] = np.minimum(np.minimum(depth[1:], depth[:-1]), (nD - bits) // n)
        L[seg_lo] = 0

        # branch points: each where its first pair reveals it, and none
        # where a support node sits
        pair = np.flatnonzero((L[1:m] > 0) & (L[1:m] < depth[:-1])) + 1
        depth_b = L[pair]
        shift = n * (D - depth_b)
        base_b = base[pair] >> shift << shift
        start = base_b << b | depth_b
        lo_b = np.searchsorted(P, start)
        new = np.flatnonzero(P[lo_b] != start)
        start = start[new]
        by = np.argsort(start, kind="stable")
        first = np.ones(new.size, dtype=bool)
        first[by[1:]] = np.diff(start[by]) != 0
        new = new[first]
        pair, depth_b, base_b, lo_b = (x[new] for x in (pair, depth_b, base_b, lo_b))

        # the segment roots, branch points and nodes (but a segment's root
        # node), ordered at each node index root, branch point, node
        node = np.flatnonzero(depth > 0)
        lo = np.concatenate([lo_b, node])
        hi = np.concatenate([end(base_b, depth_b), end_n[node]])
        order = np.argsort(np.concatenate([3 * seg_lo[:-1], 3 * pair + 1, 3 * node + 2]),
                           kind="stable")
        nil = np.zeros(nseg, dtype=np.int64)
        self.seg_cand = np.append(np.flatnonzero(order < nseg), order.size)
        self.cand_level = np.concatenate([nil, depth_b, depth[node]])[order] + j0
        self.cand_lo = np.concatenate([seg_lo[:-1], lo])[order]
        self.cand_hi = np.concatenate([seg_lo[1:], hi])[order]
        gap = np.concatenate([nil - 1, np.maximum(L[lo], L[hi])])[order] + 1
        self.gap_lo = gap + j0

        # support depths by interval cover, support parents by (sdepth, index)
        closed = np.cumsum(np.bincount(end_n, minlength=m + 1))[:m]  # ranges ended by i
        sdepth = self.sdepth = np.arange(m) - closed
        ib = m.bit_length()
        by = np.argsort(sdepth, kind="stable")
        rank = sdepth[by] << ib | by
        up = rank[np.searchsorted(rank, (sdepth - 1) << ib | np.arange(m)) - 1]
        self.parent = np.where(sdepth > 0, up & (1 << ib) - 1, -1)

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

    @cached_property
    def chains(self) -> tuple[np.ndarray, np.ndarray]:
        """The first nodes and the ends of the maximal leaf chains of at
        least ``_MIN_CHAIN`` nodes, in depth-first order.  A chain of that
        length needs as many support depths, so a geometry with fewer has
        none, which one maximum finds before any other pass."""
        none = np.zeros(0, dtype=np.int64)
        if self.m == 0 or self.sdepth.max() + 1 < _MIN_CHAIN:
            return none, none
        children = np.bincount(self.parent[self.parent >= 0], minlength=self.m)
        # a one-child node's child is the node after it; every other node
        # ends a run of one-child nodes, a leaf chain when it is a leaf
        stop = np.flatnonzero(children != 1)
        start = np.append(0, stop[:-1] + 1)
        run = (children[stop] == 0) & (stop + 1 - start >= _MIN_CHAIN)
        return start[run], stop[run] + 1

    def in_chain(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Whether each range [lo, hi) is a nonempty suffix of a leaf chain
        in ``chains``: a chain node and every node below it."""
        first, end = self.chains
        if not first.size:
            return np.zeros(lo.size, dtype=bool)
        run = np.maximum(np.searchsorted(first, lo, "right") - 1, 0)
        return (lo < hi) & (lo >= first[run]) & (hi == end[run])

    def _shell_measures(self) -> np.ndarray:
        """log2 of each node's volume minus the volume of its support
        children, exact at the finest child's scale.

        With top the largest child shift of a parent, rest = 2**top minus a
        term 2**(top - shift) per child, and the terms sum to at most
        2**top.  Up to top = 52 every term and partial sum is an integer
        below 2**53, exact in float64 in any order, so those parents are
        summed in numpy; wider parents, and every parent of a geometry too
        small for numpy's set-up to pay off, take Python integers.
        ``math.log2`` takes the log either way."""
        n, m = self.dim, self.m
        mu = self.log2vol.copy()
        if m < _NUMPY_SHELLS:
            depth = self.node_depth
            links = [(p, n * (depth[c] - depth[p]))
                     for c, p in enumerate(self.parent.tolist()) if p >= 0]
        else:
            child = np.flatnonzero(self.parent >= 0)
            par = self.parent[child]
            shift = n * (self.level[child] - self.level[par])
            top = np.zeros(m, dtype=np.int64)
            np.maximum.at(top, par, shift)
            narrow = top[par] <= 52
            pn, sn = par[narrow], shift[narrow]
            rest = np.ldexp(1.0, np.minimum(top, 52)) - np.bincount(
                pn, np.ldexp(1.0, top[pn] - sn), m
            )
            parents = np.flatnonzero((top > 0) & (top <= 52))
            full = rest[parents] > 0
            mu[parents[~full]] = NEG_INF
            parents = parents[full]
            logs = np.fromiter(map(math.log2, rest[parents].tolist()), float, parents.size)
            mu[parents] = logs - top[parents] + mu[parents]
            links = zip(par[~narrow].tolist(), shift[~narrow].tolist())
        shifts: dict[int, list[int]] = {}
        for p, sh in links:
            shifts.setdefault(p, []).append(sh)
        for p, sh in shifts.items():
            t = max(sh)
            r = (1 << t) - sum(1 << (t - s) for s in sh)
            mu[p] = math.log2(r) - t + mu[p] if r > 0 else NEG_INF
        return mu

    def log2_weights(self, s: float) -> np.ndarray:
        """log2 of |Q|**(-s/n - 1/2) |t_Q| at every node: the weight that
        every norm family gives a coefficient before it aggregates."""
        return self.level_f * (s + self.dim / 2.0) + self.log2t

    def cube(self, node: int, level: int) -> DyadicCube:
        """The cube at ``level`` on the path from the root to ``node``.  At
        the root's level that is the root, whatever the node: the root
        candidate of an empty segment starts past its nodes."""
        if level == self.min_level:
            return self.root
        return key_cube(self.root, self.depth, self.key[node], level)
